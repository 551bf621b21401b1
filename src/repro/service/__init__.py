"""Multi-reader sharded inventory serving at facility scale.

The paper sizes its protocols against "a large warehouse deployment"; this
package is the production shape of that scenario: one facility, many
ANC-capable readers, a service answering inventory requests.  It composes
the repo's existing layers -- the FCAT protocol, the channel model, the
vectorized kernels, the cached sweep executor and the ``repro.obs``
telemetry -- behind an asyncio HTTP front end:

* :mod:`repro.service.sharding` -- partition the tag population across a
  ring of reader zones and phase the interference graph; every zone
  reader runs FCAT at the paper's frame length.
* :mod:`repro.service.interference` -- map residual overlapping-zone
  concurrency onto the per-slot channel error process.
* :mod:`repro.service.requests` -- the request schema, its content
  address, and the canonical response encoding.
* :mod:`repro.service.core` -- the service: a compute lane for cold
  misses, a byte-bounded response store, the shared result cache, a
  service-lifetime observation.
* :mod:`repro.service.frontend` / :mod:`repro.service.client` -- stdlib
  asyncio HTTP server and client.

Run it: ``python -m repro.service`` (see ``docs/service.md``).

The contract worth stating twice: the response to a request is a pure
function of the request -- same address in, same bytes out, at any
``jobs``, any concurrency, warm or cold.
"""

from repro.service.client import http_get, post_inventory
from repro.service.core import (
    SERVICE_CELL_STRIDE,
    InventoryService,
    ServiceConfig,
)
from repro.service.frontend import MAX_BODY_BYTES, ServiceFrontend
from repro.service.interference import DEFAULT_INTERFERENCE, InterferenceModel
from repro.service.requests import (
    InventoryRequest,
    encode_response,
    request_from_dict,
)
from repro.service.sharding import (
    ShardPlan,
    ZoneShape,
    ZoneShard,
    plan_shards,
)

__all__ = [
    "http_get",
    "post_inventory",
    "SERVICE_CELL_STRIDE",
    "InventoryService",
    "ServiceConfig",
    "MAX_BODY_BYTES",
    "ServiceFrontend",
    "DEFAULT_INTERFERENCE",
    "InterferenceModel",
    "InventoryRequest",
    "encode_response",
    "request_from_dict",
    "ShardPlan",
    "ZoneShape",
    "ZoneShard",
    "plan_shards",
]
