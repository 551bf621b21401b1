"""repro.obs -- metrics, events and run manifests for the simulator.

The observability layer the production-scale executor reports through:

* :mod:`repro.obs.metrics` -- counters, gauges and fixed-bucket histograms
  in a :class:`MetricsRegistry` whose merge is order-independent (so
  per-worker registries fold back into the parent without disturbing the
  parallel == serial guarantee);
* :mod:`repro.obs.events` -- a schema-checked structured event stream
  (slot outcomes, frame boundaries, estimator updates, ANC resolutions,
  cache traffic, executor chunk accounting) with a JSONL sink;
* :mod:`repro.obs.manifest` -- one provenance document per experiment
  invocation: command, git SHA, python/numpy versions, wall time, and the
  config fingerprint (``CellSpec.key()``) plus timing of every sweep cell;
* :mod:`repro.obs.scope` -- the ``with observe(...):`` context manager that
  turns collection on; instrumentation points cost one ``is None`` check
  while disabled;
* :mod:`repro.obs.report` -- text summaries and the CI validator
  (``python -m repro.obs.report metrics.jsonl --manifest manifest.json``).

Usage::

    from repro.obs import observe, write_jsonl

    with observe() as obs:
        run_many(Fcat(lam=2), population, runs=10, seed=7)
    write_jsonl("metrics.jsonl", obs.events)
    print(obs.metrics.snapshot()["counters"]["sessions"])

See ``docs/observability.md`` for the event schema table and overhead
numbers.
"""

from repro.obs.events import (
    EVENT_SCHEMA,
    Event,
    EventSpec,
    EventStream,
    read_jsonl,
    validate_event,
    write_jsonl,
)
from repro.obs.manifest import (
    CellRun,
    MANIFEST_SCHEMA,
    RunManifest,
    build_manifest,
    read_manifest,
    write_manifest,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.scope import Observation, active, observe

# repro.obs.report is deliberately NOT imported here: it is the
# ``python -m repro.obs.report`` entry point, and importing it from the
# package would trigger runpy's double-import RuntimeWarning.  Its API
# (``summarize``, ``render_report``, ``cross_check_manifest``) lives in
# the submodule's own ``__all__``.

__all__ = [
    "EVENT_SCHEMA",
    "Event",
    "EventSpec",
    "EventStream",
    "read_jsonl",
    "validate_event",
    "write_jsonl",
    "CellRun",
    "MANIFEST_SCHEMA",
    "RunManifest",
    "build_manifest",
    "read_manifest",
    "write_manifest",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observation",
    "active",
    "observe",
]
