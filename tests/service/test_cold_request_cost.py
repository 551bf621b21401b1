"""A deterministic cost gate on the cold path: Python calls per request.

Wall-clock budgets flake on a shared machine; the number of Python
function calls a request makes does not.  ``sys.setprofile`` counts
every ``call`` event inside :meth:`InventoryService.handle` on the
calling thread (``jobs=1``, so the whole request runs there; C functions
are not counted).  Each measured request is the first of its address on
a service that has already served warm-up requests, so one-time imports
and set-up stay out of the count.

Counts before the cold path was reworked, on CPython 3.11:

* a 64-tag, 1-zone cold request without a result cache: 820 calls;
* cache-served requests (λ 3, overlap 0.15, every zone cell a cache
  hit): 591 calls at 16 zones and 964 at 48, 11.7 calls per zone.

The tiny request may make at most half its old count.  Once the service
worked per zone shape, cache-served requests made 133 calls at both 16
and 48 zones (161 and 225, 2.0 a zone, while it still built each
zone's shard): a zone's own work is done inside comprehensions and C
calls, so the per-zone slope may not exceed 0.1 calls.
"""

from __future__ import annotations

import sys

from repro.experiments.result_cache import ResultCache
from repro.service.core import InventoryService, ServiceConfig
from repro.service.requests import InventoryRequest

TINY_CALLS_BEFORE = 820
#: Python calls a zone may add to a cache-served request.
ZONE_SLOPE_BOUND = 0.1


def handle_calls(service: InventoryService,
                 request: InventoryRequest) -> int:
    """Python calls made while ``service`` handles ``request``."""
    calls = 0

    def count(frame, event, arg) -> None:
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        service.handle(request)
    finally:
        sys.setprofile(None)
    return calls


def tiny_request_calls() -> int:
    service = InventoryService()
    service.handle(InventoryRequest(n_tags=64, zones=1, seed=1))
    return handle_calls(service, InventoryRequest(n_tags=64, zones=1,
                                                  seed=2))


def cache_served_calls(cache_path) -> tuple[int, int]:
    """Calls of a 16- and a 48-zone request whose one cell is cached.

    The first warm-up request's 8 zones of 64 tags (73 heard, with the
    ring overlap) simulate the one cell that the other requests, with the
    same seed and zone size, then hit.  The second, of 12 zones, is the
    first to hit, so the cache-hit path's one-time set-up (memos, the
    service's first cache-hit instruments) is done before either
    measured request.
    """
    service = InventoryService(ServiceConfig(
        cache=ResultCache(cache_path, signature="cost-gate")))
    for zones in (8, 12):
        service.handle(InventoryRequest(n_tags=zones * 64, zones=zones,
                                        seed=5, lam=3))
    return tuple(handle_calls(service, InventoryRequest(
        n_tags=zones * 64, zones=zones, seed=5, lam=3))
        for zones in (16, 48))


def test_a_tiny_cold_request_makes_at_most_half_the_calls():
    calls = tiny_request_calls()
    assert calls <= TINY_CALLS_BEFORE // 2, calls


def test_the_per_zone_cost_does_not_grow(tmp_path):
    at_16, at_48 = cache_served_calls(tmp_path / "cache.json")
    slope = (at_48 - at_16) / (48 - 16)
    assert slope <= ZONE_SLOPE_BOUND, (at_16, at_48, slope)
