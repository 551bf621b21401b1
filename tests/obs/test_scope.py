"""The observe() scope: install, nest, restore, and the no-op helpers."""

from __future__ import annotations

import threading

from repro.obs import scope
from repro.obs.metrics import MetricsRegistry
from repro.obs.scope import Observation, active, observe


def test_disabled_by_default():
    assert active() is None


def test_observe_installs_and_restores():
    with observe() as observation:
        assert active() is observation
    assert active() is None


def test_observe_restores_on_error():
    try:
        with observe():
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert active() is None


def test_scopes_nest_like_the_executor():
    """The worker re-enters observe() under the parent's scope; the chunk
    collector is private and the parent scope comes back afterwards."""
    with observe() as parent:
        with observe() as chunk:
            assert active() is chunk
            chunk.count("slots")
        assert active() is parent
        parent.merge(chunk)
    assert parent.metrics.snapshot()["counters"] == {"slots": 1.0}


def test_a_collector_is_visible_only_on_its_own_thread():
    """The scope is a context variable: a collector installed on one
    thread is invisible to another, which still runs unobserved."""
    seen = []
    with observe():
        other = threading.Thread(target=lambda: seen.append(active()))
        other.start()
        other.join()
    assert seen == [None]


def test_bare_registry_target_is_wrapped():
    registry = MetricsRegistry()
    with observe(registry) as observation:
        assert observation.metrics is registry
        observation.count("x")
    assert registry.snapshot()["counters"] == {"x": 1.0}


def test_module_helpers_are_noops_while_disabled():
    scope.emit("cache_hit", key="k")
    scope.inc("x")
    scope.observe_value("v", 1.0)
    scope.set_gauge("g", 2.0)
    assert active() is None


def test_module_helpers_write_through_while_enabled():
    with observe() as observation:
        scope.emit("cache_hit", key="k")
        scope.inc("x", 2)
        scope.observe_value("v", 1.0)
        scope.set_gauge("g", 2.0)
    snapshot = observation.metrics.snapshot()
    assert snapshot["counters"] == {"x": 2.0}
    assert snapshot["gauges"] == {"g": 2.0}
    assert observation.events.counts() == {"cache_hit": 1}


def test_observation_merge_folds_metrics_and_events():
    parent, worker = Observation(), Observation()
    worker.count("slots", 3)
    worker.emit("cache_miss", key="m")
    parent.merge(worker)
    assert parent.metrics.snapshot()["counters"] == {"slots": 3.0}
    assert parent.events.counts() == {"cache_miss": 1}
