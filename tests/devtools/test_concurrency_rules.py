"""Fixture tests for R10 (rng-order) and R11 (fork-safety)."""

from __future__ import annotations

from dataclasses import replace

from repro.devtools import LintEngine
from repro.devtools.config import DEFAULT_CONFIG


# ---------------------------------------------------------------------------
# R10: rng-order

def test_draw_inside_set_iteration_is_flagged(tree):
    tree.write("repro/sim/collect.py", """\
        import numpy as np

        def sample(rng: np.random.Generator, tags):
            out = []
            for tag in set(tags):
                out.append(rng.normal())
            return out
        """)
    assert tree.rule_findings("rng-order") == [
        "repro/sim/collect.py:6 rng-order"]


def test_sorted_iteration_launders_the_hazard(tree):
    tree.write("repro/sim/collect.py", """\
        import numpy as np

        def sample(rng: np.random.Generator, tags):
            out = []
            for tag in sorted(set(tags)):
                out.append(rng.normal())
            return out
        """)
    assert tree.rule_findings("rng-order") == []


def test_a_name_once_bound_to_a_set_stays_unordered(tree):
    # The tag map is flow-insensitive: ``names`` holds a set at one of its
    # bindings, so iterating it counts as unordered even after it is
    # rebound to the sorted list.  A new name for the sorted list is clean.
    tree.write("repro/sim/zones.py", """\
        def rebound(rng, zones):
            names = set(zones)
            names = sorted(names)
            for name in names:
                rng.normal()

        def renamed(rng, zones):
            names = set(zones)
            ordered = sorted(names)
            for name in ordered:
                rng.normal()
        """)
    assert tree.rule_findings("rng-order") == [
        "repro/sim/zones.py:5 rng-order"]


def test_draw_inside_dict_view_iteration_is_flagged(tree):
    tree.write("repro/sim/collect.py", """\
        def jitter(rng, delays):
            for slot in delays.keys():
                delays[slot] = rng.uniform()
        """)
    assert tree.rule_findings("rng-order") == [
        "repro/sim/collect.py:3 rng-order"]


def test_float_equality_bounded_loop_is_flagged(tree):
    tree.write("repro/sim/collect.py", """\
        def accumulate(rng):
            total = 0.0
            while total != 1.0:
                total += rng.uniform()
            return total
        """)
    assert tree.rule_findings("rng-order") == [
        "repro/sim/collect.py:4 rng-order"]


def test_generator_in_module_global_is_flagged(tree):
    tree.write("repro/sim/state.py", """\
        from numpy.random import default_rng

        RNG = default_rng(0)
        """)
    assert tree.rule_findings("rng-order") == [
        "repro/sim/state.py:3 rng-order"]


def test_generator_rebound_into_global_is_flagged(tree):
    tree.write("repro/sim/state.py", """\
        from numpy.random import default_rng

        _GEN = None

        def init(seed):
            global _GEN
            _GEN = default_rng(seed)
        """)
    assert tree.rule_findings("rng-order") == [
        "repro/sim/state.py:7 rng-order"]


# ---------------------------------------------------------------------------
# R11: fork-safety

def test_worker_mutating_module_global_is_flagged(tree):
    # The fixture file sits exactly where the default worker root points,
    # so ``repro.experiments.executor:run_chunk`` resolves against it.
    tree.write("repro/experiments/executor.py", """\
        RESULTS = []

        def run_chunk(chunk):
            for item in chunk:
                RESULTS.append(item)
            return RESULTS
        """)
    assert tree.rule_findings("fork-safety") == [
        "repro/experiments/executor.py:5 fork-safety"]


def test_reachable_helper_is_audited_too(tree):
    tree.write("repro/experiments/executor.py", """\
        COUNTER = {"n": 0}

        def bump():
            COUNTER["n"] = COUNTER["n"] + 1

        def run_chunk(chunk):
            bump()
            return list(chunk)
        """)
    assert tree.rule_findings("fork-safety") == [
        "repro/experiments/executor.py:4 fork-safety"]


def test_a_function_local_import_is_followed(tree):
    # The worker imports its engine at call time, as the executor does.
    tree.write("repro/kernels/engine.py", """\
        CALLS = []

        def run_batch(chunk):
            CALLS.append(chunk)
            return list(chunk)
        """)
    tree.write("repro/experiments/executor.py", """\
        def run_chunk(chunk):
            from repro.kernels.engine import run_batch as batch
            return batch(chunk)
        """)
    assert tree.rule_findings("fork-safety") == [
        "repro/kernels/engine.py:4 fork-safety"]


def test_a_method_called_through_an_annotated_parameter_is_reached(tree):
    # ``clock.tick()`` resolves by method name, whatever ``clock``'s type.
    tree.write("repro/experiments/clock.py", """\
        TICKS = []

        class Clock:
            def tick(self):
                TICKS.append(1)
        """)
    tree.write("repro/experiments/executor.py", """\
        from repro.experiments.clock import Clock

        def run(clock: Clock):
            clock.tick()

        def run_chunk(chunk, clock):
            run(clock)
            return list(chunk)
        """)
    assert tree.rule_findings("fork-safety") == [
        "repro/experiments/clock.py:5 fork-safety"]


def test_a_self_call_reaches_a_subclass_override(tree):
    # ``Base.run`` calls ``self.step()``: on a ``Child`` that is
    # ``Child.step``, so the self-call resolves by method name too.
    tree.write("repro/experiments/protocol.py", """\
        STEPS = []

        class Base:
            def run(self):
                self.step()

            def step(self):
                return None

        class Child(Base):
            def step(self):
                STEPS.append(1)
        """)
    tree.write("repro/experiments/executor.py", """\
        def run_chunk(chunk, proto):
            proto.run()
            return list(chunk)
        """)
    assert tree.rule_findings("fork-safety") == [
        "repro/experiments/protocol.py:12 fork-safety"]


def test_a_receiver_call_never_matches_a_module_function(tree):
    # ``store.register`` is some object's method; the module-level
    # ``register`` that shares its name is not reached.
    tree.write("repro/experiments/registry.py", """\
        RULES = []

        def register(rule):
            RULES.append(rule)
            return rule
        """)
    tree.write("repro/experiments/executor.py", """\
        def run_chunk(chunk, store):
            store.register(chunk)
            return list(chunk)
        """)
    assert tree.rule_findings("fork-safety") == []


def test_unreachable_function_is_not_audited(tree):
    tree.write("repro/experiments/executor.py", """\
        RESULTS = []

        def parent_side_collect(item):
            RESULTS.append(item)

        def run_chunk(chunk):
            return list(chunk)
        """)
    assert tree.rule_findings("fork-safety") == []


def test_allow_listed_global_is_not_flagged(tree):
    tree.write("repro/experiments/executor.py", """\
        RESULTS = []

        def run_chunk(chunk):
            RESULTS.append(chunk)
            return RESULTS
        """)
    config = replace(
        DEFAULT_CONFIG,
        fork_safe_globals=("repro.experiments.executor:RESULTS",))
    report = LintEngine(config=config,
                        select=("fork-safety",)).lint_paths([tree.root])
    assert report.findings == []


def test_module_level_handle_read_is_flagged(tree):
    tree.write("repro/experiments/executor.py", """\
        import threading

        LOCK = threading.Lock()

        def run_chunk(chunk):
            with LOCK:
                return list(chunk)
        """)
    assert tree.rule_findings("fork-safety") == [
        "repro/experiments/executor.py:6 fork-safety"]


def test_unresolvable_root_means_no_findings(tree):
    # A tree without the worker entry point is simply out of scope.
    tree.write("repro/core/util.py", """\
        STATE = []

        def touch(x):
            STATE.append(x)
        """)
    assert tree.rule_findings("fork-safety") == []
