"""The sweep executor: parallel == serial, bit for bit, cache or not."""

from __future__ import annotations

import dataclasses
import time

import pytest

from repro.baselines.dfsa import Dfsa
from repro.core.fcat import Fcat
from repro.experiments.executor import (
    CellSpec,
    ExecutionPlan,
    default_jobs,
    execute_cells,
    execute_run_metrics,
)
from repro.experiments.result_cache import ResultCache
from repro.experiments.runner import run_cell, sweep
from repro.kernels.engine import ENGINES
from repro.sim.channel import ChannelModel
from repro.sim.result import AggregateResult


def assert_cells_identical(a: AggregateResult, b: AggregateResult) -> None:
    """Field-for-field equality -- no tolerance, the contract is bit-exact."""
    for field in dataclasses.fields(AggregateResult):
        assert getattr(a, field.name) == getattr(b, field.name), field.name


class TestParallelEqualsSerial:
    def test_run_cell_parallel_matches_serial(self):
        serial = run_cell(Fcat(lam=2), n_tags=150, runs=6, seed=11)
        parallel = run_cell(Fcat(lam=2), n_tags=150, runs=6, seed=11, jobs=4)
        assert_cells_identical(serial, parallel)

    def test_sweep_parallel_matches_serial_field_for_field(self):
        protocols = [Dfsa(), Fcat(lam=2)]
        serial = sweep(protocols, [60, 120], runs=4, seed=3, jobs=1)
        parallel = sweep(protocols, [60, 120], runs=4, seed=3, jobs=4)
        assert set(serial) == set(parallel)
        for key in serial:
            assert_cells_identical(serial[key], parallel[key])

    def test_noisy_channel_parallel_matches_serial(self):
        channel = ChannelModel(collision_unusable_prob=0.3)
        serial = run_cell(Fcat(lam=2), n_tags=100, runs=4, seed=21,
                          channel=channel)
        parallel = run_cell(Fcat(lam=2), n_tags=100, runs=4, seed=21,
                            channel=channel, jobs=3)
        assert_cells_identical(serial, parallel)

    def test_chunking_does_not_change_results(self):
        """Different job counts imply different chunk boundaries."""
        for engine in ENGINES:
            spec = CellSpec(protocol=Dfsa(), n_tags=120, runs=7, seed=9,
                            engine=engine)
            reference = execute_cells([spec], jobs=1)[0]
            for jobs in (2, 3, 5):
                assert_cells_identical(reference,
                                       execute_cells([spec], jobs=jobs)[0])

    def test_execute_cells_preserves_spec_order(self):
        specs = [CellSpec(protocol=Dfsa(), n_tags=n, runs=2, seed=4)
                 for n in (40, 80, 160)]
        results = execute_cells(specs, jobs=3)
        assert [cell.n_tags for cell in results] == [40, 80, 160]

    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            execute_cells([CellSpec(protocol=Dfsa(), n_tags=10, runs=1,
                                    seed=1)], jobs=0)


class TestCellSpec:
    def test_key_is_stable(self):
        a = CellSpec(protocol=Fcat(lam=2), n_tags=100, runs=3, seed=5)
        b = CellSpec(protocol=Fcat(lam=2), n_tags=100, runs=3, seed=5)
        assert a.key() == b.key()

    def test_key_separates_configs(self):
        base = CellSpec(protocol=Fcat(lam=2), n_tags=100, runs=3, seed=5)
        variants = [
            CellSpec(protocol=Fcat(lam=3), n_tags=100, runs=3, seed=5),
            CellSpec(protocol=Fcat(lam=2, omega=1.2), n_tags=100, runs=3,
                     seed=5),
            CellSpec(protocol=Fcat(lam=2), n_tags=101, runs=3, seed=5),
            CellSpec(protocol=Fcat(lam=2), n_tags=100, runs=4, seed=5),
            CellSpec(protocol=Fcat(lam=2), n_tags=100, runs=3, seed=6),
            CellSpec(protocol=Fcat(lam=2), n_tags=100, runs=3, seed=5,
                     channel=ChannelModel(ack_loss_prob=0.1)),
        ]
        keys = {base.key()} | {spec.key() for spec in variants}
        assert len(keys) == len(variants) + 1

    def test_unknown_engines_are_refused(self):
        """Anything but ``"kernel"`` would run the scalar path under a key
        of its own, so a spec names one of the known engines or fails."""
        for engine in ENGINES:
            CellSpec(protocol=Fcat(lam=2), n_tags=10, runs=1, seed=1,
                     engine=engine)
        with pytest.raises(ValueError, match="engine must be one of"):
            CellSpec(protocol=Fcat(lam=2), n_tags=10, runs=1, seed=1,
                     engine="turbo")
        spec = CellSpec(protocol=Fcat(lam=2), n_tags=10, runs=1, seed=1)
        with pytest.raises(ValueError, match="turbo"):
            dataclasses.replace(spec, engine="turbo")


class TestRunStartSlicing:
    """run_start selects a window of the cell's seed spawn -- the
    mechanism behind planner batches and cached-prefix resumption."""

    BASE = CellSpec(protocol=Fcat(lam=2), n_tags=100, runs=8, seed=17)
    #: The same cell on each engine.
    BASES = (BASE, dataclasses.replace(BASE, engine="scalar"))

    def test_window_matches_full_run_slice(self):
        for base in self.BASES:
            full = execute_run_metrics([base])[0].values
            window = execute_run_metrics(
                [dataclasses.replace(base, run_start=3, runs=4)])[0].values
            assert window == full[3:7]

    def test_batched_windows_reassemble_the_full_cell(self):
        for base in self.BASES:
            full = execute_run_metrics([base])[0].values
            batches = execute_run_metrics(
                [dataclasses.replace(base, run_start=start, runs=2)
                 for start in (0, 2, 4, 6)])
            assert [v for batch in batches for v in batch.values] == full

    def test_run_start_is_part_of_the_content_address(self):
        shifted = dataclasses.replace(self.BASE, run_start=2)
        assert shifted.key() != self.BASE.key()
        # ...but not of the runs-independent range address
        assert shifted.range_key() == self.BASE.range_key()

    def test_execute_run_metrics_serves_cached_batches(self, tmp_path):
        cache = ResultCache(tmp_path / "cache.json")
        cold = execute_run_metrics([self.BASE], cache=cache)[0]
        assert not cold.cached
        warm = execute_run_metrics([self.BASE], cache=cache)[0]
        assert warm.cached
        assert warm.values == cold.values

    def test_prefix_assembly_completes_a_partial_cell(self, tmp_path):
        """execute_cells resumes a cell whose prefix is cached as
        run-range entries, computing only the missing suffix."""
        from repro.obs.scope import observe
        for base in self.BASES:
            cache = ResultCache(tmp_path / f"{base.engine}.json")
            prefix_spec = dataclasses.replace(base, runs=5)
            execute_run_metrics([prefix_spec], cache=cache)
            with observe() as observation:
                (resumed,) = execute_cells([base], cache=cache)
            (plain,) = execute_cells([base])
            assert_cells_identical(plain, resumed)
            chunk_runs = sum(event.fields["runs"]
                             for event in observation.events.events
                             if event.name == "chunk_done")
            assert chunk_runs == base.runs - prefix_spec.runs


class TestExecutionPlan:
    def test_defaults_are_serial_uncached(self):
        plan = ExecutionPlan()
        assert plan.jobs == 1 and plan.cache is None
        assert "serial" in plan.describe() and "cache off" in plan.describe()

    def test_describe_parallel_cached(self, tmp_path):
        plan = ExecutionPlan(jobs=4,
                             cache=ResultCache(tmp_path / "cache.json"))
        assert "4 worker(s)" in plan.describe()
        assert "cache on" in plan.describe()

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1


class TestExecutorCacheInterplay:
    def test_partial_hits_fill_only_misses(self, tmp_path):
        cache = ResultCache(tmp_path / "cache.json")
        first = execute_cells(
            [CellSpec(protocol=Dfsa(), n_tags=50, runs=2, seed=1)],
            cache=cache)
        specs = [CellSpec(protocol=Dfsa(), n_tags=50, runs=2, seed=1),
                 CellSpec(protocol=Dfsa(), n_tags=90, runs=2, seed=1)]
        combined = execute_cells(specs, cache=cache)
        assert_cells_identical(first[0], combined[0])
        assert cache.hits == 1
        # one miss from the first call's store, one from the second cell
        assert cache.misses == 2

    def test_cached_parallel_equals_uncached_serial(self, tmp_path):
        path = tmp_path / "cache.json"
        protocols = [Dfsa(), Fcat(lam=2)]
        cached = sweep(protocols, [50, 100], runs=3, seed=2, jobs=2,
                       cache=ResultCache(path))
        started = time.perf_counter()
        plain = sweep(protocols, [50, 100], runs=3, seed=2)
        serial_s = time.perf_counter() - started
        for key in plain:
            assert_cells_identical(plain[key], cached[key])
        # A fresh handle on the same file serves the whole rerun from disk,
        # identical to serial and no slower than simulating it.
        warm_cache = ResultCache(path)
        started = time.perf_counter()
        warm = sweep(protocols, [50, 100], runs=3, seed=2, jobs=2,
                     cache=warm_cache)
        warm_s = time.perf_counter() - started
        assert warm_cache.hits > 0 and warm_cache.misses == 0
        for key in plain:
            assert_cells_identical(plain[key], warm[key])
        assert warm_s <= serial_s, (warm_s, serial_s)


class TestExecutorObservability:
    """Telemetry collection must never disturb the bit-exact contract."""

    #: One cell per engine.
    SPECS = [CellSpec(protocol=Fcat(lam=2), n_tags=80, runs=4, seed=31),
             CellSpec(protocol=Dfsa(), n_tags=60, runs=4, seed=32,
                      engine="scalar")]

    def test_observed_parallel_matches_unobserved_serial(self):
        from repro.obs.scope import observe
        plain = execute_cells(self.SPECS, jobs=1)
        with observe():
            observed = execute_cells(self.SPECS, jobs=4)
        for a, b in zip(plain, observed):
            assert_cells_identical(a, b)

    def test_chunk_accounting_covers_every_run(self):
        from repro.obs.scope import observe
        with observe() as observation:
            started = time.perf_counter()
            execute_cells(self.SPECS, jobs=4)
            wall_s = time.perf_counter() - started
        chunk_events = [event for event in observation.events.events
                        if event.name == "chunk_done"]
        assert sum(event.fields["runs"] for event in chunk_events) == \
            sum(spec.runs for spec in self.SPECS)
        per_cell = {}
        for event in chunk_events:
            per_cell.setdefault(event.fields["cell_index"], []).append(
                event.fields["chunk_index"])
        # Chunks of each cell land in deterministic reassembly order.
        for indices in per_cell.values():
            assert indices == sorted(indices)
        # Busy worker-seconds fit inside the pool's wall-time capacity.
        busy_s = sum(event.fields["duration_s"] for event in chunk_events)
        workers = observation.metrics.snapshot()["gauges"]["executor.workers"]
        assert 0.0 < busy_s / (wall_s * workers) <= 1.0

    def test_pool_start_reports_worker_accounting(self):
        from repro.obs.scope import observe
        with observe() as observation:
            execute_cells(self.SPECS, jobs=4)
        (pool,) = [event for event in observation.events.events
                   if event.name == "pool_start"]
        assert 1 <= pool.fields["workers"] <= 4
        assert pool.fields["tasks"] >= len(self.SPECS)
        assert observation.metrics.snapshot()["gauges"][
            "executor.workers"] == pool.fields["workers"]

    def test_chunk_timings_ignore_wall_clock_steps(self, monkeypatch):
        """Chunk durations and queue waits come from monotonic clocks: a
        wall clock stepped backwards mid-chunk (an NTP correction, a
        manual reset) cannot turn them negative or inflate them."""
        import itertools
        import time

        from repro.obs.scope import observe
        wall = itertools.count(1e9, -3600.0)  # each reading an hour earlier
        monkeypatch.setattr(time, "time", lambda: next(wall))
        with observe() as observation:
            execute_cells(self.SPECS[:1], jobs=1)
        chunks = [event.fields for event in observation.events.events
                  if event.name == "chunk_done"]
        assert chunks
        for fields in chunks:
            assert 0.0 <= fields["duration_s"] < 60.0
            assert 0.0 <= fields["queue_wait_s"] < 60.0

    def test_serial_path_reports_one_worker(self):
        from repro.obs.scope import observe
        with observe() as observation:
            execute_cells(self.SPECS, jobs=1)
        snapshot = observation.metrics.snapshot()
        assert snapshot["gauges"]["executor.workers"] == 1
        assert not [event for event in observation.events.events
                    if event.name == "pool_start"]
