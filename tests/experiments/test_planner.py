"""The adaptive planner: sequential stopping without losing determinism."""

from __future__ import annotations

import dataclasses
import math
import statistics

import pytest

from repro.baselines.dfsa import Dfsa
from repro.core.fcat import Fcat
from repro.experiments.executor import (
    CellSpec,
    execute_cells,
    execute_run_metrics,
)
from repro.experiments.planner import (
    PlannerConfig,
    PlannerStats,
    Welford,
    _z_for_confidence,
    plan_cells,
)
from repro.experiments.result_cache import ResultCache
from repro.experiments.runner import run_cell, sweep
from repro.obs.scope import observe
from repro.sim.result import AggregateResult, aggregate_metrics


def assert_cells_identical(a: AggregateResult, b: AggregateResult) -> None:
    for field in dataclasses.fields(AggregateResult):
        assert getattr(a, field.name) == getattr(b, field.name), field.name


#: One cell per engine.
SPECS = [CellSpec(protocol=Fcat(lam=2), n_tags=120, runs=12, seed=41),
         CellSpec(protocol=Dfsa(), n_tags=80, runs=12, seed=42,
                  engine="scalar")]


def config(**overrides) -> PlannerConfig:
    knobs = dict(precision=0.05, min_runs=4, batch_runs=4)
    knobs.update(overrides)
    return PlannerConfig(**knobs)


class TestPrefixDeterminism:
    def test_adaptive_is_a_bit_exact_prefix_of_fixed(self):
        """The core guarantee: an adaptive cell equals the fixed-budget
        aggregate over the first ``runs_used`` seed children."""
        with observe() as observation:
            adaptive = plan_cells(SPECS, config())
        stops = {event.fields["seed"]: event.fields["runs_used"]
                 for event in observation.events.events
                 if event.name == "planner_stop"}
        fixed = execute_run_metrics(
            [dataclasses.replace(spec, runs=2 * spec.runs)
             for spec in SPECS])
        for spec, batch, result in zip(SPECS, fixed, adaptive):
            used = stops[spec.seed]
            prefix = aggregate_metrics(spec.protocol.name, spec.n_tags,
                                       batch.values[:used])
            assert_cells_identical(result, prefix)

    def test_jobs_invariance(self):
        serial = plan_cells(SPECS, config())
        fanned = plan_cells(SPECS, config(), jobs=4)
        for a, b in zip(serial, fanned):
            assert_cells_identical(a, b)

    def test_rejects_pre_sliced_specs(self):
        spec = dataclasses.replace(SPECS[0], run_start=3)
        with pytest.raises(ValueError, match="run 0"):
            plan_cells([spec], config())


class TestStoppingRules:
    def test_loose_precision_stops_at_the_min_runs_floor(self):
        planner = config(precision=10.0)
        with observe() as observation:
            plan_cells(SPECS, planner)
        stops = [event for event in observation.events.events
                 if event.name == "planner_stop"]
        assert len(stops) == len(SPECS)
        for event in stops:
            assert event.fields["reason"] == "precision"
            assert event.fields["runs_used"] == planner.min_runs
        assert planner.stats.stopped_precision == len(SPECS)

    def test_unreachable_precision_hits_the_max_runs_ceiling(self):
        spec = dataclasses.replace(SPECS[0], runs=20)
        planner = config(precision=1e-12, min_runs=2, batch_runs=3,
                         max_runs=7)
        with observe() as observation:
            plan_cells([spec], planner)
        (stop,) = [event for event in observation.events.events
                   if event.name == "planner_stop"]
        assert stop.fields["reason"] == "max_runs"
        assert stop.fields["runs_used"] == 7
        assert planner.stats.stopped_max_runs == 1

    def test_shared_budget_runs_dry(self):
        spec = dataclasses.replace(SPECS[0], runs=4)
        planner = config(precision=1e-12, min_runs=2, batch_runs=2,
                         max_runs=100)
        with observe() as observation:
            plan_cells([spec], planner)
        (stop,) = [event for event in observation.events.events
                   if event.name == "planner_stop"]
        assert stop.fields["reason"] == "budget"
        assert stop.fields["runs_used"] == spec.runs  # the nominal budget
        assert planner.stats.stopped_budget == 1

    def test_tight_budget_still_gives_every_cell_a_run(self):
        """One nominal run per cell: the first cell's batch must not eat
        the whole budget and leave the second with nothing to aggregate."""
        specs = [dataclasses.replace(spec, runs=1) for spec in SPECS]
        planner = config(batch_runs=8)
        results = plan_cells(specs, planner)
        assert [result.runs for result in results] == [1, 1]
        assert planner.stats.stopped_budget == 2

    def test_precision_cells_actually_meet_the_target(self):
        planner = config(precision=0.2)
        with observe() as observation:
            plan_cells(SPECS, planner)
        for event in observation.events.events:
            if event.name == "planner_stop" \
                    and event.fields["reason"] == "precision":
                assert 0 <= event.fields["rel_half_width"] <= 0.2

    def test_batches_never_exceed_the_nominal_total(self):
        planner = config(precision=1e-12)  # everything saturates
        plan_cells(SPECS, planner)
        assert planner.stats.assigned_runs <= planner.stats.nominal_runs


class TestPairedAgainstFixedBudget:
    """The Table I roster run adaptive and fixed-budget on shared seeds."""

    #: AggregateResult column -> the RunMetrics field it averages.
    REPORTED_METRICS = {
        "throughput_mean": "throughput",
        "empty_mean": "empty_slots",
        "singleton_mean": "singleton_slots",
        "collision_mean": "collision_slots",
        "total_slots_mean": "total_slots",
        "resolved_mean": "resolved_from_collision",
    }

    def test_saves_runs_within_the_shared_prefix_ci(self):
        """>= 1.5x fewer runs, every reported metric inside the 95 %
        interval of the adaptive-minus-fixed difference, and the same
        output at jobs=1 and jobs=4.

        The adaptive sample is a prefix of the fixed one, so the exact SD
        of the difference is ``s * sqrt(|1/k - 1/R|)``, not ``s/sqrt(R)``.
        """
        z95 = 1.959963984540054
        nominal = 12
        cells = [(protocol, n_tags)
                 for protocol in (Fcat(lam=2), Fcat(lam=3), Fcat(lam=4),
                                  Dfsa())
                 for n_tags in (200, 500)]
        specs = [CellSpec(protocol=protocol, n_tags=n_tags, runs=nominal,
                          seed=20100563 + 13 * index)
                 for index, (protocol, n_tags) in enumerate(cells)]

        def smoke_config() -> PlannerConfig:
            return PlannerConfig(precision=0.1, min_runs=5, batch_runs=5)

        planner = smoke_config()
        adaptive = plan_cells(specs, planner, jobs=1)
        assert planner.stats.reduction >= 1.5, planner.stats.summary()
        assert plan_cells(specs, smoke_config(), jobs=4) == adaptive

        fixed_batches = execute_run_metrics(specs)
        for spec, batch, cell in zip(specs, fixed_batches, adaptive):
            fixed = aggregate_metrics(spec.protocol.name, spec.n_tags,
                                      batch.values)
            for column, field in self.REPORTED_METRICS.items():
                std = statistics.stdev(getattr(value, field)
                                       for value in batch.values)
                fixed_value = getattr(fixed, column)
                bound = (z95 * std * math.sqrt(abs(1 / cell.runs
                                                   - 1 / nominal))
                         + 1e-9 * max(1.0, abs(fixed_value)))
                assert abs(getattr(cell, column) - fixed_value) <= bound, \
                    (spec.protocol.name, spec.n_tags, column)


class TestCacheInterplay:
    def test_warm_rerun_simulates_nothing(self, tmp_path):
        path = tmp_path / "cache.json"
        cold = plan_cells(SPECS, config(), cache=ResultCache(path))
        warm_planner = config()
        warm = plan_cells(SPECS, warm_planner, cache=ResultCache(path))
        assert warm_planner.stats.simulated_runs == 0
        assert warm_planner.stats.cached_runs == \
            warm_planner.stats.assigned_runs > 0
        for a, b in zip(cold, warm):
            assert_cells_identical(a, b)

    def test_fixed_budget_run_resumes_from_planner_batches(self, tmp_path):
        """Planner batches persist as run-range entries a later
        fixed-budget run of the same cell completes instead of redoing."""
        path = tmp_path / "cache.json"
        # loose precision: stops at the min-runs floor, so a real suffix
        # is left for the fixed-budget run to compute
        plan_cells(SPECS, config(precision=10.0), cache=ResultCache(path))
        warm = ResultCache(path)
        with observe() as observation:
            resumed = execute_cells(SPECS, cache=warm)
        plain = execute_cells(SPECS)
        for a, b in zip(plain, resumed):
            assert_cells_identical(a, b)
        # the executor only simulated each cell's suffix
        chunk_runs = sum(event.fields["runs"]
                        for event in observation.events.events
                        if event.name == "chunk_done")
        assert 0 < chunk_runs < sum(spec.runs for spec in SPECS)

    def test_fixed_budget_inside_planner_batches_is_a_cell_hit(self,
                                                               tmp_path):
        """A fixed budget the planner's batches already cover is served
        as a cell hit, folded from those batches across their seam, equal
        to the uncached cell."""
        path = tmp_path / "cache.json"
        # loose precision: stops at the min-runs floor, two 2-run batches
        plan_cells(SPECS, config(precision=10.0, batch_runs=2),
                   cache=ResultCache(path))
        budget = [dataclasses.replace(spec, runs=3) for spec in SPECS]
        warm = ResultCache(path)
        with observe() as observation:
            served = execute_cells(budget, cache=warm)
        for a, b in zip(execute_cells(budget), served):
            assert_cells_identical(a, b)
        assert (warm.hits, warm.misses) == (len(SPECS), 0)
        assert not [event for event in observation.events.events
                    if event.name == "chunk_done"]

    def test_planner_reuses_fixed_budget_batches(self, tmp_path):
        """The reverse direction: a fixed run at the nominal budget warms
        every batch the planner will ever schedule inside it."""
        path = tmp_path / "cache.json"
        cache = ResultCache(path)
        for spec in SPECS:
            batch = execute_run_metrics([dataclasses.replace(
                spec, runs=2 * spec.runs)], cache=cache)[0]
            assert not batch.cached
        cache.save()
        planner = config(batch_runs=4)
        # Batches land at run offsets the fixed write never stored
        # verbatim, so reuse goes through the range entry, not luck.
        plan_cells(SPECS, planner, cache=ResultCache(path))
        assert planner.stats.simulated_runs == 0


class TestRunnerIntegration:
    def test_run_cell_precision_matches_plan_cells(self):
        adaptive = run_cell(Fcat(lam=2), n_tags=120, runs=12, seed=41,
                            planner=config())
        (direct,) = plan_cells([SPECS[0]], config())
        assert_cells_identical(adaptive, direct)

    def test_precision_shorthand_builds_a_planner(self):
        cell = run_cell(Dfsa(), n_tags=80, runs=12, seed=42, precision=10.0)
        assert cell.runs == PlannerConfig(precision=10.0).min_runs

    def test_precision_and_planner_together_raise(self):
        with pytest.raises(ValueError, match="not both"):
            run_cell(Dfsa(), n_tags=80, runs=4, seed=1, precision=0.1,
                     planner=config())

    def test_sweep_precision_covers_the_grid(self):
        cells = sweep([Dfsa(), Fcat(lam=2)], [50, 100], runs=8, seed=1,
                      precision=10.0, jobs=2)
        assert set(cells) == {("DFSA", 50), ("DFSA", 100),
                              ("FCAT-2", 50), ("FCAT-2", 100)}
        for cell in cells.values():
            assert cell.throughput_mean > 0


class TestConfigValidation:
    @pytest.mark.parametrize("knobs", [
        dict(precision=0.0),
        dict(precision=-1.0),
        dict(precision=0.1, confidence=1.0),
        dict(precision=0.1, min_runs=1),
        dict(precision=0.1, batch_runs=0),
        dict(precision=0.1, min_runs=8, max_runs=4),
        dict(precision=0.1, metric="no-such-metric"),
    ])
    def test_rejects_bad_knobs(self, knobs):
        with pytest.raises(ValueError):
            PlannerConfig(**knobs)

    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            plan_cells(SPECS, config(), jobs=0)


class TestAccounting:
    def test_stats_add_up(self):
        planner = config()
        plan_cells(SPECS, planner)
        stats = planner.stats
        assert stats.nominal_runs == sum(spec.runs for spec in SPECS)
        assert stats.assigned_runs == \
            stats.simulated_runs + stats.cached_runs
        assert stats.cells == len(SPECS)
        assert "reduction" in stats.summary()

    def test_stats_accumulate_across_sweeps(self):
        planner = config(precision=10.0)
        plan_cells(SPECS, planner)
        plan_cells(SPECS, planner)
        assert planner.stats.cells == 2 * len(SPECS)
        assert planner.stats.nominal_runs == \
            2 * sum(spec.runs for spec in SPECS)

    def test_empty_stats_reduction_is_zero(self):
        assert PlannerStats().reduction == 0.0


class TestWelford:
    def test_matches_batch_statistics(self):
        import statistics
        values = [3.0, 1.5, 4.25, 2.0, 5.5]
        fold = Welford()
        for value in values:
            fold.add(value)
        assert fold.n == len(values)
        assert fold.mean == pytest.approx(statistics.fmean(values))
        assert fold.variance == pytest.approx(statistics.variance(values))

    def test_undefined_width_below_two_values(self):
        from repro.experiments.planner import UNDEFINED_WIDTH
        fold = Welford()
        fold.add(1.0)
        assert fold.rel_half_width(1.96) == UNDEFINED_WIDTH
        fold.add(2.0)
        assert fold.rel_half_width(1.96) > 0


def test_critical_value_is_the_exact_normal_quantile():
    z = _z_for_confidence(0.95)
    assert z == statistics.NormalDist().inv_cdf(0.975)
    # CI's planner smoke uses this Z95; CPython's inv_cdf may differ from
    # it by one ulp between versions.
    assert z == pytest.approx(1.959963984540054, rel=1e-15)
