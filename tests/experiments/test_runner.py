"""The sweep runner: reproducibility, independence, aggregation."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.baselines.dfsa import Dfsa
from repro.core.fcat import Fcat
from repro.experiments.runner import run_cell, spawn_run_seeds, sweep


class TestRunCell:
    def test_returns_aggregate(self):
        cell = run_cell(Dfsa(), n_tags=150, runs=3, seed=1)
        assert cell.runs == 3
        assert cell.n_tags == 150
        assert cell.throughput_mean > 0

    def test_reproducible(self):
        a = run_cell(Fcat(lam=2), n_tags=120, runs=2, seed=5)
        b = run_cell(Fcat(lam=2), n_tags=120, runs=2, seed=5)
        assert a.throughput_mean == b.throughput_mean

    def test_different_seeds_differ(self):
        a = run_cell(Fcat(lam=2), n_tags=120, runs=2, seed=5)
        b = run_cell(Fcat(lam=2), n_tags=120, runs=2, seed=6)
        assert a.throughput_mean != b.throughput_mean

    def test_fresh_population_per_run(self):
        """Tree protocols are deterministic given IDs; non-zero variance
        across runs proves populations are redrawn."""
        from repro.baselines.aqs import AdaptiveQuerySplitting
        cell = run_cell(AdaptiveQuerySplitting(), n_tags=200, runs=4, seed=2)
        assert cell.throughput_std > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            run_cell(Dfsa(), n_tags=10, runs=0, seed=1)
        with pytest.raises(ValueError):
            run_cell(Dfsa(), n_tags=-1, runs=1, seed=1)


@pytest.mark.parametrize("seed, start, runs",
                         [(0, 0, 1), (5, 0, 4), (2 ** 40 + 3, 3, 5),
                          (12_345, 17, 2)])
def test_run_seeds_are_the_spawned_children(seed, start, runs):
    """Children built by spawn key equal the slice of a spawned prefix
    in every respect a run or a pickle can see."""
    direct = spawn_run_seeds(seed, runs, start)
    spawned = np.random.SeedSequence(seed).spawn(start + runs)[start:]
    assert len(direct) == len(spawned) == runs
    for got, want in zip(direct, spawned):
        assert got.entropy == want.entropy
        assert got.spawn_key == want.spawn_key
        assert got.pool_size == want.pool_size
        assert got.n_children_spawned == want.n_children_spawned
        assert np.array_equal(got.generate_state(8), want.generate_state(8))
        assert pickle.dumps(got) == pickle.dumps(want)


class TestSweep:
    def test_duplicate_protocol_name_raises(self):
        """Regression: two protocols sharing a `.name` used to silently
        overwrite each other's cell in the result dict."""
        with pytest.raises(ValueError, match="duplicate sweep cell"):
            sweep([Dfsa(), Dfsa()], [50], runs=1, seed=1)
        with pytest.raises(ValueError, match="DFSA"):
            sweep([Fcat(lam=2), Dfsa(), Dfsa()], [50, 100], runs=1, seed=1)

    def test_duplicate_error_names_every_offending_cell(self):
        """Regression: the error used to report a bare count, leaving the
        user to diff the roster by hand.  It must list each colliding
        (name, N) pair -- and all of them, not just the first."""
        with pytest.raises(ValueError) as error:
            sweep([Dfsa(), Dfsa(), Fcat(lam=2), Fcat(lam=2)], [50, 100],
                  runs=1, seed=1)
        message = str(error.value)
        assert "('DFSA', 50)" in message
        assert "('DFSA', 100)" in message
        assert "('FCAT-2', 50)" in message
        assert "('FCAT-2', 100)" in message
        assert "distinct names" in message

    def test_covers_grid(self):
        cells = sweep([Dfsa(), Fcat(lam=2)], [50, 100], runs=1, seed=1)
        assert set(cells) == {("DFSA", 50), ("DFSA", 100),
                              ("FCAT-2", 50), ("FCAT-2", 100)}
        for cell in cells.values():
            assert cell.throughput_mean > 0
