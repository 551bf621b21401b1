#!/usr/bin/env python3
"""Watch FCAT's embedded estimator track a shrinking population.

Section V-C's estimator reads nothing but the per-frame collision count, yet
it bootstraps from a blind guess of 64 to a 10 000-tag population within a
dozen frames and then tracks the survivors all the way down.  The demo plots
estimate-vs-truth over the session and shows a small session slot by slot.

Run:  python examples/estimator_tracking.py [n_tags]
"""

from __future__ import annotations

import sys

import numpy as np

from repro import Fcat, TagPopulation
from repro.core import fcat as fcat_module
from repro.report.ascii_chart import AsciiChart


def traced_run(protocol: Fcat, population: TagPopulation, seed: int):
    """Run a session while recording (true active, estimated remaining)."""
    truth: list[int] = []
    original = fcat_module._FcatSession._run_frame

    def spy(session):
        truth.append(len(session.active))
        return original(session)

    fcat_module._FcatSession._run_frame = spy
    try:
        result = protocol.read_all(population, np.random.default_rng(seed))
    finally:
        fcat_module._FcatSession._run_frame = original
    return result, truth


def main() -> None:
    n_tags = int(sys.argv[1]) if len(sys.argv) > 1 else 10000
    population = TagPopulation.random(n_tags, np.random.default_rng(3))

    protocol = Fcat(lam=2)  # blind bootstrap from the default guess of 64
    result, truth = traced_run(protocol, population, seed=11)
    estimates = result.estimate_trace

    chart = AsciiChart(f"estimator vs truth over {result.frames} frames "
                       f"(N = {n_tags})", width=68, height=16,
                       x_label="frame")
    frames = np.arange(len(truth), dtype=float)
    chart.add_series("true active", frames, np.asarray(truth, dtype=float))
    chart.add_series("estimate", frames, np.asarray(estimates, dtype=float))
    print(chart.render())

    settled = next(i for i, est in enumerate(estimates)
                   if abs(est - truth[i]) / n_tags < 0.1)
    print(f"\nestimator within 10% of truth from frame {settled} "
          f"(~{settled * protocol.config.frame_size} slots)")
    mid = len(truth) // 2
    print(f"mid-session: true {truth[mid]}, estimated {estimates[mid]:.0f} "
          f"({abs(estimates[mid] - truth[mid]) / max(truth[mid], 1):.1%} off)")

    # A compact per-slot view of a (smaller) session, via SessionTrace.
    from repro.report import render_session
    from repro.sim import SessionTrace

    small = TagPopulation.random(min(n_tags, 300), np.random.default_rng(8))
    trace = SessionTrace()
    Fcat(lam=2).read_all(small, np.random.default_rng(9), trace=trace)
    print("\nper-slot timeline of a small session:")
    print(render_session(trace))


if __name__ == "__main__":
    main()
