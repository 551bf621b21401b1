"""Fig. 6 -- FCAT reading throughput as a function of the frame size f.

Tiny frames re-advertise constantly and give the embedded estimator almost
no signal per frame; by ``f >= 10`` the throughput has stabilized and stays
flat out to f = 200 (paper section VI-D).

To isolate the frame-size effect the sessions are seeded with the true tag
count (the paper's flat curve implies as much: a blind bootstrap doubles its
estimate once per *frame*, which would bias large-f sessions by whole wasted
frames).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import Fcat
from repro.experiments.executor import (
    SERIAL_PLAN,
    CellSpec,
    ExecutionPlan,
    execute_cells,
)
from repro.report.ascii_chart import AsciiChart


def _default_sizes() -> list[int]:
    return [2, 5, 10, 20, 30, 50, 80, 120, 160, 200]


@dataclass(frozen=True)
class Fig6Config:
    lams: tuple[int, ...] = (2, 3, 4)
    frame_sizes: list[int] = field(default_factory=_default_sizes)
    n_tags: int = 10000
    runs: int = 2
    seed: int = 20100554


@dataclass
class Fig6Result:
    config: Fig6Config
    #: lam -> throughput per frame size.
    curves: dict[int, list[float]]
    chart: AsciiChart

    def plateau_spread(self, lam: int, from_size: int = 10) -> float:
        """Relative spread of the curve over frame sizes >= ``from_size``."""
        values = [value for size, value in zip(self.config.frame_sizes,
                                               self.curves[lam])
                  if size >= from_size]
        return (max(values) - min(values)) / max(values)


def run_fig6(config: Fig6Config = Fig6Config(),
             plan: ExecutionPlan = SERIAL_PLAN) -> Fig6Result:
    chart = AsciiChart(title=f"Fig. 6 -- FCAT throughput vs frame size "
                             f"(N = {config.n_tags})",
                       x_label="frame size f", y_label="tags/second")
    curves: dict[int, list[float]] = {}
    for index, lam in enumerate(config.lams):
        seed = config.seed + 1000 * index
        specs = [
            CellSpec(protocol=Fcat(lam=lam, frame_size=frame_size,
                                   initial_estimate=float(config.n_tags)),
                     n_tags=config.n_tags, runs=config.runs,
                     seed=seed + grid_index)
            for grid_index, frame_size in enumerate(config.frame_sizes)
        ]
        cells = execute_cells(specs, jobs=plan.jobs, cache=plan.cache,
                              planner=plan.planner)
        curves[lam] = [cell.throughput_mean for cell in cells]
        chart.add_series(f"FCAT-{lam}",
                         np.asarray(config.frame_sizes, dtype=float),
                         np.asarray(curves[lam]))
    return Fig6Result(config=config, curves=curves, chart=chart)
