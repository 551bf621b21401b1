"""Warehouse inventory management on top of the reading protocols.

The paper's introduction motivates everything with periodic inventory reads
"to guard against administration error, vendor fraud and employee theft",
noting that a single reader position may not cover the whole deployment: the
reader visits several locations and duplicate IDs are removed.  This package
implements that application layer:

* :mod:`repro.inventory.zones` -- reader positions and which tags each one
  covers.
* :mod:`repro.inventory.manager` -- run a multi-location inventory round
  with any :class:`~repro.sim.base.TagReadingProtocol`, merge and
  de-duplicate, and reconcile the result against a manifest.
* :mod:`repro.inventory.scheduling` -- color overlapping locations into
  interference-free phases and read each phase with concurrent readers.
"""

from repro.inventory.manager import (
    InventoryReport,
    InventoryRound,
    reconcile,
    run_inventory_round,
)
from repro.inventory.scheduling import (
    ParallelRound,
    ParallelSchedule,
    color_phases,
    plan_parallel_round,
    run_parallel_round,
)
from repro.inventory.zones import ReaderLocation, Warehouse

__all__ = [
    "InventoryReport",
    "InventoryRound",
    "reconcile",
    "run_inventory_round",
    "ParallelRound",
    "ParallelSchedule",
    "color_phases",
    "plan_parallel_round",
    "run_parallel_round",
    "ReaderLocation",
    "Warehouse",
]
