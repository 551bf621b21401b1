"""Vectorized frame-at-once simulation kernels (ROADMAP batching item).

Drop-in batched engines for the hot protocols -- FCAT, SCAT and the
DFSA baseline -- that replace per-slot Python iteration with bulk RNG
draws and array classification, plus the lockstep ``run_batch`` entry
point the experiment executor dispatches every kernel-engine chunk to
(the default engine of every cell).
Scalar implementations in :mod:`repro.core` / :mod:`repro.baselines`
remain the reference; every kernel registers its scalar counterpart and
an equivalence test via the ``# repro: kernel`` contract (lint rule
R15).  Seed semantics, the batching model and the measured speedups are
documented in ``docs/performance.md``.
"""

from repro.kernels.dfsa import batched_dfsa_sessions
from repro.kernels.engine import (ENGINES, batch_read_all, kernel_supported,
                                  run_batch)
from repro.kernels.fcat import batched_fcat_sessions
from repro.kernels.frame import (RankSource, draw_slot_counts,
                                 resample_duplicate_slots)
from repro.kernels.records import KernelRecordStore
from repro.kernels.scat import batched_scat_sessions

__all__ = [
    "ENGINES",
    "KernelRecordStore",
    "batch_read_all",
    "batched_dfsa_sessions",
    "batched_fcat_sessions",
    "RankSource",
    "batched_scat_sessions",
    "draw_slot_counts",
    "kernel_supported",
    "resample_duplicate_slots",
    "run_batch",
]
