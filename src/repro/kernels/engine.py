"""Engine selection and the batched Monte-Carlo entry point.

Every experiment cell and service request asks for the ``"kernel"``
engine (``CellSpec.engine``); ``"scalar"`` names the per-slot reference
implementations the kernels are held to.  This module owns the mapping
from (protocol, channel) to a kernel and the one entry point the
executor calls:

* :func:`kernel_supported` -- whether a batched kernel implements this
  exact configuration;
* :func:`batch_read_all` -- the lockstep kernel sessions for a
  supported configuration (``None`` otherwise), for callers that manage
  their own generators;
* :func:`run_batch` -- the executor-facing unit: one chunk of per-run
  child seeds in, one :class:`~repro.sim.result.ReadingResult` per child
  out.  Unsupported configurations fall back to
  :func:`repro.experiments.runner.run_single` per child, which is
  *bit-for-bit* the scalar chunk -- the kernel engine never changes what
  an unsupported cell computes.

The kernel path deliberately skips :class:`~repro.sim.population`
materialization: slot outcomes are independent of tag ID bit patterns
(see :mod:`repro.kernels.records`), so minting 10 000 CRC-checked EPC
IDs per run would be pure overhead.  This is part of kernel-v2 seed
semantics (``docs/performance.md``): the scalar path consumes its
generator on population + per-slot draws, the kernel path on
frame-at-once draws, and the two are statistically -- not bitwise --
equivalent (except DFSA, whose kernel is bitwise equal on draw-free
channels).
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator, Sequence

import numpy as np

from repro.air.timing import ICODE_TIMING, TimingModel
from repro.baselines.dfsa import Dfsa
from repro.core.fcat import Fcat
from repro.core.scat import Scat
from repro.kernels.dfsa import batched_dfsa_sessions
from repro.kernels.fcat import _draw_free, batched_fcat_sessions
from repro.kernels.scat import batched_scat_sessions
from repro.sim.base import TagReadingProtocol
from repro.sim.channel import PERFECT_CHANNEL, ChannelModel
from repro.sim.result import ReadingResult

#: The engines a cell or a service request may ask for.
ENGINES = ("scalar", "kernel")


def kernel_supported(protocol: TagReadingProtocol,
                     channel: ChannelModel = PERFECT_CHANNEL) -> bool:
    """Whether a batched kernel implements this exact configuration.

    FCAT: every configuration on every channel (the kernel's one walk
    draws channel outcomes as data).  SCAT: draw-free channels without
    the Kodialam pre-estimation step.  DFSA: draw-free channels.
    Everything else -- including every other baseline protocol -- runs
    scalar.
    """
    if isinstance(protocol, Fcat):
        return True
    if isinstance(protocol, Scat):
        return _draw_free(channel) and protocol.config.pre_estimate_cv is None
    if isinstance(protocol, Dfsa):
        return _draw_free(channel)
    return False


def batch_read_all(protocol: TagReadingProtocol, n_tags: int,
                   rngs: list[np.random.Generator],
                   channel: ChannelModel = PERFECT_CHANNEL,
                   timing: TimingModel = ICODE_TIMING
                   ) -> list[ReadingResult] | None:
    """Lockstep kernel sessions for a supported configuration, else None.

    One session per generator, results in input order.  The caller owns
    generator minting and per-result bookkeeping (completeness check,
    ``observe_session``); :func:`run_batch` wraps all of that for the
    executor.
    """
    if not kernel_supported(protocol, channel):
        return None
    with _cyclic_gc_paused():
        if isinstance(protocol, Fcat):
            return batched_fcat_sessions(protocol, n_tags, rngs,
                                         channel=channel, timing=timing)
        if isinstance(protocol, Scat):
            return batched_scat_sessions(protocol, n_tags, rngs,
                                         channel=channel, timing=timing)
        assert isinstance(protocol, Dfsa)
        return batched_dfsa_sessions(protocol, n_tags, rngs,
                                     channel=channel, timing=timing)


@contextmanager
def _cyclic_gc_paused() -> Iterator[None]:
    """Hold off the cyclic garbage collector for one kernel batch.

    A session allocates a record list per stored collision and a pending
    list per recorded tag -- hundreds of thousands of containers at
    facility scale, none of them in a reference cycle, all freed by
    reference counting when the session ends.  Left on, the collector
    rescans them (and the rest of the heap) every few thousand
    allocations, which took about a tenth of the inventory service's
    cold-request time.  Restores the previous setting, so nested or
    concurrent batches leave the collector as they found it.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


# repro: kernel scalar=repro.experiments.runner:run_single test=tests/kernels/test_engine.py
def run_batch(protocol: TagReadingProtocol, n_tags: int,
              children: Sequence[np.random.SeedSequence],
              channel: ChannelModel = PERFECT_CHANNEL,
              timing: TimingModel = ICODE_TIMING) -> list[ReadingResult]:
    """Run one chunk of independent sessions, kernel-batched where possible.

    The kernel-engine counterpart of the executor's ``run_single`` loop:
    child seed ``i`` drives run ``i`` whoever computes it, results come
    back in child order, and every result passes the same completeness
    check and ``observe_session`` hook the scalar path applies.
    Unsupported (protocol, channel) configurations fall back to the
    scalar ``run_single`` per child -- bit-identical to ``engine="scalar"``.
    This fallback is the only place the engine is decided from the input.
    """
    from repro.experiments.runner import rng_from_seed, run_single
    results = batch_read_all(
        protocol, n_tags, [rng_from_seed(child) for child in children],
        channel=channel, timing=timing)
    if results is None:
        return [run_single(protocol, n_tags, child, channel=channel,
                           timing=timing) for child in children]
    for result in results:
        if not result.complete and channel == PERFECT_CHANNEL:
            raise RuntimeError(
                f"{protocol.name} read {result.n_read}/{result.n_tags} "
                "tags on a perfect channel")
        protocol.observe_session(result)
    return results
