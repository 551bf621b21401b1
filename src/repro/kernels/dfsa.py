"""Count-only DFSA kernel.

The scalar :class:`repro.baselines.dfsa.Dfsa` already simulates each
frame with one ``rng.integers`` call and a ``bincount`` -- its remaining
per-slot cost is the Python loop over singleton members that applies the
channel's per-tag error draws.  On a *draw-free* channel that loop is
pure bookkeeping: every singleton decodes, every ack lands, no capture
happens, so tag identities never matter and the whole session reduces to
its active **count**:

* ``choices ~ Uniform(frame_size)^n_active`` -- the very same RNG call
  the scalar engine makes;
* ``occupancy = bincount(choices)`` classifies all slots at once;
* ``n_active -= #singleton slots`` -- which tags left is irrelevant,
  the survivors' next-frame choices are i.i.d. uniform either way.

Because the per-frame generator consumption is *identical* to the
scalar engine's (the channel helpers short-circuit without drawing when
their probabilities are zero), the kernel is **bit-for-bit identical**
to ``Dfsa.read_all`` given the same generator state -- stronger than
the kernel-v2 statistical contract the FCAT/SCAT kernels carry, and
pinned as such by ``tests/kernels/test_dfsa_kernel.py``.

Channels with any non-zero error knob need per-tag draws in scalar
order; the engine routes those configs to the scalar path.
"""

from __future__ import annotations

import numpy as np

from repro.air.timing import ICODE_TIMING, TimingModel
from repro.baselines.dfsa import CHA_KIM_COEFFICIENT, Dfsa
from repro.kernels.fcat import _draw_free
from repro.sim.channel import PERFECT_CHANNEL, ChannelModel
from repro.sim.result import ReadingResult


class _DfsaKernelSession:
    """One DFSA session advanced frame by frame over an active count."""

    def __init__(self, name: str, protocol: Dfsa, n_tags: int,
                 rng: np.random.Generator,
                 channel: ChannelModel = PERFECT_CHANNEL,
                 timing: TimingModel = ICODE_TIMING) -> None:
        if not _draw_free(channel):
            raise ValueError("the DFSA kernel requires a draw-free channel; "
                             "use the scalar engine")
        self.rng = rng
        self.result = ReadingResult(protocol=name, n_tags=n_tags,
                                    n_read=0, timing=timing)
        self.n_active = n_tags
        if protocol.initial_frame_size is not None:
            self.frame_size = protocol.initial_frame_size
        else:
            self.frame_size = max(n_tags, 1)
        self.frames_left = protocol.max_frames

    def step(self) -> bool:
        """Advance one frame; True when the session terminated."""
        if self.frames_left <= 0:
            raise RuntimeError("DFSA exceeded max_frames without finishing")
        self.frames_left -= 1
        result = self.result
        result.frames += 1
        result.advertisements += 1  # frame-size announcement
        frame_size = max(int(self.frame_size), 1)
        choices = self.rng.integers(0, frame_size, size=self.n_active)
        result.tag_transmissions += self.n_active
        occupancy = np.bincount(choices, minlength=frame_size)
        empties = int((occupancy == 0).sum())
        singles = int((occupancy == 1).sum())
        collisions = frame_size - empties - singles
        result.empty_slots += empties
        result.singleton_slots += singles
        result.collision_slots += collisions
        # Draw-free channel: every singleton decodes and is acked, and a
        # tag reads at most once, so the reader's dedup set is vacuous.
        result.n_read += singles
        self.n_active -= singles
        if empties == frame_size:
            return True  # a fully silent frame: nobody transmits anymore
        if collisions == 0:
            # Collision-free but not silent: one-slot confirmation frame
            # (scalar mirror; see ``Dfsa.read_all``).
            self.frame_size = 1
        elif empties == 0 and singles == 0:
            self.frame_size = frame_size * 2  # blind start: double up
        else:
            self.frame_size = max(
                int(round(CHA_KIM_COEFFICIENT * collisions)), 1)
        return False


# repro: kernel scalar=repro.baselines.dfsa:Dfsa.read_all test=tests/kernels/test_dfsa_kernel.py
def batched_dfsa_sessions(protocol: Dfsa, n_tags: int,
                          rngs: list[np.random.Generator],
                          channel: ChannelModel = PERFECT_CHANNEL,
                          timing: TimingModel = ICODE_TIMING
                          ) -> list[ReadingResult]:
    """Advance a batch of independent DFSA sessions in lockstep.

    Same contract as :func:`repro.kernels.fcat.batched_fcat_sessions`:
    one session per generator, results in input order, sessions drop out
    of the sweep as they terminate.
    """
    sessions = [_DfsaKernelSession(protocol.name, protocol, n_tags, rng,
                                   channel=channel, timing=timing)
                for rng in rngs]
    alive = list(range(len(sessions)))
    # Lockstep driver: frames within a session are serially dependent
    # (the next frame size is a function of this frame's occupancy).
    while alive:
        alive = [i for i in alive if not sessions[i].step()]
    return [session.result for session in sessions]
