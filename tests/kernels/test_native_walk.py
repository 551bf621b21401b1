"""The native FCAT walk: bit-identical to the Python walk, or not used.

``fcat_walk.c`` ports the Python walk, which stays the reference.  The
matrix below runs every channel, λ and population through both walks
and compares everything a caller can see: each ``ReadingResult`` field,
the telemetry, and the generator's state after the session.  The loader
tests check that a missing compiler, a compile error or an unwritable
cache each select the Python walk quietly, and that an exception raised
in a callback from C reaches the caller.
"""

from __future__ import annotations

import dataclasses
import shutil

import numpy as np
import pytest

from repro.core.fcat import Fcat
from repro.kernels import fcat as fcat_kernel
from repro.kernels import native
from repro.kernels.fcat import batched_fcat_sessions
from repro.kernels.frame import RankSource
from repro.obs.scope import observe
from repro.service.interference import DEFAULT_INTERFERENCE
from repro.sim.channel import PERFECT_CHANNEL, ChannelModel

CHANNELS = {
    "perfect": PERFECT_CHANNEL,
    "crc": ChannelModel(singleton_corrupt_prob=0.2),
    "ack-loss": ChannelModel(ack_loss_prob=0.2),
    "unusable": ChannelModel(collision_unusable_prob=0.3),
    "capture": ChannelModel(capture_prob=0.3),
    # The worst composite a service request can produce.
    "worst-composite": DEFAULT_INTERFERENCE.channel_for_load(
        1.0, base=ChannelModel(0.5, 0.5, 0.5, 0.5)),
}
LAMS = (2, 3, 4, 9)
SMALL_N = (1, 2, 3, 30, 300)
LARGE_N = 16_384

needs_native = pytest.mark.skipif(
    shutil.which(native.COMPILER) is None, reason="no C compiler on PATH")


def _session(protocol: Fcat, n_tags: int, seed: int,
             channel: ChannelModel) -> tuple:
    """Everything one observed session shows a caller."""
    rng = np.random.default_rng(seed)
    with observe() as obs:
        (result,) = batched_fcat_sessions(protocol, n_tags, [rng],
                                          channel=channel)
    return (dataclasses.asdict(result),
            [event.to_json() for event in obs.events.events],
            obs.metrics.snapshot(), rng.bit_generator.state)


def _cases(channel: ChannelModel):
    """(protocol, N, seed): the service's configuration at every N, plus
    a p = 1 cap at the smallest N, where saturated frames occur.

    Capture collapses the collision-source estimator at λ >= 3: p pins
    at its cap and every slot carries about half the roster, so a
    16,384-tag session takes minutes on either walk.  Capture channels
    run that population at λ = 2 only.
    """
    for lam in LAMS:
        for n_tags in SMALL_N:
            for seed in range(3):
                yield Fcat(lam=lam, initial_estimate=float(n_tags)), \
                    n_tags, seed
                if n_tags <= 3:
                    yield Fcat(lam=lam, initial_estimate=float(n_tags),
                               max_report_probability=1.0), n_tags, seed
        if lam == 2 or not channel.capture_prob:
            yield Fcat(lam=lam, initial_estimate=float(LARGE_N)), \
                LARGE_N, 0


def _run_matrix(channel: ChannelModel) -> tuple[list, dict]:
    """Every case's session, and what the walks were seen to do."""
    seen = {"refills mid-walk": 0, "repairs": 0, "saturated frames": 0}
    refill = RankSource.refill
    repair = fcat_kernel.resample_duplicate_slots

    def counting_refill(self, need):
        seen["refills mid-walk"] += need == 1  # a channel uniform's
        return refill(self, need)

    def counting_repair(*args):
        changed = repair(*args)
        seen["repairs"] += changed
        return changed

    sessions = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RankSource, "refill", counting_refill)
        patch.setattr(fcat_kernel, "resample_duplicate_slots",
                      counting_repair)
        for protocol, n_tags, seed in _cases(channel):
            session = _session(protocol, n_tags, seed, channel)
            # A singleton in a p = 1 frame: the saturated walk ran.
            seen["saturated frames"] += sum(
                1 for event in session[1] if event["event"] == "frame"
                and event["report_probability"] == 1.0
                and event["singleton"])
            sessions.append(session)
    return sessions, seen


@needs_native
@pytest.mark.parametrize("channel_name", sorted(CHANNELS))
def test_the_walks_are_bit_identical(channel_name, monkeypatch):
    channel = CHANNELS[channel_name]
    assert native.library() is not None, native.failure
    native_sessions, native_seen = _run_matrix(channel)
    monkeypatch.setattr(native, "library", lambda: None)
    python_sessions, python_seen = _run_matrix(channel)
    for case, mine, reference in zip(_cases(channel), native_sessions,
                                     python_sessions):
        assert mine == reference, case
    assert native_seen == python_seen
    # The matrix reaches the walk's rare paths.
    assert python_seen["repairs"] > 0
    assert python_seen["saturated frames"] > 0
    assert (python_seen["refills mid-walk"] > 0) \
        == (channel != PERFECT_CHANNEL)


def test_the_native_walk_loads_where_a_compiler_exists():
    """CI must not pass on the fallback alone: with ``cc`` on PATH the
    walk has to build and load."""
    if shutil.which(native.COMPILER) is None:
        assert native.library() is None
    else:
        assert native.library() is not None, native.failure


# -- the loader ---------------------------------------------------------

@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """A loader that has not tried yet, building into an empty cache."""
    monkeypatch.setattr(native, "_tried", False)
    monkeypatch.setattr(native, "_library", None)
    monkeypatch.setattr(native, "failure", None)
    monkeypatch.setattr(native, "_cache_dir", lambda: tmp_path / "cache")
    return tmp_path


def _small_batch() -> list:
    return batched_fcat_sessions(
        Fcat(lam=2), 200, [np.random.default_rng(seed) for seed in range(3)],
        channel=CHANNELS["worst-composite"])


@needs_native
def test_a_cold_cache_builds_one_library(fresh_loader):
    assert native.library() is not None, native.failure
    (built,) = (fresh_loader / "cache").iterdir()
    assert built.suffix == ".so"  # no temporary file left behind


@pytest.mark.parametrize("breakage", ["no compiler", "compile error",
                                      "unwritable cache"])
def test_a_broken_build_selects_the_python_walk(breakage, fresh_loader,
                                                monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(native, "library", lambda: None)
        expected = _small_batch()
    if breakage == "no compiler":
        monkeypatch.setattr(native, "COMPILER", "no-such-cc")
    elif breakage == "compile error":
        broken = fresh_loader / "broken.c"
        broken.write_text("this is not C\n")
        monkeypatch.setattr(native, "SOURCE", broken)
    else:
        blocker = fresh_loader / "blocker"
        blocker.write_text("")
        monkeypatch.setattr(native, "_cache_dir",
                            lambda: blocker / "cache")
    assert _small_batch() == expected
    assert native.library() is None
    assert native.failure


# -- callbacks and the C state's lifetime -------------------------------

class _Boom(Exception):
    pass


def _boom(*args):
    raise _Boom("from a callback")


@needs_native
@pytest.mark.parametrize("callback", ["refill", "repair"])
def test_a_callback_exception_is_re_raised(callback, monkeypatch, capsys):
    if callback == "refill":
        monkeypatch.setattr(RankSource, "refill", _boom)
    else:
        monkeypatch.setattr(fcat_kernel, "resample_duplicate_slots", _boom)
    # Three tags at p ≈ 1/2: a slot soon draws one rank twice.
    with pytest.raises(_Boom, match="from a callback"):
        batched_fcat_sessions(Fcat(lam=2, initial_estimate=3.0), 3,
                              [np.random.default_rng(0)])
    # Recorded and re-raised, not printed and dropped by ctypes.
    assert "_Boom" not in capsys.readouterr().err


@needs_native
def test_the_c_state_is_freed_when_the_runaway_guard_raises(monkeypatch):
    lib = native.library()
    free = lib.fcat_free
    freed = []

    def counting_free(session):
        freed.append(session)
        free(session)

    monkeypatch.setattr(lib, "fcat_free", counting_free)
    with pytest.raises(RuntimeError, match="exceeded 1000 slots"):
        batched_fcat_sessions(Fcat(lam=3, max_slots_factor=0.0), 1000,
                              [np.random.default_rng(seed)
                               for seed in range(2)])
    assert len(freed) == 2
