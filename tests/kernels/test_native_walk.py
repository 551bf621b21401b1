"""The native FCAT loop: bit-identical to the Python walk, or not used.

``fcat_walk.c`` runs a whole batch -- count draws, walk, duplicate-rank
repair, estimator, termination probe and telemetry rows -- without
calling back into Python, and the Python walk stays the reference.  The
matrices below run channels, λ, populations and estimator settings
through both and compare everything a caller can see: each
``ReadingResult`` field (the estimate trace float-exact), the telemetry,
any error the batch raised, and the generator's state after the batch.
The channel matrix also checks, from the C loop's own counters, that it
repaired the frames the Python walk repaired, reached both of the
repair's branches and stored as many records as the Python walk
registered.  The C count draw is held to ``Generator.binomial`` on its
own, draw for draw, and the empty-source estimator finishes at the
service's frame size.  The loader tests check that a missing compiler,
header or library, a compile error or an unwritable cache each select
the Python walk quietly, and that the cache key follows numpy.  The last
tests check that a native batch repairs without the Python repair, that
the C state is freed on every exit, and that a batch -- repair included
-- releases the GIL.
"""

from __future__ import annotations

import ctypes
import dataclasses
import shutil
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.fcat import Fcat
from repro.kernels import engine
from repro.kernels import fcat as fcat_kernel
from repro.kernels import native
from repro.kernels.fcat import batched_fcat_sessions
from repro.kernels.frame import RankSource
from repro.kernels.records import KernelRecordStore
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
    shutil.which(native.COMPILER) is None
    or not all(path.is_file() for path in native.inputs()),
    reason="no C compiler on PATH, or numpy's headers or static random "
           "library missing")


def _observed(protocol: Fcat, n_tags: int, seeds,
              channel: ChannelModel = PERFECT_CHANNEL) -> tuple:
    """Everything one observed batch shows a caller, an error included."""
    rngs = [np.random.default_rng(seed) for seed in seeds]
    results, error = None, None
    with observe() as obs:
        try:
            results = batched_fcat_sessions(protocol, n_tags, rngs,
                                            channel=channel)
        except (RuntimeError, ZeroDivisionError) as raised:
            error = repr(raised)
    return ([dataclasses.asdict(result) for result in results or ()],
            [event.to_json() for event in obs.events.events],
            obs.metrics.snapshot(),
            [rng.bit_generator.state for rng in rngs], error)


def _on_both_walks(run, monkeypatch) -> tuple:
    """``run()`` on the native loop, then on the Python walk."""
    assert native.library() is not None, native.failure
    mine = run()
    with monkeypatch.context() as patch:
        patch.setattr(native, "library", lambda: None)
        reference = run()
    return mine, reference


def _saturated_singletons(events: list[dict]) -> int:
    """Frames at p = 1 that read a tag: the saturated walk ran."""
    return sum(1 for event in events if event["event"] == "frame"
               and event["report_probability"] == 1.0
               and event["singleton"])


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


#: The C loop's repair and record counters (``fcat_stats``), by name.
C_COUNTERS = {"repairs": fcat_kernel._REPAIRED_FRAMES,
              "sparse rounds": fcat_kernel._RETRY_ROUNDS,
              "dense shuffles": fcat_kernel._DENSE_SHUFFLES,
              "records": fcat_kernel._RECORDS}


def _count_c_stats(patch, seen: dict) -> None:
    """Add each native session's repair and record counters into
    ``seen`` as the session is closed (its one ``fcat_stats`` read)."""
    lib = native.library()
    if lib is None:
        return
    stats = lib.fcat_stats

    def counting_stats(session):
        counters = stats(session)
        for name, index in C_COUNTERS.items():
            seen[name] = seen.get(name, 0) + counters[index]
        return counters

    patch.setattr(lib, "fcat_stats", counting_stats)


def _run_matrix(channel: ChannelModel) -> tuple[list, dict]:
    """Every case's session, and what the walks were seen to do.

    Refills are counted where they run in Python (the Python walk's
    :class:`RankSource`); the native loop refills in C, and the
    generator states compared show it drew the same blocks.  Repairs
    (frames whose ranks the repair changed) are counted by the Python
    walk's :func:`resample_duplicate_slots` and by the C loop's counters;
    ``repair calls`` counts calls of the Python function.  Records are
    counted by the C loop's counter and, on the Python walk, as calls of
    :meth:`KernelRecordStore.register`, its one record path.
    """
    seen = {"refills mid-walk": 0, "repairs": 0, "repair calls": 0,
            "register calls": 0, "saturated frames": 0}
    refill = RankSource.refill
    repair = fcat_kernel.resample_duplicate_slots
    register = KernelRecordStore.register

    def counting_refill(self, need):
        seen["refills mid-walk"] += need == 1  # a channel uniform's
        return refill(self, need)

    def counting_repair(*args):
        changed = repair(*args)
        seen["repair calls"] += 1
        seen["repairs"] += changed
        return changed

    def counting_register(self, unknown):
        seen["register calls"] += 1
        return register(self, unknown)

    sessions = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RankSource, "refill", counting_refill)
        patch.setattr(fcat_kernel, "resample_duplicate_slots",
                      counting_repair)
        patch.setattr(KernelRecordStore, "register", counting_register)
        _count_c_stats(patch, seen)
        for protocol, n_tags, seed in _cases(channel):
            session = _observed(protocol, n_tags, [seed], channel)
            seen["saturated frames"] += _saturated_singletons(session[1])
            sessions.append(session)
    return sessions, seen


@needs_native
@pytest.mark.parametrize("channel_name", sorted(CHANNELS))
def test_the_walks_are_bit_identical(channel_name, monkeypatch):
    channel = CHANNELS[channel_name]
    (native_sessions, native_seen), (python_sessions, python_seen) = \
        _on_both_walks(lambda: _run_matrix(channel), monkeypatch)
    for case, mine, reference in zip(_cases(channel), native_sessions,
                                     python_sessions):
        assert mine == reference, case
    assert native_seen["refills mid-walk"] == 0
    # The C loop repaired the frames the Python walk repaired, without
    # calling the Python repair.
    assert native_seen["repair calls"] == 0
    assert native_seen["repairs"] == python_seen["repairs"]
    # It stored the records the Python walk registered, without Python.
    assert native_seen["register calls"] == 0
    assert native_seen["records"] == python_seen["register calls"] > 0
    assert native_seen["saturated frames"] \
        == python_seen["saturated frames"]
    # The matrix reaches the walk's rare paths, and both of the repair's
    # branches: sparse segments' redraw rounds and dense segments'
    # shuffles.
    assert python_seen["repairs"] > 0
    assert native_seen["sparse rounds"] > 0
    assert native_seen["dense shuffles"] > 0
    assert python_seen["saturated frames"] > 0
    assert (python_seen["refills mid-walk"] > 0) \
        == (channel != PERFECT_CHANNEL)


#: The estimator matrix's channels: draw-free, and one that draws every
#: outcome (capture included, which the empty source is immune to).
ESTIMATOR_CHANNELS = (PERFECT_CHANNEL, ChannelModel(0.1, 0.1, 0.1, 0.1))


@needs_native
@pytest.mark.parametrize("source", ["collision", "empty"])
def test_the_estimator_is_bit_identical(source, monkeypatch):
    """The C estimator against ``EmbeddedEstimator`` in each source, from
    a blind, the default and an exact start, at frame sizes 1, 2 and 30
    (3, 4 and 30 for the empty source, which refuses frames under 3
    slots), with ``p`` capped at 1/2 and at 1 (saturated frames,
    where the estimator returns without inverting).

    The smallest frames run at small N only: there the estimator often
    livelocks until the runaway guard stops the session (61,000 slots at
    N = 300), which is compared too but costs seconds.
    """
    small = (1, 2, 30) if source == "collision" else (3, 4, 30)
    cases = [(Fcat(lam=lam, frame_size=frame_size, initial_estimate=start,
                   max_report_probability=max_p, estimator_source=source),
              n_tags, channel)
             for n_tags, lam, frame_sizes in ((3, 2, small),
                                              (40, 3, small),
                                              (300, 4, (30,)))
             for start in (1.0, 64.0, float(n_tags))
             for frame_size in frame_sizes
             for max_p in (0.5, 1.0)
             for channel in ESTIMATOR_CHANNELS]

    def run_cases():
        return [_observed(protocol, n_tags, range(2), channel)
                for protocol, n_tags, channel in cases]

    mine, reference = _on_both_walks(run_cases, monkeypatch)
    for case, got, expected in zip(cases, mine, reference):
        assert got == expected, case
    assert sum(_saturated_singletons(events)
               for _, events, *_ in reference) > 0
    assert any(error is None for *_, error in reference)


@needs_native
def test_a_runaway_raise_is_bit_identical(monkeypatch):
    """The guard stops a three-session batch mid-round: the rows written
    before it, the error and the generator states match."""
    protocol = Fcat(lam=3, max_slots_factor=0.0)
    mine, reference = _on_both_walks(
        lambda: _observed(protocol, 1000, range(3), ESTIMATOR_CHANNELS[1]),
        monkeypatch)
    assert mine == reference
    results, events, _, _, error = mine
    assert not results and "exceeded 1000 slots" in error
    assert sum(1 for event in events if event["event"] == "frame") >= 90


@needs_native
def test_an_estimate_past_float_resolution_raises_on_both_walks(
        monkeypatch):
    """At an initial estimate of 10^17, ``1 - p`` rounds to 1 and Eq. 12
    divides by ``log(1) = 0``: both walks raise Python's
    ``ZeroDivisionError`` after the same frame."""
    protocol = Fcat(lam=2, initial_estimate=1e17)
    mine, reference = _on_both_walks(
        lambda: _observed(protocol, 100, range(2)), monkeypatch)
    assert mine == reference
    assert "ZeroDivisionError" in mine[-1]


@needs_native
@pytest.mark.parametrize("lam", [2, 3, 4])
def test_the_empty_source_finishes_at_the_service_frame_size(lam):
    """The capture-robust empty-source estimator at the service's f = 30
    and initial estimate N: a 16,384-tag session finishes on the C walk,
    on a perfect and on a capture channel (ROADMAP item 6's pin before
    the service may use that source)."""
    assert native.library() is not None, native.failure
    protocol = Fcat(lam=lam, estimator_source="empty",
                    initial_estimate=float(LARGE_N))
    for channel in (PERFECT_CHANNEL, CHANNELS["capture"]):
        (result,) = batched_fcat_sessions(
            protocol, LARGE_N, [np.random.default_rng(lam)],
            channel=channel)
        assert result.complete, (channel, result.n_read)


#: (n, p) for the count draw: n = 1, 60 and a 52,428-tag zone; p small,
#: with n * p just under and just over 30 (numpy's inversion and BTPE
#: samplers), 1/2, over 1/2 (drawn as n - Binomial(n, 1 - p)) and 1.
BINOMIAL_CASES = [(n_tags, p) for n_tags in (1, 60, 52_428)
                  for p in (1.4 / n_tags if n_tags > 1 else 0.3,
                            29.99 / n_tags, 30.01 / n_tags, 0.5,
                            1.0 - 29.99 / n_tags, 1.0 - 30.01 / n_tags,
                            0.75, 1.0)
                  if 0.0 < p <= 1.0]


@needs_native
@pytest.mark.parametrize("n_tags,p", BINOMIAL_CASES)
def test_the_count_draw_is_generator_binomial(n_tags, p):
    """``fcat_binomial_fill``, which draws every frame's slot counts,
    against ``Generator.binomial(n, p, size=len)``: the same counts,
    draw for draw, and the same generator state after."""
    lib = native.library()
    size = 3_000
    mine, reference = np.random.default_rng(7), np.random.default_rng(7)
    counts = np.empty(size, np.int64)
    lib.fcat_binomial_fill(mine.bit_generator.ctypes.bit_generator, n_tags,
                           p, counts.ctypes.data_as(
                               ctypes.POINTER(ctypes.c_int64)), size)
    expected = reference.binomial(n_tags, p, size=size)
    assert np.array_equal(counts, expected), (n_tags, p)
    assert mine.bit_generator.state == reference.bit_generator.state


def test_the_native_walk_loads_where_a_compiler_exists():
    """CI must not pass on the fallback alone: with ``cc`` on PATH and
    numpy's headers and static library present, the loop has to build
    and load."""
    if shutil.which(native.COMPILER) is None \
            or not all(path.is_file() for path in native.inputs()):
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


@pytest.mark.parametrize("missing", ["NPYRANDOM", "NUMPY_INCLUDE",
                                     "PYTHON_INCLUDE"])
def test_a_missing_build_input_selects_the_python_walk(missing,
                                                       fresh_loader,
                                                       monkeypatch):
    """No static random library, no numpy header or no Python header:
    the Python walk runs, and ``native.failure`` names the file."""
    with monkeypatch.context() as patch:
        patch.setattr(native, "library", lambda: None)
        expected = _small_batch()
    gone = fresh_loader / "gone"
    monkeypatch.setattr(native, missing, gone)
    assert _small_batch() == expected
    assert native.library() is None
    (named,) = [path for path in native.inputs() if gone in path.parents
                or path == gone]
    assert str(named) in native.failure


def test_the_cache_key_follows_numpy(fresh_loader, monkeypatch):
    """A numpy upgrade -- a new version, or new bytes in its static
    random library -- names a new library, so it is rebuilt rather than
    keep an old binomial."""
    built = native._target()
    copy = fresh_loader / "libnpyrandom.a"
    copy.write_bytes(native.NPYRANDOM.read_bytes())
    monkeypatch.setattr(native, "NPYRANDOM", copy)
    assert native._target() == built  # the bytes count, not the path
    with monkeypatch.context() as patch:
        patch.setattr(np, "__version__", "0.0.0")
        assert native._target() != built
    copy.write_bytes(copy.read_bytes() + b"\n")
    assert native._target() != built


# -- the repair, the C state's lifetime and the GIL ----------------------

class _Boom(Exception):
    pass


def _boom(*args):
    raise _Boom("the Python repair ran")


@needs_native
def test_a_native_batch_repairs_without_python(monkeypatch):
    """With the Python repair patched to raise, a native batch that
    repairs still completes, bit-identical to an unpatched run:
    results, telemetry and generator state."""
    # Three tags at p ≈ 1/2: a slot soon draws one rank twice.
    protocol = Fcat(lam=2, initial_estimate=3.0)
    expected = _observed(protocol, 3, range(3))
    seen: dict = {}
    with monkeypatch.context() as patch:
        _count_c_stats(patch, seen)
        patch.setattr(fcat_kernel, "resample_duplicate_slots", _boom)
        assert _observed(protocol, 3, range(3)) == expected
    assert expected[-1] is None
    assert seen["repairs"] > 0


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


#: A session long enough (≈0.2 s in C) that a thread sleeping 1 ms at a
#: time wakes well over fifty times inside it.
GIL_TAGS = 1 << 19


@needs_native
def test_a_native_batch_releases_the_gil(monkeypatch):
    """A thread sleeping 1 ms at a time keeps waking while one long batch
    runs in C, duplicate-rank repairs included, and the calling thread
    runs no Python inside the call.  Were ``fcat_run`` loaded through
    ``PyDLL``, the sleeper could not run inside the call; did it call
    back into Python, the profile hook would see the call.

    How late the sleeper wakes is not checked: that is the host's doing,
    not the lock's.  On a shared 2-core host its p99 lateness over five
    rounds was 0.8-5.5 ms beside a batch and 0.6-4.6 ms beside an idle
    wait of the same length.
    """
    lib = native.library()
    run = lib.fcat_run
    window = []
    python_calls = []

    def profile(frame, event, arg):
        if event == "call":
            python_calls.append(frame.f_code.co_name)

    def timed_run(*args):
        window.append(time.perf_counter())
        sys.setprofile(profile)  # this thread only
        try:
            status = run(*args)
        finally:
            sys.setprofile(None)
        window.append(time.perf_counter())
        return status

    monkeypatch.setattr(lib, "fcat_run", timed_run)
    seen: dict = {}
    _count_c_stats(monkeypatch, seen)
    naps = []
    stop = threading.Event()

    def sleeper():
        while not stop.is_set():
            start = time.perf_counter()
            time.sleep(0.001)
            naps.append((start, time.perf_counter()))

    thread = threading.Thread(target=sleeper)
    thread.start()
    try:
        # Paused as in every batch the engine runs.
        with engine._cyclic_gc_paused():
            batched_fcat_sessions(
                Fcat(lam=2, initial_estimate=float(GIL_TAGS)), GIL_TAGS,
                [np.random.default_rng(0)])
    finally:
        stop.set()
        thread.join(timeout=10.0)
    assert not thread.is_alive()
    begin, end = window
    # The batch repaired duplicate ranks, in C, inside the window.
    assert seen["repairs"] > 0
    assert not python_calls, python_calls[:5]
    late = [woke - start - 0.001 for start, woke in naps
            if begin <= start and woke <= end]
    assert len(late) >= 50, (len(late), end - begin)
