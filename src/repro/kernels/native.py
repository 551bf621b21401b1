"""The native FCAT frame walk: build it on first use, load it, or decline.

:mod:`repro.kernels.fcat` walks each frame in C when this module can
hand it the compiled walk (``fcat_walk.c``, beside this file), and in
Python otherwise; the two are bit-identical, so which one ran never shows
in a result.  :func:`library` compiles the source with the system C
compiler the first time an FCAT session asks for it -- never at import --
into a per-user cache directory keyed by the source's SHA-256, and loads
it with :class:`ctypes.PyDLL`, so a session keeps the GIL and stays
single-threaded by construction.  The build writes a temporary file and
renames it into place with :func:`os.replace`, so processes racing on a
cold cache each load a complete library.  Any failure -- no compiler, a
compile error, an unwritable cache -- makes :func:`library` return
``None`` for the life of the process, and :data:`failure` says why.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

__all__ = ["REFILL", "REPAIR", "SOURCE", "failure", "library"]

#: The walk's C source, shipped as package data.
SOURCE = Path(__file__).with_name("fcat_walk.c")

#: The compiler looked up on ``PATH``, and its flags (portable: no
#: ``-march=native``, so a cached library runs on any host of the arch).
COMPILER = "cc"
FLAGS = ("-O2", "-shared", "-fPIC")

#: ``const double *refill(int64 need, int64 *len_out)``: a fresh uniform
#: block of ``*len_out`` values, NULL on error.
REFILL = ctypes.CFUNCTYPE(ctypes.c_void_p, ctypes.c_int64,
                          ctypes.POINTER(ctypes.c_int64))
#: ``int repair(const int64 *counts, int64 n, int64 *ranks, int64 total)``:
#: 1 if the ranks changed, 0 if not, -1 on error.
REPAIR = ctypes.CFUNCTYPE(ctypes.c_int, ctypes.POINTER(ctypes.c_int64),
                          ctypes.c_int64, ctypes.POINTER(ctypes.c_int64),
                          ctypes.c_int64)

#: Why the native walk is unavailable (``None`` while it is, or untried).
failure: str | None = None

_lock = threading.Lock()
_tried = False
_library: ctypes.PyDLL | None = None


def _cache_dir() -> Path:
    return Path.home() / ".cache" / "repro" / "native"


def library() -> ctypes.PyDLL | None:
    """The loaded walk, building it on the first call; ``None`` if not."""
    global _tried, _library, failure
    if _tried:
        return _library
    with _lock:
        if not _tried:
            try:
                _library = _declare(ctypes.PyDLL(str(_build())))
            except (OSError, RuntimeError, subprocess.SubprocessError) \
                    as error:
                failure = f"{type(error).__name__}: {error}"
            _tried = True
    return _library


def _build() -> Path:
    """The compiled library for the current source, compiling on a miss."""
    source = SOURCE.read_bytes()
    digest = hashlib.sha256(source + " ".join(FLAGS).encode()).hexdigest()
    target = _cache_dir() / f"fcat_walk-{digest[:16]}.so"
    if target.exists():
        return target
    compiler = shutil.which(COMPILER)
    if compiler is None:
        raise RuntimeError(f"no C compiler {COMPILER!r} on PATH")
    target.parent.mkdir(parents=True, exist_ok=True)
    handle, partial = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
    os.close(handle)
    try:
        built = subprocess.run([compiler, *FLAGS, "-o", partial,
                                str(SOURCE)], capture_output=True,
                               text=True, timeout=300)
        if built.returncode:
            raise RuntimeError(f"{COMPILER} failed: {built.stderr.strip()}")
        os.replace(partial, target)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)
    return target


def _declare(lib: ctypes.PyDLL) -> ctypes.PyDLL:
    """Attach the C signatures (see the prototypes in ``fcat_walk.c``)."""
    i64, session = ctypes.c_int64, ctypes.c_void_p
    lib.fcat_new.restype = session
    lib.fcat_new.argtypes = [i64, i64, ctypes.c_double, ctypes.c_double,
                             ctypes.c_double, ctypes.c_double, ctypes.c_int,
                             REFILL, REPAIR]
    lib.fcat_stats.restype = ctypes.POINTER(i64)
    lib.fcat_stats.argtypes = [session]
    lib.fcat_frame.restype = ctypes.c_int
    lib.fcat_frame.argtypes = [session, ctypes.POINTER(i64), i64,
                               ctypes.c_int]
    lib.fcat_probe.restype = ctypes.c_int
    lib.fcat_probe.argtypes = [session]
    lib.fcat_free.restype = None
    lib.fcat_free.argtypes = [session]
    return lib
