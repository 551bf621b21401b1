"""The native FCAT batch loop: build it on first use, load it, or decline.

:mod:`repro.kernels.fcat` runs each batch of FCAT sessions in one C call
when this module can hand it the compiled loop (``fcat_walk.c``, beside
this file), and in Python otherwise; the two are bit-identical, so which
one ran never shows in a result.  The C loop draws its slot counts on the
session generator's ``bitgen_t`` with numpy's binomial: its inversion
sampler restated and tabulated per frame (``fcat_binomial_fill``, which
the tests hold to ``Generator.binomial``), and ``random_binomial`` from
numpy's static ``libnpyrandom.a`` above n * p = 30, so the build needs
numpy's headers, the Python headers they include, and that library.
The duplicate-rank repair draws with the same library's Lemire bounded
integers, so nothing in a batch calls back into Python.

:func:`library` compiles the source with the system C compiler the first
time an FCAT session asks for it -- never at import -- into a per-user
cache directory.  The cache key covers the source, the flags, numpy's
version and the SHA-256 of ``libnpyrandom.a``, so a numpy upgrade
rebuilds rather than keep an old binomial.  The library is loaded with
:class:`ctypes.CDLL`, which releases the GIL for the length of each call:
a batch runs while other threads (the service's event loop) keep going.
The build writes a temporary file and renames it into place with
:func:`os.replace`, so processes racing on a cold cache each load a
complete library.  Any failure -- no compiler, a missing header or
library, a compile error, an unwritable cache -- makes :func:`library`
return ``None`` for the life of the process, and :data:`failure` says why.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sysconfig
import tempfile
import threading
from pathlib import Path

import numpy as np

from repro.obs.events import FRAME_ROW

__all__ = ["Config", "ROW", "Rows", "SOURCE", "failure", "inputs", "library"]

#: The loop's C source, shipped as package data.
SOURCE = Path(__file__).with_name("fcat_walk.c")

#: The compiler looked up on ``PATH``, and its flags (portable: no
#: ``-march=native``, so a cached library runs on any host of the arch;
#: no FMA contraction, so the estimator rounds as Python does).
COMPILER = "cc"
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")

#: numpy's C headers, the Python headers they include, and numpy's static
#: random library (the binomial ``Generator.binomial`` calls).
NUMPY_INCLUDE = Path(np.get_include())
PYTHON_INCLUDE = Path(sysconfig.get_paths()["include"])
NPYRANDOM = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"

class Config(ctypes.Structure):
    """One session's settings (``Config`` in ``fcat_walk.c``)."""

    _fields_ = [("n_tags", ctypes.c_int64), ("lam", ctypes.c_int64),
                ("frame_size", ctypes.c_int64),
                ("max_slots", ctypes.c_int64),
                ("omega", ctypes.c_double), ("max_p", ctypes.c_double),
                ("initial_guess", ctypes.c_double),
                ("mode_last", ctypes.c_int32),
                ("source_empty", ctypes.c_int32),
                ("ewma_weight", ctypes.c_double),
                ("crc_p", ctypes.c_double), ("ack_p", ctypes.c_double),
                ("unusable_p", ctypes.c_double),
                ("capture_p", ctypes.c_double),
                ("draw_free", ctypes.c_int32)]


#: One telemetry row (``Row`` in ``fcat_walk.c``): the event stream's
#: frame-block row, whose layout the C struct repeats.
ROW = FRAME_ROW


class Rows(ctypes.Structure):
    """A batch's telemetry rows, grown by C (``Rows`` in ``fcat_walk.c``)."""

    _fields_ = [("data", ctypes.c_void_p), ("len", ctypes.c_int64),
                ("cap", ctypes.c_int64)]


#: Why the native loop is unavailable (``None`` while it is, or untried).
failure: str | None = None

_lock = threading.Lock()
_tried = False
_library: ctypes.CDLL | None = None


def _cache_dir() -> Path:
    return Path.home() / ".cache" / "repro" / "native"


def library() -> ctypes.CDLL | None:
    """The loaded loop, building it on the first call; ``None`` if not."""
    global _tried, _library, failure
    if _tried:
        return _library
    with _lock:
        if not _tried:
            try:
                _library = _declare(ctypes.CDLL(str(_build())))
            except (OSError, RuntimeError, subprocess.SubprocessError) \
                    as error:
                failure = f"{type(error).__name__}: {error}"
            _tried = True
    return _library


def inputs() -> tuple[Path, ...]:
    """The files a build reads besides the source: numpy's static random
    library, the numpy header that declares its binomial, and the Python
    header that one includes."""
    return (NPYRANDOM, NUMPY_INCLUDE / "numpy" / "random" / "distributions.h",
            PYTHON_INCLUDE / "Python.h")


def _target() -> Path:
    """The cached library's path, keyed by everything that shapes it."""
    key = hashlib.sha256(SOURCE.read_bytes())
    key.update(" ".join(FLAGS).encode())
    key.update(np.__version__.encode())
    key.update(hashlib.sha256(NPYRANDOM.read_bytes()).digest())
    return _cache_dir() / f"fcat_walk-{key.hexdigest()[:16]}.so"


def _build() -> Path:
    """The compiled library for the current inputs, compiling on a miss."""
    for required in inputs():
        if not required.is_file():
            raise RuntimeError(f"missing {required}")
    target = _target()
    if target.exists():
        return target
    compiler = shutil.which(COMPILER)
    if compiler is None:
        raise RuntimeError(f"no C compiler {COMPILER!r} on PATH")
    target.parent.mkdir(parents=True, exist_ok=True)
    handle, partial = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
    os.close(handle)
    try:
        built = subprocess.run(
            [compiler, *FLAGS, f"-I{NUMPY_INCLUDE}", f"-I{PYTHON_INCLUDE}",
             "-o", partial, str(SOURCE), str(NPYRANDOM), "-lm"],
            capture_output=True, text=True, timeout=300)
        if built.returncode:
            raise RuntimeError(f"{COMPILER} failed: {built.stderr.strip()}")
        os.replace(partial, target)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)
    return target


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    """Attach the C signatures (see the prototypes in ``fcat_walk.c``)."""
    session = ctypes.c_void_p
    lib.fcat_new.restype = session
    lib.fcat_new.argtypes = [ctypes.POINTER(Config), ctypes.c_void_p]
    lib.fcat_stats.restype = ctypes.POINTER(ctypes.c_int64)
    lib.fcat_stats.argtypes = [session]
    lib.fcat_trace.restype = ctypes.POINTER(ctypes.c_double)
    lib.fcat_trace.argtypes = [session]
    lib.fcat_run.restype = ctypes.c_int
    lib.fcat_run.argtypes = [ctypes.POINTER(session), ctypes.c_int64,
                             ctypes.POINTER(Rows)]
    lib.fcat_rows_free.restype = None
    lib.fcat_rows_free.argtypes = [ctypes.POINTER(Rows)]
    lib.fcat_free.restype = None
    lib.fcat_free.argtypes = [session]
    lib.fcat_binomial_fill.restype = None
    lib.fcat_binomial_fill.argtypes = [
        ctypes.c_void_p, ctypes.c_int64, ctypes.c_double,
        ctypes.POINTER(ctypes.c_int64), ctypes.c_int64]
    return lib
