"""Build and load the compiled solver kernel, _factor.c.

kernel() compiles the kernel on first use in a process, with the C compiler
COMPILER at FLAGS, into a shared object cached in CACHE_DIR, the package's
__pycache__/. The object's name holds a hash of the source, the flags and the
compiler driver's dry run (`-###`), which prints the compiler's version and
what -march=native means on this CPU; so an object built for one CPU or
compiler is never loaded for another, and a cached object is loaded without
compiling. Where CACHE_DIR cannot be written, the object is built in a
temporary directory that is removed once the object is loaded. Each build
writes a temporary name and renames it into place, so processes that build at
once each load a whole object.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

import numpy as np

SOURCE = Path(__file__).with_name("_factor.c")
CACHE_DIR = SOURCE.parent / "__pycache__"
COMPILER = "cc"
FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-fPIC", "-shared")

_lock = threading.Lock()


class Kernel(NamedTuple):
    """The entry points of _factor.c. Each releases the interpreter lock for
    the call and raises MemoryError where the C function cannot allocate its
    scratch."""

    # (x, y, w, diag_load, res, bad, h or None, taps, window, bins, frames, width)
    solve_bins: Callable[..., int]
    factor_solve: Callable[..., int]  # (g, diag_load, h, bad, taps, n)


def kernel() -> Kernel:
    """The kernel, loaded once per process."""
    with _lock:
        return _loaded()


@functools.cache
def _loaded() -> Kernel:
    return load()


def load() -> Kernel:
    """Load the kernel from the cache, building it first if it is not there."""
    cc = shutil.which(COMPILER)
    if cc is None:
        raise RuntimeError(f"refaec builds its solver kernel with a C compiler: no {COMPILER!r} on PATH")
    source = SOURCE.read_bytes()
    dry_run = _run([cc, "-###", *FLAGS, "-E", "-x", "c", os.devnull]).stderr
    key = hashlib.sha256(b"\0".join([source, " ".join(FLAGS).encode(), dry_run])).hexdigest()
    name = f"_factor-{key[:16]}.so"
    path = CACHE_DIR / name
    if path.is_file():
        return _open(path)
    with contextlib.suppress(OSError):
        CACHE_DIR.mkdir(exist_ok=True)
    if os.access(CACHE_DIR, os.W_OK):
        _build(cc, source, path)
        return _open(path)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        _build(cc, source, path)
        return _open(path)  # the mapping outlives the file


def _run(argv: list[str], source: bytes = b"") -> subprocess.CompletedProcess:
    done = subprocess.run(argv, input=source, capture_output=True)
    if done.returncode:
        lines = done.stderr.decode(errors="replace").strip().splitlines() or ["no message"]
        raise RuntimeError(f"{COMPILER} could not build the solver kernel: {lines[-1]}")
    return done


def _build(cc: str, source: bytes, path: Path) -> None:
    fd, tmp = tempfile.mkstemp(prefix=path.stem, suffix=".tmp", dir=path.parent)
    os.close(fd)
    try:
        _run([cc, *FLAGS, "-x", "c", "-", "-o", tmp], source)
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def _check(status: int, fn, args) -> int:
    if status:
        raise MemoryError(f"{fn.__name__}: no memory for the solver kernel's scratch")
    return status


def _open(path: Path) -> Kernel:
    lib = ctypes.CDLL(str(path))
    c = np.ctypeslib.ndpointer(np.complex128, flags="C_CONTIGUOUS")
    r = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    flags = np.ctypeslib.ndpointer(np.bool_, flags="C_CONTIGUOUS")
    # solve_bins writes a slice of bins of frame-major outputs, which takes
    # strided views, and None for h passes NULL
    out = np.ctypeslib.ndpointer(np.complex128)
    out_flags = np.ctypeslib.ndpointer(np.bool_)

    class OutOrNull(out):
        @classmethod
        def from_param(cls, a):
            return None if a is None else out.from_param(a)

    size = ctypes.c_ssize_t
    argtypes = {
        "solve_bins": [c, c, r, ctypes.c_double, out, out_flags, OutOrNull,
                       size, size, size, size, size],
        "factor_solve": [c, ctypes.c_double, c, flags, size, size],
    }
    for name, types in argtypes.items():
        fn = getattr(lib, name)
        fn.argtypes, fn.restype, fn.errcheck = types, ctypes.c_int, _check
    return Kernel(*(getattr(lib, name) for name in Kernel._fields))
