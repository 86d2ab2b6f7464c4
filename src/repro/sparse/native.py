"""The compiled tier: ``_cbsr.c``'s aggregation loops, built on first use.

:func:`load` compiles the C file next to this module with the host's
``cc`` the first time a kernel asks for it (never at import), caches the
shared object per user and answers the loaded library — or ``None`` when
there is no compiler or the build fails, and the scipy backend serves
scipy's public route. Nothing selects the tier but whether it builds.

* **Flags.** ``-O2 -ftree-vectorize -fPIC -shared -ffp-contract=off``, plus
  ``-fopenmp`` where the compiler has it (else the loops run one thread).
  No FMA contraction and no ``-ffast-math``: every product and add rounds
  as the ``reference`` loops' do. No ``-march=native``: a cached object
  never traps on another CPU. Not ``-O3``: gcc 12's unroll-and-jam pairs
  the SpMM's edges into one scalar loop there, 2.4x slower.
* **Threads.** :func:`available_cores` threads per call (one below
  ``_cbsr.c``'s ``MIN_PARALLEL_WORK``); ``load().threads()`` answers the
  count. The affinity mask decides it, never ``OMP_NUM_THREADS``.
* **Cache.** ``$XDG_CACHE_HOME/repro-native`` (default ``~/.cache``),
  ``0700`` and refused unless the user's own and private. The file name
  hashes source, flags, compiler version and machine; the object is
  written to a temporary name and ``os.replace``-d into place.
* **Calls.** ``ctypes.CDLL`` releases the GIL for the call. The loops
  index unchecked: the dispatcher bounds each adjacency, which arrives
  :func:`pin`-ned (the scipy backend keeps a read-only triple's pin).
"""

from __future__ import annotations

import ctypes
import hashlib
import itertools
import math
import multiprocessing
import os
import platform
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Optional

import numpy as np

__all__ = ["FLAGS", "OPENMP", "SOURCE", "available_cores", "cache_dir",
           "load", "pin", "run", "spmm"]

SOURCE = Path(__file__).with_name("_cbsr.c")
FLAGS = ("-O2", "-ftree-vectorize", "-fPIC", "-shared", "-ffp-contract=off")
OPENMP = "-fopenmp"

_LOCK = threading.Lock()
_UNSET = object()
_library = _UNSET
_cores: Optional[int] = None
# libgomp's thread pool does not survive a fork: the child runs one thread.
os.register_at_fork(after_in_child=lambda: globals().update(_cores=1))


def available_cores() -> int:
    """The cores this thread may use: the affinity mask's size in the main
    thread of the main process, 1 in a pool worker (prefetch, replica,
    executor) and in any other thread, so two processes never oversubscribe
    the cores between them. Counted once per process."""
    global _cores
    if threading.current_thread() is not threading.main_thread():
        return 1
    if _cores is None:
        try:
            cores = len(os.sched_getaffinity(0))
        except (AttributeError, OSError):  # a platform without affinity
            cores = os.cpu_count() or 1
        _cores = 1 if multiprocessing.parent_process() is not None else cores
    return _cores


def cache_dir() -> Path:
    """Where the shared object is cached: per user, never a shared ``/tmp``."""
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "repro-native"


def _build(variants=(FLAGS + (OPENMP,), FLAGS)) -> Optional[ctypes.CDLL]:
    compiler = shutil.which("cc")
    if compiler is None:
        return None
    try:
        version = subprocess.run(
            [compiler, "--version"], capture_output=True, check=True, timeout=60
        ).stdout
        directory = cache_dir()
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        info = directory.stat()
        if info.st_uid != os.getuid() or info.st_mode & 0o077:
            return None  # someone else could plant or swap the object
    except (OSError, subprocess.SubprocessError):
        return None
    for flags in variants:  # the first that builds and loads
        key = hashlib.sha256(b"\0".join([
            SOURCE.read_bytes(), " ".join(flags).encode(), version,
            platform.machine().encode(),
        ])).hexdigest()[:20]
        target = directory / f"cbsr-{key}.so"
        partial = None
        try:
            if not target.exists():
                handle, partial = tempfile.mkstemp(dir=directory, suffix=".tmp")
                os.close(handle)
                subprocess.run(
                    [compiler, *flags, "-o", partial, str(SOURCE)],
                    capture_output=True, check=True, timeout=300,
                )
                os.replace(partial, target)
            return _declare(_open(target), OPENMP in flags)
        except (OSError, subprocess.SubprocessError):
            continue
        finally:
            if partial and os.path.exists(partial):
                os.unlink(partial)
    return None


def _open(target: Path) -> ctypes.CDLL:
    """Load the object. libgomp reads its wait policy once, as it loads
    with it: ``passive`` unless the environment names one, so idle threads
    sleep instead of spinning on the cores BLAS and Python threads need."""
    policy = os.environ.get("OMP_WAIT_POLICY")
    os.environ["OMP_WAIT_POLICY"] = policy or "passive"
    try:
        return ctypes.CDLL(str(target))
    finally:
        if policy is None:
            del os.environ["OMP_WAIT_POLICY"]


def _declare(library: ctypes.CDLL, parallel: bool) -> ctypes.CDLL:
    library.threads = available_cores if parallel else lambda: 1
    for name in ("spmm_f", "spmm_d", *(
        f"{op}_{value}_u{bits}" for op, value, bits
        in itertools.product(("spgemm", "sspmm"), "fd", (8, 16, 32))
    )):
        function = getattr(library, name)
        function.argtypes = [ctypes.c_int64] * 5 + [ctypes.c_void_p] * 6
        function.restype = None
    return library


def load() -> Optional[ctypes.CDLL]:
    """The compiled loops (built and cached on the first call), or ``None``."""
    global _library
    if _library is _UNSET:
        with _LOCK:
            if _library is _UNSET:
                _library = _build()
    return _library


def pin(indptr, indices, data) -> tuple:
    """An adjacency as the loops read it: ``(buffers, addresses)``, its
    buffers C-contiguous ``int64`` / float (the given arrays if they are)."""
    buffers = tuple(
        np.ascontiguousarray(a, dtype=dtype)
        for a, dtype in ((indptr, np.int64), (indices, np.int64), (data, None))
    )
    return buffers, tuple(b.ctypes.data for b in buffers)


def _address(array: np.ndarray) -> int:
    """A C-contiguous array's address (``from_buffer``: ≈ 0.4 µs against
    ``.ctypes``' ≈ 1.4 µs, but only for a writable one)."""
    if array.flags.writeable and array.nbytes:
        return ctypes.addressof(ctypes.c_char.from_buffer(array))
    return array.ctypes.data


def _call(library, name, adjacency, n_src, k, dim, values, index, out) -> None:
    """The loop ``name`` at ``out``'s dtype (weights handed in at another
    width are re-pinned at it)."""
    indptr, indices, data = adjacency[0]
    if data.dtype != out.dtype:
        adjacency = pin(indptr, indices, data.astype(out.dtype))
    getattr(library, name)(
        len(indptr) - 1, n_src, k, dim, library.threads(), *adjacency[1],
        _address(values), None if index is None else _address(index),
        _address(out),
    )


def spmm(library, adjacency, x: np.ndarray, out=None) -> np.ndarray:
    """``A @ x`` for an ``x`` of any trailing shape, through its ``(n, -1)``
    view, into ``out`` (the result shape, ``x``'s dtype) or a fresh array."""
    width = math.prod(x.shape[1:])
    flat = np.ascontiguousarray(x).reshape(len(x), width)
    target = out
    if out is None or not out.flags.c_contiguous:
        target = np.empty((len(adjacency[0][0]) - 1,) + x.shape[1:], x.dtype)
    _call(library, f"spmm_{x.dtype.char}", adjacency, len(x), width, width,
          flat, None, target)
    if out is None or out is target:
        return target
    np.copyto(out, target)
    return out


def run(library, op, adjacency, values, index, dim, shape) -> np.ndarray:
    """The CBSR loop ``op`` (``"spgemm"`` / ``"sspmm"``) over the values or
    gradient ``values`` and the unsigned column block ``index``, into a
    fresh zeroed ``shape`` array of the operands' float dtype."""
    out = np.zeros(shape, dtype=np.result_type(adjacency[0][2], values))
    values = np.ascontiguousarray(values, dtype=out.dtype)
    index = np.ascontiguousarray(index)
    if index.dtype.kind != "u":
        raise ValueError(f"the column block must be unsigned, got {index.dtype}")
    _call(library, f"{op}_{out.dtype.char}_u{index.itemsize * 8}", adjacency,
          len(index), index.shape[1], dim, values, index, out)
    return out
