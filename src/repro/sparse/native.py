"""The compiled CBSR tier: ``_cbsr.c``'s two loops, built on first use.

:func:`load` compiles the C file next to this module with the host's
``cc`` the first time a CBSR kernel asks for it (never at import), caches
the shared object per user and answers the loaded library — or ``None``
when there is no compiler or the build fails, in which case the scipy
backend keeps its public-route kernels. Nothing selects the tier but
whether it builds.

* **Flags.** ``-O3 -fPIC -shared -ffp-contract=off``: no FMA contraction
  and no ``-ffast-math``, so every product and add rounds as the
  ``reference`` loops' do and the outputs are byte-equal to them; no
  ``-march=native``, so an object cached in a shared home directory never
  traps on another CPU.
* **Cache.** ``$XDG_CACHE_HOME/repro-native`` (default ``~/.cache``),
  created ``0700`` and refused unless it is the user's own and private — a
  shared ``/tmp`` would let another user plant the library. The file name
  hashes the source, flags, compiler version and machine; the object is
  written to a temporary name and ``os.replace``-d into place, so
  concurrent processes and spawned workers never load a partial file.
* **Calls.** ``ctypes.CDLL`` releases the GIL for the call. :func:`run`
  passes C-contiguous arrays of exactly the instantiated dtypes and
  allocates the zeroed output; bounds are the dispatcher's job
  (``ops._check_cbsr_args``) — the loops index unchecked.
"""

from __future__ import annotations

import ctypes
import hashlib
import itertools
import os
import platform
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Optional

import numpy as np

__all__ = ["FLAGS", "SOURCE", "cache_dir", "load", "run"]

SOURCE = Path(__file__).with_name("_cbsr.c")
FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")

_LOCK = threading.Lock()
_UNSET = object()
_library = _UNSET


def cache_dir() -> Path:
    """Where the shared object is cached: per user, never a shared ``/tmp``."""
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "repro-native"


def _build() -> Optional[ctypes.CDLL]:
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
        key = hashlib.sha256(b"\0".join([
            SOURCE.read_bytes(), " ".join(FLAGS).encode(), version,
            platform.machine().encode(),
        ])).hexdigest()[:20]
        target = directory / f"cbsr-{key}.so"
        if not target.exists():
            handle, partial = tempfile.mkstemp(dir=directory, suffix=".tmp")
            os.close(handle)
            try:
                subprocess.run(
                    [compiler, *FLAGS, "-o", partial, str(SOURCE)],
                    capture_output=True, check=True, timeout=300,
                )
                os.replace(partial, target)
            finally:
                if os.path.exists(partial):
                    os.unlink(partial)
        return _declare(ctypes.CDLL(str(target)))
    except (OSError, subprocess.SubprocessError):
        return None


def _declare(library: ctypes.CDLL) -> ctypes.CDLL:
    for op, value, bits in itertools.product(("spgemm", "sspmm"), "fd", (8, 16, 32)):
        function = getattr(library, f"{op}_{value}_u{bits}")
        function.argtypes = [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 6
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


def run(library, op, csr, values, index, dim, shape) -> np.ndarray:
    """The loop ``op`` (``"spgemm"`` / ``"sspmm"``) into a fresh zeroed
    ``shape`` array of the operands' float dtype.

    ``csr`` is the adjacency's validated ``(indptr, indices, data)``,
    ``values`` the CBSR values (SpGEMM) or the dense ``(n_rows, dim)``
    gradient (SSpMM), ``index`` the unsigned 8 / 16 / 32-bit column block.
    Every operand reaches the loop C-contiguous at the dtype its instance
    was compiled for — a copy only where it is not already.
    """
    out = np.zeros(shape, dtype=np.result_type(csr[2], values))
    indptr, indices = (np.ascontiguousarray(a, dtype=np.int64) for a in csr[:2])
    data, values = (
        np.ascontiguousarray(a, dtype=out.dtype) for a in (csr[2], values)
    )
    index = np.ascontiguousarray(index)
    if index.dtype.kind != "u":
        raise ValueError(f"the column block must be unsigned, got {index.dtype}")
    function = getattr(library, f"{op}_{out.dtype.char}_u{index.itemsize * 8}")
    function(
        len(indptr) - 1, index.shape[1], dim,
        indptr.ctypes.data, indices.ctypes.data, data.ctypes.data,
        values.ctypes.data, index.ctypes.data, out.ctypes.data,
    )
    return out
