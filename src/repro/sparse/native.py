"""The compiled tier: ``_cbsr.c``'s aggregation loops, with the MaxK select
and the CBSR pack / unpack around them, a served window's adjacency rows,
dropout's draw and a graph delta's two loops (:func:`splice_renumber`,
:func:`group_search`), built on first use.

:func:`load` compiles the C file next to this module with the host's
``cc`` the first time a kernel asks for it (never at import), caches the
shared object per user and answers the loaded library — or ``None`` when
there is no compiler or the build fails, and the vectorized backend runs
its numpy bodies. Nothing selects the tier but whether it builds.

* **Flags.** ``-O2 -ftree-vectorize -fPIC -shared -ffp-contract=off``, plus
  ``-fopenmp`` where the compiler has it (else the loops run one thread).
  No FMA contraction and no ``-ffast-math``: every product and add rounds
  as the ``reference`` loops' do. No ``-march=native``: a cached object
  never traps on another CPU. Instead the SpMM, the float CBSR pair and
  the float select (``k`` up to 8) carry AVX2 bodies (``target("avx2")``),
  and the float CBSR pair AVX-512 bodies
  (``target("avx512f,avx512vl,avx512bw")``) for ``dim`` ≤ 64 and ``k`` ≤ 16
  (the SpGEMM from ``k`` = 2 and from two edges per source row, which
  pay for its per-call rank table), x86 only. The exported ``int wide`` is the
  level, set from the CPU's flags as the object loads: 2 with AVX-512, 1
  with AVX2, 0 on every other CPU, which runs the portable loops and
  numpy's select. Each call takes the highest body its level and shape
  allow, with the same bytes. The SpMM's AVX2 body holds eight registers
  of output columns (64 float, 32 double) over one walk of a row's edges,
  the columns past the whole strips in one narrower strip whose last
  register is masked to the tail. The AVX-512 SpGEMM holds the output row
  in four registers and adds every edge's products into all of them,
  an exact ``+0`` into the columns the edge does not touch: a sum that
  starts at ``+0`` is never ``-0``, and NaN and ±inf are fixed points of
  ``+ 0``, so the bytes are the portable loop's. The AVX-512 SSpMM holds
  the gradient row in four registers and picks each edge's columns from
  them by permutes, no gather. The dropout draw (``dropout_f``)
  is portable C built where the compiler has a 128-bit integer
  (``__SIZEOF_INT128__``: 64-bit targets) and serves PCG64 generators
  only; every other generator, width and target keeps numpy's
  ``Generator.random``. Not ``-O3``: gcc 12's unroll-and-jam pairs the
  SpMM's edges into one scalar loop there, 2.4x slower.
* **Threads.** :func:`available_cores` threads per aggregation call (one
  below ``_cbsr.c``'s ``MIN_PARALLEL_WORK``); ``load().threads()``
  answers the count. The affinity mask decides it, never
  ``OMP_NUM_THREADS``. The select, pack, unpack, window rows, dropout
  draw and the delta's renumber-splice and group search run on the
  calling thread (the draw is one chain of generator states).
* **Cache.** ``$XDG_CACHE_HOME/repro-native`` (default ``~/.cache``),
  ``0700`` and refused unless the user's own and private. The file name
  hashes source, flags, compiler version and machine; the object is
  written to a temporary name and ``os.replace``-d into place, and then
  every other ``cbsr-*.so`` there that no process has built or loaded for
  a day is removed (each load refreshes its object's mtime), so the cache
  does not keep one object per source edit, while the objects of other
  checkouts in use stay. A load that finds its object gone (another
  build's sweep between the check and the load) builds it again.
* **Calls.** ``ctypes.CDLL`` releases the GIL for the call. The loops
  index unchecked: the dispatcher bounds each adjacency, which arrives
  :func:`pin`-ned (the vectorized backend keeps a read-only triple's pin).
* **Heap.** :func:`keep_heap_mapped` is the one other call into C: glibc's
  ``mallopt``, which an inference service makes once.
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
import time
from pathlib import Path
from typing import Optional

import numpy as np

__all__ = ["FLAGS", "OPENMP", "SOURCE", "available_cores", "cache_dir",
           "dropout", "group_search", "keep_heap_mapped", "load", "pack",
           "pin", "run", "splice_renumber", "spmm", "topk", "unpack",
           "window_rows"]

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
    thread of the main process, 1 in a replica worker and in any other
    thread, so two processes never oversubscribe the cores between them.
    Counted once per process."""
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


#: glibc ``malloc.h``'s ``mallopt`` parameters.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def keep_heap_mapped() -> bool:
    """Fix glibc's malloc thresholds: arrays under 32 MiB (its 64-bit
    ceiling) come from the heap, and the heap is not trimmed below
    128 MiB. Under the dynamic defaults a graph delta's multi-MB copies
    faulted fresh pages on some applies and not others (``apply_delta``
    10 or 16–26 ms on a 473 k-edge graph, 2-vCPU x86). Process-wide and
    idempotent; False off glibc."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    return bool(mallopt(_M_MMAP_THRESHOLD, 32 << 20)) and bool(
        mallopt(_M_TRIM_THRESHOLD, 128 << 20)
    )


#: A cached object no process has built or loaded for this long is
#: removed by the next build (another checkout in use keeps its own).
_STALE_SECONDS = 24 * 3600


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
        for _ in range(2):  # once more if another build's sweep took it
            if not _compiled(compiler, flags, target):
                break
            try:
                return _declare(_open(target), OPENMP in flags)
            except OSError:
                if target.exists():
                    break  # it does not load here: the next flags
    return None


def _compiled(compiler: str, flags, target: Path) -> bool:
    """Whether ``target`` holds the object built with ``flags``: built now
    if it is missing, else marked used (its mtime), which keeps it from
    other builds' sweeps for :data:`_STALE_SECONDS`."""
    try:
        os.utime(target)
        return True
    except FileNotFoundError:
        pass
    except OSError:
        return False
    partial = None
    try:
        handle, partial = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
        os.close(handle)
        subprocess.run(
            [compiler, *flags, "-o", partial, str(SOURCE)],
            capture_output=True, check=True, timeout=300,
        )
        os.replace(partial, target)
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        if partial and os.path.exists(partial):
            os.unlink(partial)
    _sweep(target)
    return True


def _sweep(built: Path) -> None:
    """Remove the cache's other ``cbsr-*.so`` objects unused for
    :data:`_STALE_SECONDS` (a loaded one stays mapped); never a ``*.tmp``,
    which may be a build in flight."""
    cutoff = time.time() - _STALE_SECONDS
    for stale in built.parent.glob("cbsr-*.so"):
        try:
            if stale != built and stale.stat().st_mtime < cutoff:
                stale.unlink()
        except OSError:  # another build's sweep took it first
            continue


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
    cbsr = [f"{value}_u{bits}" for value, bits in itertools.product("fd", (8, 16, 32))]
    signatures = {  # name: (int64 arguments, pointers, result)
        **{name: (5, 6, None) for name in ("spmm_f", "spmm_d", *(
            f"{op}_{suffix}" for op in ("spgemm", "sspmm") for suffix in cbsr
        ))},
        **{f"cbsr_pack_{suffix}": (3, 4, ctypes.c_int64) for suffix in cbsr},
        **{f"cbsr_unpack_{suffix}": (3, 3, None) for suffix in cbsr},
        **{f"window_rows_{value}": (2, 10, ctypes.c_int64) for value in "fd"},
        **{f"splice_renumber_u{bits}": (3, 6, None) for bits in (8, 16, 32)},
        "group_search": (1, 6, None),
        # The select is built on x86 alone.
        **{f"topk_f_{kind}": (3, 2, ctypes.c_int64) for kind in "bf"},
    }
    for name, (integers, pointers, result) in signatures.items():
        function = getattr(library, name, None)
        if function is not None:
            function.argtypes = ([ctypes.c_int64] * integers
                                 + [ctypes.c_void_p] * pointers)
            function.restype = result
    # The draw is built where the compiler has a 128-bit integer.
    draw = getattr(library, "dropout_f", None)
    if draw is not None:
        draw.argtypes = [ctypes.c_int64, ctypes.c_double, ctypes.c_double,
                         *[ctypes.c_void_p] * 5]
        draw.restype = None
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


def topk(library, x: np.ndarray, k: int, out: np.ndarray) -> bool:
    """The compiled select's 0/1 mask of each row's ``k`` largest (ties to
    the lowest column) of the NaN-free ``x`` in the C-contiguous ``out``,
    bool or of ``x``'s dtype; False, with ``out`` unwritten, where it does
    not serve (a width or CPU it is not built for, ``k`` above 8)."""
    select = getattr(library, f"topk_{x.dtype.char}_{out.dtype.kind}", None)
    if select is None or not out.flags.c_contiguous:
        return False
    x = np.ascontiguousarray(x)
    return bool(select(x.shape[0], x.shape[1], k, _address(x), _address(out)))


def pack(library, x: np.ndarray, mask: np.ndarray, k: int,
         data: np.ndarray, index: np.ndarray) -> None:
    """The CBSR block of ``x`` at the byte ``mask`` into the C-contiguous
    ``data`` / unsigned ``index``; refuses a row without ``k`` survivors."""
    x, mask = np.ascontiguousarray(x), np.ascontiguousarray(mask)
    n_rows, dim = x.shape
    row = getattr(library, f"cbsr_pack_{x.dtype.char}_u{index.itemsize * 8}")(
        n_rows, dim, k, _address(x), _address(mask), _address(data),
        _address(index),
    )
    if row != n_rows:
        raise ValueError(f"mask row {row} does not hold exactly {k} survivors")


def unpack(library, block: np.ndarray, index: np.ndarray, out: np.ndarray) -> None:
    """``out`` (C-contiguous) zero but at each row's ``index`` columns,
    which receive ``block``'s values; ``index`` is bounded by the caller."""
    block, index = np.ascontiguousarray(block), np.ascontiguousarray(index)
    getattr(library, f"cbsr_unpack_{block.dtype.char}_u{index.itemsize * 8}")(
        out.shape[0], out.shape[1], index.shape[1], _address(block),
        _address(index), _address(out),
    )


def window_rows(library, base, nodes, member, local, table) -> Optional[tuple]:
    """``(indptr, indices, data)`` of the window rows ``(member, node)`` of
    the CSR triple ``base`` (``_cbsr.c``'s ``window_rows``), or ``None``
    where no loop is built for its weights' dtype. ``local`` / ``table``
    are :func:`~repro.sparse.ops.induced_rows`' maps, every entry in range."""
    indptr, indices, data = base
    kernel = getattr(library, f"window_rows_{data.dtype.char}", None)
    if kernel is None:
        return None
    room = int((indptr[nodes + 1] - indptr[nodes]).sum())
    out = (np.empty(nodes.size + 1, dtype=np.int64),
           np.empty(room, dtype=np.int64), np.empty(room, dtype=data.dtype))
    inputs = [np.ascontiguousarray(a, dtype=np.int64)
              for a in (nodes, member, local, table, indptr, indices)]
    inputs.append(np.ascontiguousarray(data))
    nnz = kernel(nodes.size, table.shape[1], *map(_address, inputs + list(out)))
    return out[0], out[1][:nnz].copy(), out[2][:nnz].copy()


def splice_renumber(library, order, shift, drop, at, values) -> Optional[np.ndarray]:
    """A delta's renumber-splice of an edge index's ``order``
    (``_cbsr.c``'s ``splice_renumber``): ``order - shift[order]`` without
    the sorted unique positions ``drop``, with ``values`` inserted before
    the ascending positions ``at``, as one new int64 array; ``None`` where
    no loop is built for ``shift``'s width. ``order`` must be a permutation
    of ``shift``'s positions, as an edge index's is: its length is checked
    here, its entries are not (that would be one more E-length pass);
    ``drop`` / ``at`` are checked in full (O(delta))."""
    kernel = getattr(library, f"splice_renumber_u{shift.itemsize * 8}", None)
    if kernel is None or shift.dtype.kind != "u":
        return None
    order, drop, at, values = (np.ascontiguousarray(a, dtype=np.int64)
                               for a in (order, drop, at, values))
    n = len(order)
    if len(shift) != n:
        raise ValueError("shift must have one entry per position of order")
    if len(values) != len(at) or (drop.size and (
            drop[0] < 0 or drop[-1] >= n or (np.diff(drop) <= 0).any())) or (
            at.size and (at[0] < 0 or at[-1] > n or (np.diff(at) < 0).any())):
        raise ValueError("drop must be sorted unique and at ascending, "
                         "positions of order, with one value per at")
    out = np.empty(n - drop.size + at.size, dtype=np.int64)
    kernel(n, drop.size, at.size, *map(_address, (
        order, np.ascontiguousarray(shift), drop, at, values, out)))
    return out


def group_search(library, indptr, members, groups, wanted) -> Optional[tuple]:
    """``(slot, found)``: each ``wanted[i]`` bisected in group
    ``groups[i]``'s ascending ``members`` (``_cbsr.c``'s ``group_search``),
    the first member's slot ``>=`` it and whether that member equals it;
    ``None`` where a group is out of range. Every slot the loop reads lies
    in a queried group, so bounding those groups' ends is O(queries)."""
    indptr, members, groups, wanted = (np.ascontiguousarray(a, dtype=np.int64)
                                       for a in (indptr, members, groups,
                                                 wanted))
    if groups.size and (groups.min() < 0 or groups.max() >= len(indptr) - 1):
        return None
    if len(wanted) != len(groups):
        raise ValueError("group_search needs one wanted value per group")
    if groups.size and (indptr[groups].min() < 0
                        or indptr[groups + 1].max() > len(members)):
        raise ValueError("a queried group's bounds lie outside members")
    inputs = [indptr, members, groups, wanted]
    slot = np.empty(groups.size, dtype=np.int64)
    found = np.empty(groups.size, dtype=bool)
    library.group_search(groups.size, *map(_address, inputs + [slot, found]))
    return slot, found


_WORD = (1 << 64) - 1


def dropout(library, rng, x: np.ndarray, p: float, draw: np.ndarray,
            keep: np.ndarray, out: np.ndarray) -> bool:
    """Inverted dropout's forward by the compiled draw: ``draw`` receives
    ``rng.random(dtype=x.dtype)``'s next ``x.size`` values, ``keep`` the 0/1
    mask ``draw >= p``, ``out`` ``x * scale * keep + 0.0``, and ``rng``
    steps on as ``random`` would have stepped it — the same bytes and the
    same state dict. False, with nothing written and ``rng`` untouched,
    where it does not serve: a bit generator other than PCG64, a width
    or target it is not built for, a strided ``x``. ``draw`` / ``keep`` /
    ``out`` arrive C-contiguous at ``x``'s shape and dtype."""
    kernel = getattr(library, f"dropout_{x.dtype.char}", None)
    generator = rng.bit_generator
    if (kernel is None or type(generator) is not np.random.PCG64
            or not x.flags.c_contiguous):
        return False
    with generator.lock:
        state = generator.state
        pcg = state["state"]
        words = np.array([
            pcg["state"] >> 64, pcg["state"] & _WORD, pcg["inc"] >> 64,
            pcg["inc"] & _WORD, state["has_uint32"], state["uinteger"],
        ], dtype=np.uint64)
        kernel(x.size, p, 1.0 / (1.0 - p), _address(words), _address(x),
               _address(draw), _address(keep), _address(out))
        generator.state = {
            **state,
            "state": {"state": int(words[0]) << 64 | int(words[1]),
                      "inc": pcg["inc"]},
            "has_uint32": int(words[4]),
            "uinteger": int(words[5]),
        }
    return True


def run(library, op, adjacency, values, index, dim, shape, out=None) -> np.ndarray:
    """The CBSR loop ``op`` (``"spgemm"`` / ``"sspmm"``) over the values or
    gradient ``values`` and the unsigned column block ``index``, into
    ``out`` — a C-contiguous ``shape`` array of the operands' float dtype —
    or a fresh one (each thread zeroes the output rows it owns)."""
    if out is None:
        out = np.empty(shape, dtype=np.result_type(adjacency[0][2], values))
    values = np.ascontiguousarray(values, dtype=out.dtype)
    index = np.ascontiguousarray(index)
    if index.dtype.kind != "u":
        raise ValueError(f"the column block must be unsigned, got {index.dtype}")
    _call(library, f"{op}_{out.dtype.char}_u{index.itemsize * 8}", adjacency,
          len(index), index.shape[1], dim, values, index, out)
    return out
