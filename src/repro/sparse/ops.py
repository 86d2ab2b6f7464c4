"""Pluggable vectorized sparse-ops backends for the training hot path.

Every numeric kernel of the training and serving hot path — CSR SpMM
aggregation, the CBSR SpGEMM/SSpMM pair and its pack / unpack, MaxK top-k
selection, the segment sum, dropout's draw and a served window's adjacency
rows — is a primitive of this module, behind a small backend registry, so
the whole system switches implementation at one seam (the same layering as
DGL's CPU ``spgemm.h``: one shared segment-reduction substrate that every
kernel routes through).

Backends
--------
``reference``
    Naive per-row / per-segment Python loops with strictly sequential
    accumulation. Slow, obviously correct — the testing oracle.
``vectorized``
    The fast backend, the default. Where :mod:`repro.sparse.native`
    builds (a C compiler on the host), the CSR SpMM, the CBSR SpGEMM /
    SSpMM pair, the MaxK select (float, ``k <= 8``, AVX2), the CBSR pack /
    unpack, a served window's adjacency rows and dropout's forward for a
    PCG64 generator at float32 run as its C loops, the aggregations on
    every free core. Everything else, and every op where the loops do not
    build, runs numpy: ``np.add.at`` on flattened segment indices, an
    ``np.partition``-threshold top-k with a deterministic
    lowest-column tie fill and a cache-blocked degree-bucketed
    gather–accumulate SpMM over cached plans. Both routes accumulate each
    output element in stored-edge order, so they are bit-identical to
    ``reference`` and to each other.

Selection
---------
The active backend is chosen, in order of precedence, by the
``REPRO_SPARSE_BACKEND`` environment variable at import time, then by
:func:`set_backend` calls; the default is ``vectorized``.
:func:`use_backend` scopes a switch to a block.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import native

__all__ = [
    "SparseOpsBackend",
    "ReferenceBackend",
    "VectorizedBackend",
    "available_backends",
    "get_backend",
    "set_backend",
    "use_backend",
    "register_backend",
    "segment_sum",
    "spmm_csr",
    "spgemm_cbsr",
    "sspmm_cbsr",
    "topk_mask",
    "topk_columns",
    "cbsr_pack",
    "cbsr_unpack",
    "dropout_into",
    "induced_rows",
    "mask_into",
    "index_dtype_for",
    "release",
    "warm",
]

#: The float type of every tensor, adjacency weight and feature column. Read
#: as ``ops.FLOAT_DTYPE`` at call time, and only where a float is born or
#: crosses in from outside; everything downstream follows its operands.
FLOAT_DTYPE = np.float32


def index_dtype_for(dim_origin: int) -> np.dtype:
    """Smallest unsigned integer dtype able to index ``dim_origin`` columns:
    the width of a CBSR ``sp_index`` block, ``uint8`` up to 256 columns (the
    paper's ``(4 + 1) * dim_k * nnz`` bytes), and what the CBSR kernels read."""
    if dim_origin <= 0:
        raise ValueError("dim_origin must be positive")
    if dim_origin <= 256:
        return np.dtype(np.uint8)
    if dim_origin <= 65536:
        return np.dtype(np.uint16)
    return np.dtype(np.uint32)


def mask_into(compare, a, b, flags: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``compare(a, b)`` as exact float 0.0/1.0 in ``out``.

    The compare vectorises into the transient bool scratch ``flags`` (dead
    once this returns) and one cast fills the float mask — multiplying by
    it needs no mixed-dtype casting buffer. A NaN operand compares False,
    so its mask entry is 0.0.
    """
    compare(a, b, out=flags)
    np.copyto(out, flags)
    return out


# ----------------------------------------------------------------------
# Backend implementations
# ----------------------------------------------------------------------
class SparseOpsBackend:
    """Interface of one sparse-ops implementation.

    Inputs arrive validated (see the module-level dispatch functions), so
    implementations only compute. Accumulation must visit elements in input
    order so backends agree bit-for-bit, not merely approximately.
    """

    name = "abstract"

    def segment_sum(
        self,
        values: np.ndarray,
        segment_ids: np.ndarray,
        n_segments: int,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        raise NotImplementedError

    def spmm_csr(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        x: np.ndarray,
        n_rows: int,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        raise NotImplementedError

    def spgemm_cbsr(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        sp_data: np.ndarray,
        sp_index: np.ndarray,
        dim_origin: int,
        n_rows: int,
    ) -> np.ndarray:
        raise NotImplementedError

    def sspmm_cbsr(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        grad_out: np.ndarray,
        sp_index: np.ndarray,
        n_src: int,
    ) -> np.ndarray:
        raise NotImplementedError

    def topk_mask(
        self,
        x: np.ndarray,
        k: int,
        out: Optional[np.ndarray] = None,
        workspace=None,
        slot: str = "topk",
    ) -> np.ndarray:
        raise NotImplementedError

    def topk_columns(self, x: np.ndarray, k: int) -> np.ndarray:
        raise NotImplementedError

    # -- cache hooks ---------------------------------------------------
    # Backends may pin per-graph buffers (the vectorized backend keys its
    # plans and pins by buffer identity). Sweeps over many graphs — notably
    # the training engine's subgraph flows — call these on eviction so
    # pinned memory tracks the working set instead of growing without bound.

    def clear_cache(self) -> None:
        """Release any per-graph caches; no-op for stateless backends."""

    def release(self, matrices) -> int:
        """Drop cached per-graph state for the given CSR matrices only.

        ``matrices`` is an iterable of objects carrying ``indptr`` /
        ``indices`` / ``data`` buffers (:class:`~repro.sparse.CSRMatrix`).
        Unlike :meth:`clear_cache`, wrappers for every *other* graph stay
        warm — this is what the training engine's subgraph-pool LRU calls
        on eviction so the full graph and surviving slots keep their
        compiled wrappers. Returns the number of entries dropped (0 for
        stateless backends).
        """
        return 0

    def warm(self, matrices) -> None:
        """Pre-register per-graph state for the given CSR matrices.

        The inverse of :meth:`release`: a caching backend builds whatever
        wrappers / execution plans its hot kernels would lazily construct
        on first touch (the vectorized backend's validated adjacency pins,
        or its degree-bucketed SpMM plans without the loops), so a
        prefetching data flow can move that work off the training critical
        path onto its background thread. No-op for stateless backends.
        """

    def cache_info(self) -> Dict[str, int]:
        """Size of any per-graph caches (empty for stateless backends)."""
        return {}


class _NumpyLines:
    """The CBSR pack / unpack, the window rows and dropout's forward as
    numpy lines: the reference backend's bodies, and the vectorized
    backend's where its compiled ones do not serve. Kept off
    :class:`SparseOpsBackend`, so a wrapper subclassing it that forwards
    what it does not define through ``__getattr__`` (``bench/trace.py``'s)
    reaches its inner backend's bodies, compiled ones included."""

    def cbsr_pack(self, x, mask, k, data, index) -> None:
        survivors = np.flatnonzero(mask)
        if (np.count_nonzero(mask, axis=1) != k).any():
            raise ValueError(f"every mask row must hold exactly {k} survivors")
        np.take(x, survivors, out=data.reshape(-1))
        index[...] = (survivors % x.shape[1]).reshape(index.shape)

    def cbsr_unpack(self, block, index, out) -> None:
        out[...] = 0
        np.put_along_axis(out, index.astype(np.intp), block, axis=1)

    def dropout_into(self, rng, x, p, draw, keep, out) -> None:
        rng.random(out=draw, dtype=draw.dtype)
        # The compare's bool scratch borrows ``out``'s first bytes: dead
        # before the product below writes ``out``.
        flags = out.reshape(-1).view(np.bool_)[: out.size].reshape(out.shape)
        mask_into(np.greater_equal, draw, p, flags, keep)
        # np.where(keep, x * scale, 0.0) through ``out=``: scale, mask by
        # multiplication, normalise dropped entries to +0.0.
        np.multiply(x, 1.0 / (1.0 - p), out=out)
        np.multiply(out, keep, out=out)
        out += 0.0

    def induced_rows(self, base, nodes, member, local, table) -> tuple:
        indptr, indices, data = base
        starts = indptr[nodes]
        counts = indptr[nodes + 1] - starts
        bounds = np.zeros(nodes.size + 1, dtype=np.int64)
        np.cumsum(counts, out=bounds[1:])
        # Every base entry the window rows read, row by row in base order.
        edges = np.repeat(starts - bounds[:-1], counts)
        edges += np.arange(edges.size)
        rows = table.reshape(-1)[
            np.repeat(member * table.shape[1], counts) + local[indices[edges]]
        ]
        kept = rows >= 0
        running = np.zeros(edges.size + 1, dtype=np.int64)
        np.cumsum(kept, out=running[1:])
        return running[bounds], rows[kept], data[edges[kept]]


class ReferenceBackend(_NumpyLines, SparseOpsBackend):
    """Per-row Python loops with sequential accumulation: the oracle."""

    name = "reference"

    def segment_sum(self, values, segment_ids, n_segments, out=None):
        if out is None:
            out = np.zeros((n_segments,) + values.shape[1:], dtype=values.dtype)
        else:
            out[...] = 0.0
        for i, segment in enumerate(segment_ids):
            out[segment] += values[i]
        return out

    def spmm_csr(self, indptr, indices, data, x, n_rows, out=None):
        if out is None:
            out = np.zeros((n_rows,) + x.shape[1:], dtype=x.dtype)
        else:
            out[...] = 0.0
        for row in range(n_rows):
            for edge in range(int(indptr[row]), int(indptr[row + 1])):
                out[row] += data[edge] * x[indices[edge]]
        return out

    def spgemm_cbsr(self, indptr, indices, data, sp_data, sp_index, dim_origin, n_rows):
        out = np.zeros((n_rows, dim_origin), dtype=sp_data.dtype)
        for row in range(n_rows):
            for edge in range(int(indptr[row]), int(indptr[row + 1])):
                source = indices[edge]
                out[row, sp_index[source]] += data[edge] * sp_data[source]
        return out

    def sspmm_cbsr(self, indptr, indices, data, grad_out, sp_index, n_src):
        sp_grad = np.zeros((n_src, sp_index.shape[1]), dtype=grad_out.dtype)
        for row in range(len(indptr) - 1):
            for edge in range(int(indptr[row]), int(indptr[row + 1])):
                source = indices[edge]
                sp_grad[source] += data[edge] * grad_out[row, sp_index[source]]
        return sp_grad

    def topk_mask(self, x, k, out=None, workspace=None, slot="topk"):
        mask = np.zeros_like(x, dtype=bool) if out is None else out
        if out is not None:
            mask[...] = False
        for i, row in enumerate(x):
            order = np.argsort(-row, kind="stable")  # ties -> lower column
            mask[i, order[:k]] = True
        return mask

    def topk_columns(self, x, k):
        columns = np.empty((x.shape[0], k), dtype=np.int64)
        for i, row in enumerate(x):
            order = np.argsort(-np.abs(row), kind="stable")
            columns[i] = np.sort(order[:k])
        return columns


class _IdKeyedLRU(dict):
    """Bounded LRU keyed by the identity of a CSR ``(indptr, indices, data)``
    buffer triple — the one shape of every per-graph backend cache.

    Values must hold *strong* references to the keyed buffers: an id key is
    only valid while the keyed object is alive, and weakrefs cannot replace
    them because what is cached (SpMM plans, the compiled loops' pins)
    indexes or points into those very buffers. Every step is a single
    atomic dict operation, so a prefetch thread warming entries while the
    trainer touches or releases them needs no lock.
    """

    #: Max entries per cache; inserting beyond it evicts oldest-first.
    LIMIT = 64

    @staticmethod
    def key(indptr, indices, data) -> Tuple[int, int, int]:
        return (id(indptr), id(indices), id(data))

    def touch(self, key):
        """The entry under ``key`` (moved to the young end), or ``None``.

        Pop-then-reinsert: eviction hits stale graphs (dead one-shot
        batches), never matrices in active rotation — and a thread racing
        another on the same key simply loses the pop and rebuilds
        (benign), instead of KeyError-ing out of a get-then-pop sequence.
        """
        hit = self.pop(key, None)
        if hit is not None:
            self[key] = hit
        return hit

    def insert(self, key, value) -> None:
        while len(self) >= self.LIMIT:
            try:
                oldest = next(iter(self), None)
            except RuntimeError:  # concurrent resize mid-iteration: retry
                continue
            if oldest is None:
                break
            # pop-with-default: a concurrent release() may have removed
            # the oldest key between the len check and this pop.
            self.pop(oldest, None)
        self[key] = value


class VectorizedBackend(_NumpyLines, SparseOpsBackend):
    """The compiled loops where they build, numpy everywhere else.

    Each op with a compiled body asks :func:`native.load` on every call
    and runs numpy where it answers ``None`` (no compiler): the SpMM and
    the CBSR SpGEMM / SSpMM (the pair reads ``sp_index`` at its CBSR
    width), the float select for ``k <= 8`` on an AVX2 CPU
    (:func:`native.topk`), the CBSR pack / unpack, the window rows
    (:func:`native.window_rows`) and dropout's forward for a PCG64
    generator at float32 (:func:`native.dropout`). Each output element
    accumulates in stored-edge order at any thread count, so the two
    routes write the same bytes. ``cache_info()["native"]`` is the
    loops' thread count (0: not built). A *read-only* CSR buffer triple's
    O(nnz) bounds and pin are kept in an LRU (:meth:`csr_bound`); a
    writable one is checked on every call.

    The numpy route takes 8–16× the loops' time on the aggregations (the
    bench graph, a 2-vCPU x86 host). Scatter-adds go through ``np.add.at`` on flattened segment indices
    into a zeroed array of the operand's dtype: one add per value in input
    order, each rounded at that width — bit-identical to the reference
    loop at any width (``np.bincount`` sums in double whatever it is
    handed). Its indexed fast path needs numpy >= 1.25; older releases
    compute the same bytes slowly. Its CSR SpMM does **not** ride the
    generic scatter: it uses a cache-blocked fused gather–accumulate over
    degree-bucketed row groups (see :meth:`_spmm_blocked`) that reuses backend-owned scratch
    of the operand's dtype and is allocation-free in steady state. The
    per-matrix degree-bucket plans are cached by buffer identity in an
    :class:`_IdKeyedLRU` and follow the :meth:`release` / :meth:`warm`
    hooks like the pins do.
    """

    name = "vectorized"

    #: Scratch ceiling of one gather block (elements of the operand's dtype).
    #: 1 << 16 elements, 256 KB at four bytes each, keeps the block resident
    #: in L2 while amortising the per-chunk numpy dispatch over many edges.
    _BLOCK_ELEMENTS = 1 << 16

    def __init__(self):
        # Degree-bucket SpMM plans per CSR buffer triple (numpy route).
        self._plan_cache = _IdKeyedLRU()
        # (column bound, native pin, the keyed triple) per read-only triple.
        self._csr_cache = _IdKeyedLRU()
        # Gather/reduce scratch is per-thread so a prefetching data flow
        # can warm plans on its background thread while the trainer runs.
        self._scratch = threading.local()

    # -- bounded per-graph caches --------------------------------------
    def clear_cache(self) -> None:
        """Release every cached plan / pin (and the pinned buffers)."""
        self._plan_cache.clear()
        self._csr_cache.clear()

    def release(self, matrices) -> int:
        keys = [
            _IdKeyedLRU.key(matrix.indptr, matrix.indices, matrix.data)
            for matrix in matrices
        ]
        return sum(
            cache.pop(key, None) is not None
            for cache in (self._plan_cache, self._csr_cache) for key in keys
        )

    def warm(self, matrices) -> None:
        from .csr import CSRMatrix  # validated as it was built

        compiled = native.load() is not None
        for matrix in matrices:
            if compiled:
                self.csr_bound(
                    matrix.indptr, matrix.indices, matrix.data,
                    matrix.shape[1] if isinstance(matrix, CSRMatrix) else None,
                )
            else:
                self._spmm_plan(matrix.indptr, matrix.indices, matrix.data)

    def cache_info(self) -> Dict[str, int]:
        library = native.load()
        return {
            "spmm_plans": len(self._plan_cache),
            "cache_limit": _IdKeyedLRU.LIMIT,
            "csr_entries": len(self._csr_cache),
            "native": 0 if library is None else library.threads(),
        }

    def csr_bound(self, indptr, indices, data, checked=None) -> int:
        """:func:`_check_adjacency`, kept (with the pin) per read-only triple
        where the loops build; ``checked`` is a bound these read-only
        buffers were checked against."""
        if native.load() is None or not (
            _frozen(indptr) and _frozen(indices) and data.flags.c_contiguous
        ):
            return _check_adjacency(indptr, indices)  # no pin, or a stale one
        key = _IdKeyedLRU.key(indptr, indices, data)
        entry = self._csr_cache.touch(key)
        if entry is None:
            bound = _check_adjacency(indptr, indices) if checked is None else checked
            entry = (bound, native.pin(indptr, indices, data), (indptr, indices, data))
            self._csr_cache.insert(key, entry)
        return entry[0]

    def _pinned(self, indptr, indices, data) -> tuple:
        """The pin the dispatch's :meth:`csr_bound` kept, or a fresh one (a
        writable triple it checked, or a direct call with valid inputs)."""
        entry = self._csr_cache.get(_IdKeyedLRU.key(indptr, indices, data))
        return native.pin(indptr, indices, data) if entry is None else entry[1]

    def _take(self, name: str, shape, dtype) -> np.ndarray:
        """Thread-local scratch with monotone capacity (contents undefined)."""
        store = getattr(self._scratch, "buffers", None)
        if store is None:
            store = self._scratch.buffers = {}
        size = 1
        for s in shape:
            size *= int(s)
        # A scalar type and its ``np.dtype`` instance hash apart; one slot
        # asked for both ways must stay one buffer.
        key = (name, np.dtype(dtype))
        flat = store.get(key)
        if flat is None or flat.size < size:
            flat = np.empty(max(size, 1), dtype=dtype)
            store[key] = flat
        return flat[:size].reshape(shape)

    def segment_sum(self, values, segment_ids, n_segments, out=None):
        if out is None:
            out = np.zeros((n_segments,) + values.shape[1:], dtype=values.dtype)
        else:
            out[...] = 0.0
        # Unbuffered: repeated ids accumulate one add at a time in input
        # order, each rounded at the operand's width — the reference loop.
        if values.ndim == 1 or not out.flags.c_contiguous:
            np.add.at(out, segment_ids, values)
        else:  # ufunc.at's fast path is 1-D: scatter through flattened ids
            trailing = int(np.prod(values.shape[1:]))
            flat_ids = segment_ids[:, None] * trailing + np.arange(trailing)
            np.add.at(out.reshape(-1), flat_ids.ravel(), values.ravel())
        return out

    def _spmm_plan(self, indptr, indices, data) -> tuple:
        """Degree-bucketed row plan for one CSR matrix, cached by identity.

        Rows are grouped by equal stored-entry count ``d``; each bucket
        pre-computes its stored-edge *positions* as an ``(m, d)`` block, so
        the runtime SpMM is a pure gather → scale →
        ``np.add.reduce(axis=1)`` pipeline with zero index arithmetic.
        Only this structural grouping is cached — the edge columns and
        weights are gathered from the live ``indices`` / ``data`` arrays
        on every call, so in-place mutation of the stored values stays
        visible exactly as it is through the compiled loops' pinned
        pointers and the reference loop. Building costs one stable argsort over the
        degrees and is what :meth:`warm` moves onto the prefetch thread.
        """
        key = _IdKeyedLRU.key(indptr, indices, data)
        hit = self._plan_cache.touch(key)
        if hit is not None:
            return hit[0]
        n_rows = len(indptr) - 1
        degrees = np.diff(indptr)
        order = np.argsort(degrees, kind="stable")
        sorted_deg = degrees[order]
        # inverse[r] = position of row r in degree order; the runtime
        # computes the product in degree-sorted layout (each bucket owns a
        # *contiguous* stripe it can reduce into directly) and un-permutes
        # once at the end with a single gather.
        inverse = np.empty(n_rows, dtype=np.int64)
        inverse[order] = np.arange(n_rows, dtype=np.int64)
        n_empty = int(np.searchsorted(sorted_deg, 1))
        buckets = []
        pos = n_empty
        while pos < n_rows:
            d = int(sorted_deg[pos])
            end = int(np.searchsorted(sorted_deg, d, side="right"))
            rows = order[pos:end]
            edge_pos = indptr[rows][:, None] + np.arange(d, dtype=np.int64)
            buckets.append((pos, edge_pos))
            pos = end
        plan = (n_rows, n_empty, inverse, buckets)
        self._plan_cache.insert(key, (plan, (indptr, indices, data)))
        return plan

    def _spmm_blocked(self, plan, indices, data, x, n_rows, out=None):
        """Cache-blocked fused gather–accumulate over the degree buckets.

        Every output row is the in-order sum of its stored edges'
        ``data[e] * x[indices[e]]`` contributions: ``np.take`` (with
        ``mode="clip"`` — positions are pre-validated, and the default
        ``"raise"`` mode copies through a fresh array even with ``out=``)
        gathers a row-chunk's live columns, weights and source rows into
        thread-local scratch, the edge weights scale in place, and
        ``np.add.reduce(axis=1)`` — a strictly sequential accumulation,
        unlike the pairwise ``np.add.reduceat`` — folds each row's ``d``
        contributions straight into the bucket's stripe of the
        degree-sorted product. One final gather un-permutes into ``out``.
        Bit-identical to the reference loop; scratch and result carry
        ``x``'s dtype, and there are no fresh large allocations.
        """
        dim = x.shape[1]
        if out is None:
            out = np.empty((n_rows, dim), dtype=x.dtype)
        n_plan_rows, n_empty, inverse, buckets = plan
        sorted_out = self._take("spmm.sorted", (n_plan_rows, dim), x.dtype)
        sorted_out[:n_empty] = 0.0
        for pos, edge_pos in buckets:
            m_total, d = edge_pos.shape
            step = max(1, self._BLOCK_ELEMENTS // max(d * dim, 1))
            for start in range(0, m_total, step):
                pos_chunk = edge_pos[start:start + step]
                m = len(pos_chunk)
                flat_pos = pos_chunk.ravel()
                cols = self._take("spmm.cols", (m * d,), np.int64)
                np.take(indices, flat_pos, out=cols, mode="clip")
                vals = self._take("spmm.vals", (m * d,), data.dtype)
                np.take(data, flat_pos, out=vals, mode="clip")
                gathered = self._take("spmm.gather", (m * d, dim), x.dtype)
                np.take(x, cols, axis=0, out=gathered, mode="clip")
                grouped = gathered.reshape(m, d, dim)
                grouped *= vals.reshape(m, d, 1)
                stripe = sorted_out[pos + start:pos + start + m]
                np.add.reduce(grouped, axis=1, out=stripe)
        np.take(sorted_out, inverse, axis=0, out=out, mode="clip")
        return out

    def spmm_csr(self, indptr, indices, data, x, n_rows, out=None):
        library = native.load()
        if library is not None:
            return native.spmm(library, self._pinned(indptr, indices, data), x, out)
        plan = self._spmm_plan(indptr, indices, data)
        if x.ndim == 2:
            return self._spmm_blocked(plan, indices, data, x, n_rows, out=out)
        # Wider feature maps ride the same kernel through an (n, -1) view.
        flat = x.reshape(len(x), int(np.prod(x.shape[1:])))
        result = self._spmm_blocked(plan, indices, data, flat, n_rows)
        result = result.reshape((n_rows,) + x.shape[1:])
        if out is None:
            return result
        np.copyto(out, result)
        return out

    def spgemm_cbsr(self, indptr, indices, data, sp_data, sp_index, dim_origin, n_rows):
        library = native.load()
        if library is not None:
            index = sp_index.astype(index_dtype_for(dim_origin), copy=False)
            return native.run(library, "spgemm", self._pinned(indptr, indices, data),
                              sp_data, index, dim_origin, (n_rows, dim_origin))
        row_ids = np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(indptr))
        contributions = data[:, None] * sp_data[indices]
        flat_targets = row_ids[:, None] * dim_origin + sp_index[indices]
        flat = self.segment_sum(
            contributions.ravel(), flat_targets.ravel(), n_rows * dim_origin
        )
        return flat.reshape(n_rows, dim_origin)

    def sspmm_cbsr(self, indptr, indices, data, grad_out, sp_index, n_src):
        library = native.load()
        if library is not None:
            dim_origin = grad_out.shape[1]
            index = sp_index.astype(index_dtype_for(dim_origin), copy=False)
            return native.run(library, "sspmm", self._pinned(indptr, indices, data),
                              grad_out, index, dim_origin, sp_index.shape)
        k = sp_index.shape[1]
        n_rows = len(indptr) - 1
        row_ids = np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(indptr))
        gathered = grad_out[row_ids[:, None], sp_index[indices]]
        contributions = data[:, None] * gathered
        flat_targets = (
            indices[:, None] * k + np.arange(k, dtype=np.int64)[None, :]
        )
        flat = self.segment_sum(
            contributions.ravel(), flat_targets.ravel(), n_src * k
        )
        return flat.reshape(n_src, k)

    @staticmethod
    def _stable_topk_mask_into(keys, k, out, workspace=None, slot="topk"):
        """Exact top-k by value, ties to the lowest column, written to ``out``.

        A partition finds the k-th largest key per row; everything strictly
        above it survives and the remaining slots fill with the leftmost
        keys equal to the threshold. This matches the reference backend's
        stable sort exactly at any magnitude (an epsilon-bias scheme would
        be absorbed by float rounding for large values).

        Every (n, dim)-sized intermediate — the partition scratch, the
        compare flags, the tie mask, the running tie count — comes from
        ``workspace`` slots when one is given (steady-state MaxK selection
        then allocates nothing large) and is a fresh array otherwise.
        ``out`` may be bool or of ``keys``' dtype; a float mask holds exact
        0.0/1.0 (:func:`mask_into`) and lets callers multiply by it without
        numpy's mixed-dtype casting buffers.
        """
        n_rows, dim = keys.shape
        if k == dim:
            out[...] = True
            return out

        def take(name, dtype):
            if workspace is None:
                return np.empty(keys.shape, dtype=dtype)
            return workspace.buffer(slot + name, keys.shape, dtype)

        scratch = take(".part", keys.dtype)
        np.copyto(scratch, keys)
        scratch.partition(dim - k, axis=1)
        threshold = scratch[:, dim - k : dim - k + 1]
        # Fast path: the k-th largest value itself always ties with the
        # threshold, so ``>=`` selects exactly k per row whenever that tie
        # is unique (the overwhelmingly common case for continuous feature
        # maps) — and then equals the stable lowest-column tie fill.
        if out.dtype == np.bool_:
            flags = np.greater_equal(keys, threshold, out=out)
        else:
            flags = take(".flags", bool)
            mask_into(np.greater_equal, keys, threshold, flags, out)
        # ``>=`` keeps at least k keys in every row (keys arrive NaN-free,
        # see ``_check_topk_args``), so the total is n_rows * k only when
        # each row kept exactly k.
        if np.count_nonzero(flags) == n_rows * k:
            return out
        if out.dtype != np.bool_:
            # Duplicated threshold values are vanishingly rare on
            # continuous feature maps; the exact cumulative fill runs on
            # bools and is cast over once.
            np.copyto(out, VectorizedBackend._stable_topk_mask(keys, k))
            return out
        # Duplicated threshold values: redo with the exact cumulative fill.
        np.greater(keys, threshold, out=out)
        deficit = k - out.sum(axis=1, keepdims=True)
        ties = take(".ties", bool)
        np.equal(keys, threshold, out=ties)
        running = take(".csum", np.int64)
        np.cumsum(ties, axis=1, out=running)
        fill = take(".fill", bool)
        np.less_equal(running, deficit, out=fill)
        np.logical_and(ties, fill, out=fill)
        np.logical_or(out, fill, out=out)
        return out

    @staticmethod
    def _stable_topk_mask(keys: np.ndarray, k: int) -> np.ndarray:
        """:meth:`_stable_topk_mask_into` a fresh bool mask."""
        return VectorizedBackend._stable_topk_mask_into(
            keys, k, np.empty(keys.shape, dtype=bool)
        )

    def topk_mask(self, x, k, out=None, workspace=None, slot="topk"):
        library = native.load()
        mask = np.empty(x.shape, dtype=bool) if out is None else out
        if library is not None and native.topk(library, x, k, mask):
            return mask
        return self._stable_topk_mask_into(x, k, mask, workspace, slot)

    def topk_columns(self, x, k):
        n_rows, dim = x.shape
        mask = self._stable_topk_mask(np.abs(x), k)
        return np.nonzero(mask)[1].reshape(n_rows, k).astype(np.int64)

    def cbsr_pack(self, x, mask, k, data, index):
        library = native.load()
        if library is None:
            return super().cbsr_pack(x, mask, k, data, index)
        native.pack(library, x, mask, k, data, index)

    def cbsr_unpack(self, block, index, out):
        library = native.load()
        if library is None:
            return super().cbsr_unpack(block, index, out)
        native.unpack(library, block, index, out)

    def dropout_into(self, rng, x, p, draw, keep, out):
        library = native.load()
        if library is None or not native.dropout(library, rng, x, p, draw, keep, out):
            super().dropout_into(rng, x, p, draw, keep, out)

    def induced_rows(self, base, nodes, member, local, table):
        library = native.load()
        rows = None if library is None else native.window_rows(
            library, base, nodes, member, local, table)
        if rows is None:
            return super().induced_rows(base, nodes, member, local, table)
        return rows


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, SparseOpsBackend] = {}


def register_backend(backend: SparseOpsBackend) -> SparseOpsBackend:
    """Add a backend instance to the registry (keyed by ``backend.name``)."""
    if not backend.name or backend.name == "abstract":
        raise ValueError("backend must carry a concrete name")
    _REGISTRY[backend.name] = backend
    return backend


register_backend(ReferenceBackend())
register_backend(VectorizedBackend())


def _default_backend_name() -> str:
    requested = os.environ.get("REPRO_SPARSE_BACKEND", "").strip()
    if requested:
        if requested not in _REGISTRY:
            raise ValueError(
                f"REPRO_SPARSE_BACKEND={requested!r} is not available; "
                f"options: {sorted(_REGISTRY)}"
            )
        return requested
    return "vectorized"


_ACTIVE: SparseOpsBackend = _REGISTRY[_default_backend_name()]


def available_backends() -> List[str]:
    """Names of every registered backend."""
    return sorted(_REGISTRY)


def get_backend() -> SparseOpsBackend:
    """The backend all dispatch functions currently route to."""
    return _ACTIVE


def set_backend(name: str) -> SparseOpsBackend:
    """Select the global backend; returns the previously active one."""
    global _ACTIVE
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown sparse backend {name!r}; options: {sorted(_REGISTRY)}"
        )
    previous = _ACTIVE
    _ACTIVE = _REGISTRY[name]
    return previous


@contextmanager
def use_backend(name: str) -> Iterator[SparseOpsBackend]:
    """Context manager scoping a backend switch to a block."""
    previous = set_backend(name)
    try:
        yield _ACTIVE
    finally:
        set_backend(previous.name)


# ----------------------------------------------------------------------
# Dispatch functions (shared validation, then the active backend computes)
# ----------------------------------------------------------------------
def _check_segment_args(values, segment_ids, n_segments):
    values = np.asarray(values, dtype=FLOAT_DTYPE)
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    if segment_ids.ndim != 1 or len(segment_ids) != values.shape[0]:
        raise ValueError("segment_ids must map every leading row of values")
    if n_segments < 1:
        raise ValueError("n_segments must be positive")
    if len(segment_ids) and (
        segment_ids.min() < 0 or segment_ids.max() >= n_segments
    ):
        raise ValueError("segment ids out of range")
    return values, segment_ids


def _check_out(out, shape, dtype) -> Optional[np.ndarray]:
    if out is None:
        return None
    if not isinstance(out, np.ndarray) or out.dtype != dtype:
        raise ValueError(f"out must be a {dtype} ndarray (the operand's dtype)")
    if out.shape != tuple(shape):
        raise ValueError(f"out has shape {out.shape}, expected {tuple(shape)}")
    return out


def segment_sum(values, segment_ids, n_segments: int, out=None) -> np.ndarray:
    """``out[s] = sum of values[i] over i with segment_ids[i] == s``.

    With ``out`` given, the result is written into it (and returned); the
    reference backend accumulates there directly, making it the oracle for
    the buffer-reusing training hot path.
    """
    values, segment_ids = _check_segment_args(values, segment_ids, n_segments)
    out = _check_out(out, (n_segments,) + values.shape[1:], values.dtype)
    return _ACTIVE.segment_sum(values, segment_ids, n_segments, out=out)


def spmm_csr(indptr, indices, data, x, n_rows: int, out=None) -> np.ndarray:
    """CSR sparse-times-dense: ``out[i] = sum_e data[e] * x[indices[e]]``
    over the entries ``e`` of row ``i`` — the SpMM segment-reduction
    dataflow every aggregation kernel in the system rides.

    ``out``, when given, must be an array of the result shape and the
    operands' dtype, disjoint from ``x``; the product is written there and
    returned, letting the training hot path aggregate into
    workspace-planned buffers.
    """
    x = np.asarray(x, dtype=FLOAT_DTYPE)
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    data = np.asarray(data, dtype=FLOAT_DTYPE)
    _check_csr(indptr, indices, data, n_rows, len(x))
    out = _check_out(out, (n_rows,) + x.shape[1:], x.dtype)
    if out is not None and np.may_share_memory(out, x):
        raise ValueError("out must not overlap x")
    if x.ndim == 1:
        column = None if out is None else out[:, None]
        result = _ACTIVE.spmm_csr(
            indptr, indices, data, x[:, None], n_rows, out=column
        )[:, 0]
        return result if out is None else out
    return _ACTIVE.spmm_csr(indptr, indices, data, x, n_rows, out=out)


def _frozen(array) -> bool:
    """Whether ``array`` and every array it views are read-only."""
    while isinstance(array, np.ndarray) and not array.flags.writeable:
        array = array.base
    return not isinstance(array, np.ndarray)


def _check_adjacency(indptr, indices, data=None) -> int:
    """The O(nnz) bounds of a CSR adjacency: ``indptr`` rises from 0 to
    ``len(indices)``; answers the columns it spans (the largest + 1, beyond
    any bound if one is negative). ``data`` is not read: the signature is
    ``csr_bound``'s."""
    if indptr[0] != 0 or indptr[-1] != len(indices) or (
        indptr[1:] < indptr[:-1]
    ).any():
        raise ValueError("indptr must rise monotonically from 0 to len(indices)")
    # Viewed unsigned, a negative column exceeds every bound: one pass.
    return int(indices.view(np.uint64).max()) + 1 if indices.size else 0


def _check_csr(indptr, indices, data, n_rows, n_cols) -> None:
    """Every adjacency bound the kernels index with: O(1) shape facts, and
    :func:`_check_adjacency`, unless the backend keeps it (``csr_bound``)."""
    if indices.ndim != 1 or data.shape != indices.shape:
        raise ValueError("indices and data must be matching 1-D arrays")
    if indptr.shape != (n_rows + 1,):
        raise ValueError("indptr must hold n_rows + 1 offsets")
    # ``getattr``: a delegating wrapper backend reaches its inner one's hook.
    check = getattr(_ACTIVE, "csr_bound", _check_adjacency)
    if check(indptr, indices, data) > n_cols:
        raise ValueError("adjacency column indices out of range")


def _check_cbsr_args(indptr, indices, data, sp_index, dim_origin, n_rows):
    """Every bound the compiled kernels index with, unchecked; answers
    ``sp_index`` at :func:`index_dtype_for`'s width (narrowed only after its
    range is known, never copied when it already is that width)."""
    _check_csr(indptr, indices, data, n_rows, len(sp_index))
    if sp_index.size and not 0 <= sp_index.min() <= sp_index.max() < dim_origin:
        raise ValueError("sp_index entries must be in [0, dim_origin)")
    return sp_index.astype(index_dtype_for(dim_origin), copy=False)


def spgemm_cbsr(
    indptr, indices, data, sp_data, sp_index, dim_origin: int, n_rows: int
) -> np.ndarray:
    """Forward row-wise-product SpGEMM over CBSR features (paper §4.1).

    ``out[i, sp_index[j, :]] += A[i, j] * sp_data[j, :]`` for every stored
    adjacency entry ``(i, j)``; returns the dense ``(n_rows, dim_origin)``
    aggregation output.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    data = np.asarray(data, dtype=FLOAT_DTYPE)
    sp_data = np.asarray(sp_data, dtype=FLOAT_DTYPE)
    sp_index = np.asarray(sp_index)
    if sp_data.shape != sp_index.shape or sp_data.ndim != 2:
        raise ValueError("sp_data and sp_index must be matching 2-D blocks")
    sp_index = _check_cbsr_args(indptr, indices, data, sp_index, dim_origin, n_rows)
    return _ACTIVE.spgemm_cbsr(
        indptr, indices, data, sp_data, sp_index, dim_origin, n_rows
    )


def sspmm_cbsr(indptr, indices, data, grad_out, sp_index, n_src: int) -> np.ndarray:
    """Backward outer-product SSpMM (paper §4.2): the source-node gradient
    sampled at the forward CBSR pattern.

    ``out[j, :] += A[i, j] * grad_out[i, sp_index[j, :]]`` for every stored
    adjacency entry ``(i, j)``; returns the ``(n_src, k)`` ``sp_data``
    gradient block.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    data = np.asarray(data, dtype=FLOAT_DTYPE)
    grad_out = np.asarray(grad_out, dtype=FLOAT_DTYPE)
    sp_index = np.asarray(sp_index)
    if sp_index.ndim != 2 or sp_index.shape[0] != n_src:
        raise ValueError("sp_index must be (n_src, k)")
    if grad_out.ndim != 2:
        raise ValueError("grad_out must be (n_rows, dim_origin)")
    n_rows, dim_origin = grad_out.shape
    sp_index = _check_cbsr_args(indptr, indices, data, sp_index, dim_origin, n_rows)
    return _ACTIVE.sspmm_cbsr(indptr, indices, data, grad_out, sp_index, n_src)


def _check_topk_args(x, k: int, op_name: str) -> np.ndarray:
    x = np.asarray(x, dtype=FLOAT_DTYPE)
    if x.ndim != 2:
        raise ValueError(f"{op_name} expects a 2-D matrix")
    if not 1 <= k <= x.shape[1]:
        raise ValueError(f"k must be in [1, {x.shape[1]}], got {k}")
    # ``min`` propagates NaN, so one reduction answers without the (n, dim)
    # bool temporary ``np.isnan(x).any()`` allocates on every selection.
    if x.size and np.isnan(x.min()):
        # NaNs sort as the largest value (numpy's sort convention), so
        # selection stays exactly-k and backend-independent even on a
        # diverged feature map instead of crashing obscurely downstream.
        x = np.where(np.isnan(x), np.inf, x)
    return x


def topk_mask(x, k: int, out=None, workspace=None, slot: str = "topk") -> np.ndarray:
    """Boolean mask of the ``k`` largest values per row (ties → lower column).

    ``out`` (a bool array — or one of ``x``'s dtype, filled with exact
    0.0/1.0 — of ``x``'s shape) receives the mask when given; float masks let
    callers multiply by the mask without numpy's mixed-dtype casting buffers.
    A NaN entry is selected as ``+inf`` would be (rows stay exactly ``k``)
    and its mask entry is an ordinary 0.0/1.0, never NaN: the caller's
    ``x * mask`` still poisons the output, the gradient there is masked.
    ``workspace`` — any object with a ``buffer(name, shape, dtype)`` method,
    normally :class:`repro.tensor.workspace.Workspace` — additionally
    routes the selection's internal scratch through reusable slots keyed by
    ``slot``, making steady-state MaxK selection allocation-free on the
    vectorized backends.
    """
    x = _check_topk_args(x, k, "topk_mask")
    if out is not None and (
        not isinstance(out, np.ndarray)
        or out.dtype not in (np.bool_, x.dtype)
        or out.shape != x.shape
    ):
        raise ValueError(f"out must be a bool or {x.dtype} ndarray of x's shape")
    return _ACTIVE.topk_mask(x, k, out=out, workspace=workspace, slot=slot)


def _check_block_out(out, shape, dtype) -> np.ndarray:
    """:func:`_check_out`, C-contiguous (the compiled loops write it), or a
    fresh array for ``None``."""
    if _check_out(out, shape, dtype) is None:
        return np.empty(shape, dtype=dtype)
    if not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    return out


def cbsr_pack(x, mask, k: int, data=None, index=None) -> Tuple[np.ndarray, np.ndarray]:
    """The CBSR block ``(sp_data, sp_index)`` of the dense ``x`` at a top-k
    ``mask`` (bool, or ``x``'s dtype holding 0/1): each row's ``k``
    survivors, columns ascending, ``sp_index`` at :func:`index_dtype_for`'s
    width. The values are copied, never computed. ``data`` / ``index``
    receive the block when given. A mask row without exactly ``k``
    survivors is refused."""
    x, mask = np.asarray(x), np.asarray(mask)
    if x.ndim != 2 or mask.shape != x.shape:
        raise ValueError("x and mask must be matching 2-D arrays")
    n_rows, dim = x.shape
    if not 1 <= k <= dim:
        raise ValueError(f"k must be in [1, {dim}], got {k}")
    if mask.dtype != np.bool_:
        mask = mask != 0
    data = _check_block_out(data, (n_rows, k), x.dtype)
    index = _check_block_out(index, (n_rows, k), index_dtype_for(dim))
    _ACTIVE.cbsr_pack(x, mask, k, data, index)
    return data, index


def cbsr_unpack(block, sp_index, dim_origin: int, out=None) -> np.ndarray:
    """The dense ``(n, dim_origin)`` map of a CBSR block: zero but at each
    row's ``sp_index`` columns, which hold ``block``'s values (copied) —
    the SSpMM's gradient back at the forward pattern."""
    block = np.asarray(block)
    sp_index = np.asarray(sp_index)
    if block.ndim != 2 or sp_index.shape != block.shape:
        raise ValueError("block and sp_index must be matching 2-D blocks")
    if sp_index.size and not 0 <= sp_index.min() <= sp_index.max() < dim_origin:
        raise ValueError("sp_index entries must be in [0, dim_origin)")
    sp_index = sp_index.astype(index_dtype_for(dim_origin), copy=False)
    out = _check_block_out(out, (len(block), dim_origin), block.dtype)
    _ACTIVE.cbsr_unpack(block, sp_index, out)
    return out


def dropout_into(rng, x, p: float, draw, keep, out) -> np.ndarray:
    """Inverted dropout's forward, into the C-contiguous ``draw`` / ``keep``
    / ``out`` of ``x``'s shape and dtype: ``draw`` receives
    ``rng.random(dtype=x.dtype)``'s next ``x.size`` values, ``keep`` the
    float 0/1 mask ``draw >= p`` (a draw equal to ``p`` keeps), ``out``
    ``x * scale * keep + 0.0`` with ``scale = 1 / (1 - p)``: a dropped
    entry is +0.0, a NaN stays NaN. Every backend writes the same bytes
    and leaves ``rng`` in the same state; returns ``out``."""
    x = np.asarray(x)
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout probability must be in [0, 1)")
    for buffer in (draw, keep, out):
        if buffer is None:
            raise ValueError("draw, keep and out must be arrays")
        _check_block_out(buffer, x.shape, x.dtype)
    _ACTIVE.dropout_into(rng, x, p, draw, keep, out)
    return out


def induced_rows(base, keys, n_members: int = 1):
    """The rows of the square CSR ``base`` that a disjoint union of induced
    subgraphs reads, as that union's own CSR.

    ``keys`` are sorted unique ``member * n + node`` ids (``n`` = ``base``'s
    rows); row ``i`` is ``keys[i]``'s node and keeps the base row's entries
    whose column is a row of the same member, renumbered, with the base's
    weights in base order. For a graph's structural base that is
    :func:`~repro.graphs.partition.induced_union`'s structural base, byte
    for byte, without its COO round trip. Builds the node-id map and the
    members x ids row table itself, so every index the backend's body
    reads is in range; the result is bounds-checked as every
    ``CSRMatrix`` is.
    """
    from .csr import CSRMatrix

    n = base.shape[0]
    keys = np.asarray(keys, dtype=np.int64)
    if base.shape[1] != n:
        raise ValueError("the base adjacency must be square")
    if n_members < 1:
        raise ValueError("n_members must be >= 1")
    if keys.ndim != 1 or (keys[1:] <= keys[:-1]).any():
        raise ValueError("keys must be a sorted unique 1-D array")
    if keys.size and keys.view(np.uint64).max() >= n_members * n:
        raise ValueError("keys out of range")
    member, nodes = np.divmod(keys, n)
    # One id per node a member holds: 1 + any one of its rows (whichever
    # the scatter keeps, read back below), so no dedupe and no scan of the
    # map; 0 for the rest, which the table's first column maps to -1.
    local = np.zeros(n, dtype=np.int64)
    local[nodes] = np.arange(1, keys.size + 1)
    table = np.full((n_members, keys.size + 1), -1, dtype=np.int64)
    table[member, local[nodes]] = np.arange(keys.size)
    indptr, indices, data = _ACTIVE.induced_rows(
        (base.indptr, base.indices, base.data), nodes, member, local, table)
    return CSRMatrix(indptr, indices, data, shape=(keys.size, keys.size))


def release(matrices) -> int:
    """Drop the active backend's cached state for the given CSR matrices.

    The per-graph counterpart of ``get_backend().clear_cache()``: only the
    wrappers keyed by these matrices' buffers are dropped, so every other
    graph's compiled state stays warm. Returns the number of entries
    released (0 on stateless backends).
    """
    return _ACTIVE.release(matrices)


def warm(matrices) -> None:
    """Pre-register the active backend's per-graph state for these matrices.

    The counterpart of :func:`release`: builds whatever lazily-constructed
    wrappers or execution plans the backend's kernels would create on first
    touch, so callers (the prefetching data flow) can pay that cost off the
    training critical path. No-op on stateless backends.
    """
    _ACTIVE.warm(matrices)


def topk_columns(x, k: int) -> np.ndarray:
    """Sorted columns of the ``k`` largest-magnitude entries per row.

    Ties resolve toward the lower column index in every backend; this is
    the CBSR compaction step after the MaxK kernel.
    """
    return _ACTIVE.topk_columns(_check_topk_args(x, k, "topk_columns"), k)
