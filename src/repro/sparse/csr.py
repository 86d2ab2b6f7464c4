"""Compressed sparse row (CSR) matrices built from scratch on numpy.

The paper stores the graph adjacency matrix ``A`` in CSR format for the
forward SpGEMM kernel and uses the *same* buffers, interpreted as CSC, for the
transposed matrix ``A^T`` in the backward SSpMM kernel (Fig. 7: "Transposed
adjacent matrix A^T in the CSC format has same storage format as the original
adjacent matrix A in CSR format, thus no extra storage").

This module provides :class:`CSRMatrix`, which owns ``indptr`` /
``indices`` / ``data`` arrays. The CBSR SSpMM reads a forward adjacency's
three buffers as the CSC storage of ``A^T`` without a copy;
:meth:`CSRMatrix.transpose` materialises ``A^T`` in CSR form where a
backward SpMM needs its rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import ops

__all__ = ["CSRMatrix", "coo_to_csr", "stable_order"]


def _validate_csr_buffers(indptr, indices, data, shape):
    n_rows, n_cols = shape
    if indptr.ndim != 1 or indices.ndim != 1 or data.ndim != 1:
        raise ValueError("indptr, indices and data must be 1-D arrays")
    if len(indptr) != n_rows + 1:
        raise ValueError(
            f"indptr has length {len(indptr)}, expected n_rows + 1 = {n_rows + 1}"
        )
    if len(indices) != len(data):
        raise ValueError("indices and data must have equal length")
    if ops._check_adjacency(indptr, indices) > n_cols:
        raise ValueError("column indices out of range")


@dataclass(frozen=True)
class CSRMatrix:
    """An immutable CSR sparse matrix.

    Attributes
    ----------
    indptr:
        ``int64[n_rows + 1]`` row pointer array (read-only).
    indices:
        ``int64[nnz]`` column index of every stored entry, sorted within rows
        (read-only).
    data:
        ``float[nnz]`` value of every stored entry (``ops.FLOAT_DTYPE``).
    shape:
        ``(n_rows, n_cols)``.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: Tuple[int, int]

    def __post_init__(self):
        for name in ("indptr", "indices"):
            # Read-only: bounds validated once stay valid (the vectorized
            # backend keeps them per buffer triple instead of re-reading nnz
            # a call).
            index = np.asarray(getattr(self, name), dtype=np.int64)
            index.flags.writeable = False
            object.__setattr__(self, name, index)
        data = np.asarray(self.data, dtype=ops.FLOAT_DTYPE)
        object.__setattr__(self, "data", data)
        _validate_csr_buffers(self.indptr, self.indices, self.data, self.shape)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSRMatrix":
        """Build a CSR matrix from a dense 2-D array, dropping exact zeros."""
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ValueError("dense input must be 2-D")
        rows, cols = np.nonzero(dense)
        return coo_to_csr(rows, cols, dense[rows, cols], dense.shape)

    @classmethod
    def from_edges(
        cls,
        src: np.ndarray,
        dst: np.ndarray,
        shape: Tuple[int, int],
        data: np.ndarray = None,
    ) -> "CSRMatrix":
        """Build from an edge list where entry ``(dst[i], src[i])`` is set.

        GNN aggregation computes ``X_out[dst] += w * X_in[src]``, i.e. the
        adjacency matrix rows are destinations and columns are sources.
        Duplicate edges are summed.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if data is None:
            data = np.ones(len(src), dtype=ops.FLOAT_DTYPE)
        return coo_to_csr(dst, src, data, shape)

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    def row_degrees(self) -> np.ndarray:
        """Number of stored entries in every row (node in-degree for A)."""
        return np.diff(self.indptr)

    # ------------------------------------------------------------------
    # Conversions and algebra
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.data.dtype)
        row_ids = np.repeat(np.arange(self.n_rows), self.row_degrees())
        out[row_ids, self.indices] = self.data
        return out

    def transpose(self) -> "CSRMatrix":
        """Materialise ``A^T`` in CSR form (copies): what
        ``Graph.adjacency_transpose`` caches for a training backward.

        One stable radix pass over the column indices; row ids come out
        ascending within each column because the input is row-major. The
        input must be canonical (strictly ascending columns within every
        row), as every CSR the program builds is: ``coo_to_csr``,
        ``ops.induced_rows``, ``scale_rows`` / ``scale_cols`` and the
        mutation merge. The result is then ``coo_to_csr`` of the swapped
        triplets, byte for byte. A hand-built CSR that stores an entry
        twice has the repeats summed, as ``coo_to_csr`` sums them.
        """
        row_ids = np.repeat(np.arange(self.n_rows), self.row_degrees())
        order = stable_order(((self.indices, self.n_cols),))
        triplets = self.indices[order], row_ids[order], self.data[order]
        # Canonical rows step down in column only where a new row starts.
        steps = np.flatnonzero(self.indices[1:] <= self.indices[:-1]) + 1
        if (row_ids[steps] == row_ids[steps - 1]).any():
            triplets = _sum_repeats(*triplets)
        return _sorted_to_csr(*triplets, (self.n_cols, self.n_rows))

    def with_data(self, data: np.ndarray) -> "CSRMatrix":
        """Same sparsity pattern with replaced values.

        The pattern is this matrix's own read-only ``indptr`` / ``indices``,
        bounded when it was built, so only the values are converted: no
        second O(nnz) bounds pass (a ``sage`` / ``gcn`` scaling and a
        delta's ``sage`` patch each build one)."""
        data = np.asarray(data, dtype=ops.FLOAT_DTYPE)
        if data.shape != self.data.shape:
            raise ValueError("replacement data must match nnz")
        scaled = object.__new__(CSRMatrix)
        for name, value in (("indptr", self.indptr), ("indices", self.indices),
                            ("data", data), ("shape", self.shape)):
            object.__setattr__(scaled, name, value)
        return scaled

    def scale_rows(self, row_scale: np.ndarray) -> "CSRMatrix":
        """Multiply every row ``i`` by ``row_scale[i]`` (e.g. 1/degree)."""
        row_scale = np.asarray(row_scale)
        if row_scale.shape != (self.n_rows,):
            raise ValueError("row_scale must have one entry per row")
        expanded = np.repeat(row_scale, self.row_degrees())
        return self.with_data(self.data * expanded)

    def scale_cols(self, col_scale: np.ndarray) -> "CSRMatrix":
        """Multiply every column ``j`` by ``col_scale[j]``."""
        col_scale = np.asarray(col_scale)
        if col_scale.shape != (self.n_cols,):
            raise ValueError("col_scale must have one entry per column")
        return self.with_data(self.data * col_scale[self.indices])

    def matmul_dense(self, x: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """``A @ X`` through the active sparse-ops backend.

        Segment-sum over the edge list; numerically this is the exact
        computation the forward SpGEMM kernel performs. The implementation
        (naive loop, compiled loop, blocked numpy SpMM) is selected by
        :mod:`repro.sparse.ops`. ``out``, when given, receives the product
        (and is returned), so workspace-planned training steps aggregate
        into reused buffers.
        """
        x = np.asarray(x)
        if x.shape[0] != self.n_cols:
            raise ValueError(
                f"dimension mismatch: A is {self.shape}, X has {x.shape[0]} rows"
            )
        return ops.spmm_csr(
            self.indptr, self.indices, self.data, x, self.n_rows, out=out
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, CSRMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.data, other.data)
        )


def stable_order(keys) -> np.ndarray:
    """The stable lexicographic order (``int64`` positions) of ``keys``,
    ``((key, bound), …)`` least significant first, each in ``[0, bound)``.

    An LSD radix: ``ceil(bit_length(bound - 1) / 16)`` 16-bit digits per
    key, each one stable argsort of a ``uint16`` array composed into the
    order so far. Any stable sort gives the same permutation; only the
    O(E + n) cost relies on numpy's radix sort for 16-bit keys.
    """
    order = None
    for key, bound in keys:
        for shift in range(0, max(int(bound) - 1, 0).bit_length(), 16):
            digit = (key >> shift).astype(np.uint16)
            step = np.argsort(
                digit if order is None else digit[order], kind="stable"
            )
            order = step if order is None else order[step]
    return np.arange(len(keys[0][0])) if order is None else order


def coo_to_csr(rows, cols, data, shape) -> CSRMatrix:
    """Convert COO triplets to CSR, summing duplicate entries.

    Rows and, within each row, columns come out sorted, which the kernels
    rely on for coalesced access-stream generation.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    data = np.asarray(data, dtype=ops.FLOAT_DTYPE)
    n_rows, n_cols = shape
    if len(rows) != len(cols) or len(rows) != len(data):
        raise ValueError("rows, cols and data must have equal length")
    # Viewed unsigned, a negative index exceeds every bound: one pass each.
    if len(rows) and rows.view(np.uint64).max() >= n_rows:
        raise ValueError("row indices out of range")
    if len(cols) and cols.view(np.uint64).max() >= n_cols:
        raise ValueError("column indices out of range")

    # Sort lexicographically by (row, col), then merge duplicates.
    order = stable_order(((cols, n_cols), (rows, n_rows)))
    return _sorted_to_csr(
        *_sum_repeats(rows[order], cols[order], data[order]), shape
    )


def _sum_repeats(rows, cols, data):
    """``(row, col)``-sorted triplets with each repeated position's values
    summed into one entry."""
    if not len(rows):
        return rows, cols, data
    is_new = np.empty(len(rows), dtype=bool)
    is_new[0] = True
    is_new[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    group_ids = np.cumsum(is_new) - 1
    merged_data = np.bincount(
        group_ids, weights=data, minlength=group_ids[-1] + 1
    )
    return rows[is_new], cols[is_new], merged_data


def _sorted_to_csr(rows, cols, data, shape) -> CSRMatrix:
    """The CSR of ``(row, col)``-sorted triplets without repeats."""
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return CSRMatrix(indptr=indptr, indices=cols, data=data, shape=shape)
