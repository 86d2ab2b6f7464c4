"""Compressed Balanced Sparse Row (CBSR) format.

After the MaxK nonlinearity every node embedding row holds exactly ``k``
nonzeros, so the sparse feature matrix compresses into two dense
``(n_rows, k)`` blocks:

* ``sp_data``  — the surviving values;
* ``sp_index`` — their column positions in the original ``dim_origin``-wide
  row.

Both blocks live contiguously ("two adjacent memory blocks in the main
memory", §3.2) and the per-row width is constant, which is what makes the
format *balanced*: a warp always knows how many elements a row contributes.

The paper stores ``sp_index`` as ``uint8`` when ``dim_origin <= 256`` so the
index traffic is 1 byte per element (the ``5 * dim_k * nnz`` term of §4.3);
``sparse.ops.index_dtype_for`` decides the width, and the CBSR kernels read
the block at it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..sparse import ops
from ..sparse.ops import index_dtype_for

__all__ = ["CBSRMatrix", "index_dtype_for"]


@dataclass(frozen=True)
class CBSRMatrix:
    """A row-balanced sparse matrix with exactly ``k`` entries per row.

    Attributes
    ----------
    sp_data:
        ``float[n_rows, k]`` values (``ops.FLOAT_DTYPE``).
    sp_index:
        ``uint{8,16,32}[n_rows, k]`` column of each value, strictly
        increasing within every row.
    dim_origin:
        Width of the dense matrix this compresses.
    """

    sp_data: np.ndarray
    sp_index: np.ndarray
    dim_origin: int

    def __post_init__(self):
        sp_data = np.asarray(self.sp_data, dtype=ops.FLOAT_DTYPE)
        dtype = index_dtype_for(self.dim_origin)
        sp_index = np.asarray(self.sp_index).astype(dtype, copy=False)
        if sp_data.ndim != 2 or sp_index.ndim != 2:
            raise ValueError("sp_data and sp_index must be 2-D")
        if sp_data.shape != sp_index.shape:
            raise ValueError("sp_data and sp_index must have identical shapes")
        if sp_data.shape[1] > self.dim_origin:
            raise ValueError("k cannot exceed dim_origin")
        if sp_index.size and int(sp_index.max()) >= self.dim_origin:
            raise ValueError("sp_index entries must be < dim_origin")
        if sp_index.shape[1] > 1 and np.any(np.diff(sp_index.astype(np.int64), axis=1) <= 0):
            raise ValueError("sp_index must be strictly increasing within rows")
        object.__setattr__(self, "sp_data", sp_data)
        object.__setattr__(self, "sp_index", sp_index)

    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        return self.sp_data.shape[0]

    @property
    def k(self) -> int:
        return self.sp_data.shape[1]

    @property
    def shape(self) -> Tuple[int, int]:
        """Shape of the dense matrix this represents."""
        return (self.n_rows, self.dim_origin)

    @property
    def density(self) -> float:
        return self.k / self.dim_origin

    def storage_bytes(self) -> int:
        """Bytes occupied in global memory: the value and index blocks."""
        return self.sp_data.nbytes + self.sp_index.nbytes

    # ------------------------------------------------------------------
    @classmethod
    def from_dense_rows(cls, dense: np.ndarray, k: int) -> "CBSRMatrix":
        """Compress a dense matrix known to have ≤ k nonzeros per row.

        Keeps, for every row, the ``k`` largest-magnitude entries (ties broken
        toward lower column index); this is exactly the "recompress feature
        into CBSR format" step after the MaxK kernel. Rows with fewer than
        ``k`` nonzeros pad with explicit zeros at the smallest free columns,
        keeping the balanced width.
        """
        dense = np.asarray(dense)
        top_cols = ops.topk_columns(dense, k)  # validates the shape and k
        n_rows, dim_origin = dense.shape
        rows = np.arange(n_rows)[:, None]
        return cls(
            sp_data=dense[rows, top_cols],
            sp_index=top_cols,
            dim_origin=dim_origin,
        )

    def to_dense(self) -> np.ndarray:
        """Decompress to the dense ``(n_rows, dim_origin)`` matrix."""
        out = np.zeros((self.n_rows, self.dim_origin), dtype=self.sp_data.dtype)
        rows = np.arange(self.n_rows)[:, None]
        out[rows, self.sp_index.astype(np.int64)] = self.sp_data
        return out

    def with_data(self, sp_data: np.ndarray) -> "CBSRMatrix":
        """Same sparsity pattern (``sp_index``) with replaced values.

        The backward SSpMM produces gradients with *exactly* the forward
        pattern, so it only ever writes a fresh ``sp_data`` block.
        """
        sp_data = np.asarray(sp_data)
        if sp_data.shape != self.sp_data.shape:
            raise ValueError("replacement sp_data must match shape")
        return CBSRMatrix(sp_data, self.sp_index, self.dim_origin)

    def row(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """(values, columns) of row ``i``."""
        return self.sp_data[i], self.sp_index[i].astype(np.int64)

    def __repr__(self) -> str:
        return (
            f"CBSRMatrix(n_rows={self.n_rows}, k={self.k}, "
            f"dim_origin={self.dim_origin}, index_dtype={self.sp_index.dtype})"
        )
