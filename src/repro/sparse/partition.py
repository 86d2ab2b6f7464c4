"""Warp-level workload partitioning into Edge Groups (EGs).

Section 4.1 of the paper segments the nonzeros of every adjacency-matrix row
into *Edge Groups* of at most ``w`` edges. Each EG owns a shared-memory
accumulation buffer of ``dim_origin`` floats, and EGs are mapped to warps:

* ``dim_k <= 16`` (Case 1): a 32-thread warp packs ``floor(32 / dim_k)`` EGs,
  each EG confined to one warp so sparse accumulation never crosses warps.
* ``dim_k > 16``  (Case 2): one EG per warp, the warp iterates over the k
  entries of every edge's CBSR row.

The mapper runs in O(n + nnz/w) like the paper's "light-weight warp-level
partition mapper" and is shared by the forward SpGEMM and backward SSpMM
kernels. :func:`warp_efficiency` and :func:`gini` measure how level a load
vector is: the warps' :meth:`WarpPartition.warp_loads`, or the edges each
data-parallel replica trained.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from .csr import CSRMatrix

__all__ = [
    "EdgeGroup",
    "WarpPartition",
    "partition_edge_groups",
    "egs_per_warp",
    "warp_efficiency",
    "gini",
]

WARP_SIZE = 32
#: Paper Case-1/Case-2 boundary for how many EGs share a warp.
CASE_BOUNDARY_DIM_K = 16


@dataclass(frozen=True)
class EdgeGroup:
    """A contiguous chunk of one adjacency row's nonzeros.

    Attributes
    ----------
    row:
        Adjacency row (destination node) this group accumulates into.
    start, stop:
        Half-open range into the CSR ``indices``/``data`` arrays.
    warp:
        Warp id the group is mapped onto.
    """

    row: int
    start: int
    stop: int
    warp: int

    @property
    def size(self) -> int:
        return self.stop - self.start


@dataclass
class WarpPartition:
    """The full EG decomposition of a sparse matrix for a given ``dim_k``."""

    groups: List[EdgeGroup]
    n_warps: int
    dim_k: int
    max_edges_per_group: int
    #: Number of EGs that share one 32-thread warp (1 when dim_k > 16).
    groups_per_warp: int = field(default=1)

    def warp_loads(self) -> np.ndarray:
        """Edges handled per warp — used by balance metrics and cost model."""
        loads = np.zeros(self.n_warps, dtype=np.int64)
        for group in self.groups:
            loads[group.warp] += group.size
        return loads


def egs_per_warp(dim_k: int) -> int:
    """How many Edge Groups one warp services (paper Fig. 6/7 warp config)."""
    if dim_k <= 0:
        raise ValueError("dim_k must be positive")
    if dim_k <= CASE_BOUNDARY_DIM_K:
        return max(1, WARP_SIZE // dim_k)
    return 1


def partition_edge_groups(
    matrix: CSRMatrix, dim_k: int, max_edges_per_group: int = 32
) -> WarpPartition:
    """Segment every row's nonzeros into EGs and map EGs onto warps.

    Parameters
    ----------
    matrix:
        The adjacency matrix in CSR form.
    dim_k:
        CBSR row width (the MaxK ``k``); selects the Case-1/Case-2 mapping.
    max_edges_per_group:
        The hyperparameter ``w`` from §4.3: the maximum workload units
        (edges) assigned to one EG. Long "evil" rows split into many EGs,
        which is what removes the power-law imbalance.
    """
    if max_edges_per_group <= 0:
        raise ValueError("max_edges_per_group must be positive")
    per_warp = egs_per_warp(dim_k)

    groups: List[EdgeGroup] = []
    slot = 0  # running EG counter; warp = slot // per_warp
    for row in range(matrix.n_rows):
        lo, hi = int(matrix.indptr[row]), int(matrix.indptr[row + 1])
        for start in range(lo, hi, max_edges_per_group):
            stop = min(start + max_edges_per_group, hi)
            groups.append(
                EdgeGroup(row=row, start=start, stop=stop, warp=slot // per_warp)
            )
            slot += 1

    n_warps = (slot + per_warp - 1) // per_warp if slot else 0
    return WarpPartition(
        groups=groups,
        n_warps=n_warps,
        dim_k=dim_k,
        max_edges_per_group=max_edges_per_group,
        groups_per_warp=per_warp,
    )


def warp_efficiency(loads: np.ndarray) -> float:
    """mean/max load over active warps — 1.0 means perfectly balanced.

    This is the fraction of issue slots doing useful work when every warp
    runs for as long as the slowest one (lock-step kernel completion).
    Integer loads (and float64 ones holding integers) are summed exactly.
    """
    loads = np.asarray(loads)
    loads = loads[loads > 0]
    if loads.size == 0:
        return 1.0
    return float(loads.mean() / loads.max())


def gini(loads: np.ndarray) -> float:
    """Gini coefficient of the load distribution (0 = perfectly equal)."""
    loads = np.sort(np.asarray(loads))
    n = loads.size
    if n == 0 or loads.sum() == 0:
        return 0.0
    cumulative = np.cumsum(loads)
    return float((n + 1 - 2 * (cumulative / cumulative[-1]).sum()) / n)
