"""Workload-balance analysis: the "evil rows" problem and its EG fix.

The paper motivates Edge-Group partitioning with the power-law degree
distribution of real graphs: a row-per-warp mapping leaves most warps idle
while a few process huge rows (AWB-GCN's "evil rows"). This module measures
that imbalance and how the paper's partitioner removes it:

* :func:`row_split_loads` — per-warp edge counts under the naive one
  row = one warp mapping;
* :func:`edge_group_loads` — per-warp counts under Edge-Group partitioning;
* :func:`warp_efficiency` / :func:`gini` — balance metrics (defined in
  :mod:`repro.sparse.partition`, re-exported here);
* :func:`compare_mappings` — a side-by-side report used by the ablation
  benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sparse import CSRMatrix, partition_edge_groups
from ..sparse.partition import gini, warp_efficiency

__all__ = [
    "row_split_loads",
    "edge_group_loads",
    "warp_efficiency",
    "gini",
    "BalanceComparison",
    "compare_mappings",
]


def row_split_loads(adj: CSRMatrix) -> np.ndarray:
    """Per-warp edge loads when each adjacency row maps to one warp."""
    return adj.row_degrees().astype(np.int64)


def edge_group_loads(
    adj: CSRMatrix, dim_k: int, max_edges_per_group: int = 16
) -> np.ndarray:
    """Per-warp edge loads under the paper's Edge-Group partitioning."""
    partition = partition_edge_groups(adj, dim_k, max_edges_per_group)
    return partition.warp_loads()


@dataclass(frozen=True)
class BalanceComparison:
    """Balance metrics of row-split vs Edge-Group mapping on one graph."""

    row_split_efficiency: float
    edge_group_efficiency: float
    row_split_gini: float
    edge_group_gini: float
    max_row_load: int
    max_edge_group_load: int

    @property
    def efficiency_gain(self) -> float:
        """How much Edge Groups improve warp efficiency (>= 1)."""
        if self.row_split_efficiency == 0:
            return float("inf")
        return self.edge_group_efficiency / self.row_split_efficiency


def compare_mappings(
    adj: CSRMatrix, dim_k: int = 32, max_edges_per_group: int = 16
) -> BalanceComparison:
    """Measure both mappings on one adjacency matrix."""
    rows = row_split_loads(adj)
    groups = edge_group_loads(adj, dim_k, max_edges_per_group)
    return BalanceComparison(
        row_split_efficiency=warp_efficiency(rows),
        edge_group_efficiency=warp_efficiency(groups),
        row_split_gini=gini(rows),
        edge_group_gini=gini(groups),
        max_row_load=int(rows.max()) if rows.size else 0,
        max_edge_group_load=int(groups.max()) if groups.size else 0,
    )
