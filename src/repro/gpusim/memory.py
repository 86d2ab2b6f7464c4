"""Global-memory traffic accounting (paper §4.3).

Each kernel cost model produces a :class:`TrafficReport` whose categories
mirror the paper's analysis: adjacency reads, feature/CBSR fetches, output
accumulation, prefetch, and index traffic. The closed-form byte counts
of §4.3 are module functions the kernel models build on; the forward
reduction formula lets the traffic benchmark cross-check them against the
paper's algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

__all__ = [
    "TrafficReport",
    "spmm_traffic_bytes",
    "spgemm_traffic_bytes",
    "sspmm_read_bytes",
    "sspmm_write_bytes",
    "spgemm_traffic_reduction",
    "mlp_feature_traffic_cut",
]

FLOAT_BYTES = 4
INDEX_BYTES = 4
UINT8_BYTES = 1


@dataclass
class TrafficReport:
    """Bytes of global-memory request traffic, split by category."""

    categories: Dict[str, float] = field(default_factory=dict)

    def add(self, category: str, n_bytes: float) -> "TrafficReport":
        if n_bytes < 0:
            raise ValueError("traffic bytes must be non-negative")
        self.categories[category] = self.categories.get(category, 0.0) + n_bytes
        return self

    @property
    def total(self) -> float:
        return sum(self.categories.values())


# ----------------------------------------------------------------------
# §4.3 closed forms. All counts are *feature-fetch* traffic, the dominant
# term the paper analyses; kernel models add adjacency/output terms on top.
# ----------------------------------------------------------------------
def spmm_traffic_bytes(dim_origin: int, nnz: int) -> float:
    """Row-wise SpMM input-feature traffic: ``4 * dim_origin * nnz`` bytes."""
    return float(FLOAT_BYTES * dim_origin * nnz)


def spgemm_traffic_bytes(dim_k: int, nnz: int, uint8_index: bool = True) -> float:
    """Forward SpGEMM CBSR fetch traffic.

    ``(4 + index_bytes) * dim_k * nnz``: fp32 sp_data plus the sp_index
    bytes — ``5 * dim_k * nnz`` with a uint8 index (dim_origin ≤ 256).
    """
    index_bytes = UINT8_BYTES if uint8_index else INDEX_BYTES
    return float((FLOAT_BYTES + index_bytes) * dim_k * nnz)


def sspmm_read_bytes(
    dim_origin: int, dim_k: int, n_nodes: int, nnz: int, uint8_index: bool = True
) -> float:
    """Backward SSpMM read traffic: ``4*N*dim_origin + 5*dim_k*nnz`` (§4.3)."""
    index_bytes = UINT8_BYTES if uint8_index else INDEX_BYTES
    return float(
        FLOAT_BYTES * n_nodes * dim_origin
        + (FLOAT_BYTES + index_bytes) * dim_k * nnz
    )


def sspmm_write_bytes(dim_k: int, nnz: int) -> float:
    """Backward SSpMM write traffic: ``4 * dim_k * nnz`` bytes."""
    return float(FLOAT_BYTES * dim_k * nnz)


def spgemm_traffic_reduction(dim_origin: int, dim_k: int, nnz: int) -> float:
    """Paper: forward reduction vs SpMM is ``(4*dim_origin - 5*dim_k) * nnz``."""
    return float((FLOAT_BYTES * dim_origin - 5 * dim_k) * nnz)


def mlp_feature_traffic_cut(hidden: int, k: int, batch: int) -> float:
    """Fractional input-fetch traffic cut of a CBSR dense layer (§6).

    Treats each batch row as one "nonzero" consumer of a hidden feature
    row — the dense-layer analogue of the §4.3 SpGEMM reduction, for a
    MaxK MLP such as :class:`repro.models.MaxKMLPClassifier`.
    """
    dense = spmm_traffic_bytes(hidden, batch)
    sparse = spgemm_traffic_bytes(k, batch, uint8_index=hidden <= 256)
    return 1.0 - sparse / dense
