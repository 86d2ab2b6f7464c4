"""Sparse-matrix substrate: CSR storage, segment-op backends and
warp-level partitioning."""

from . import ops
from .csr import CSRMatrix, coo_to_csr
from .ops import available_backends, get_backend, set_backend, use_backend
from .partition import (
    CASE_BOUNDARY_DIM_K,
    WARP_SIZE,
    EdgeGroup,
    WarpPartition,
    egs_per_warp,
    partition_edge_groups,
)

__all__ = [
    "CSRMatrix",
    "coo_to_csr",
    "ops",
    "available_backends",
    "get_backend",
    "set_backend",
    "use_backend",
    "EdgeGroup",
    "WarpPartition",
    "partition_edge_groups",
    "egs_per_warp",
    "WARP_SIZE",
    "CASE_BOUNDARY_DIM_K",
]
