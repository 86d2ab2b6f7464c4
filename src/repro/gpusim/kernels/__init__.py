"""GPU kernel implementations: numerics, traffic models and address streams."""

from .base import KernelCost, SparsePattern, bounded_latency
from .linear import elementwise_cost, gemm_cost
from .maxk_kernel import maxk_kernel_cost, maxk_kernel_execute
from .spgemm import (
    spgemm_address_stream,
    spgemm_cost,
    spgemm_execute,
    spgemm_request_traffic,
)
from .spmm import (
    cusparse_spmm_cost,
    gnnadvisor_spmm_cost,
    spmm_address_stream,
    spmm_execute,
    spmm_request_traffic,
)
from .sspmm import (
    sspmm_address_stream,
    sspmm_cost,
    sspmm_execute,
    sspmm_request_traffic,
)

__all__ = [
    "KernelCost",
    "SparsePattern",
    "bounded_latency",
    "spmm_execute",
    "cusparse_spmm_cost",
    "gnnadvisor_spmm_cost",
    "spmm_request_traffic",
    "spmm_address_stream",
    "spgemm_execute",
    "spgemm_cost",
    "spgemm_request_traffic",
    "spgemm_address_stream",
    "sspmm_execute",
    "sspmm_cost",
    "sspmm_request_traffic",
    "sspmm_address_stream",
    "maxk_kernel_execute",
    "maxk_kernel_cost",
    "gemm_cost",
    "elementwise_cost",
]
