"""GPU system simulator: device model, caches, traffic and kernel costs."""

from .balance import (
    BalanceComparison,
    compare_mappings,
    edge_group_loads,
    gini,
    row_split_loads,
    warp_efficiency,
)
from .cache import CacheConfig, CacheSim, HierarchyStats, MemoryHierarchy
from .device import A100, DeviceModel
from .kernels.naive import naive_spgemm_cost, naive_sspmm_cost
from .kernels import (
    KernelCost,
    SparsePattern,
    cusparse_spmm_cost,
    elementwise_cost,
    gemm_cost,
    gnnadvisor_spmm_cost,
    maxk_kernel_cost,
    maxk_kernel_execute,
    spgemm_cost,
    spgemm_execute,
    spmm_execute,
    sspmm_cost,
    sspmm_execute,
)
from .memory import (
    TrafficReport,
    mlp_feature_traffic_cut,
    spgemm_traffic_bytes,
    spgemm_traffic_reduction,
    spmm_traffic_bytes,
    sspmm_read_bytes,
    sspmm_write_bytes,
)
from .profiler import KernelMemoryProfile, MemorySystemStudy, profile_memory_system

__all__ = [
    "A100",
    "DeviceModel",
    "CacheConfig",
    "CacheSim",
    "MemoryHierarchy",
    "HierarchyStats",
    "TrafficReport",
    "KernelCost",
    "SparsePattern",
    "cusparse_spmm_cost",
    "gnnadvisor_spmm_cost",
    "spgemm_cost",
    "sspmm_cost",
    "maxk_kernel_cost",
    "gemm_cost",
    "elementwise_cost",
    "spmm_execute",
    "spgemm_execute",
    "sspmm_execute",
    "maxk_kernel_execute",
    "spmm_traffic_bytes",
    "spgemm_traffic_bytes",
    "sspmm_read_bytes",
    "sspmm_write_bytes",
    "spgemm_traffic_reduction",
    "mlp_feature_traffic_cut",
    "profile_memory_system",
    "KernelMemoryProfile",
    "MemorySystemStudy",
    "naive_spgemm_cost",
    "naive_sspmm_cost",
    "BalanceComparison",
    "compare_mappings",
    "row_split_loads",
    "edge_group_loads",
    "warp_efficiency",
    "gini",
]
