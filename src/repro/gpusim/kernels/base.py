"""Shared structures for GPU kernel cost models.

Every kernel model consumes a :class:`SparsePattern` — the structural facts
(rows, columns, nnz) that the §4.3 traffic formulas need — and produces a
:class:`KernelCost` combining a categorised traffic report, a FLOP count and
a modelled latency. Patterns can be built either from a real (scaled)
:class:`~repro.sparse.CSRMatrix` or directly from a Table-1
:class:`~repro.graphs.GraphSpec`, which lets the analytic models run at the
paper's full graph sizes without materialising 100M-edge graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..device import DeviceModel
from ..memory import TrafficReport

__all__ = ["SparsePattern", "KernelCost"]


@dataclass(frozen=True)
class SparsePattern:
    """Structural summary of a sparse adjacency matrix."""

    n_rows: int
    n_cols: int
    nnz: int

    def __post_init__(self):
        if self.n_rows <= 0 or self.n_cols <= 0:
            raise ValueError("pattern dimensions must be positive")
        if self.nnz < 0:
            raise ValueError("nnz must be non-negative")

    @property
    def avg_degree(self) -> float:
        return self.nnz / self.n_rows

    @classmethod
    def from_csr(cls, matrix) -> "SparsePattern":
        return cls(n_rows=matrix.n_rows, n_cols=matrix.n_cols, nnz=matrix.nnz)

    @classmethod
    def from_spec(cls, spec) -> "SparsePattern":
        """From a :class:`~repro.graphs.GraphSpec` (real published sizes)."""
        return cls(n_rows=spec.n_nodes, n_cols=spec.n_nodes, nnz=spec.n_edges)


@dataclass(frozen=True)
class KernelCost:
    """Modelled execution cost of one kernel invocation."""

    name: str
    traffic: TrafficReport
    flops: float
    latency: float

    def __post_init__(self):
        if self.latency <= 0:
            raise ValueError("latency must be positive")
        if self.flops < 0:
            raise ValueError("flops must be non-negative")


def bounded_latency(
    device: DeviceModel,
    traffic: TrafficReport,
    flops: float,
    utilization: float,
    l2_boost: float = 1.0,
) -> float:
    """Launch overhead plus the max of memory time and compute time.

    Memory-bound kernels (all of the paper's) land on the traffic term;
    the compute bound only engages for degenerate tiny-dimension cases.
    ``l2_boost`` > 1 models request streams partially served from L2 at
    better-than-HBM bandwidth (used by the sparse kernels; see
    :class:`~repro.gpusim.device.DeviceModel.l2_service_boost`).
    """
    if l2_boost < 1.0:
        raise ValueError("l2_boost must be >= 1")
    memory_time = device.memory_time(traffic.total, utilization) / l2_boost
    compute_time = device.compute_time(flops, regular=False)
    return device.launch_overhead + max(memory_time, compute_time)
