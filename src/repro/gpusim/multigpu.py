"""Multi-GPU partition-parallel training model (the BNS-GCN setting).

The paper positions MaxK-GNN as orthogonal to partition-parallel systems
like BNS-GCN [27]: each GPU owns one graph partition, exchanges boundary
node features every layer, and runs the aggregation kernel locally. This
module models that composition:

* :func:`partition_stats` measures a real :class:`~repro.graphs.Partition`;
* :class:`MultiGpuEpochModel` combines per-partition kernel costs (MaxK
  SpGEMM/SSpMM or baseline SpMM) with an NVLink all-to-all boundary
  exchange, whose volume shrinks with BNS boundary sampling *and* with
  MaxK (a CBSR boundary row is ``5k`` bytes instead of ``4·dim``).

The headline composition effect: MaxK accelerates both the kernel time and
the communication time, so partition-parallel scaling curves keep their
shape with a lower constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..graphs.graph import Graph
from ..graphs.partition import Partition, boundary_nodes
from .device import DeviceModel
from .kernels import SparsePattern, cusparse_spmm_cost, spgemm_cost, sspmm_cost
from .kernels.maxk_kernel import maxk_kernel_cost

__all__ = [
    "PartitionStats",
    "partition_stats",
    "pack_assignment",
    "ring_allreduce_time",
    "MultiGpuEpochModel",
]

#: NVLink 3.0 per-GPU aggregate bandwidth (A100), bytes/second.
NVLINK_BANDWIDTH = 600e9
#: Effective utilisation of the boundary all-gather.
NVLINK_UTILIZATION = 0.7
#: Per-round communication latency (launch + NCCL setup), seconds.
COMM_LATENCY = 20e-6


@dataclass(frozen=True)
class PartitionStats:
    """Structural facts of a P-way partition the epoch model needs."""

    n_parts: int
    nodes_per_part: List[int]
    edges_per_part: List[int]
    boundary_per_part: List[int]

    def __post_init__(self):
        lists = (self.nodes_per_part, self.edges_per_part, self.boundary_per_part)
        if any(len(values) != self.n_parts for values in lists):
            raise ValueError("per-part lists must have n_parts entries")

    def scaled(self, node_factor: float, edge_factor: float) -> "PartitionStats":
        """Extrapolate the measured partition to a larger graph."""
        if node_factor <= 0 or edge_factor <= 0:
            raise ValueError("scale factors must be positive")
        return PartitionStats(
            n_parts=self.n_parts,
            nodes_per_part=[int(n * node_factor) for n in self.nodes_per_part],
            edges_per_part=[int(e * edge_factor) for e in self.edges_per_part],
            boundary_per_part=[
                int(b * node_factor) for b in self.boundary_per_part
            ],
        )


def partition_stats(graph: Graph, partition: Partition) -> PartitionStats:
    """Measure nodes / internal edges / boundary size of every part."""
    assignment = partition.assignment
    nodes, edges, boundaries = [], [], []
    src_part = assignment[graph.src]
    dst_part = assignment[graph.dst]
    for part in range(partition.n_parts):
        nodes.append(int((assignment == part).sum()))
        edges.append(int(((src_part == part) & (dst_part == part)).sum()))
        boundaries.append(len(boundary_nodes(graph, partition, part)))
    return PartitionStats(
        n_parts=partition.n_parts,
        nodes_per_part=nodes,
        edges_per_part=edges,
        boundary_per_part=boundaries,
    )


def pack_assignment(loads: Sequence[float], replicas: int) -> np.ndarray:
    """Greedy LPT bin-packing: part → replica, balancing ``loads``.

    Longest-processing-time-first: visit parts by descending load (stable
    order — equal loads keep their part order) and assign each to the
    currently least-loaded replica (ties → lowest replica id). On uniform
    loads this reproduces the round-robin placement (replica ``r`` owns
    parts ``r, r+R, r+2R, …``) exactly, so the packer is a strict
    refinement: it only departs from round-robin when the measured loads
    say a straggler exists.
    """
    loads = np.asarray(loads, dtype=np.float64)
    if loads.ndim != 1:
        raise ValueError("loads must be one-dimensional")
    if np.any(loads < 0) or not np.all(np.isfinite(loads)):
        raise ValueError("loads must be finite and non-negative")
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    if replicas > loads.size:
        raise ValueError("more replicas than partitions to place")
    order = np.argsort(-loads, kind="stable")
    bin_loads = np.zeros(replicas, dtype=np.float64)
    assignment = np.empty(loads.size, dtype=np.int64)
    for part in order:
        replica = int(np.argmin(bin_loads))  # first minimum → lowest id
        assignment[part] = replica
        bin_loads[replica] += loads[part]
    return assignment


def ring_allreduce_time(
    n_bytes: float,
    replicas: int,
    bandwidth: float = NVLINK_BANDWIDTH,
) -> float:
    """Modelled latency of one ring all-reduce over the gradient buffer.

    The standard 2(R-1)/R-volume ring: each replica sends (and receives)
    ``2 * (R-1) / R * n_bytes`` across ``2 * (R-1)`` latency-bound steps.
    ``R == 1`` costs nothing — there is no exchange to run.
    """
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    if n_bytes < 0:
        raise ValueError("n_bytes must be >= 0")
    if replicas == 1:
        return 0.0
    steps = 2 * (replicas - 1)
    volume = 2.0 * (replicas - 1) / replicas * n_bytes
    return steps * COMM_LATENCY + volume / (bandwidth * NVLINK_UTILIZATION)


class MultiGpuEpochModel:
    """Per-epoch latency of P-way partition-parallel GNN training."""

    def __init__(
        self,
        stats: PartitionStats,
        hidden: int,
        n_layers: int,
        device: DeviceModel,
        boundary_fraction: float = 1.0,
        nvlink_bandwidth: float = NVLINK_BANDWIDTH,
    ):
        if not 0.0 <= boundary_fraction <= 1.0:
            raise ValueError("boundary_fraction must be in [0, 1]")
        if hidden <= 0 or n_layers <= 0:
            raise ValueError("hidden and n_layers must be positive")
        self.stats = stats
        self.hidden = hidden
        self.n_layers = n_layers
        self.device = device
        self.boundary_fraction = boundary_fraction
        self.nvlink_bandwidth = nvlink_bandwidth

    # ------------------------------------------------------------------
    def _part_pattern(self, part: int) -> SparsePattern:
        nodes = max(self.stats.nodes_per_part[part], 1)
        edges = self.stats.edges_per_part[part]
        return SparsePattern(n_rows=nodes, n_cols=nodes, nnz=edges)

    def _comm_rows(self, boundary_rows: float,
                   bytes_per_boundary_row: float) -> float:
        """One boundary exchange whose largest sender ships ``boundary_rows``."""
        volume = boundary_rows * self.boundary_fraction * bytes_per_boundary_row
        return COMM_LATENCY + volume / (
            self.nvlink_bandwidth * NVLINK_UTILIZATION
        )

    def _comm_time(self, bytes_per_boundary_row: float) -> float:
        """Per-layer boundary exchange: the largest sender bounds the round."""
        rows = self.stats.boundary_per_part
        worst = max(rows) if rows else 0.0
        return self._comm_rows(worst, bytes_per_boundary_row)

    def _part_latency(self, part: int, k: int = None) -> float:
        """Per-layer kernel latency of one partition (no communication)."""
        pattern = self._part_pattern(part)
        if k is None:
            return 2.0 * cusparse_spmm_cost(
                pattern, self.hidden, self.device
            ).latency
        if not 1 <= k <= self.hidden:
            raise ValueError("k must be in [1, hidden]")
        return (
            spgemm_cost(pattern, self.hidden, k, self.device).latency
            + sspmm_cost(pattern, self.hidden, k, self.device).latency
            + maxk_kernel_cost(
                max(self.stats.nodes_per_part[part], 1),
                self.hidden, k, self.device,
            ).latency
        )

    def _round_costs(self, replicas: int, k: int = None) -> tuple:
        """(kernel, comm) seconds of the R-replica round-sharded epoch.

        Mirrors :meth:`~repro.training.dataflow.DistributedFlow.rounds`:
        round ``i`` trains partitions ``[i*R, (i+1)*R)`` concurrently, so
        each round costs its straggler part (max per-part latency) plus a
        boundary exchange bounded by the round's largest sender. A round
        with a single active part exchanges nothing — its halo is a local
        copy, exactly like the serial sweep.
        """
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        kernel = 0.0
        comm = 0.0
        for start in range(0, self.stats.n_parts, replicas):
            parts = range(start, min(start + replicas, self.stats.n_parts))
            kernel += self.n_layers * max(
                self._part_latency(p, k) for p in parts
            )
            if len(parts) == 1:
                continue
            worst = max(self.stats.boundary_per_part[p] for p in parts)
            if k is None:
                comm += self.n_layers * 2.0 * self._comm_rows(
                    worst, 4.0 * self.hidden
                )
            else:
                comm += self.n_layers * (
                    self._comm_rows(worst, 5.0 * k)
                    + self._comm_rows(worst, 4.0 * k)
                )
        return kernel, comm

    def round_epoch(self, replicas: int, k: int = None) -> float:
        """Epoch latency of R replicas training the partitions in rounds."""
        kernel, comm = self._round_costs(replicas, k)
        return kernel + comm

    # ------------------------------------------------------------------
    def baseline_epoch(self) -> float:
        """ReLU baseline: dense SpMM per part + dense boundary exchange."""
        kernel = max(
            cusparse_spmm_cost(self._part_pattern(p), self.hidden, self.device)
            .latency
            for p in range(self.stats.n_parts)
        )
        comm = self._comm_time(4.0 * self.hidden)
        # Forward + backward aggregation and two exchanges per layer.
        return self.n_layers * (2 * kernel + 2 * comm)

    def maxk_epoch(self, k: int) -> float:
        """MaxK: SpGEMM + SSpMM per part + CBSR boundary exchange."""
        if not 1 <= k <= self.hidden:
            raise ValueError("k must be in [1, hidden]")
        forward = max(
            spgemm_cost(self._part_pattern(p), self.hidden, k, self.device)
            .latency
            for p in range(self.stats.n_parts)
        )
        backward = max(
            sspmm_cost(self._part_pattern(p), self.hidden, k, self.device)
            .latency
            for p in range(self.stats.n_parts)
        )
        selection = maxk_kernel_cost(
            max(self.stats.nodes_per_part), self.hidden, k, self.device
        ).latency
        # CBSR boundary rows: 5k bytes forward + 4k bytes of gradient back.
        comm = self._comm_time(5.0 * k) + self._comm_time(4.0 * k)
        return self.n_layers * (forward + backward + selection + comm)

    def speedup(self, k: int) -> float:
        """MaxK-over-baseline epoch speedup under partition parallelism."""
        return self.baseline_epoch() / self.maxk_epoch(k)

    def serial_epoch(self, k: int = None) -> float:
        """Epoch latency when one device trains every partition in turn.

        The R=1 data-parallel schedule: kernel costs *sum* instead of
        racing, and the boundary exchange is a local copy (free). This is
        the denominator of :meth:`predicted_scaling`.
        """
        if k is None:
            kernel = sum(
                cusparse_spmm_cost(self._part_pattern(p), self.hidden,
                                   self.device).latency
                for p in range(self.stats.n_parts)
            )
            return self.n_layers * 2 * kernel
        if not 1 <= k <= self.hidden:
            raise ValueError("k must be in [1, hidden]")
        kernel = sum(
            spgemm_cost(self._part_pattern(p), self.hidden, k, self.device)
            .latency
            + sspmm_cost(self._part_pattern(p), self.hidden, k, self.device)
            .latency
            for p in range(self.stats.n_parts)
        )
        # Per-part selection costs sum like the kernel terms above (the
        # parallel maxk_epoch charges only the largest part — its
        # straggler); charging n_parts * largest here would overstate the
        # serial sweep, and hence predicted_scaling, on skewed partitions.
        selection = sum(
            maxk_kernel_cost(max(nodes, 1), self.hidden, k,
                             self.device).latency
            for nodes in self.stats.nodes_per_part
        )
        return self.n_layers * (kernel + selection)

    def predicted_scaling(self, k: int = None, replicas: int = None) -> float:
        """Modelled speedup of replica-parallel execution over the serial
        sweep of the same partitions.

        With ``replicas`` given, the parallel time is :meth:`round_epoch`
        on THESE stats — the R-replica round schedule over the original
        partitions. The denominator (:meth:`serial_epoch`) sums the very
        same per-part costs, so the ratio is comparable across R: the sum
        of per-round straggler maxima is at least ``serial / R``, which
        bounds the result by ``R``, and per-round boundary communication
        only lowers it — on partitions small enough that the fixed
        ``COMM_LATENCY`` term rivals the kernel time, scaling can drop
        below 1.0 (parallelism that costs more than it saves). Expected
        range: ``(0, R]``, approaching R on balanced, compute-bound parts.

        Earlier revisions folded the partitions onto the replicas
        (round-robin) *before* modelling both sides, which made
        the serial denominator R-dependent (merged parts amortise fixed
        per-kernel overheads) and produced incomparable values across R
        — e.g. 0.56 at R=2 vs 1.11 at R=4 on identical partitions.

        Without ``replicas`` the historical one-part-per-GPU reading is
        kept: parallel time is :meth:`baseline_epoch` / :meth:`maxk_epoch`
        (all P parts concurrent), bounded by P the same way.
        """
        if replicas is None:
            parallel = (
                self.baseline_epoch() if k is None else self.maxk_epoch(k)
            )
        else:
            parallel = self.round_epoch(replicas, k)
        return self.serial_epoch(k) / parallel

    def communication_fraction(self, k: int = None,
                               replicas: int = None) -> float:
        """Share of the (round-sharded, if ``replicas`` given) epoch spent
        exchanging boundaries."""
        if replicas is not None:
            kernel, comm = self._round_costs(replicas, k)
            total = kernel + comm
            return comm / total if total > 0 else 0.0
        if k is None:
            comm = 2 * self.n_layers * self._comm_time(4.0 * self.hidden)
            return comm / self.baseline_epoch()
        comm = self.n_layers * (
            self._comm_time(5.0 * k) + self._comm_time(4.0 * k)
        )
        return comm / self.maxk_epoch(k)
