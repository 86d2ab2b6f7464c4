"""Backward outer-product SSpMM kernel (paper §4.2).

Computes the sparsified feature gradient ``dX_s = A^T @ dX_l`` where only the
``sp_data`` values at the forward sparsity pattern (``sp_index``) are needed —
a (sparse × dense = sparse) operation with a known output pattern.

:func:`sspmm_execute` runs it through the active sparse-ops backend's
``ops.sspmm_cbsr``, which training calls directly; the kernel benchmarks
time the wrapper against dense SpMM. Algorithm 2 prefetches every dense
gradient row ``dX_l[i]`` into the shared buffer ``Buf_w`` (stage 1,
coalesced), then for every nonzero of column ``i`` of ``A^T`` gathers
``Buf_w[sp_index[j]]``, multiplies by the edge value and atomically
accumulates into ``sp_data[j]`` (stage 2, coalesced).

Cost model (§4.3): reads ``4*N*dim_origin + 5*dim_k*nnz``, writes
``4*dim_k*nnz``, plus adjacency and the per-Edge-Group prefetch replication
``4*dim_origin*nnz/w`` (rows are re-buffered once per EG, which is the
"dense row prefetching stage … difficult to further optimize" the paper
names as its gap to the Amdahl limit).
"""

from __future__ import annotations

import numpy as np

from ...core.cbsr import CBSRMatrix
from ...sparse import CSRMatrix, ops
from ..device import DeviceModel
from ..memory import TrafficReport, sspmm_read_bytes, sspmm_write_bytes
from .base import KernelCost, SparsePattern, bounded_latency
from .spmm import ADJ_BYTES_PER_NNZ, FLOAT_BYTES

__all__ = [
    "sspmm_execute",
    "sspmm_cost",
    "sspmm_request_traffic",
    "sspmm_address_stream",
]


def sspmm_execute(
    adj: CSRMatrix, grad_out: np.ndarray, sparsity: CBSRMatrix
) -> CBSRMatrix:
    """Vectorised SSpMM: gradient CBSR with the forward ``sp_index`` pattern.

    ``adj`` is the *forward* adjacency in CSR; its buffers double as the CSC
    storage of ``A^T`` (zero extra memory, per the paper). For every edge
    ``A[i, j]`` the gradient of source node ``j`` receives
    ``A[i, j] * grad_out[i, sp_index[j, :]]``.
    """
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if grad_out.shape != (adj.n_rows, sparsity.dim_origin):
        raise ValueError(
            f"grad_out shape {grad_out.shape} does not match "
            f"({adj.n_rows}, {sparsity.dim_origin})"
        )
    sp_data = ops.sspmm_cbsr(
        adj.indptr,
        adj.indices,
        adj.data,
        grad_out,
        sparsity.sp_index,
        sparsity.n_rows,
    )
    return sparsity.with_data(sp_data)


def sspmm_request_traffic(
    pattern: SparsePattern,
    dim_origin: int,
    dim_k: int,
    device: DeviceModel,
) -> TrafficReport:
    """§4.3 request traffic of the backward SSpMM kernel."""
    uint8 = dim_origin <= 256
    report = TrafficReport()
    read_bytes = sspmm_read_bytes(
        dim_origin, dim_k, pattern.n_rows, pattern.nnz, uint8
    )
    # Split the §4.3 read formula into its two named stages.
    report.add("dense_row_unique", FLOAT_BYTES * pattern.n_rows * dim_origin)
    report.add(
        "sparse_fetch",
        read_bytes - FLOAT_BYTES * pattern.n_rows * dim_origin,
    )
    report.add(
        "prefetch_replication",
        FLOAT_BYTES * dim_origin * pattern.nnz / device.edge_group_width
        * (1.0 - device.prefetch_l2_absorption),
    )
    report.add("adjacency", ADJ_BYTES_PER_NNZ * pattern.nnz)
    report.add("sp_data_write", sspmm_write_bytes(dim_k, pattern.nnz))
    return report


def sspmm_cost(
    pattern: SparsePattern,
    dim_origin: int,
    dim_k: int,
    device: DeviceModel,
) -> KernelCost:
    """Latency/traffic model of one backward SSpMM invocation."""
    if not 1 <= dim_k <= dim_origin:
        raise ValueError("dim_k must be in [1, dim_origin]")
    traffic = sspmm_request_traffic(pattern, dim_origin, dim_k, device)
    flops = 2.0 * pattern.nnz * dim_k
    utilization = device.sparse_kernel_utilization(
        device.util_sspmm, dim_k / dim_origin
    )
    latency = bounded_latency(
        device, traffic, flops, utilization, device.l2_service_boost
    )
    return KernelCost(name="sspmm", traffic=traffic, flops=flops, latency=latency)


def sspmm_address_stream(
    adj: CSRMatrix,
    dim_origin: int,
    dim_k: int,
    line_bytes: int = 128,
) -> np.ndarray:
    """Line-granular address stream of the backward SSpMM.

    Layout: [adjacency | dense gradient dX_l | sp_index | sp_data]. The
    dense row is prefetched once per (row, Edge-Group) pair; the per-nonzero
    traffic is the compact sp_index read plus the sp_data write — all
    coalesced, which is why SSpMM posts the best L2 hit rate in Table 2.
    """
    dense_lines_per_row = max(1, (dim_origin * FLOAT_BYTES) // line_bytes)
    index_lines_per_row = max(1, -(-dim_k // line_bytes))
    data_lines_per_row = max(1, -(-(dim_k * FLOAT_BYTES) // line_bytes))
    nnz_per_line = max(1, line_bytes // ADJ_BYTES_PER_NNZ)

    adj_base = 0
    dense_base = adj.nnz // nnz_per_line + 1
    index_base = dense_base + adj.n_rows * dense_lines_per_row
    data_base = index_base + adj.n_cols * index_lines_per_row

    dense_offsets = np.arange(dense_lines_per_row, dtype=np.int64)
    chunks = []
    for row in range(adj.n_rows):
        lo, hi = int(adj.indptr[row]), int(adj.indptr[row + 1])
        if hi <= lo:
            continue
        # Stage 1: prefetch the dense row once.
        chunks.append(dense_base + row * dense_lines_per_row + dense_offsets)
        edge_lines = adj_base + np.arange(lo, hi, dtype=np.int64) // nnz_per_line
        chunks.append(np.unique(edge_lines))
        sources = adj.indices[lo:hi]
        for offset in range(index_lines_per_row):
            chunks.append(index_base + sources * index_lines_per_row + offset)
        for offset in range(data_lines_per_row):
            chunks.append(data_base + sources * data_lines_per_row + offset)
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
