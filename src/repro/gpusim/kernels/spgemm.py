"""Forward row-wise-product SpGEMM kernel over the CBSR format (paper §4.1).

Computes ``X_l = A @ X_s`` where ``X_s`` is the MaxK-sparsified feature
matrix in CBSR form. :func:`spgemm_execute` runs the multiplication of
Algorithm 1 through the active sparse-ops backend's ``ops.spgemm_cbsr``,
which training calls directly; the kernel benchmarks time the wrapper
against dense SpMM.

The cost model follows §4.3: CBSR fetch ``5 * dim_k * nnz`` bytes (fp32
sp_data + uint8 sp_index), adjacency ``8 * nnz``, atomic output accumulation
``4 * dim_origin * nnz / w`` (k-independent — the saturation floor of
Fig. 8), and the output write.
"""

from __future__ import annotations

import numpy as np

from ...core.cbsr import CBSRMatrix
from ...sparse import CSRMatrix, ops
from ..device import DeviceModel
from ..memory import TrafficReport, spgemm_traffic_bytes
from .base import KernelCost, SparsePattern, bounded_latency
from .spmm import ADJ_BYTES_PER_NNZ, FLOAT_BYTES

__all__ = [
    "spgemm_execute",
    "spgemm_cost",
    "spgemm_request_traffic",
    "spgemm_address_stream",
]


def spgemm_execute(adj: CSRMatrix, features: CBSRMatrix) -> np.ndarray:
    """Row-wise-product SpGEMM: dense output ``(n_rows, dim_origin)``.

    ``out[i, sp_index[j, :]] += A[i, j] * sp_data[j, :]`` over all nonzeros
    ``(i, j)`` — the exact multiplication/accumulation of Algorithm 1, in
    vectorised form.
    """
    if adj.n_cols != features.n_rows:
        raise ValueError(
            f"A has {adj.n_cols} columns but CBSR features have "
            f"{features.n_rows} rows"
        )
    return ops.spgemm_cbsr(
        adj.indptr,
        adj.indices,
        adj.data,
        features.sp_data,
        features.sp_index,
        features.dim_origin,
        adj.n_rows,
    )


def spgemm_request_traffic(
    pattern: SparsePattern,
    dim_origin: int,
    dim_k: int,
    device: DeviceModel,
) -> TrafficReport:
    """§4.3 request traffic of the forward SpGEMM kernel."""
    uint8 = dim_origin <= 256
    report = TrafficReport()
    report.add("cbsr_fetch", spgemm_traffic_bytes(dim_k, pattern.nnz, uint8))
    report.add("adjacency", ADJ_BYTES_PER_NNZ * pattern.nnz)
    report.add(
        "output_atomic",
        FLOAT_BYTES * dim_origin * pattern.nnz / device.edge_group_width,
    )
    report.add("output_write", FLOAT_BYTES * pattern.n_rows * dim_origin)
    return report


def spgemm_cost(
    pattern: SparsePattern,
    dim_origin: int,
    dim_k: int,
    device: DeviceModel,
) -> KernelCost:
    """Latency/traffic model of one forward SpGEMM invocation."""
    if not 1 <= dim_k <= dim_origin:
        raise ValueError("dim_k must be in [1, dim_origin]")
    traffic = spgemm_request_traffic(pattern, dim_origin, dim_k, device)
    flops = 2.0 * pattern.nnz * dim_k
    utilization = device.sparse_kernel_utilization(
        device.util_spgemm, dim_k / dim_origin
    )
    latency = bounded_latency(
        device, traffic, flops, utilization, device.l2_service_boost
    )
    return KernelCost(name="spgemm", traffic=traffic, flops=flops, latency=latency)


def spgemm_address_stream(
    adj: CSRMatrix,
    dim_origin: int,
    dim_k: int,
    line_bytes: int = 128,
) -> np.ndarray:
    """Line-granular address stream of the forward SpGEMM.

    Layout: [adjacency | CBSR (sp_data+sp_index interleaved per row) |
    output]. Sparse accumulation happens in shared memory, so the only
    per-nonzero global traffic is the compact CBSR row (``5 * dim_k`` bytes,
    typically 1-2 lines) — the locality jump that lifts the L1 hit rate from
    1.5% to 22% in Table 2.
    """
    cbsr_row_bytes = 5 * dim_k
    cbsr_lines_per_row = max(1, -(-cbsr_row_bytes // line_bytes))
    out_lines_per_row = max(1, (dim_origin * FLOAT_BYTES) // line_bytes)
    nnz_per_line = max(1, line_bytes // ADJ_BYTES_PER_NNZ)

    adj_base = 0
    cbsr_base = adj.nnz // nnz_per_line + 1
    out_base = cbsr_base + adj.n_cols * cbsr_lines_per_row

    cbsr_offsets = np.arange(cbsr_lines_per_row, dtype=np.int64)
    out_offsets = np.arange(out_lines_per_row, dtype=np.int64)
    chunks = []
    for row in range(adj.n_rows):
        lo, hi = int(adj.indptr[row]), int(adj.indptr[row + 1])
        if hi > lo:
            edge_lines = adj_base + np.arange(lo, hi, dtype=np.int64) // nnz_per_line
            chunks.append(np.unique(edge_lines))
            sources = adj.indices[lo:hi]
            cbsr_lines = (
                cbsr_base
                + sources[:, None] * cbsr_lines_per_row
                + cbsr_offsets[None, :]
            ).ravel()
            chunks.append(cbsr_lines)
        chunks.append(out_base + row * out_lines_per_row + out_offsets)
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
