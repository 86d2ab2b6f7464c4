"""Wall-clock microbenchmarks of the numeric kernel implementations.

Unlike the cost-model benchmarks (which report *modelled* A100 latencies),
these time the actual numpy execution of this repository's kernels on a
scaled graph (timings are recorded, never asserted). The paper's traffic
argument — the CBSR SpGEMM/SSpMM touch ``k`` columns per nonzero instead of
``dim_origin`` — is checked as computed bytes and flops.
"""

import numpy as np
import pytest

from repro.core import CBSRMatrix, maxk_forward
from repro.gpusim import (
    A100,
    SparsePattern,
    cusparse_spmm_cost,
    maxk_kernel_execute,
    spgemm_cost,
    spgemm_execute,
    spgemm_traffic_bytes,
    spmm_execute,
    spmm_traffic_bytes,
    sspmm_execute,
)
from repro.graphs import load_kernel_graph, normalized_adjacency

DIM = 256
K = 16


@pytest.fixture(scope="module")
def workload():
    graph = load_kernel_graph("ogbn-arxiv", seed=0)
    adjacency = normalized_adjacency(graph, "sage")
    rng = np.random.default_rng(0)
    x = rng.normal(size=(graph.n_nodes, DIM))
    sparsified, _ = maxk_forward(x, K)
    cbsr = CBSRMatrix.from_dense_rows(sparsified, K)
    grad = rng.normal(size=(graph.n_nodes, DIM))
    return adjacency, x, cbsr, grad


def test_numeric_spmm(benchmark, workload):
    adjacency, x, _, _ = workload
    out = benchmark(spmm_execute, adjacency, x)
    assert out.shape == (adjacency.n_rows, DIM)


def test_numeric_spgemm(benchmark, workload):
    adjacency, _, cbsr, _ = workload
    out = benchmark(spgemm_execute, adjacency, cbsr)
    assert out.shape == (adjacency.n_rows, DIM)


def test_numeric_sspmm(benchmark, workload):
    adjacency, _, cbsr, grad = workload
    out = benchmark(sspmm_execute, adjacency, grad, cbsr)
    assert out.sp_data.shape == (adjacency.n_cols, K)


def test_numeric_maxk_pivot_kernel(benchmark, workload):
    _, x, _, _ = workload
    cbsr, iterations = benchmark(maxk_kernel_execute, x[:512], K)
    assert cbsr.k == K
    assert iterations.max() <= 10


def test_numeric_cbsr_beats_dense_fetch(workload):
    """The traffic argument, computed rather than timed.

    Per stored edge the dense SpMM fetches a ``DIM``-wide feature row; the
    CBSR SpGEMM fetches ``K`` values and ``K`` one-byte columns and does
    ``K / DIM`` of the multiply-adds for the same product: §4.3's
    ``(5/4) * K / DIM`` of the bytes, in the fp32 cost model and in the
    arrays executed here alike. Which kernel wins on the
    clock on a given backend is ``python3 -m bench``'s question
    (``full_cbsr`` against ``full_relu``), not a tier-1 assertion.
    """
    adjacency, x, cbsr, _ = workload
    nnz = adjacency.nnz
    dense_bytes = nnz * DIM * cbsr.sp_data.itemsize
    sparse_bytes = nnz * K * (cbsr.sp_data.itemsize + cbsr.sp_index.itemsize)
    assert sparse_bytes / dense_bytes == pytest.approx(5 / 4 * K / DIM)
    assert spgemm_traffic_bytes(K, nnz) / spmm_traffic_bytes(
        DIM, nnz
    ) == pytest.approx(5 / 4 * K / DIM)
    pattern = SparsePattern.from_csr(adjacency)
    assert spgemm_cost(pattern, DIM, K, A100).flops / cusparse_spmm_cost(
        pattern, DIM, A100
    ).flops == pytest.approx(K / DIM)
    np.testing.assert_allclose(
        spgemm_execute(adjacency, cbsr),
        spmm_execute(adjacency, cbsr.to_dense()),
        rtol=0, atol=0,
    )
