"""Numerical correctness of the SpGEMM / SSpMM / MaxK kernel dataflows.

Every kernel is validated against the dense reference computation, and the
Algorithm-1/2-faithful Edge-Group implementations are validated against the
vectorised ones.
"""

import numpy as np
import pytest

from repro.core import CBSRMatrix, maxk_forward
from repro.gpusim import (
    maxk_kernel_execute,
    spgemm_execute,
    spgemm_execute_edge_groups,
    spmm_execute,
    sspmm_execute,
    sspmm_execute_prefetch,
)
from repro.graphs import rmat_graph
from repro.sparse import CSRMatrix, partition_edge_groups
from tests.conftest import tolerance


@pytest.fixture
def setup():
    rng = np.random.default_rng(21)
    graph = rmat_graph(60, 500, seed=21)
    adjacency = graph.adjacency("sage")
    dense_adj = adjacency.to_dense()
    x = rng.normal(size=(60, 16))
    sparsified, _ = maxk_forward(x, 4)
    cbsr = CBSRMatrix.from_dense_rows(sparsified, 4)
    return adjacency, dense_adj, sparsified, cbsr, rng


class TestSpMM:
    def test_matches_dense(self, setup):
        adjacency, dense_adj, _, _, rng = setup
        x = rng.normal(size=(60, 8))
        np.testing.assert_allclose(
            spmm_execute(adjacency, x), dense_adj @ x, **tolerance()
        )


class TestForwardSpGEMM:
    def test_matches_dense_reference(self, setup):
        adjacency, dense_adj, sparsified, cbsr, _ = setup
        np.testing.assert_allclose(
            spgemm_execute(adjacency, cbsr), dense_adj @ sparsified,
            **tolerance(),
        )

    def test_edge_group_version_matches_vectorised(self, setup):
        adjacency, _, _, cbsr, _ = setup
        np.testing.assert_allclose(
            spgemm_execute_edge_groups(adjacency, cbsr),
            spgemm_execute(adjacency, cbsr),
            **tolerance(),
        )

    def test_edge_group_version_with_custom_partition(self, setup):
        adjacency, dense_adj, sparsified, cbsr, _ = setup
        partition = partition_edge_groups(adjacency, cbsr.k, max_edges_per_group=2)
        np.testing.assert_allclose(
            spgemm_execute_edge_groups(adjacency, cbsr, partition),
            dense_adj @ sparsified,
            **tolerance(),
        )

    def test_dimension_mismatch_rejected(self, setup):
        adjacency, _, _, _, rng = setup
        wrong = CBSRMatrix.from_dense_rows(rng.normal(size=(61, 8)), 2)
        with pytest.raises(ValueError, match="columns"):
            spgemm_execute(adjacency, wrong)

    def test_empty_rows_produce_zero_output(self):
        adjacency = CSRMatrix.from_dense(np.zeros((4, 4)))
        cbsr = CBSRMatrix.from_dense_rows(np.eye(4), 1)
        out = spgemm_execute(adjacency, cbsr)
        np.testing.assert_array_equal(out, np.zeros((4, 4)))

    def test_k_equal_dim_degenerates_to_spmm(self, setup):
        adjacency, dense_adj, _, _, rng = setup
        x = rng.normal(size=(60, 6))
        full = CBSRMatrix.from_dense_rows(x, 6)
        np.testing.assert_allclose(
            spgemm_execute(adjacency, full), dense_adj @ x,
            **tolerance(),
        )


class TestBackwardSSpMM:
    def test_matches_dense_reference(self, setup):
        adjacency, dense_adj, _, cbsr, rng = setup
        grad_out = rng.normal(size=(60, 16))
        result = sspmm_execute(adjacency, grad_out, cbsr)
        full = dense_adj.T @ grad_out
        expected = full[
            np.arange(60)[:, None], cbsr.sp_index.astype(np.int64)
        ]
        np.testing.assert_allclose(result.sp_data, expected, **tolerance())

    def test_prefetch_version_matches_vectorised(self, setup):
        adjacency, _, _, cbsr, rng = setup
        grad_out = rng.normal(size=(60, 16))
        np.testing.assert_allclose(
            sspmm_execute_prefetch(adjacency, grad_out, cbsr).sp_data,
            sspmm_execute(adjacency, grad_out, cbsr).sp_data,
            **tolerance(),
        )

    def test_output_inherits_forward_pattern(self, setup):
        """Backward produces sp_data only; sp_index is the forward one."""
        adjacency, _, _, cbsr, rng = setup
        grad_out = rng.normal(size=(60, 16))
        result = sspmm_execute(adjacency, grad_out, cbsr)
        assert result.sp_index is cbsr.sp_index

    def test_shape_check(self, setup):
        adjacency, _, _, cbsr, _ = setup
        with pytest.raises(ValueError, match="does not match"):
            sspmm_execute(adjacency, np.ones((3, 3)), cbsr)

    def test_zero_extra_storage_transpose(self, setup):
        """The CSC view of A^T aliases the CSR buffers of A (Fig. 7)."""
        adjacency, dense_adj, _, _, _ = setup
        view = adjacency.transpose_view()
        assert view.data is adjacency.data
        np.testing.assert_allclose(view.to_dense(), dense_adj.T)


class TestMaxKKernel:
    def test_execute_returns_valid_cbsr(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, 32))
        cbsr, iterations = maxk_kernel_execute(x, 8)
        assert cbsr.k == 8
        assert cbsr.n_rows == 40
        assert iterations.shape == (40,)

    def test_execute_matches_exact_maxk_values(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(25, 16))
        cbsr, _ = maxk_kernel_execute(x, 4)
        exact, _ = maxk_forward(x, 4)
        # Same selected values per row (positions may differ only on ties).
        np.testing.assert_allclose(
            np.sort(cbsr.sp_data, axis=1), np.sort(np.partition(x, 12)[:, 12:], axis=1),
            **tolerance(),
        )
        np.testing.assert_allclose(cbsr.to_dense(), exact)


class TestEndToEndLayerDataflow:
    def test_forward_backward_consistency(self, setup):
        """SpGEMM forward + SSpMM backward equal the dense layer's autograd."""
        adjacency, dense_adj, sparsified, cbsr, rng = setup
        grad_out = rng.normal(size=(60, 16))
        # Forward: X_l = A X_s, Backward: dX_s = A^T dX_l at forward pattern.
        forward = spgemm_execute(adjacency, cbsr)
        np.testing.assert_allclose(forward, dense_adj @ sparsified, **tolerance())
        backward = sspmm_execute(adjacency, grad_out, cbsr)
        dense_grad = dense_adj.T @ grad_out
        rows = np.arange(60)[:, None]
        np.testing.assert_allclose(
            backward.sp_data, dense_grad[rows, cbsr.sp_index.astype(np.int64)],
            **tolerance(),
        )
