"""Unit tests for the CSR/CSC sparse-matrix substrate."""

import numpy as np
import pytest

from repro.sparse import CSCMatrix, CSRMatrix, coo_to_csr
from tests.conftest import tolerance


@pytest.fixture
def dense():
    rng = np.random.default_rng(7)
    mat = rng.random((9, 13))
    mat[mat < 0.7] = 0.0
    return mat


@pytest.fixture
def csr(dense):
    return CSRMatrix.from_dense(dense)


class TestConstruction:
    def test_from_dense_round_trip(self, dense, csr):
        np.testing.assert_allclose(csr.to_dense(), dense)

    def test_shape_and_nnz(self, dense, csr):
        assert csr.shape == dense.shape
        assert csr.nnz == np.count_nonzero(dense)

    def test_coo_duplicates_are_summed(self):
        mat = coo_to_csr([0, 0, 1], [2, 2, 0], [1.0, 2.5, 4.0], (2, 3))
        expected = np.array([[0, 0, 3.5], [4, 0, 0.0]])
        np.testing.assert_allclose(mat.to_dense(), expected)

    def test_coo_sorted_within_rows(self):
        mat = coo_to_csr([1, 0, 1, 0], [3, 2, 0, 4], [1, 2, 3, 4], (2, 5))
        cols0, _ = mat.row_slice(0)
        cols1, _ = mat.row_slice(1)
        assert list(cols0) == [2, 4]
        assert list(cols1) == [0, 3]

    def test_from_edges_orients_dst_rows(self):
        mat = CSRMatrix.from_edges(src=[2], dst=[0], shape=(3, 3))
        assert mat.to_dense()[0, 2] == 1.0

    def test_empty_matrix(self):
        mat = coo_to_csr([], [], [], (4, 4))
        assert mat.nnz == 0
        np.testing.assert_array_equal(mat.to_dense(), np.zeros((4, 4)))

    def test_rejects_out_of_range_rows(self):
        with pytest.raises(ValueError, match="row indices"):
            coo_to_csr([5], [0], [1.0], (3, 3))

    def test_rejects_out_of_range_cols(self):
        with pytest.raises(ValueError, match="column indices"):
            coo_to_csr([0], [9], [1.0], (3, 3))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            coo_to_csr([0, 1], [0], [1.0], (3, 3))

    def test_rejects_bad_indptr(self):
        with pytest.raises(ValueError):
            CSRMatrix(
                indptr=[0, 2], indices=[0], data=[1.0], shape=(1, 3)
            )

    def test_rejects_non_2d_dense(self):
        with pytest.raises(ValueError, match="2-D"):
            CSRMatrix.from_dense(np.ones(3))


class TestAccessors:
    def test_row_degrees(self, dense, csr):
        np.testing.assert_array_equal(
            csr.row_degrees(), (dense != 0).sum(axis=1)
        )

    def test_row_slice_contents(self, dense, csr):
        for i in range(csr.n_rows):
            cols, vals = csr.row_slice(i)
            np.testing.assert_allclose(dense[i, cols], vals)

    def test_iter_rows_covers_all_nnz(self, csr):
        total = sum(len(cols) for _, cols, _ in csr.iter_rows())
        assert total == csr.nnz

    def test_repr_mentions_shape(self, csr):
        assert "shape" in repr(csr) and "nnz" in repr(csr)


class TestTranspose:
    def test_transpose_matches_dense(self, dense, csr):
        np.testing.assert_allclose(csr.transpose().to_dense(), dense.T)

    def test_transpose_view_is_csc_of_transpose(self, dense, csr):
        view = csr.transpose_view()
        assert isinstance(view, CSCMatrix)
        np.testing.assert_allclose(view.to_dense(), dense.T)

    def test_transpose_view_shares_buffers(self, csr):
        view = csr.transpose_view()
        assert view.indptr is csr.indptr
        assert view.indices is csr.indices
        assert view.data is csr.data

    def test_csc_col_slice(self, dense, csr):
        view = csr.transpose_view()
        # Column j of A^T (CSC) is row j of A.
        for j in range(csr.n_rows):
            rows, vals = view.col_slice(j)
            np.testing.assert_allclose(dense[j, rows], vals)


class TestAlgebra:
    def test_matmul_dense_matches_numpy(self, dense, csr):
        x = np.random.default_rng(1).normal(size=(dense.shape[1], 5))
        np.testing.assert_allclose(csr.matmul_dense(x), dense @ x, **tolerance())

    def test_matmul_dimension_check(self, csr):
        with pytest.raises(ValueError, match="dimension mismatch"):
            csr.matmul_dense(np.ones((csr.n_cols + 1, 2)))

    def test_scale_rows(self, dense, csr):
        scale = np.arange(1, csr.n_rows + 1, dtype=float)
        np.testing.assert_allclose(
            csr.scale_rows(scale).to_dense(), dense * scale[:, None],
            **tolerance(),
        )

    def test_scale_cols(self, dense, csr):
        scale = np.arange(1, csr.n_cols + 1, dtype=float)
        np.testing.assert_allclose(
            csr.scale_cols(scale).to_dense(), dense * scale[None, :],
            **tolerance(),
        )

    def test_scale_rows_shape_check(self, csr):
        with pytest.raises(ValueError):
            csr.scale_rows(np.ones(csr.n_rows + 1))

    def test_with_data_replaces_values(self, csr):
        doubled = csr.with_data(csr.data * 2)
        np.testing.assert_allclose(doubled.to_dense(), csr.to_dense() * 2)

    def test_with_data_shape_check(self, csr):
        with pytest.raises(ValueError, match="nnz"):
            csr.with_data(np.ones(csr.nnz + 1))

    def test_equality(self, csr):
        clone = CSRMatrix(csr.indptr, csr.indices, csr.data, csr.shape)
        assert csr == clone
        assert csr != csr.with_data(csr.data * 2)
