"""Unit tests for the CBSR format."""

import numpy as np
import pytest

from repro.core import CBSRMatrix, index_dtype_for, maxk_forward


class TestIndexDtype:
    def test_uint8_up_to_256(self):
        assert index_dtype_for(256) == np.uint8
        assert index_dtype_for(16) == np.uint8

    def test_uint16_above_256(self):
        assert index_dtype_for(257) == np.uint16
        assert index_dtype_for(65536) == np.uint16

    def test_uint32_above_65536(self):
        assert index_dtype_for(65537) == np.uint32

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            index_dtype_for(0)


@pytest.fixture
def sparsified():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(20, 32))
    out, _ = maxk_forward(x, 6)
    return out


class TestRoundTrip:
    def test_from_dense_rows_round_trip(self, sparsified):
        cbsr = CBSRMatrix.from_dense_rows(sparsified, 6)
        np.testing.assert_allclose(cbsr.to_dense(), sparsified)

    def test_shape_and_k(self, sparsified):
        cbsr = CBSRMatrix.from_dense_rows(sparsified, 6)
        assert (cbsr.n_rows, cbsr.dim_origin) == sparsified.shape
        assert cbsr.k == 6
        assert cbsr.n_rows == 20

    def test_index_strictly_increasing(self, sparsified):
        cbsr = CBSRMatrix.from_dense_rows(sparsified, 6)
        diffs = np.diff(cbsr.sp_index.astype(int), axis=1)
        assert (diffs > 0).all()

    def test_uint8_index_used_for_small_dims(self, sparsified):
        cbsr = CBSRMatrix.from_dense_rows(sparsified, 6)
        assert cbsr.sp_index.dtype == np.uint8

    def test_rows_with_fewer_nonzeros_pad_with_zeros(self):
        dense = np.zeros((2, 8))
        dense[0, 3] = 5.0  # only one nonzero, k = 3
        cbsr = CBSRMatrix.from_dense_rows(dense, 3)
        np.testing.assert_allclose(cbsr.to_dense(), dense)
        assert cbsr.sp_data.shape == (2, 3)

    def test_k_equals_dim(self):
        dense = np.arange(12.0).reshape(3, 4)
        cbsr = CBSRMatrix.from_dense_rows(dense, 4)
        np.testing.assert_allclose(cbsr.to_dense(), dense)


class TestValidation:
    def test_rejects_k_above_dim(self):
        with pytest.raises(ValueError):
            CBSRMatrix.from_dense_rows(np.ones((2, 4)), 5)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match="identical shapes"):
            CBSRMatrix(np.ones((2, 3)), np.zeros((2, 2)), dim_origin=8)

    def test_rejects_index_out_of_range(self):
        with pytest.raises(ValueError, match="< dim_origin"):
            CBSRMatrix(np.ones((1, 2)), np.array([[0, 9]]), dim_origin=8)

    def test_rejects_non_increasing_index(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            CBSRMatrix(np.ones((1, 2)), np.array([[3, 1]]), dim_origin=8)

    def test_rejects_1d_inputs(self):
        with pytest.raises(ValueError, match="2-D"):
            CBSRMatrix(np.ones(3), np.zeros(3), dim_origin=8)


class TestOperations:
    def test_with_data_keeps_pattern(self, sparsified):
        cbsr = CBSRMatrix.from_dense_rows(sparsified, 6)
        replaced = cbsr.with_data(np.ones_like(cbsr.sp_data))
        np.testing.assert_array_equal(replaced.sp_index, cbsr.sp_index)
        assert replaced.to_dense().sum() == 20 * 6

    def test_with_data_shape_check(self, sparsified):
        cbsr = CBSRMatrix.from_dense_rows(sparsified, 6)
        with pytest.raises(ValueError):
            cbsr.with_data(np.ones((20, 7)))

    def test_storage_bytes_uint8(self, sparsified):
        cbsr = CBSRMatrix.from_dense_rows(sparsified, 6)
        # fp32 data + uint8 index = 5 bytes per stored element (§4.3).
        assert cbsr.storage_bytes() == 20 * 6 * 5

    def test_magnitude_selection_keeps_largest(self):
        dense = np.array([[0.0, -5.0, 1.0, 3.0]])
        cbsr = CBSRMatrix.from_dense_rows(dense, 2)
        kept = set(cbsr.sp_index[0].astype(int).tolist())
        assert kept == {1, 3}  # |-5| and |3| dominate
