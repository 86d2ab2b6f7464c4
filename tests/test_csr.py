"""Unit tests for the CSR sparse-matrix substrate."""

import numpy as np
import pytest

from repro.graphs import Graph
from repro.sparse import CSRMatrix, coo_to_csr, ops
from repro.sparse.csr import stable_order
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
        assert list(mat.indices[mat.indptr[0]:mat.indptr[1]]) == [2, 4]
        assert list(mat.indices[mat.indptr[1]:mat.indptr[2]]) == [0, 3]

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

    def test_rejects_negative_indices(self):
        with pytest.raises(ValueError, match="row indices"):
            coo_to_csr([0, -1], [0, 0], [1.0, 1.0], (3, 3))
        with pytest.raises(ValueError, match="column indices"):
            coo_to_csr([0, 1], [1, -3], [1.0, 1.0], (3, 3))

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


class TestTranspose:
    def test_transpose_matches_dense(self, dense, csr):
        np.testing.assert_allclose(csr.transpose().to_dense(), dense.T)


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


# Both sides of every 16-bit digit boundary, and past two digits.
BOUNDS = (1, 2, 255, 256, 65_535, 65_536, 65_537, 2**20, 3 * 10**6)


def _key_sets(rng, bound, n=600):
    """Uniform, all-equal (at the top of the range) and heavily
    duplicated keys in ``[0, bound)``."""
    return (
        rng.integers(0, bound, n),
        np.full(n, bound - 1, dtype=np.int64),
        rng.choice(rng.integers(0, bound, 3), n),
    )


def _lexsort_csr(rows, cols, data, shape):
    """``(indptr, indices, data)`` of ``coo_to_csr`` built the other way:
    ``np.lexsort``, then duplicates merged through ``np.unique``."""
    n_rows, n_cols = shape
    rows, cols = np.asarray(rows, np.int64), np.asarray(cols, np.int64)
    order = np.lexsort((cols, rows))
    keys = rows[order] * n_cols + cols[order]
    unique, group = np.unique(keys, return_inverse=True)
    data = np.asarray(data, dtype=ops.FLOAT_DTYPE)
    merged = np.bincount(group, weights=data[order], minlength=len(unique))
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(unique // n_cols, minlength=n_rows), out=indptr[1:])
    return indptr, unique % n_cols, merged.astype(data.dtype)


def _assert_csr_bytes(csr, reference):
    for got, want in zip((csr.indptr, csr.indices, csr.data), reference):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


class TestStableOrder:
    """``stable_order`` is an oracle match: the permutation numpy's stable
    sorts give, whatever sort numpy picks underneath."""

    @pytest.mark.parametrize("bound", BOUNDS)
    def test_one_key_is_the_stable_argsort(self, bound):
        for keys in _key_sets(np.random.default_rng(bound), bound):
            order = stable_order(((keys, bound),))
            assert order.dtype == np.int64
            np.testing.assert_array_equal(
                order, np.argsort(keys, kind="stable")
            )

    @pytest.mark.parametrize("major", BOUNDS)
    @pytest.mark.parametrize("minor", BOUNDS)
    def test_two_keys_are_the_lexsort(self, minor, major):
        rng = np.random.default_rng([minor, major])
        for minors in _key_sets(rng, minor):
            for majors in _key_sets(rng, major):
                np.testing.assert_array_equal(
                    stable_order(((minors, minor), (majors, major))),
                    np.lexsort((minors, majors)),
                )

    @pytest.mark.parametrize("bound", BOUNDS)
    def test_empty_input(self, bound):
        empty = np.empty(0, dtype=np.int64)
        for keys in (((empty, bound),), ((empty, bound), (empty, 7))):
            order = stable_order(keys)
            assert order.dtype == np.int64 and order.shape == (0,)


class TestSortedConstruction:
    """``coo_to_csr``, ``CSRMatrix.transpose`` and ``Graph.edge_index``
    equal the arrays a comparison sort builds, byte for byte."""

    @pytest.mark.parametrize(
        "shape", [(12, 5), (300, 65_537), (65_537, 300), (2**20, 3)]
    )
    def test_coo_to_csr_is_the_lexsort_build(self, shape):
        rng = np.random.default_rng(shape[0])
        n = 4_000
        # Few distinct rows and columns: summed duplicates, empty rows.
        rows = rng.choice(rng.integers(0, shape[0], 6), n)
        cols = rng.choice(rng.integers(0, shape[1], 40), n)
        data = rng.normal(size=n)
        csr = coo_to_csr(rows, cols, data, shape)
        assert csr.nnz < n and (csr.row_degrees() == 0).any()
        _assert_csr_bytes(csr, _lexsort_csr(rows, cols, data, shape))

    def test_empty_coo_is_the_lexsort_build(self):
        _assert_csr_bytes(
            coo_to_csr([], [], [], (4, 6)), _lexsort_csr([], [], [], (4, 6))
        )

    def _transpose_reference(self, csr):
        row_ids = np.repeat(np.arange(csr.n_rows), csr.row_degrees())
        return _lexsort_csr(
            csr.indices, row_ids, csr.data, (csr.n_cols, csr.n_rows)
        )

    @pytest.mark.parametrize("shape", [(9, 13), (300, 65_537)])
    def test_transpose_is_the_lexsort_transpose(self, shape):
        rng = np.random.default_rng(shape[1])
        csr = coo_to_csr(
            rng.integers(0, shape[0], 3_000),
            rng.integers(0, shape[1], 3_000),
            rng.normal(size=3_000),
            shape,
        )
        _assert_csr_bytes(csr.transpose(), self._transpose_reference(csr))

    def test_hand_built_transpose_merges_duplicates(self):
        # Unsorted, repeated columns within a row: the transpose sums them.
        csr = CSRMatrix(
            indptr=[0, 3, 3, 5], indices=[2, 0, 2, 2, 1],
            data=[1.0, 2.0, 3.0, 4.0, 5.0], shape=(3, 4),
        )
        transpose = csr.transpose()
        _assert_csr_bytes(transpose, self._transpose_reference(csr))
        assert transpose.to_dense()[2, 0] == 4.0

    @pytest.mark.parametrize("n_nodes", [1, 50, 65_537])
    def test_edge_index_is_the_stable_argsort(self, n_nodes):
        rng = np.random.default_rng(n_nodes)
        src = rng.choice(rng.integers(0, n_nodes, 30), 5_000)
        dst = rng.integers(0, n_nodes, 5_000)
        graph = Graph(n_nodes=n_nodes, src=src, dst=dst)
        for direction, keys, other in (("in", dst, src), ("out", src, dst)):
            order = np.argsort(keys, kind="stable")
            indptr = np.zeros(n_nodes + 1, dtype=np.int64)
            np.cumsum(np.bincount(keys, minlength=n_nodes), out=indptr[1:])
            index = graph.edge_index(direction)
            for got, want in zip(index, (order, indptr, other[order])):
                assert got.dtype == np.int64 and not got.flags.writeable
                np.testing.assert_array_equal(got, want)

    def test_empty_graph_edge_index(self):
        order, indptr, values = Graph(n_nodes=3, src=[], dst=[]).edge_index()
        assert order.dtype == np.int64 and order.size == values.size == 0
        np.testing.assert_array_equal(indptr, np.zeros(4, dtype=np.int64))


def _parts(csr):
    return csr.indptr, csr.indices, csr.data


def _coo_transpose(csr):
    """``A^T`` as ``coo_to_csr`` builds it from the swapped triplets (a
    two-key sort and a duplicate merge): the transpose's oracle."""
    row_ids = np.repeat(np.arange(csr.n_rows), csr.row_degrees())
    return coo_to_csr(csr.indices, row_ids, csr.data, (csr.n_cols, csr.n_rows))


def _canonical_csr(rng, shape, nnz, sparse_axes=False):
    """A canonical CSR (strictly ascending columns per row) of ``shape``;
    with ``sparse_axes`` its entries fall on a few rows and columns only,
    leaving most rows and columns empty."""
    n_rows, n_cols = shape
    rows, cols = rng.integers(0, n_rows, nnz), rng.integers(0, n_cols, nnz)
    if sparse_axes:
        rows = rng.choice(rng.integers(0, n_rows, 5), nnz)
        cols = rng.choice(rng.integers(0, n_cols, 9), nnz)
    return coo_to_csr(rows, cols, rng.normal(size=nnz), shape)


class TestTransposeOracle:
    """``CSRMatrix.transpose`` is one stable radix pass over the column
    indices; on a canonical CSR it must be ``coo_to_csr``'s two-key build,
    dtype and bytes."""

    @pytest.mark.parametrize("width", [np.float32, np.float64])
    @pytest.mark.parametrize("sparse_axes", [False, True])
    @pytest.mark.parametrize("shape", [
        (9, 13), (13, 9), (40, 40), (1, 7), (7, 1), (6, 70_000), (70_000, 6),
    ])
    def test_transpose_is_the_coo_build(self, shape, sparse_axes, width,
                                        monkeypatch):
        monkeypatch.setattr(ops, "FLOAT_DTYPE", width)
        rng = np.random.default_rng([shape[0], shape[1], sparse_axes])
        for nnz in (0, 1, 3 * max(shape), 3_000):
            csr = _canonical_csr(rng, shape, nnz, sparse_axes)
            transpose = csr.transpose()
            assert transpose.shape == (shape[1], shape[0])
            assert transpose.data.dtype == width
            _assert_csr_bytes(transpose, _parts(_coo_transpose(csr)))
            _assert_csr_bytes(transpose.transpose(), _parts(csr))

    def test_empty_rows_and_columns_survive(self):
        csr = CSRMatrix(indptr=[0, 0, 2, 2, 3], indices=[1, 4, 1],
                        data=[1.0, 2.0, 3.0], shape=(4, 6))
        transpose = csr.transpose()
        np.testing.assert_array_equal(transpose.indptr,
                                      [0, 0, 2, 2, 2, 3, 3])
        np.testing.assert_array_equal(transpose.indices, [1, 3, 1])
        _assert_csr_bytes(transpose, _parts(_coo_transpose(csr)))

    def test_the_programs_csrs_are_canonical(self):
        # What the one-key pass relies on, from each builder: the edge-list
        # build, a scaled adjacency, a window cut and a mutation merge.
        from repro.graphs import sbm_graph
        from repro.graphs.mutation import GraphDelta

        graph = sbm_graph(120, 3, 6.0, seed=2).to_undirected()
        built = [graph.adjacency(norm) for norm in ("none", "sage", "gcn")]
        built.append(ops.induced_rows(graph.structural_adjacency(),
                                      np.arange(0, 240, 3), 2))
        graph.apply_delta(GraphDelta(add_src=[0, 5, 5], add_dst=[1, 1, 1]))
        built += [graph.adjacency(norm) for norm in ("none", "sage", "gcn")]
        for csr in built:
            row_ids = np.repeat(np.arange(csr.n_rows), csr.row_degrees())
            steps = np.flatnonzero(np.diff(csr.indices) <= 0) + 1
            assert (row_ids[steps] != row_ids[steps - 1]).all()
            _assert_csr_bytes(csr.transpose(),
                              _parts(_coo_transpose(csr)))
