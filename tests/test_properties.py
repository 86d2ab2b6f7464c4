"""Property-based tests (hypothesis) on the core data structures.

Invariants locked here:

* CSR round-trips arbitrary COO triplets and matches dense algebra.
* CBSR compression/decompression is lossless for row-sparse matrices.
* MaxK keeps exactly k entries, preserves their values, and the pivot
  kernel selects the same value multiset as exact selection.
* The forward SpGEMM and backward SSpMM equal dense references for
  arbitrary graphs and feature matrices.
* §4.3 traffic reductions are consistent identities.
* The Amdahl limit is at least one.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import (
    CBSRMatrix,
    maxk_forward,
    pivot_select_row,
    speedup_limit,
)
from repro.gpusim import (
    spgemm_execute,
    spgemm_traffic_bytes,
    spgemm_traffic_reduction,
    spmm_traffic_bytes,
    sspmm_execute,
)
from repro.sparse import CSRMatrix, coo_to_csr, partition_edge_groups
from tests.conftest import tolerance

# Keep matrices small: correctness is dimension-independent.
SMALL = st.integers(min_value=1, max_value=12)


@st.composite
def coo_triplets(draw):
    n_rows = draw(SMALL)
    n_cols = draw(SMALL)
    n_entries = draw(st.integers(min_value=0, max_value=30))
    rows = draw(
        st.lists(st.integers(0, n_rows - 1), min_size=n_entries, max_size=n_entries)
    )
    cols = draw(
        st.lists(st.integers(0, n_cols - 1), min_size=n_entries, max_size=n_entries)
    )
    data = draw(
        st.lists(
            st.floats(-10, 10, allow_nan=False), min_size=n_entries,
            max_size=n_entries,
        )
    )
    return rows, cols, data, (n_rows, n_cols)


@st.composite
def feature_matrix(draw, max_rows=10, max_cols=12):
    n_rows = draw(st.integers(1, max_rows))
    n_cols = draw(st.integers(1, max_cols))
    return draw(
        arrays(
            np.float64,
            (n_rows, n_cols),
            elements=st.floats(-100, 100, allow_nan=False, width=32),
        )
    )


class TestCSRProperties:
    @given(coo_triplets())
    @settings(max_examples=60)
    def test_coo_round_trip_matches_dense_accumulation(self, triplet):
        rows, cols, data, shape = triplet
        matrix = coo_to_csr(rows, cols, data, shape)
        dense = np.zeros(shape)
        for r, c, v in zip(rows, cols, data):
            dense[r, c] += v
        # Entries that sum exactly to zero stay stored; compare as dense.
        np.testing.assert_allclose(matrix.to_dense(), dense, **tolerance())

    @given(coo_triplets(), st.integers(1, 6))
    @settings(max_examples=40)
    def test_matmul_matches_dense(self, triplet, width):
        rows, cols, data, shape = triplet
        matrix = coo_to_csr(rows, cols, data, shape)
        x = np.random.default_rng(0).normal(size=(shape[1], width))
        np.testing.assert_allclose(
            matrix.matmul_dense(x), matrix.to_dense() @ x,
            **tolerance(),
        )

    @given(coo_triplets())
    @settings(max_examples=40)
    def test_transpose_involution(self, triplet):
        rows, cols, data, shape = triplet
        matrix = coo_to_csr(rows, cols, data, shape)
        np.testing.assert_allclose(
            matrix.transpose().transpose().to_dense(), matrix.to_dense(),
            **tolerance(),
        )

    @given(coo_triplets(), st.integers(1, 32), st.integers(1, 8))
    @settings(max_examples=40)
    def test_partition_covers_nnz(self, triplet, dim_k, w):
        rows, cols, data, shape = triplet
        matrix = coo_to_csr(rows, cols, data, shape)
        partition = partition_edge_groups(matrix, dim_k, w)
        assert sum(g.size for g in partition.groups) == matrix.nnz


class TestMaxKProperties:
    @given(feature_matrix(), st.data())
    @settings(max_examples=60)
    def test_exactly_k_and_values_preserved(self, x, data):
        k = data.draw(st.integers(1, x.shape[1]))
        out, mask = maxk_forward(x, k)
        assert (mask.sum(axis=1) == k).all()
        np.testing.assert_array_equal(out[mask], x[mask])
        assert (out[~mask] == 0).all()

    @given(feature_matrix(), st.data())
    @settings(max_examples=60)
    def test_survivors_dominate_dropped(self, x, data):
        k = data.draw(st.integers(1, x.shape[1]))
        _, mask = maxk_forward(x, k)
        for i in range(x.shape[0]):
            if mask[i].all():
                continue
            assert x[i, mask[i]].min() >= x[i, ~mask[i]].max() - 1e-9

    @given(
        arrays(np.float64, st.integers(1, 24),
               elements=st.floats(-50, 50, allow_nan=False, width=32)),
        st.data(),
    )
    @settings(max_examples=60)
    def test_pivot_matches_exact_value_multiset(self, row, data):
        k = data.draw(st.integers(1, len(row)))
        result = pivot_select_row(row, k)
        assert result.mask.sum() == k
        chosen = np.sort(row[result.mask])
        exact = np.sort(row)[len(row) - k:]
        np.testing.assert_allclose(chosen, exact)

    @given(feature_matrix(), st.data())
    @settings(max_examples=40)
    def test_cbsr_round_trip(self, x, data):
        k = data.draw(st.integers(1, x.shape[1]))
        sparsified, _ = maxk_forward(x, k)
        cbsr = CBSRMatrix.from_dense_rows(sparsified, k)
        np.testing.assert_allclose(cbsr.to_dense(), sparsified)


class TestKernelProperties:
    @given(coo_triplets(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_spgemm_equals_dense(self, triplet, data):
        rows, cols, data_vals, shape = triplet
        adjacency = coo_to_csr(rows, cols, data_vals, shape)
        dim = data.draw(st.integers(2, 10))
        k = data.draw(st.integers(1, dim))
        x = np.random.default_rng(1).normal(size=(shape[1], dim))
        sparsified, _ = maxk_forward(x, k)
        cbsr = CBSRMatrix.from_dense_rows(sparsified, k)
        np.testing.assert_allclose(
            spgemm_execute(adjacency, cbsr),
            adjacency.to_dense() @ sparsified,
            **tolerance(),
        )

    @given(coo_triplets(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_sspmm_equals_dense_at_pattern(self, triplet, data):
        rows, cols, data_vals, shape = triplet
        adjacency = coo_to_csr(rows, cols, data_vals, shape)
        dim = data.draw(st.integers(2, 10))
        k = data.draw(st.integers(1, dim))
        rng = np.random.default_rng(2)
        x = rng.normal(size=(shape[1], dim))
        sparsified, _ = maxk_forward(x, k)
        cbsr = CBSRMatrix.from_dense_rows(sparsified, k)
        grad_out = rng.normal(size=(shape[0], dim))
        result = sspmm_execute(adjacency, grad_out, cbsr)
        dense_grad = adjacency.to_dense().T @ grad_out
        expected = dense_grad[
            np.arange(shape[1])[:, None], cbsr.sp_index.astype(np.int64)
        ]
        np.testing.assert_allclose(result.sp_data, expected, **tolerance())


class TestAnalyticProperties:
    @given(st.integers(1, 1024), st.integers(1, 10**7), st.data())
    @settings(max_examples=60)
    def test_traffic_reduction_identity(self, dim, nnz, data):
        k = data.draw(st.integers(1, dim))
        assert spgemm_traffic_reduction(dim, k, nnz) == (
            spmm_traffic_bytes(dim, nnz) - spgemm_traffic_bytes(k, nnz)
        )

    @given(st.floats(0, 1))
    @settings(max_examples=60)
    def test_limit_at_least_one(self, fraction):
        assert speedup_limit(fraction) >= 1.0


class TestSegmentAndMaxoutProperties:
    @given(feature_matrix(max_rows=12, max_cols=8), st.data())
    @settings(max_examples=40)
    def test_segment_sum_conserves_mass(self, x, data):
        from repro.sparse import ops

        n_segments = data.draw(st.integers(1, 6))
        ids = data.draw(
            st.lists(
                st.integers(0, n_segments - 1),
                min_size=x.shape[0],
                max_size=x.shape[0],
            )
        )
        out = ops.segment_sum(x, np.array(ids), n_segments)
        np.testing.assert_allclose(
            out.sum(axis=0), x.sum(axis=0),
            **tolerance(),
        )

    @given(st.integers(2, 40), st.data())
    @settings(max_examples=30)
    def test_permutation_preserves_structure(self, n_nodes, data):
        from repro.graphs import Graph, apply_permutation

        n_edges = data.draw(st.integers(0, 3 * n_nodes))
        rng = np.random.default_rng(n_nodes)
        graph = Graph(
            n_nodes=n_nodes,
            src=rng.integers(0, n_nodes, n_edges),
            dst=rng.integers(0, n_nodes, n_edges),
        )
        perm = rng.permutation(n_nodes)
        permuted = apply_permutation(graph, perm)
        assert permuted.n_edges == graph.n_edges
        np.testing.assert_array_equal(
            np.sort(permuted.in_degrees()), np.sort(graph.in_degrees())
        )
        assert permuted.degree_skew() == pytest.approx(graph.degree_skew())

    @given(
        st.integers(1, 256), st.integers(1, 64), st.integers(1, 10_000)
    )
    @settings(max_examples=60)
    def test_mlp_traffic_cut_bounds(self, hidden, k, batch):
        from repro.models import mlp_feature_traffic_cut

        if k > hidden:
            return
        cut = mlp_feature_traffic_cut(hidden, k, batch)
        assert cut < 1.0
        # uint8 index: cut = 1 - 5k/4h, positive whenever 5k < 4h.
        if 5 * k < 4 * hidden:
            assert cut > 0.0
