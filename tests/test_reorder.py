"""Unit tests for graph reordering (locality optimisation)."""

import numpy as np
import pytest

from repro.graphs import (
    apply_permutation,
    bfs_reorder,
    community_sort_reorder,
    degree_sort_reorder,
    locality_score,
    rmat_graph,
    sbm_graph,
    attach_classification_task,
)


@pytest.fixture
def graph():
    graph = sbm_graph(200, 5, 8.0, seed=3)
    attach_classification_task(graph, n_features=8, seed=3)
    return graph


class TestApplyPermutation:
    def test_identity_permutation(self, graph):
        identity = np.arange(graph.n_nodes)
        permuted = apply_permutation(graph, identity)
        np.testing.assert_array_equal(permuted.src, graph.src)
        np.testing.assert_array_equal(permuted.features, graph.features)

    def test_adjacency_is_conjugated(self, graph):
        rng = np.random.default_rng(0)
        perm = rng.permutation(graph.n_nodes)
        permuted = apply_permutation(graph, perm)
        original = graph.adjacency("none").to_dense()
        renumbered = permuted.adjacency("none").to_dense()
        np.testing.assert_array_equal(
            renumbered[np.ix_(perm, perm)], original
        )

    def test_payloads_follow_nodes(self, graph):
        rng = np.random.default_rng(1)
        perm = rng.permutation(graph.n_nodes)
        graph.loss_weights = rng.random(graph.n_nodes)
        permuted = apply_permutation(graph, perm)
        for node in range(0, graph.n_nodes, 37):
            np.testing.assert_array_equal(
                permuted.features[perm[node]], graph.features[node]
            )
            assert permuted.labels[perm[node]] == graph.labels[node]
            assert permuted.train_mask[perm[node]] == graph.train_mask[node]
            assert permuted.loss_weights[perm[node]] == graph.loss_weights[node]

    def test_degree_distribution_invariant(self, graph):
        permuted = degree_sort_reorder(graph)
        np.testing.assert_array_equal(
            np.sort(permuted.in_degrees()), np.sort(graph.in_degrees())
        )

    def test_rejects_non_bijection(self, graph):
        with pytest.raises(ValueError, match="bijection"):
            apply_permutation(graph, np.zeros(graph.n_nodes, dtype=int))

    def test_rejects_wrong_length(self, graph):
        with pytest.raises(ValueError):
            apply_permutation(graph, np.arange(graph.n_nodes + 1))


class TestReorderings:
    def test_degree_sort_puts_hubs_first(self):
        graph = rmat_graph(300, 3000, seed=5)
        reordered = degree_sort_reorder(graph)
        degrees = reordered.in_degrees()
        # First decile must out-degree the last decile on average.
        assert degrees[:30].mean() > degrees[-30:].mean()

    def test_bfs_improves_locality_on_communities(self, graph):
        shuffled = apply_permutation(
            graph, np.random.default_rng(7).permutation(graph.n_nodes)
        )
        reordered = bfs_reorder(shuffled)
        assert locality_score(reordered) < locality_score(shuffled)

    def test_community_sort_improves_locality(self, graph):
        shuffled = apply_permutation(
            graph, np.random.default_rng(8).permutation(graph.n_nodes)
        )
        reordered = community_sort_reorder(shuffled)
        assert locality_score(reordered) < locality_score(shuffled)

    def test_community_sort_requires_communities(self):
        graph = rmat_graph(50, 200, seed=1)
        with pytest.raises(ValueError, match="community"):
            community_sort_reorder(graph)

    def test_bfs_seed_validation(self, graph):
        with pytest.raises(ValueError):
            bfs_reorder(graph, seed_node=graph.n_nodes)

    def test_bfs_covers_disconnected_components(self):
        # Two disjoint triangles.
        from repro.graphs import Graph

        graph = Graph(
            n_nodes=6,
            src=np.array([0, 1, 2, 3, 4, 5]),
            dst=np.array([1, 2, 0, 4, 5, 3]),
        )
        reordered = bfs_reorder(graph)
        assert reordered.n_edges == 6

    def test_locality_score_bounds(self, graph):
        assert 0.0 <= locality_score(graph) <= 1.0

    def test_locality_score_empty_graph(self):
        from repro.graphs import Graph

        empty = Graph(n_nodes=3, src=np.array([], dtype=int),
                      dst=np.array([], dtype=int))
        assert locality_score(empty) == 0.0
