"""Unit tests for graph reordering (locality optimisation)."""

import numpy as np
import pytest

from repro.graphs import (
    Graph,
    apply_permutation,
    bfs_reorder,
    chain_of_cliques,
    erdos_renyi_graph,
    rmat_graph,
    sbm_graph,
    attach_classification_task,
)


@pytest.fixture
def graph():
    graph = sbm_graph(200, 5, 8.0, seed=3)
    attach_classification_task(graph, n_features=8, seed=3)
    return graph


def mean_span(graph):
    """Mean |src - dst| over edges; lower is more local."""
    return np.abs(graph.src - graph.dst).mean()


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
        permuted = apply_permutation(graph, perm)
        for node in range(0, graph.n_nodes, 37):
            np.testing.assert_array_equal(
                permuted.features[perm[node]], graph.features[node]
            )
            assert permuted.labels[perm[node]] == graph.labels[node]
            assert permuted.train_mask[perm[node]] == graph.train_mask[node]
            assert permuted.communities[perm[node]] == graph.communities[node]

    def test_degree_distribution_invariant(self, graph):
        perm = np.random.default_rng(2).permutation(graph.n_nodes)
        permuted = apply_permutation(graph, perm)
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
    def test_bfs_improves_locality_on_communities(self, graph):
        shuffled = apply_permutation(
            graph, np.random.default_rng(7).permutation(graph.n_nodes)
        )
        reordered = bfs_reorder(shuffled)
        assert mean_span(reordered) < mean_span(shuffled)

    def test_bfs_seed_validation(self, graph):
        with pytest.raises(ValueError):
            bfs_reorder(graph, seed_node=graph.n_nodes)

    def test_bfs_covers_disconnected_components(self):
        # Two disjoint triangles.
        graph = Graph(
            n_nodes=6,
            src=np.array([0, 1, 2, 3, 4, 5]),
            dst=np.array([1, 2, 0, 4, 5, 3]),
        )
        reordered = bfs_reorder(graph)
        assert reordered.n_edges == 6


GRAPHS = {
    "sbm": lambda: sbm_graph(120, 4, 6.0, seed=1),
    "rmat": lambda: rmat_graph(100, 600, seed=2),
    "er-sparse": lambda: erdos_renyi_graph(80, 1.5, seed=3),
    "er-dense": lambda: erdos_renyi_graph(60, 8.0, seed=4),
    "cliques": lambda: chain_of_cliques(5, 4),
    "one-edge": lambda: Graph(n_nodes=4, src=np.array([2]), dst=np.array([3])),
}


class TestBfsIsABreadthFirstRelabelling:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_relabelling(self, name):
        graph = GRAPHS[name]()
        n = graph.n_nodes
        # A node-id column rides along, naming each new node's old id.
        graph.features = np.arange(n, dtype=float)[:, None]
        reordered = bfs_reorder(graph)
        old_of_new = reordered.features[:, 0].astype(np.int64)
        assert sorted(old_of_new.tolist()) == list(range(n))
        new_of_old = np.empty(n, dtype=np.int64)
        new_of_old[old_of_new] = np.arange(n)
        np.testing.assert_array_equal(reordered.src, new_of_old[graph.src])
        np.testing.assert_array_equal(reordered.dst, new_of_old[graph.dst])
        # The highest-degree node is the seed, and its neighbours (either
        # direction) take the next ids: the first breadth-first layer.
        degrees = graph.in_degrees() + graph.out_degrees()
        seed = int(np.argmax(degrees))
        assert old_of_new[0] == seed
        layer = set(graph.dst[graph.src == seed].tolist())
        layer |= set(graph.src[graph.dst == seed].tolist())
        layer.discard(seed)
        assert set(old_of_new[1:1 + len(layer)].tolist()) == layer
