"""Unit tests for graph containers, normalisations and generators."""

import numpy as np
import pytest

from repro.graphs import (
    Graph,
    attach_classification_task,
    attach_multilabel_task,
    chain_of_cliques,
    erdos_renyi_graph,
    normalized_adjacency,
    random_splits,
    rmat_graph,
    sbm_graph,
)


@pytest.fixture
def triangle():
    return Graph(n_nodes=3, src=np.array([0, 1, 2]), dst=np.array([1, 2, 0]))


class TestGraphContainer:
    def test_edge_counts_and_degrees(self, triangle):
        assert triangle.n_edges == 3
        np.testing.assert_array_equal(triangle.in_degrees(), [1, 1, 1])
        np.testing.assert_array_equal(triangle.out_degrees(), [1, 1, 1])
        assert triangle.avg_degree == 1.0

    def test_rejects_out_of_range_edges(self):
        with pytest.raises(ValueError):
            Graph(n_nodes=2, src=np.array([0]), dst=np.array([5]))

    @pytest.mark.parametrize("src, dst", [([-1], [0]), ([0], [-1]),
                                          ([1, 0], [0, -2**63])])
    def test_rejects_negative_endpoints(self, src, dst):
        with pytest.raises(ValueError, match="out of range"):
            Graph(n_nodes=2, src=np.array(src), dst=np.array(dst))

    def test_rejects_mismatched_arrays(self):
        with pytest.raises(ValueError):
            Graph(n_nodes=2, src=np.array([0, 1]), dst=np.array([0]))

    def test_to_undirected_doubles_edges(self, triangle):
        undirected = triangle.to_undirected()
        assert undirected.n_edges == 6
        adjacency = undirected.adjacency("none").to_dense()
        np.testing.assert_array_equal(adjacency, adjacency.T)

    def test_degree_skew_zero_for_regular(self):
        ring = Graph(
            n_nodes=6,
            src=np.arange(6),
            dst=(np.arange(6) + 1) % 6,
        )
        assert ring.degree_skew() == pytest.approx(0.0, abs=1e-9)

    def test_summary_fields(self, triangle):
        summary = triangle.summary()
        assert summary["n_nodes"] == 3 and summary["n_edges"] == 3


class TestNormalisations:
    def test_none_is_unit_weights(self, triangle):
        adjacency = normalized_adjacency(triangle, "none")
        assert set(adjacency.data.tolist()) == {1.0}

    def test_sage_rows_sum_to_one(self):
        graph = chain_of_cliques(3, 4)
        adjacency = normalized_adjacency(graph, "sage")
        sums = adjacency.to_dense().sum(axis=1)
        np.testing.assert_allclose(sums[sums > 0], 1.0)

    def test_gcn_weights_formula(self, triangle):
        """GCN entry (i, j) equals 1 / sqrt(d_i * d_j) with self loops."""
        adjacency = normalized_adjacency(triangle, "gcn").to_dense()
        # Every node has degree 2 after self-loops (one in-edge + loop).
        np.testing.assert_allclose(adjacency[1, 0], 1 / 2)
        np.testing.assert_allclose(adjacency[0, 0], 1 / 2)

    def test_gcn_adds_self_loops(self, triangle):
        adjacency = normalized_adjacency(triangle, "gcn").to_dense()
        assert (np.diag(adjacency) > 0).all()

    def test_gin_alias_of_none(self, triangle):
        a = triangle.adjacency("gin")
        b = triangle.adjacency("none")
        assert a is b  # shared cache entry

    def test_adjacency_cached(self, triangle):
        assert triangle.adjacency("sage") is triangle.adjacency("sage")

    def test_unknown_norm_rejected(self, triangle):
        with pytest.raises(ValueError, match="unknown normalisation"):
            normalized_adjacency(triangle, "bogus")


class TestGenerators:
    def test_rmat_reproducible(self):
        a = rmat_graph(128, 512, seed=9)
        b = rmat_graph(128, 512, seed=9)
        np.testing.assert_array_equal(a.src, b.src)
        np.testing.assert_array_equal(a.dst, b.dst)

    def test_rmat_sizes(self):
        graph = rmat_graph(256, 1024, seed=1)
        assert graph.n_nodes == 256
        assert 0 < graph.n_edges <= 1024

    def test_rmat_no_self_loops(self):
        graph = rmat_graph(128, 512, seed=2)
        assert (graph.src != graph.dst).all()

    def test_rmat_skew_exceeds_erdos_renyi(self):
        """Power-law graphs must be skewier than uniform ones."""
        power_law = rmat_graph(512, 4096, seed=3)
        uniform = erdos_renyi_graph(512, 8.0, seed=3)
        assert power_law.degree_skew() > uniform.degree_skew()

    def test_rmat_rejects_bad_params(self):
        with pytest.raises(ValueError):
            rmat_graph(10, 10, a=0.5, b=0.3, c=0.3)

    def test_sbm_has_communities(self):
        graph = sbm_graph(200, 5, 8.0, seed=4)
        assert graph.communities is not None
        assert graph.communities.shape == (200,)
        assert graph.communities.max() < 5

    def test_sbm_homophily(self):
        graph = sbm_graph(400, 4, 10.0, intra_fraction=0.9, seed=5)
        same = (graph.communities[graph.src] == graph.communities[graph.dst]).mean()
        assert same > 0.6  # most edges stay intra-community

    def test_sbm_rejects_bad_intra(self):
        with pytest.raises(ValueError):
            sbm_graph(10, 2, 2.0, intra_fraction=0.0)

    def test_chain_of_cliques_structure(self):
        graph = chain_of_cliques(3, 4)
        assert graph.n_nodes == 12
        # Each clique has size*(size-1) directed edges plus 2 per bridge.
        assert graph.n_edges == 3 * 12 + 2 * 2


class TestTasks:
    def test_random_splits_partition_nodes(self):
        train, val, test = random_splits(100, seed=0)
        combined = train.astype(int) + val.astype(int) + test.astype(int)
        assert (combined == 1).all()

    def test_random_splits_rejects_overfull(self):
        with pytest.raises(ValueError):
            random_splits(10, train_fraction=0.8, val_fraction=0.3)

    def test_classification_task_attaches_everything(self):
        graph = sbm_graph(150, 5, 6.0, seed=6)
        attach_classification_task(graph, n_features=16, seed=6)
        assert graph.features.shape == (150, 16)
        assert graph.labels.shape == (150,)
        assert not graph.multilabel
        assert graph.train_mask.sum() > 0

    def test_classification_needs_communities(self):
        graph = erdos_renyi_graph(50, 4.0)
        with pytest.raises(ValueError, match="communities"):
            attach_classification_task(graph, 8)

    def test_multilabel_task_shapes(self):
        graph = sbm_graph(120, 4, 6.0, seed=7)
        attach_multilabel_task(graph, n_features=16, n_labels=10, seed=7)
        assert graph.labels.shape == (120, 10)
        assert graph.multilabel
        assert set(np.unique(graph.labels)) <= {0.0, 1.0}
