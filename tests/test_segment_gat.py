"""Tests for segment autograd ops and the GAT extension layer."""

import numpy as np
import pytest

from repro.graphs import chain_of_cliques, sbm_graph, attach_classification_task
from repro.models import GATConv
from repro.tensor import (
    Adam,
    Tensor,
    cross_entropy,
    exp,
    leaky_relu,
    segment_max_values,
    segment_sum,
)
from tests.test_tensor import check_gradient


class TestSegmentSum:
    def test_forward_values(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        out = segment_sum(x, np.array([0, 1, 0]), 2)
        np.testing.assert_allclose(out.numpy(), [[6.0, 8.0], [3.0, 4.0]])

    def test_empty_segments_are_zero(self):
        x = Tensor(np.ones((2, 3)))
        out = segment_sum(x, np.array([2, 2]), 4)
        assert (out.numpy()[[0, 1, 3]] == 0).all()

    def test_backward_routes_to_rows(self):
        x = Tensor(np.ones((4, 2)), requires_grad=True)
        ids = np.array([0, 1, 1, 0])
        out = segment_sum(x, ids, 2)
        weights = np.array([[1.0, 2.0], [3.0, 4.0]])
        (out * Tensor(weights)).sum().backward()
        np.testing.assert_allclose(x.grad, weights[ids])

    @pytest.mark.usefixtures("double_precision")
    def test_gradient_finite_difference(self):
        ids = np.array([0, 2, 1, 2, 0])
        check_gradient(
            lambda x: (segment_sum(x, ids, 3) ** 2).sum(), (5, 3), seed=21
        )

    def test_1d_values(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]))
        out = segment_sum(x, np.array([1, 1, 0]), 2)
        np.testing.assert_allclose(out.numpy(), [3.0, 3.0])

    def test_validation(self):
        x = Tensor(np.ones((3, 2)))
        with pytest.raises(ValueError):
            segment_sum(x, np.array([0, 1]), 2)  # wrong length
        with pytest.raises(ValueError):
            segment_sum(x, np.array([0, 1, 5]), 2)  # out of range
        with pytest.raises(ValueError):
            segment_sum(x, np.array([0, 1, 1]), 0)


class TestSegmentMax:
    def test_values(self):
        out = segment_max_values(
            np.array([1.0, 5.0, -2.0, 3.0]), np.array([0, 0, 1, 1]), 2
        )
        np.testing.assert_allclose(out, [5.0, 3.0])

    def test_empty_segment_zero(self):
        out = segment_max_values(np.array([1.0]), np.array([1]), 3)
        assert out[0] == 0.0 and out[2] == 0.0


class TestPointwise:
    @pytest.mark.usefixtures("double_precision")
    def test_exp_gradient(self):
        check_gradient(lambda x: exp(x).sum(), (4, 3), seed=22)

    def test_exp_clip_stays_finite(self):
        out = exp(Tensor(np.array([1000.0])))
        assert np.isfinite(out.numpy()).all()

    def test_leaky_relu_values(self):
        x = Tensor(np.array([-2.0, 3.0]))
        np.testing.assert_allclose(
            leaky_relu(x, 0.1).numpy(), [-0.2, 3.0]
        )

    @pytest.mark.usefixtures("double_precision")
    def test_leaky_relu_gradient(self):
        check_gradient(
            lambda x: (leaky_relu(x, 0.2) * 2.0).sum(), (5,), seed=23
        )

    def test_leaky_relu_validation(self):
        with pytest.raises(ValueError):
            leaky_relu(Tensor(np.ones(2)), -0.5)


class TestGATConv:
    @pytest.fixture
    def graph(self):
        return chain_of_cliques(3, 4)

    def test_output_shape(self, graph):
        rng = np.random.default_rng(0)
        layer = GATConv(graph, 6, 10, rng)
        out = layer(Tensor(rng.normal(size=(graph.n_nodes, 6))))
        assert out.shape == (graph.n_nodes, 10)

    def test_attention_weights_normalise(self, graph):
        """Recompute alpha by hand: per-destination sums must be 1."""
        rng = np.random.default_rng(1)
        layer = GATConv(graph, 6, 8, rng, nonlinearity="none")
        x = Tensor(rng.normal(size=(graph.n_nodes, 6)))
        h = layer.linear(x)
        score = (
            (h * layer.attn_src).sum(axis=1).numpy()[graph.src]
            + (h * layer.attn_dst).sum(axis=1).numpy()[graph.dst]
        )
        score = np.where(score > 0, score, 0.2 * score)
        alpha = np.exp(score)
        sums = np.zeros(graph.n_nodes)
        np.add.at(sums, graph.dst, alpha)
        alpha = alpha / sums[graph.dst]
        grouped = np.zeros(graph.n_nodes)
        np.add.at(grouped, graph.dst, alpha)
        np.testing.assert_allclose(grouped[grouped > 0], 1.0)

    def test_gradients_flow_everywhere(self, graph):
        rng = np.random.default_rng(2)
        layer = GATConv(graph, 6, 8, rng, nonlinearity="maxk", k=3)
        x = Tensor(rng.normal(size=(graph.n_nodes, 6)), requires_grad=True)
        layer(x).sum().backward()
        assert x.grad is not None
        for param in layer.parameters():
            assert param.grad is not None
            assert np.isfinite(param.grad).all()

    def test_maxk_sparsifies_aggregation_input(self, graph):
        rng = np.random.default_rng(3)
        layer = GATConv(graph, 6, 12, rng, nonlinearity="maxk", k=4)
        x = Tensor(rng.normal(size=(graph.n_nodes, 6)))
        h = layer._activate(layer.linear(x))
        assert ((h.numpy() != 0).sum(axis=1) <= 4).all()

    def test_gat_trains_on_classification(self):
        graph = sbm_graph(120, 4, 8.0, intra_fraction=0.7, seed=6).to_undirected()
        attach_classification_task(graph, n_features=8, signal=0.6, seed=6)
        rng = np.random.default_rng(0)
        layer = GATConv(graph, 8, 4, rng, nonlinearity="maxk", k=2)
        optimizer = Adam(list(layer.parameters()), lr=0.02)
        first_loss = last_loss = None
        for _ in range(40):
            optimizer.zero_grad()
            logits = layer(Tensor(graph.features))
            loss = cross_entropy(logits, graph.labels, graph.train_mask)
            loss.backward()
            optimizer.step()
            if first_loss is None:
                first_loss = loss.item()
            last_loss = loss.item()
        assert last_loss < first_loss

    def test_validation(self, graph):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            GATConv(graph, 6, 8, rng, nonlinearity="maxk")  # missing k
        with pytest.raises(ValueError):
            GATConv(graph, 6, 8, rng, nonlinearity="softmax")
