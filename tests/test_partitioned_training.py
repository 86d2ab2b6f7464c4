"""Tests for partition-parallel and sampled training with MaxK models.

§1's compatibility claim: the MaxK nonlinearity and its kernels are
orthogonal to partition-parallel training (BNS-GCN [27]) and subgraph
sampling (GraphSAINT [33]) — one engine, one model and one optimizer state
carried across every partition / sample.
"""

import pytest

from repro.graphs import attach_classification_task, node_sampler, sbm_graph
from repro.models import GNNConfig, MaxKGNN
from repro.training import Engine, PartitionedFlow, SampledFlow


@pytest.fixture
def graph():
    graph = sbm_graph(180, 4, 8.0, intra_fraction=0.7, seed=9).to_undirected()
    attach_classification_task(graph, n_features=8, signal=0.5, seed=9)
    return graph


def maxk_config():
    return GNNConfig(
        model_type="sage", in_features=8, hidden=16, out_features=4,
        n_layers=2, nonlinearity="maxk", k=4, dropout=0.1,
    )


def fit(graph, flow, rounds, steps, config=None):
    """``rounds`` passes over the flow, ``steps`` gradient steps per batch."""
    model = MaxKGNN(graph, config or maxk_config(), seed=0)
    return Engine(model, graph, flow, lr=0.01).fit(
        rounds, eval_every=rounds, steps_per_batch=steps
    )


class TestPartitionedTraining:
    def test_training_reduces_loss(self, graph):
        flow = PartitionedFlow(3, boundary_fraction=0.3, seed=0)
        result = fit(graph, flow, rounds=3, steps=3)
        assert len(result.batch_losses) > 0
        assert result.batch_losses[-1] < result.batch_losses[0]

    def test_full_graph_evaluation_above_chance(self, graph):
        flow = PartitionedFlow(3, boundary_fraction=0.3, seed=0)
        result = fit(graph, flow, rounds=4, steps=4)
        assert result.final_test > 1.0 / 4

    def test_subgraph_sizes_recorded(self, graph):
        result = fit(graph, PartitionedFlow(2, seed=0), rounds=1, steps=1)
        assert all(size > 0 for size in result.batch_sizes)

    def test_validation(self, graph):
        with pytest.raises(ValueError):
            PartitionedFlow(0)
        with pytest.raises(ValueError):
            fit(graph, PartitionedFlow(2, seed=0), rounds=0, steps=1)

    def test_relu_config_trains_too(self, graph):
        # MaxK is optional here: the flows are nonlinearity-agnostic.
        config = GNNConfig("sage", 8, 16, 4, 2, "relu")
        result = fit(graph, PartitionedFlow(2, seed=0), rounds=1, steps=1,
                     config=config)
        assert result.batch_losses


class TestSampledTraining:
    def flow(self, sample_size):
        return SampledFlow(sampler=node_sampler, sample_size=sample_size,
                           seed=0)

    def test_training_reduces_loss(self, graph):
        result = fit(graph, self.flow(90), rounds=5, steps=3)
        assert result.batch_losses[-1] < result.batch_losses[0]

    def test_subgraphs_are_sampled_size(self, graph):
        result = fit(graph, self.flow(60), rounds=2, steps=1)
        assert all(size == 60 for size in result.batch_sizes)

    def test_generalises_above_chance(self, graph):
        result = fit(graph, self.flow(120), rounds=6, steps=4)
        assert result.final_test > 1.0 / 4

    def test_validation(self, graph):
        with pytest.raises(ValueError):
            self.flow(0)
        with pytest.raises(ValueError):
            fit(graph, self.flow(50), rounds=0, steps=1)
