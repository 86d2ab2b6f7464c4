"""Tests for checkpointing, early stopping, seed averaging."""

import numpy as np
import pytest

from repro.graphs import attach_classification_task, sbm_graph
from repro.models import GNNConfig, MaxKGNN
from repro.training import (
    EarlyStopping,
    load_checkpoint,
    load_state_dict,
    run_seeded,
    save_checkpoint,
    state_dict,
)


@pytest.fixture
def model():
    graph = sbm_graph(60, 3, 5.0, seed=2).to_undirected()
    attach_classification_task(graph, n_features=6, seed=2)
    config = GNNConfig("sage", 6, 8, 3, 2, "maxk", k=2)
    return MaxKGNN(graph, config, seed=0), graph


class TestCheckpoint:
    def test_state_dict_round_trip(self, model):
        net, graph = model
        state = state_dict(net)
        clone = MaxKGNN(graph, net.config, seed=99)
        load_state_dict(clone, state)
        x = graph.features
        np.testing.assert_allclose(
            net.eval()(x).numpy(), clone.eval()(x).numpy()
        )

    def test_file_round_trip(self, model, tmp_path):
        net, graph = model
        path = tmp_path / "checkpoint.npz"
        save_checkpoint(net, path)
        clone = MaxKGNN(graph, net.config, seed=42)
        load_checkpoint(clone, path)
        for original, restored in zip(net.parameters(), clone.parameters()):
            np.testing.assert_array_equal(original.data, restored.data)

    def test_named_keys(self, model):
        net, _ = model
        state = state_dict(net)
        assert "conv0.linear.weight:6x8" in state
        assert "classifier.bias:3" in state

    def test_missing_key_rejected(self, model):
        net, _ = model
        state = state_dict(net)
        state.pop(next(iter(state)))
        with pytest.raises(ValueError, match="missing"):
            load_state_dict(net, state)

    def test_shape_mismatch_rejected(self, model):
        net, _ = model
        state = state_dict(net)
        key = next(iter(state))
        path, _, _ = key.rpartition(":")
        state.pop(key)
        state[f"{path}:1x1"] = np.zeros((1, 1))
        with pytest.raises(ValueError, match="shape mismatch"):
            load_state_dict(net, state)

    def test_legacy_positional_keys_are_rejected(self, model):
        net, graph = model
        legacy = {
            f"param_{i}": p.data.copy()
            for i, p in enumerate(net.parameters())
        }
        clone = MaxKGNN(graph, net.config, seed=99)
        with pytest.raises(ValueError,
                           match="does not match the model architecture"):
            load_state_dict(clone, legacy)


class TestEarlyStopping:
    def test_stops_after_patience(self):
        stopper = EarlyStopping(patience=2)
        assert not stopper.update(0.5)
        assert not stopper.update(0.4)  # stale 1
        assert stopper.update(0.45)  # stale 2 -> stop

    def test_improvement_resets(self):
        stopper = EarlyStopping(patience=2)
        stopper.update(0.5)
        stopper.update(0.4)
        assert not stopper.update(0.6)  # improvement resets
        assert stopper.stale == 0

    def test_min_delta(self):
        stopper = EarlyStopping(patience=1, min_delta=0.1)
        stopper.update(0.5)
        assert stopper.update(0.55)  # within delta -> stale -> stop

    def test_validation(self):
        with pytest.raises(ValueError):
            EarlyStopping(patience=0)
        with pytest.raises(ValueError):
            EarlyStopping(min_delta=-1.0)


class TestSeededRuns:
    def test_mean_and_std(self):
        result = run_seeded("Flickr", n_seeds=2, epochs=15)
        assert result.n_seeds == 2
        assert 0.0 <= result.mean <= 1.0
        assert result.std >= 0.0
        assert result.metric_name == "accuracy"

    def test_maxk_configuration(self):
        result = run_seeded(
            "Flickr", nonlinearity="maxk", k=8, n_seeds=1, epochs=10
        )
        assert 0.0 <= result.mean <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            run_seeded("Flickr", n_seeds=0)
