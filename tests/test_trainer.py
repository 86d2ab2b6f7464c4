"""Unit tests for full-batch training (``Engine`` + ``FullGraphFlow``)."""

import numpy as np
import pytest

from repro.graphs import attach_classification_task, attach_multilabel_task, sbm_graph
from repro.models import GNNConfig, MaxKGNN
from repro.training import Engine, FullGraphFlow


def make_graph(multilabel=False, seed=0):
    graph = sbm_graph(120, 4, 6.0, seed=seed).to_undirected()
    if multilabel:
        attach_multilabel_task(graph, n_features=8, n_labels=5, seed=seed)
    else:
        attach_classification_task(graph, n_features=8, seed=seed)
    return graph


def make_model(graph, nonlinearity="relu", k=None, seed=0):
    out_features = (
        graph.labels.shape[1] if graph.multilabel else int(graph.labels.max()) + 1
    )
    config = GNNConfig(
        model_type="sage", in_features=8, hidden=16,
        out_features=out_features, n_layers=2,
        nonlinearity=nonlinearity, k=k, dropout=0.1,
    )
    return MaxKGNN(graph, config, seed=seed)


def make_engine(model, graph, **kwargs):
    return Engine(model, graph, FullGraphFlow(), **kwargs)


class TestFullBatchTraining:
    def test_loss_decreases(self):
        graph = make_graph()
        engine = make_engine(make_model(graph), graph, lr=0.01)
        result = engine.fit(30, eval_every=10)
        assert result.train_losses[-1] < result.train_losses[0]

    def test_learns_better_than_chance(self):
        graph = make_graph()
        engine = make_engine(make_model(graph), graph, lr=0.01)
        result = engine.fit(60, eval_every=20)
        assert result.test_at_best_val > 1.5 / 4  # > 1.5x chance on 4 classes

    def test_maxk_model_trains_too(self):
        graph = make_graph()
        engine = make_engine(make_model(graph, "maxk", k=4), graph, lr=0.01)
        result = engine.fit(60, eval_every=20)
        assert result.test_at_best_val > 1.5 / 4

    def test_multilabel_uses_f1(self):
        graph = make_graph(multilabel=True)
        engine = make_engine(make_model(graph), graph, lr=0.01)
        assert engine.metric == "micro_f1"
        result = engine.fit(20, eval_every=10)
        assert 0.0 <= result.final_test <= 1.0

    def test_roc_auc_metric_selectable(self):
        graph = make_graph(multilabel=True)
        engine = make_engine(make_model(graph), graph, metric="roc_auc")
        scores = engine.evaluate()
        assert 0.0 <= scores["test"] <= 1.0

    def test_accuracy_rejected_for_multilabel(self):
        graph = make_graph(multilabel=True)
        with pytest.raises(ValueError, match="single-label"):
            make_engine(make_model(graph), graph, metric="accuracy")

    def test_unknown_metric_rejected(self):
        graph = make_graph()
        with pytest.raises(ValueError, match="unknown metric"):
            make_engine(make_model(graph), graph, metric="bleu")

    def test_graph_without_labels_rejected(self):
        graph = sbm_graph(50, 3, 4.0, seed=1)
        config = GNNConfig("sage", 8, 16, 3, 2)
        with pytest.raises(ValueError, match="features and labels"):
            make_engine(MaxKGNN(graph, config), graph)

    def test_history_recorded_at_interval(self):
        graph = make_graph()
        engine = make_engine(make_model(graph), graph)
        result = engine.fit(21, eval_every=10)
        assert result.epochs_recorded[0] == 0
        assert result.epochs_recorded[-1] == 20
        assert len(result.train_losses) == 21

    def test_best_val_tracks_maximum(self):
        graph = make_graph()
        engine = make_engine(make_model(graph), graph)
        result = engine.fit(30, eval_every=10)
        assert result.best_val == max(result.val_metrics)

    def test_rejects_zero_epochs(self):
        graph = make_graph()
        with pytest.raises(ValueError):
            make_engine(make_model(graph), graph).fit(0)
