"""Integration tests across the full stack.

These exercise the complete MaxK-GNN pipeline: dataset → model → engine →
kernels → cost model, asserting the paper's end-to-end claims at small scale.
"""

import numpy as np
import pytest

from repro.core import CBSRMatrix, maxk_forward
from repro.experiments.common import epoch_model_for
from repro.gpusim import spgemm_execute, sspmm_execute
from repro.graphs import load_training_dataset, TRAINING_CONFIGS
from repro.models import GNNConfig, MaxKGNN
from repro.tensor import Tensor, maxk, spmm_agg
from repro.training import Engine, FullGraphFlow


class TestAutogradMatchesKernelDataflow:
    """The training path and the explicit kernel path must agree exactly."""

    def test_layer_forward_equals_spgemm(self):
        graph = load_training_dataset("Flickr")
        adjacency = graph.adjacency("sage")
        rng = np.random.default_rng(0)
        x = rng.normal(size=(graph.n_nodes, 16))
        k = 4

        # Autograd path: maxk -> spmm_agg.
        autograd_out = spmm_agg(adjacency, maxk(Tensor(x), k)).numpy()

        # Kernel path: maxk -> CBSR -> SpGEMM.
        sparsified, _ = maxk_forward(x, k)
        cbsr = CBSRMatrix.from_dense_rows(sparsified, k)
        kernel_out = spgemm_execute(adjacency, cbsr)

        np.testing.assert_allclose(autograd_out, kernel_out, atol=1e-10)

    def test_layer_backward_equals_sspmm(self):
        graph = load_training_dataset("Flickr")
        adjacency = graph.adjacency("sage")
        rng = np.random.default_rng(1)
        x = rng.normal(size=(graph.n_nodes, 16))
        k = 4
        weights = rng.normal(size=(graph.n_nodes, 16))

        # Autograd backward through aggregation only.
        tensor = Tensor(x, requires_grad=True)
        sparsified_t = maxk(tensor, k)
        out = spmm_agg(adjacency, sparsified_t)
        (out * Tensor(weights)).sum().backward()

        # Kernel backward: SSpMM yields the gradient at the CBSR pattern;
        # MaxK backward scatters it to dense.
        sparsified, mask = maxk_forward(x, k)
        cbsr = CBSRMatrix.from_dense_rows(sparsified, k)
        grad_sparse = sspmm_execute(adjacency, weights, cbsr)
        dense_grad = np.zeros_like(x)
        rows = np.arange(graph.n_nodes)[:, None]
        dense_grad[rows, cbsr.sp_index.astype(np.int64)] = grad_sparse.sp_data
        dense_grad = np.where(mask, dense_grad, 0.0)

        np.testing.assert_allclose(tensor.grad, dense_grad, atol=1e-10)


class TestEndToEndTraining:
    @pytest.mark.parametrize("model_type", ["sage", "gcn", "gin"])
    def test_all_model_families_learn(self, model_type):
        graph = load_training_dataset("Flickr")
        cfg = TRAINING_CONFIGS["Flickr"]
        config = GNNConfig(
            model_type=model_type, in_features=cfg.n_features,
            hidden=32, out_features=int(graph.labels.max()) + 1,
            n_layers=2, nonlinearity="maxk", k=8, dropout=0.1,
        )
        engine = Engine(
            MaxKGNN(graph, config), graph, FullGraphFlow(), lr=0.01
        )
        result = engine.fit(40, eval_every=20)
        n_classes = int(graph.labels.max()) + 1
        assert result.test_at_best_val > 1.5 / n_classes

    def test_maxk_matches_relu_at_moderate_k(self):
        """The paper's core accuracy claim at k = hidden/8 equivalent."""
        graph = load_training_dataset("Flickr")
        cfg = TRAINING_CONFIGS["Flickr"]
        scores = {}
        for nonlinearity, k in (("relu", None), ("maxk", 8)):
            config = GNNConfig(
                model_type="sage", in_features=cfg.n_features,
                hidden=cfg.hidden, out_features=int(graph.labels.max()) + 1,
                n_layers=cfg.layers, nonlinearity=nonlinearity, k=k,
                dropout=cfg.dropout,
            )
            engine = Engine(
                MaxKGNN(graph, config, seed=0), graph, FullGraphFlow(),
                lr=cfg.lr,
            )
            scores[nonlinearity] = engine.fit(60, eval_every=20).test_at_best_val
        assert scores["maxk"] > scores["relu"] - 0.08

    def test_multilabel_pipeline(self):
        graph = load_training_dataset("ogbn-proteins")
        cfg = TRAINING_CONFIGS["ogbn-proteins"]
        config = GNNConfig(
            model_type="sage", in_features=cfg.n_features, hidden=32,
            out_features=graph.labels.shape[1], n_layers=2,
            nonlinearity="maxk", k=8, dropout=0.2,
        )
        engine = Engine(
            MaxKGNN(graph, config), graph, FullGraphFlow(), lr=0.01
        )
        result = engine.fit(30, eval_every=15)
        assert result.metric_name == "micro_f1"
        assert result.final_test > 0.3


class TestSystemConsistency:
    def test_cost_model_and_amdahl_agree_for_every_dataset(self):
        for dataset in TRAINING_CONFIGS:
            cost_model = epoch_model_for(dataset, "sage")
            limit = cost_model.amdahl_limit()
            # k -> 1 speedup approaches but never crosses the limit.
            assert cost_model.speedup(1) < limit
            assert cost_model.speedup(1) > cost_model.speedup(64)

    def test_training_speedup_ordering_is_degree_driven(self):
        """High-avg-degree datasets admit bigger system speedups."""
        speedups = {
            dataset: epoch_model_for(dataset, "sage").speedup(16)
            for dataset in TRAINING_CONFIGS
        }
        assert speedups["Reddit"] > speedups["ogbn-products"]
        assert speedups["ogbn-products"] > speedups["Flickr"]


class TestCBSRKernelTrainingPath:
    """use_cbsr_kernels=True runs the literal Fig.-5 dataflow in training."""

    @pytest.mark.parametrize("model_type", ["sage", "gcn", "gin"])
    def test_cbsr_path_equals_dense_path(self, model_type):
        graph = load_training_dataset("Flickr")
        cfg = TRAINING_CONFIGS["Flickr"]
        out_features = int(graph.labels.max()) + 1
        x = graph.features
        kwargs = dict(
            model_type=model_type, in_features=cfg.n_features, hidden=32,
            out_features=out_features, n_layers=2, nonlinearity="maxk",
            k=8, dropout=0.0,
        )
        from repro.models import GNNConfig, MaxKGNN

        dense = MaxKGNN(graph, GNNConfig(**kwargs), seed=0)
        cbsr = MaxKGNN(
            graph, GNNConfig(use_cbsr_kernels=True, **kwargs), seed=0
        )
        np.testing.assert_allclose(
            dense.eval()(x).numpy(), cbsr.eval()(x).numpy(), atol=1e-10
        )
        dense.train()(x).sum().backward()
        cbsr.train()(x).sum().backward()
        for p_dense, p_cbsr in zip(dense.parameters(), cbsr.parameters()):
            np.testing.assert_allclose(p_dense.grad, p_cbsr.grad, atol=1e-10)

    def test_training_through_cbsr_kernels_learns(self):
        graph = load_training_dataset("Flickr")
        cfg = TRAINING_CONFIGS["Flickr"]
        from repro.models import GNNConfig, MaxKGNN

        config = GNNConfig(
            model_type="sage", in_features=cfg.n_features, hidden=cfg.hidden,
            out_features=int(graph.labels.max()) + 1, n_layers=cfg.layers,
            nonlinearity="maxk", k=8, dropout=cfg.dropout,
            use_cbsr_kernels=True,
        )
        engine = Engine(
            MaxKGNN(graph, config, seed=0), graph, FullGraphFlow(), lr=cfg.lr
        )
        result = engine.fit(40, eval_every=20)
        n_classes = int(graph.labels.max()) + 1
        assert result.test_at_best_val > 1.5 / n_classes

    def test_cbsr_path_requires_maxk(self):
        graph = load_training_dataset("Flickr")
        from repro.models import SAGEConv

        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="MaxK"):
            SAGEConv(graph, 8, 16, rng, nonlinearity="relu",
                     use_cbsr_kernels=True)
