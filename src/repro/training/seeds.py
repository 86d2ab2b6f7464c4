"""Seed-averaged evaluation — the paper's five-random-seed protocol.

§5.3: "we follow the standard train/val/test split setting and obtain
average accuracy over five random seeds for graph training". This module
runs a configuration across seeds and reports mean ± std, which also lets
tests reproduce the paper's observation that ogbn-proteins shows high
variance near convergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..graphs import TRAINING_CONFIGS, load_training_dataset
from ..models import GNNConfig, MaxKGNN
from .dataflow import FullGraphFlow
from .engine import Engine

__all__ = ["SeededResult", "run_seeded"]


@dataclass(frozen=True)
class SeededResult:
    """Per-seed test metrics of one (model, dataset, nonlinearity, k) cell."""

    metrics: List[float]
    metric_name: str

    @property
    def mean(self) -> float:
        return float(np.mean(self.metrics))

    @property
    def std(self) -> float:
        return float(np.std(self.metrics))

    @property
    def n_seeds(self) -> int:
        return len(self.metrics)


def run_seeded(
    dataset: str,
    model_type: str = "sage",
    nonlinearity: str = "relu",
    k: Optional[int] = None,
    n_seeds: int = 5,
    epochs: Optional[int] = None,
) -> SeededResult:
    """Train one configuration across ``n_seeds`` seeds (dataset + init)."""
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    cfg = TRAINING_CONFIGS[dataset]
    if epochs is None:
        epochs = cfg.epochs
    metrics: List[float] = []
    metric_name = ""
    for seed in range(n_seeds):
        graph = load_training_dataset(dataset, seed=seed)
        config = GNNConfig(
            model_type=model_type,
            in_features=cfg.n_features,
            hidden=cfg.hidden,
            out_features=graph.label_dim(),
            n_layers=cfg.layers,
            nonlinearity=nonlinearity,
            k=k,
            dropout=cfg.dropout,
        )
        engine = Engine(
            MaxKGNN(graph, config, seed=seed), graph, FullGraphFlow(),
            lr=cfg.lr,
        )
        result = engine.fit(epochs, eval_every=max(epochs // 4, 1))
        metrics.append(result.test_at_best_val)
        metric_name = result.metric_name
    return SeededResult(metrics=metrics, metric_name=metric_name)
