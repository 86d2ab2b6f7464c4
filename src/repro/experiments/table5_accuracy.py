"""Table 5 — accuracy & speedup of MaxK-GNN at the best-performing k values.

For each (model, dataset) the paper reports the ReLU baseline and two MaxK
configurations: test quality (accuracy / F1 / ROC-AUC), epoch latency, and
the speedup over the DGL-cuSPARSE and GNNAdvisor baselines.

Our substitution: quality comes from *real training* on the scaled
synthetic dataset (paper k mapped onto the scaled hidden width), while the
latency/speedup columns come from the epoch cost model evaluated at the
paper's full-size configuration — exactly the split documented in
DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..graphs import TRAINING_CONFIGS, load_training_dataset
from ..models import GNNConfig, MaxKGNN
from ..training import Engine, FullGraphFlow
from .common import epoch_model_for, format_table, scaled_k

__all__ = ["Table5Row", "Table5Result", "PAPER_K_SELECTIONS", "run", "report"]

#: The two k values Table 5 reports per (model, dataset), at hidden 256/384.
PAPER_K_SELECTIONS: Dict[Tuple[str, str], Tuple[int, int]] = {
    ("sage", "Reddit"): (32, 16),
    ("sage", "ogbn-proteins"): (64, 32),
    ("sage", "ogbn-products"): (32, 16),
    ("sage", "Yelp"): (96, 32),
    ("sage", "Flickr"): (32, 8),
    ("gcn", "Reddit"): (16, 8),
    ("gcn", "ogbn-proteins"): (16, 2),
    ("gcn", "ogbn-products"): (32, 8),
    ("gcn", "Yelp"): (96, 32),
    ("gcn", "Flickr"): (8, 4),
    ("gin", "Reddit"): (16, 8),
    ("gin", "ogbn-proteins"): (4, 2),
    ("gin", "ogbn-products"): (8, 4),
    ("gin", "Yelp"): (96, 32),
    ("gin", "Flickr"): (8, 4),
}


@dataclass(frozen=True)
class Table5Row:
    """One Table-5 line: a variant of (model, dataset)."""

    model: str
    dataset: str
    method: str  # "baseline" or "maxk"
    paper_k: Optional[int]
    quality: float
    metric_name: str
    epoch_latency_s: float
    speedup_cusparse: float
    speedup_gnnadvisor: float


@dataclass(frozen=True)
class Table5Result:
    rows: List[Table5Row]

    def variant(self, model: str, dataset: str, method: str,
                paper_k: Optional[int] = None) -> Table5Row:
        for row in self.rows:
            if (row.model, row.dataset, row.method, row.paper_k) == (
                model, dataset, method, paper_k
            ):
                return row
        raise KeyError((model, dataset, method, paper_k))


def _train_quality(
    model_type: str, dataset: str, nonlinearity: str, k: Optional[int],
    epochs: Optional[int], seed: int,
) -> Tuple[float, str]:
    cfg = TRAINING_CONFIGS[dataset]
    graph = load_training_dataset(dataset, seed=seed)
    out_features = graph.label_dim()
    config = GNNConfig(
        model_type=model_type,
        in_features=cfg.n_features,
        hidden=cfg.hidden,
        out_features=out_features,
        n_layers=cfg.layers,
        nonlinearity=nonlinearity,
        k=k,
        dropout=cfg.dropout,
    )
    engine = Engine(
        MaxKGNN(graph, config, seed=seed), graph, FullGraphFlow(), lr=cfg.lr
    )
    result = engine.fit(epochs if epochs is not None else cfg.epochs,
                        eval_every=20)
    return result.test_at_best_val, result.metric_name


def run(
    models: List[str] = None,
    datasets: List[str] = None,
    epochs: Optional[int] = None,
    seed: int = 0,
) -> Table5Result:
    """Regenerate Table 5 for the selected model × dataset block."""
    if models is None:
        models = ["sage", "gcn", "gin"]
    if datasets is None:
        datasets = list(TRAINING_CONFIGS)
    rows: List[Table5Row] = []
    for model_type in models:
        for dataset in datasets:
            cfg = TRAINING_CONFIGS[dataset]
            cost_model = epoch_model_for(dataset, model_type)
            base_epoch = cost_model.baseline_epoch("cusparse").total
            base_gnna = cost_model.baseline_epoch("gnnadvisor").total

            quality, metric = _train_quality(
                model_type, dataset, "relu", None, epochs, seed
            )
            rows.append(
                Table5Row(
                    model=model_type, dataset=dataset, method="baseline",
                    paper_k=None, quality=quality, metric_name=metric,
                    epoch_latency_s=base_epoch,
                    speedup_cusparse=1.0,
                    speedup_gnnadvisor=base_gnna / base_epoch,
                )
            )
            for paper_k in PAPER_K_SELECTIONS[(model_type, dataset)]:
                k = scaled_k(paper_k, cfg)
                quality, metric = _train_quality(
                    model_type, dataset, "maxk", k, epochs, seed
                )
                maxk_epoch = cost_model.maxk_epoch(paper_k).total
                rows.append(
                    Table5Row(
                        model=model_type, dataset=dataset, method="maxk",
                        paper_k=paper_k, quality=quality, metric_name=metric,
                        epoch_latency_s=maxk_epoch,
                        speedup_cusparse=base_epoch / maxk_epoch,
                        speedup_gnnadvisor=base_gnna / maxk_epoch,
                    )
                )
    return Table5Result(rows=rows)


def report(result: Table5Result = None, **run_kwargs) -> str:
    if result is None:
        result = run(**run_kwargs)
    rows = [
        (
            row.model,
            row.dataset,
            row.method,
            row.paper_k if row.paper_k is not None else "-",
            row.quality,
            row.metric_name,
            row.epoch_latency_s * 1e3,
            row.speedup_cusparse,
            row.speedup_gnnadvisor,
        )
        for row in result.rows
    ]
    return format_table(
        [
            "model",
            "dataset",
            "method",
            "k",
            "quality",
            "metric",
            "epoch_ms",
            "spd_cusp",
            "spd_gnna",
        ],
        rows,
    )
