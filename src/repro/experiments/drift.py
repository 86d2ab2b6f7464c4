"""Streaming evaluation under graph drift: accuracy over a mutation stream.

Real deployments serve a graph that keeps changing underneath the model.
This driver interleaves **updates** (random edge rewires that progressively
decorrelate the structure from the planted communities the model learned)
with **queries** (seeded per-node requests through the live
:class:`~repro.serving.service.InferenceService`) and reports accuracy per
window, so drift shows up as a measured curve instead of an anecdote.

Every window asserts the staleness contract: each served result carries the
graph generation it was admitted under, and a mutation drains in-flight
requests first — so the stream must observe **zero** stale or failed
responses while the graph mutates live (``DriftResult.zero_stale``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..graphs import TRAINING_CONFIGS, GraphDelta, load_training_dataset
from ..models import GNNConfig, MaxKGNN
from ..serving import InferenceService, ServiceConfig
from ..training import Engine, FullGraphFlow
from .common import format_table

__all__ = ["DriftWindow", "DriftResult", "run", "report"]


@dataclass(frozen=True)
class DriftWindow:
    """One evaluation window of the update/query trace."""

    window: int
    generation: int
    n_edges: int
    queries: int
    served: int
    stale: int
    cache_hits: int
    accuracy: float


@dataclass(frozen=True)
class DriftResult:
    dataset: str
    rewired_per_update: int
    updates_per_window: int
    windows: List[DriftWindow]

    @property
    def zero_stale(self) -> bool:
        return all(w.stale == 0 and w.served == w.queries for w in self.windows)


def _rewire_delta(graph, rng: np.random.Generator, n_rewire: int) -> GraphDelta:
    """Remove ``n_rewire`` random existing edges; add as many noise edges.

    Additions are drawn *across* planted communities when the graph has
    them, so each delta injects exactly the kind of structure the model
    never learned — accuracy under drift should decay, measurably.
    """
    pick = rng.choice(graph.n_edges, size=min(n_rewire, graph.n_edges),
                      replace=False)
    add_src = rng.integers(0, graph.n_nodes, size=n_rewire)
    if graph.communities is not None:
        # Re-draw destinations until they land outside the source's
        # community (one vectorised correction pass is enough in practice).
        add_dst = rng.integers(0, graph.n_nodes, size=n_rewire)
        same = graph.communities[add_src] == graph.communities[add_dst]
        add_dst[same] = (
            add_dst[same] + rng.integers(1, graph.n_nodes, size=int(same.sum()))
        ) % graph.n_nodes
    else:
        add_dst = rng.integers(0, graph.n_nodes, size=n_rewire)
    return GraphDelta(
        add_src=add_src,
        add_dst=add_dst,
        remove_src=graph.src[pick].copy(),
        remove_dst=graph.dst[pick].copy(),
    )


def _window_accuracy(graph, results: List) -> Tuple[int, int, float]:
    """(served, cache_hits, accuracy) over one window's results."""
    served = hits = correct = 0
    for result in results:
        if not result.ok:
            continue
        served += 1
        if result.cached:
            hits += 1
        prediction_ok = (
            bool(
                np.all(
                    (result.logits > 0.0) == graph.labels[result.node].astype(bool)
                )
            )
            if graph.labels.ndim == 2
            else int(np.argmax(result.logits)) == int(graph.labels[result.node])
        )
        correct += int(prediction_ok)
    accuracy = correct / served if served else 0.0
    return served, hits, accuracy


def run(
    dataset: str = "Flickr",
    windows: int = 6,
    queries_per_window: int = 32,
    updates_per_window: int = 1,
    rewire_fraction: float = 0.04,
    epochs: Optional[int] = None,
    seed: int = 0,
) -> DriftResult:
    """Train once, then serve an interleaved update/query trace.

    Window 0 queries the freshly-trained graph (the accuracy anchor);
    every later window first applies ``updates_per_window`` rewire deltas
    through :meth:`InferenceService.apply_delta` (live) and then serves ``queries_per_window`` seeded queries
    over the test split.
    """
    cfg = TRAINING_CONFIGS[dataset]
    graph = load_training_dataset(dataset, seed=seed)
    config = GNNConfig(
        model_type="sage",
        in_features=cfg.n_features,
        hidden=cfg.hidden,
        out_features=graph.label_dim(),
        n_layers=cfg.layers,
        nonlinearity="maxk",
        k=max(1, cfg.hidden // 8),
        dropout=cfg.dropout,
    )
    model = MaxKGNN(graph, config, seed=seed)
    Engine(model, graph, FullGraphFlow(), lr=cfg.lr).fit(
        epochs if epochs is not None else cfg.epochs, eval_every=20
    )

    rng = np.random.default_rng(seed + 1)
    test_nodes = np.flatnonzero(graph.test_mask)
    n_rewire = max(1, int(rewire_fraction * graph.n_edges))
    rows: List[DriftWindow] = []
    service = InferenceService(
        graph,
        model,
        ServiceConfig(
            max_batch=8,
            default_deadline=60.0,
            queue_capacity=max(64, queries_per_window),
        ),
    )
    try:
        for window in range(windows):
            if window:
                for _ in range(updates_per_window):
                    service.apply_delta(_rewire_delta(graph, rng, n_rewire))
            nodes = rng.choice(test_nodes, size=queries_per_window)
            tickets = [
                service.submit(int(node), seed=int(rng.integers(0, 2**31)))
                for node in nodes
            ]
            service.drain()
            results = [t.result for t in tickets]
            stale_results = sum(
                1
                for r in results
                if r is None or (r.ok and r.generation != service.generation)
            )
            served, hits, accuracy = _window_accuracy(graph, results)
            rows.append(
                DriftWindow(
                    window=window,
                    generation=service.generation,
                    n_edges=graph.n_edges,
                    queries=len(tickets),
                    served=served,
                    stale=stale_results,
                    cache_hits=hits,
                    accuracy=accuracy,
                )
            )
    finally:
        service.close()
    return DriftResult(
        dataset=dataset,
        rewired_per_update=n_rewire,
        updates_per_window=updates_per_window,
        windows=rows,
    )


def report(result: DriftResult = None, **run_kwargs) -> str:
    if result is None:
        result = run(**run_kwargs)
    headers = [
        "window", "gen", "edges", "queries", "served", "stale", "accuracy"
    ]
    table_rows = [
        [w.window, w.generation, w.n_edges, w.queries, w.served, w.stale,
         w.accuracy]
        for w in result.windows
    ]
    lines = [
        f"Streaming drift on {result.dataset}: "
        f"{result.updates_per_window} update(s) x {result.rewired_per_update} "
        "rewired edges per window",
        format_table(headers, table_rows),
        f"zero stale responses: {result.zero_stale}",
        "accuracy drift: "
        f"{result.windows[0].accuracy:.3f} -> {result.windows[-1].accuracy:.3f}",
    ]
    return "\n".join(lines)
