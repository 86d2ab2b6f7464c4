"""Disjoint-union batching of graphs (the DGL ``batch`` role).

Stacking several sampled subgraphs into one graph turns their per-step
dense work — linear transforms, activations, dropout, the classifier —
into single fused passes over the concatenated node rows, while the
block-diagonal adjacency keeps aggregation strictly per-subgraph (no
cross-subgraph edges exist, so each block aggregates exactly as it would
alone). :class:`repro.training.dataflow.MicroBatchedFlow` rides this to
batch several pooled subgraph steps into one fused linear pass.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .graph import NODE_FIELDS, Graph

__all__ = ["batch_graphs"]


def _stack_payload(parts, converter=np.concatenate) -> Optional[np.ndarray]:
    """Concatenate per-node payload rows; None only if absent everywhere."""
    present = [p for p in parts if p is not None]
    if not present:
        return None
    if len(present) != len(parts):
        raise ValueError("payload present on some member graphs but not all")
    return converter([np.asarray(p) for p in parts])


def _implicit_loss_weights(graph: Graph, dtype) -> np.ndarray:
    """The per-node weights an *unweighted* member implicitly trains with.

    The engine's unweighted losses are masked means, i.e. every labelled
    training row carries weight ``1 / n_labelled`` (and unmasked graphs
    average all rows); the weighted-sum losses reproduce exactly that
    estimator when handed these weights. Materialising them is what lets
    a weighted member (e.g. an importance-sampled batch) merge with an
    unweighted one without dropping or misaligning either payload.
    """
    mask = graph.train_mask
    if mask is None:
        n_rows = graph.n_nodes
        fill = 1.0 / n_rows if n_rows else 0.0
        return np.full(graph.n_nodes, fill, dtype=dtype)
    mask = np.asarray(mask, dtype=bool)
    weights = np.zeros(mask.shape[0], dtype=dtype)
    labelled = int(mask.sum())
    if labelled:
        weights[mask] = 1.0 / labelled
    return weights


def _stack_loss_weights(graphs) -> Optional[np.ndarray]:
    """Concatenate ``loss_weights``, filling unweighted members in a mix.

    All-absent stays ``None`` (the merged graph trains unweighted); an
    all-present merge concatenates unchanged. A *mixed* merge fills each
    unweighted member with its implicit uniform weights — unbiased, since
    each member's weighted sum then still equals its own loss estimator —
    instead of rejecting or silently misaligning the payload.
    """
    weights = [g.loss_weights for g in graphs]
    present = [np.asarray(w) for w in weights if w is not None]
    if not present:
        return None
    dtype = np.result_type(*present)
    return np.concatenate([
        np.asarray(w) if w is not None else _implicit_loss_weights(g, dtype)
        for g, w in zip(graphs, weights)
    ])


def batch_graphs(graphs: Sequence[Graph]) -> Graph:
    """Disjoint union of ``graphs``: node ids offset, payloads concatenated.

    Every member keeps its internal edges (shifted by its node offset);
    every node column is stacked row-wise in member order. Multi-label
    members stack their label matrices; single-label members concatenate
    label vectors — mixing the two is rejected, as is an empty sequence.
    ``loss_weights`` may be mixed: unweighted members are filled with
    their implicit uniform weights (see :func:`_stack_loss_weights`) so a
    weighted member merges losslessly.
    """
    graphs = list(graphs)
    if not graphs:
        raise ValueError("batch_graphs needs at least one graph")
    if len(graphs) == 1:
        return graphs[0]
    multilabel = graphs[0].multilabel
    if any(g.multilabel != multilabel for g in graphs):
        raise ValueError("cannot batch multi-label with single-label graphs")

    offsets = np.cumsum([0] + [g.n_nodes for g in graphs])
    src = np.concatenate(
        [g.src + offset for g, offset in zip(graphs, offsets)]
    )
    dst = np.concatenate(
        [g.dst + offset for g, offset in zip(graphs, offsets)]
    )
    payload = {
        name: _stack_loss_weights(graphs) if name == "loss_weights"
        else _stack_payload([getattr(g, name) for g in graphs])
        for name in NODE_FIELDS
    }
    return Graph(
        n_nodes=int(offsets[-1]),
        src=src,
        dst=dst,
        name=f"batch[{len(graphs)}x{graphs[0].name}]",
        multilabel=multilabel,
        **payload,
    )
