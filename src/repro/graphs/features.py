"""Synthetic node features, labels and splits for the training datasets.

The paper trains on Flickr / Yelp / Reddit / ogbn-products / ogbn-proteins.
We substitute community-structured synthetic data: the SBM generator plants
communities, features are drawn from per-community Gaussian mixtures, and
labels are either the community id (single-label, like Reddit/Flickr/
products) or multi-hot attribute sets (multi-label, like Yelp/proteins).

The signal-to-noise ratio knob controls achievable accuracy so the MaxK-vs-
ReLU comparison happens away from both the 100% ceiling and chance floor.
"""

from __future__ import annotations

import numpy as np

from ..sparse import ops
from .graph import Graph

__all__ = ["attach_classification_task", "attach_multilabel_task", "random_splits"]


def random_splits(
    n_nodes: int,
    train_fraction: float = 0.6,
    val_fraction: float = 0.2,
    seed: int = 0,
):
    """Standard random train/val/test node masks."""
    if train_fraction + val_fraction >= 1.0:
        raise ValueError("train + val fractions must leave room for test")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n_nodes)
    n_train = int(n_nodes * train_fraction)
    n_val = int(n_nodes * val_fraction)
    train_mask = np.zeros(n_nodes, dtype=bool)
    val_mask = np.zeros(n_nodes, dtype=bool)
    test_mask = np.zeros(n_nodes, dtype=bool)
    train_mask[order[:n_train]] = True
    val_mask[order[n_train : n_train + n_val]] = True
    test_mask[order[n_train + n_val :]] = True
    return train_mask, val_mask, test_mask


def attach_classification_task(
    graph: Graph,
    n_features: int,
    n_classes: int = None,
    signal: float = 1.0,
    seed: int = 0,
) -> Graph:
    """Attach Gaussian-mixture features and community labels in place.

    Every community ``c`` gets a random mean vector ``mu_c``; node features
    are ``signal * mu_c + noise``. Higher ``signal`` → easier task.
    """
    if graph.communities is None:
        raise ValueError("graph has no planted communities; use sbm_graph")
    rng = np.random.default_rng(seed)
    communities = graph.communities
    if n_classes is None:
        n_classes = int(communities.max()) + 1
    centers = rng.normal(size=(int(communities.max()) + 1, n_features))
    noise = rng.normal(size=(graph.n_nodes, n_features))
    features = signal * centers[communities] + noise
    graph.features = np.asarray(features, dtype=ops.FLOAT_DTYPE)
    graph.labels = communities % n_classes
    graph.multilabel = False
    graph.train_mask, graph.val_mask, graph.test_mask = random_splits(
        graph.n_nodes, seed=seed
    )
    return graph


def attach_multilabel_task(
    graph: Graph,
    n_features: int,
    n_labels: int,
    signal: float = 1.0,
    seed: int = 0,
) -> Graph:
    """Attach a multi-label task (Yelp / ogbn-proteins style) in place.

    Each label is a random hyperplane over a community-dependent latent
    vector, producing correlated multi-hot targets.
    """
    if graph.communities is None:
        raise ValueError("graph has no planted communities; use sbm_graph")
    rng = np.random.default_rng(seed)
    communities = graph.communities
    centers = rng.normal(size=(int(communities.max()) + 1, n_features))
    latent = signal * centers[communities] + rng.normal(
        size=(graph.n_nodes, n_features)
    )
    hyperplanes = rng.normal(size=(n_features, n_labels))
    logits = latent @ hyperplanes / np.sqrt(n_features)
    graph.features = np.asarray(latent, dtype=ops.FLOAT_DTYPE)
    graph.labels = (logits > 0).astype(ops.FLOAT_DTYPE)
    graph.multilabel = True
    graph.train_mask, graph.val_mask, graph.test_mask = random_splits(
        graph.n_nodes, seed=seed
    )
    return graph
