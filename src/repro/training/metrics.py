"""Evaluation metrics implemented from scratch.

The paper reports accuracy (Reddit, Flickr, ogbn-products), micro-F1 (Yelp)
and ROC-AUC (ogbn-proteins); all three are provided here.
"""

from __future__ import annotations

import numpy as np

__all__ = ["accuracy", "micro_f1", "roc_auc"]


def accuracy(logits: np.ndarray, labels: np.ndarray, mask: np.ndarray = None) -> float:
    """Top-1 accuracy over (optionally masked) nodes."""
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if mask is not None:
        logits, labels = logits[mask], labels[mask]
    if len(labels) == 0:
        raise ValueError("no nodes selected for evaluation")
    return float((logits.argmax(axis=1) == labels).mean())


def micro_f1(
    logits: np.ndarray,
    targets: np.ndarray,
    mask: np.ndarray = None,
    threshold: float = 0.0,
) -> float:
    """Micro-averaged F1 for multi-label prediction (logit threshold at 0)."""
    logits = np.asarray(logits)
    targets = np.asarray(targets).astype(bool)
    if mask is not None:
        logits, targets = logits[mask], targets[mask]
    predictions = logits > threshold
    true_positive = np.logical_and(predictions, targets).sum()
    false_positive = np.logical_and(predictions, ~targets).sum()
    false_negative = np.logical_and(~predictions, targets).sum()
    denominator = 2 * true_positive + false_positive + false_negative
    if denominator == 0:
        return 0.0
    return float(2 * true_positive / denominator)


def _binary_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """AUC of one binary task via the rank-statistic (Mann-Whitney) form."""
    positives = labels > 0.5
    n_pos = int(positives.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    order = np.argsort(scores, kind="stable")
    # Average ranks across ties so AUC is exact with duplicate scores.
    sorted_scores = scores[order]
    unique, inverse, counts = np.unique(
        sorted_scores, return_inverse=True, return_counts=True
    )
    cumulative = np.cumsum(counts)
    average_rank = cumulative - (counts - 1) / 2.0
    rank_sum = average_rank[inverse][positives[order]].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def roc_auc(logits: np.ndarray, targets: np.ndarray, mask: np.ndarray = None) -> float:
    """Mean per-label ROC-AUC (ogbn-proteins protocol), ignoring degenerate labels."""
    logits = np.asarray(logits)
    targets = np.asarray(targets)
    if mask is not None:
        logits, targets = logits[mask], targets[mask]
    if logits.ndim == 1:
        logits = logits[:, None]
        targets = targets[:, None]
    aucs = [
        _binary_auc(logits[:, label], targets[:, label])
        for label in range(logits.shape[1])
    ]
    aucs = [a for a in aucs if not np.isnan(a)]
    if not aucs:
        raise ValueError("no label with both classes present")
    return float(np.mean(aucs))
