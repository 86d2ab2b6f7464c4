"""Sparsity-regularity analysis: why MaxK and not dropout/FATReLU (§2.3).

The paper's motivating argument: dropout, ReLU and threshold-tuned ReLU
(FATReLU) all sparsify feature maps, but the *per-row nonzero count varies*,
which defeats balanced kernel design; MaxK produces exactly ``k`` nonzeros
per row ("regularized sparsity"), enabling CBSR and the balanced kernels.

This module makes that argument quantitative:

* the three irregular sparsifiers (:func:`dropout_sparsify`,
  :func:`relu_sparsify`, :func:`fatrelu_sparsify`) next to MaxK;
* :func:`row_nnz_profile` — the per-row nonzero distribution;
* :func:`regularity_report` — irregularity (row-nnz CV) and the padding
  overhead a balanced k-wide format would waste on each pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from .maxk import maxk_forward

__all__ = [
    "dropout_sparsify",
    "relu_sparsify",
    "fatrelu_sparsify",
    "row_nnz_profile",
    "SparsityStats",
    "regularity_report",
]


def dropout_sparsify(x: np.ndarray, p: float, seed: int = 0) -> np.ndarray:
    """Dropout-style sparsity: zero each entry independently with prob p."""
    if not 0.0 <= p < 1.0:
        raise ValueError("p must be in [0, 1)")
    rng = np.random.default_rng(seed)
    keep = rng.random(np.shape(x)) >= p
    return np.where(keep, x, 0.0)


def relu_sparsify(x: np.ndarray) -> np.ndarray:
    """Plain ReLU sparsity: ~50% on zero-centred activations, irregular."""
    return np.maximum(x, 0.0)


def fatrelu_sparsify(x: np.ndarray, threshold: float) -> np.ndarray:
    """FATReLU: ReLU with a raised threshold for more (irregular) sparsity."""
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    x = np.asarray(x)
    return np.where(x > threshold, x, 0.0)


def row_nnz_profile(x: np.ndarray) -> np.ndarray:
    """Nonzeros per row — the quantity whose variance breaks balance."""
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValueError("expected a 2-D feature map")
    return (x != 0).sum(axis=1)


@dataclass(frozen=True)
class SparsityStats:
    """Regularity metrics of one sparsified feature map."""

    name: str
    density: float
    row_nnz_mean: float
    row_nnz_std: float
    #: Coefficient of variation of per-row nnz: 0 for MaxK, > 0 otherwise.
    irregularity: float
    #: Fraction of a balanced max-width format wasted on padding.
    padding_overhead: float


def _stats_for(name: str, x: np.ndarray) -> SparsityStats:
    profile = row_nnz_profile(x)
    mean = float(profile.mean()) if profile.size else 0.0
    std = float(profile.std()) if profile.size else 0.0
    max_nnz = int(profile.max()) if profile.size else 0
    total_slots = max_nnz * len(profile)
    padding = 1.0 - profile.sum() / total_slots if total_slots else 0.0
    return SparsityStats(
        name=name,
        density=float((x != 0).mean()),
        row_nnz_mean=mean,
        row_nnz_std=std,
        irregularity=std / mean if mean else 0.0,
        padding_overhead=float(padding),
    )


def regularity_report(
    x: np.ndarray, k: int, seed: int = 0
) -> Dict[str, SparsityStats]:
    """Compare MaxK against dropout / ReLU / FATReLU at matched density.

    Dropout probability and the FATReLU threshold are chosen so every
    method lands near density ``k / dim``, isolating the *regularity*
    difference the paper's argument rests on.
    """
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValueError("expected a 2-D feature map")
    dim = x.shape[1]
    if not 1 <= k <= dim:
        raise ValueError("k out of range")
    density = k / dim

    maxk_map, _ = maxk_forward(x, k)
    dropout_map = dropout_sparsify(x, p=1.0 - density, seed=seed)
    # Threshold at the (1 - density) quantile of the whole map.
    threshold = float(np.quantile(x, 1.0 - density))
    fatrelu_map = fatrelu_sparsify(x, max(threshold, 0.0))
    relu_map = relu_sparsify(x)

    return {
        "maxk": _stats_for("maxk", maxk_map),
        "dropout": _stats_for("dropout", dropout_map),
        "fatrelu": _stats_for("fatrelu", fatrelu_map),
        "relu": _stats_for("relu", relu_map),
    }
