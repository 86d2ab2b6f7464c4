"""The MaxK nonlinearity (paper §3.1) and its pivot-based selection kernel.

Forward: for each node-embedding row keep the ``k`` largest entries, zero the
rest. Backward: the feature gradient reuses the forward sparsity pattern —
only the surviving positions receive gradient.

Two selection algorithms are provided:

* :func:`maxk_mask` / :func:`maxk_forward` — exact top-k selection through
  the sparse-ops backend (a stable per-row sort on the reference backend;
  ``np.partition`` threshold with lowest-column tie fill on the
  vectorized one; there, for float32 and ``k <= 8`` on an AVX2 CPU, the
  compiled select of ``sparse/_cbsr.c``, which keeps each row's running
  top 8 in one vector register and fills ties the same way). Training runs the same ``ops.topk_mask`` once per layer
  (:mod:`repro.tensor.functional`): the mask gates the dense activation,
  and on the CBSR path its set positions are the pattern, packed by
  ``ops.cbsr_pack`` — nothing re-selects the sparsified rows by
  magnitude.
* :func:`pivot_select_row` / :func:`pivot_select` — the paper's GPU kernel
  algorithm (§5.3): bisect a pivot between the row min and max until exactly
  ``k`` elements exceed it, falling back to rank selection among ties. The
  iteration count it returns feeds the MaxK-kernel cost model (Table 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..sparse import ops

__all__ = [
    "maxk_forward",
    "maxk_mask",
    "pivot_select_row",
    "pivot_select",
    "PivotSelectResult",
]


def maxk_mask(x: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of the k largest entries per row (ties → lower column).

    Selection is by *value* (not magnitude), matching max-k of the paper: the
    "maximum k significant values" of the feature map. With k equal to the
    row width this is the identity mask. Shape and ``k`` are validated (and
    ``x`` cast) by the dispatch seam.
    """
    return ops.topk_mask(x, k)


def maxk_forward(x: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Apply MaxK: returns ``(sparsified, mask)``.

    ``sparsified`` equals ``x`` where ``mask`` is set and 0 elsewhere; the
    mask is cached for the backward pass.
    """
    mask = maxk_mask(x, k)
    return np.where(mask, x, 0.0), mask


@dataclass(frozen=True)
class PivotSelectResult:
    """Outcome of the pivot-bisection kernel on one row."""

    threshold: float
    mask: np.ndarray
    iterations: int


def pivot_select_row(
    row: np.ndarray, k: int, max_iterations: int = 10
) -> PivotSelectResult:
    """The paper's shared-memory pivot bisection for one embedding row.

    Start with ``pivot = (min + max) / 2``; count elements strictly greater
    than the pivot; move the bracket toward the side containing the k-th
    value; stop when the count equals ``k`` or ``max_iterations`` is reached
    (the paper observes convergence within 10 iterations on
    normally-distributed feature maps). On non-convergence — which happens
    with ties or adversarial values — the remaining slots are filled by exact
    rank selection among the elements tied at the bracket, so the result is
    always exactly k elements.
    """
    row = np.asarray(row)
    if row.ndim != 1:
        raise ValueError("pivot_select_row expects a single row")
    dim = len(row)
    if not 1 <= k <= dim:
        raise ValueError(f"k must be in [1, {dim}], got {k}")

    lo, hi = float(row.min()), float(row.max())
    iterations = 0
    pivot = (lo + hi) / 2.0
    count = int((row > pivot).sum())
    while count != k and iterations < max_iterations and hi - lo > 0:
        if count > k:
            lo = pivot  # too many survivors: raise the bar
        else:
            hi = pivot  # too few survivors: lower the bar
        pivot = (lo + hi) / 2.0
        count = int((row > pivot).sum())
        iterations += 1

    mask = row > pivot
    deficit = k - int(mask.sum())
    if deficit > 0:
        # Fill from the largest not-yet-selected values (ties at the pivot).
        remaining = np.where(~mask)[0]
        order = remaining[np.argsort(-row[remaining], kind="stable")]
        mask[order[:deficit]] = True
    elif deficit < 0:
        # Too many strictly-greater values can only happen when max_iterations
        # was hit; trim the smallest survivors.
        selected = np.where(mask)[0]
        order = selected[np.argsort(row[selected], kind="stable")]
        mask[order[:-deficit]] = False
    return PivotSelectResult(threshold=pivot, mask=mask, iterations=iterations)


def pivot_select(
    x: np.ndarray, k: int, max_iterations: int = 10
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the pivot kernel on every row.

    Returns ``(sparsified, mask, iterations)`` where ``iterations[i]`` is the
    bisection count for row ``i`` — consumed by the Table-4 cost model.
    """
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValueError("pivot_select expects a 2-D feature map")
    masks = np.zeros_like(x, dtype=bool)
    iterations = np.zeros(x.shape[0], dtype=np.int64)
    for i in range(x.shape[0]):
        result = pivot_select_row(x[i], k, max_iterations)
        masks[i] = result.mask
        iterations[i] = result.iterations
    return np.where(masks, x, 0.0), masks, iterations
