"""Fig. 4 — MaxK vs ReLU MLPs approximating ``y = x^2``.

The paper trains one-hidden-layer MLPs with MaxK (keeping the top
``ceil(hidden/4)`` units) and ReLU on ``y = x^2`` and shows both families'
approximation error falls as the hidden width grows — the empirical face of
Theorem 3.2 (MaxK networks are universal approximators).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..models import ApproximatorMLP, approximation_error, fit_function
from .common import format_table

__all__ = ["ApproximationResult", "run", "report"]

DEFAULT_HIDDEN_SIZES = [4, 8, 16, 32, 64]


@dataclass(frozen=True)
class ApproximationResult:
    """Held-out MSE per hidden width for both nonlinearities."""

    hidden_sizes: List[int]
    maxk_errors: List[float]
    relu_errors: List[float]


def _target(x: np.ndarray) -> np.ndarray:
    return x ** 2


def run(
    hidden_sizes: List[int] = None,
    n_train: int = 128,
    epochs: int = 500,
    seed: int = 0,
) -> ApproximationResult:
    """Train both families across hidden widths; report held-out MSE."""
    if hidden_sizes is None:
        hidden_sizes = DEFAULT_HIDDEN_SIZES
    rng = np.random.default_rng(seed)
    train_x = rng.uniform(-1.0, 1.0, size=(n_train, 1))
    test_x = np.linspace(-1.0, 1.0, 256)[:, None]

    errors: Dict[str, List[float]] = {"maxk": [], "relu": []}
    for hidden in hidden_sizes:
        for nonlinearity in ("maxk", "relu"):
            model = ApproximatorMLP(
                1, hidden, 1, nonlinearity=nonlinearity, seed=seed
            )
            fit_function(model, train_x, _target(train_x), epochs=epochs)
            errors[nonlinearity].append(
                approximation_error(model, test_x, _target(test_x))
            )
    return ApproximationResult(
        hidden_sizes=list(hidden_sizes),
        maxk_errors=errors["maxk"],
        relu_errors=errors["relu"],
    )


def report(result: ApproximationResult = None) -> str:
    if result is None:
        result = run()
    rows = list(zip(result.hidden_sizes, result.maxk_errors, result.relu_errors))
    table = format_table(["hidden_units", "maxk_mse", "relu_mse"], rows, precision=6)
    return (
        f"{table}\n"
        "Paper Fig. 4: both error curves decrease with hidden width and "
        "MaxK matches ReLU's approximation quality."
    )
