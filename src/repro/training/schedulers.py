"""Early stopping for the trainer."""

from __future__ import annotations

__all__ = ["EarlyStopping"]


class EarlyStopping:
    """Stop when the validation metric stalls for ``patience`` evaluations."""

    def __init__(self, patience: int = 5, min_delta: float = 0.0):
        if patience < 1:
            raise ValueError("patience must be >= 1")
        if min_delta < 0:
            raise ValueError("min_delta must be non-negative")
        self.patience = patience
        self.min_delta = min_delta
        self.best = -float("inf")
        self.stale = 0

    def update(self, metric: float) -> bool:
        """Record one validation metric; returns True when training should stop."""
        if metric > self.best + self.min_delta:
            self.best = metric
            self.stale = 0
        else:
            self.stale += 1
        return self.stale >= self.patience
