"""Amdahl's-law utilities used throughout the system evaluation (Fig. 9).

The paper contextualises every training speedup against the limit
``S = 1 / (1 - p_SpMM)`` where ``p_SpMM`` is the fraction of the epoch spent
in the SpMM operator — the only part MaxK-GNN accelerates.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["speedup_limit", "AmdahlBreakdown"]


def speedup_limit(accelerated_fraction: float) -> float:
    """Theoretical speedup limit when the accelerated part becomes free.

    ``S = 1 / (1 - p)``; returns ``inf`` when p == 1.
    """
    if not 0.0 <= accelerated_fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    remaining = 1.0 - accelerated_fraction
    return float("inf") if remaining == 0.0 else 1.0 / remaining


@dataclass(frozen=True)
class AmdahlBreakdown:
    """An epoch split into the accelerable (SpMM) and fixed parts.

    All times are in the same (arbitrary) unit; ratios are what matter.
    """

    spmm_time: float
    other_time: float

    def __post_init__(self):
        if self.spmm_time < 0 or self.other_time < 0:
            raise ValueError("times must be non-negative")
        if self.spmm_time + self.other_time == 0:
            raise ValueError("total time must be positive")

    @property
    def total_time(self) -> float:
        return self.spmm_time + self.other_time

    @property
    def p_spmm(self) -> float:
        """Fraction of the epoch spent in SpMM."""
        return self.spmm_time / self.total_time

    @property
    def limit(self) -> float:
        """Amdahl speedup limit 1 / (1 - p_SpMM)."""
        return speedup_limit(self.p_spmm)

