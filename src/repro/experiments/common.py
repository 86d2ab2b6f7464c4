"""Shared helpers for the per-table / per-figure experiment modules."""

from __future__ import annotations

import os
from typing import Iterable, List, Sequence

from ..gpusim import A100, DeviceModel, SparsePattern
from ..graphs import TABLE1_GRAPHS, TRAINING_CONFIGS, TrainingConfig
from .timing import EpochCostModel, ModelShape

__all__ = [
    "K_VALUES",
    "pattern_for",
    "epoch_model_for",
    "scaled_k",
    "format_table",
    "perf_smoke_enabled",
]


def perf_smoke_enabled() -> bool:
    """True when ``REPRO_PERF_SMOKE`` requests assert-only smoke benchmarks.

    Tolerant of the usual truthy spellings (``1``/``true``/``yes``/``on``,
    any case); anything else — including unset or empty — means full
    protocol. Shared by the perf benchmarks and their conftest so the CI
    gate and the committed artifacts agree on what "smoke" means.
    """
    value = os.environ.get("REPRO_PERF_SMOKE", "").strip().lower()
    return value in ("1", "true", "yes", "on")

#: The k sweep of the paper's evaluation (§5.1): dim_origin 256.
K_VALUES = [2, 4, 8, 16, 32, 64, 96, 128, 192]


def pattern_for(dataset: str) -> SparsePattern:
    """Sparse pattern at the *published* graph size (for analytic models)."""
    return SparsePattern.from_spec(TABLE1_GRAPHS[dataset])


def epoch_model_for(
    dataset: str, model_type: str, device: DeviceModel = A100
) -> EpochCostModel:
    """Epoch cost model at the paper's full-size configuration (Table 3)."""
    cfg: TrainingConfig = TRAINING_CONFIGS[dataset]
    shape = ModelShape(
        model_type=model_type,
        n_layers=cfg.paper_layers,
        in_features=cfg.paper_in_features,
        hidden=cfg.paper_hidden,
        out_features=cfg.paper_out_features,
    )
    return EpochCostModel(pattern_for(dataset), shape, device)


def scaled_k(paper_k: int, cfg: TrainingConfig) -> int:
    """Map a paper k (at paper_hidden) onto the scaled hidden width."""
    k = max(1, round(paper_k * cfg.hidden / cfg.paper_hidden))
    return min(k, cfg.hidden)


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence], precision: int = 3
) -> str:
    """Plain-text table used by every experiment's report function."""
    def fmt(value):
        if isinstance(value, float):
            return f"{value:.{precision}f}"
        return str(value)

    string_rows: List[List[str]] = [[fmt(v) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in string_rows)) if string_rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    def line(cells):
        return " | ".join(cell.ljust(width) for cell, width in zip(cells, widths))

    divider = "-+-".join("-" * width for width in widths)
    body = "\n".join(line(r) for r in string_rows)
    return "\n".join([line(headers), divider, body]) if string_rows else line(headers)
