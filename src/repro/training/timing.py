"""Epoch-latency model for system-level evaluation (Fig. 9 / Table 5).

Composes the kernel cost models of :mod:`repro.gpusim` into full training
epochs:

* **baseline** — every layer's forward and backward aggregation is a dense
  row-wise SpMM (cuSPARSE for the DGL baseline, the GNNAdvisor variant for
  the second baseline);
* **MaxK-GNN** — the forward aggregation becomes the CBSR SpGEMM, the
  backward becomes the SSpMM, plus one MaxK selection kernel per layer.

Linear layers, elementwise work and a fixed host overhead are identical
across variants, forming the serial fraction of the Amdahl analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..core.amdahl import AmdahlBreakdown
from ..gpusim import (
    DeviceModel,
    SparsePattern,
    cusparse_spmm_cost,
    elementwise_cost,
    gemm_cost,
    gnnadvisor_spmm_cost,
    maxk_kernel_cost,
    spgemm_cost,
    sspmm_cost,
)

__all__ = ["ModelShape", "EpochBreakdown", "EpochCostModel"]

#: Dense linears per convolution layer (SAGE has the extra self path).
_GEMMS_PER_LAYER = {"sage": 2, "gcn": 1, "gin": 1}
#: Forward + two backward passes (dX and dW) per linear.
_GEMM_PASSES = 3
#: Elementwise passes per layer per epoch: activation fwd/bwd, dropout
#: fwd/bwd, residual add fwd/bwd.
_ELEMENTWISE_PASSES_PER_LAYER = 6


@dataclass(frozen=True)
class ModelShape:
    """Architecture facts the timing model needs."""

    model_type: str
    n_layers: int
    in_features: int
    hidden: int
    out_features: int

    def __post_init__(self):
        if self.model_type not in _GEMMS_PER_LAYER:
            raise ValueError(f"unknown model type {self.model_type!r}")
        if min(self.n_layers, self.in_features, self.hidden, self.out_features) <= 0:
            raise ValueError("shape values must be positive")


@dataclass(frozen=True)
class EpochBreakdown:
    """Per-epoch latency split (seconds) for one training variant."""

    aggregation: float  # SpMM or SpGEMM+SSpMM time
    gemm: float
    elementwise: float
    maxk: float
    overhead: float

    @property
    def total(self) -> float:
        return (
            self.aggregation + self.gemm + self.elementwise
            + self.maxk + self.overhead
        )

    def amdahl(self) -> AmdahlBreakdown:
        """The SpMM-vs-rest split the paper's limit lines use."""
        return AmdahlBreakdown(
            spmm_time=self.aggregation, other_time=self.total - self.aggregation
        )


class EpochCostModel:
    """Builds epoch breakdowns for one (graph, model) pair."""

    def __init__(
        self,
        pattern: SparsePattern,
        shape: ModelShape,
        device: DeviceModel,
    ):
        self.pattern = pattern
        self.shape = shape
        self.device = device

    # ------------------------------------------------------------------
    def _shared_costs(self) -> Dict[str, float]:
        """GEMM + elementwise + overhead (identical in every variant)."""
        shape, device, n = self.shape, self.device, self.pattern.n_rows
        gemm_time = 0.0
        for layer in range(shape.n_layers):
            in_dim = shape.in_features if layer == 0 else shape.hidden
            per_linear = gemm_cost(n, in_dim, shape.hidden, device).latency
            gemm_time += (
                _GEMMS_PER_LAYER[shape.model_type] * _GEMM_PASSES * per_linear
            )
        gemm_time += _GEMM_PASSES * gemm_cost(
            n, shape.hidden, shape.out_features, device
        ).latency

        elementwise_time = elementwise_cost(
            n * shape.hidden,
            device,
            n_passes=_ELEMENTWISE_PASSES_PER_LAYER * shape.n_layers,
        ).latency
        # Loss + optimizer work over outputs and parameters.
        elementwise_time += elementwise_cost(
            n * shape.out_features, device, n_passes=2
        ).latency
        return {
            "gemm": gemm_time,
            "elementwise": elementwise_time,
            "overhead": device.epoch_host_overhead,
        }

    def _aggregations_per_epoch(self) -> int:
        """One forward + one backward aggregation per layer per epoch."""
        return 2 * self.shape.n_layers

    # ------------------------------------------------------------------
    def baseline_epoch(self, baseline: str = "cusparse") -> EpochBreakdown:
        """ReLU-model epoch with dense SpMM aggregations."""
        if baseline == "cusparse":
            spmm = cusparse_spmm_cost(self.pattern, self.shape.hidden, self.device)
        elif baseline == "gnnadvisor":
            spmm = gnnadvisor_spmm_cost(self.pattern, self.shape.hidden, self.device)
        else:
            raise ValueError("baseline must be 'cusparse' or 'gnnadvisor'")
        shared = self._shared_costs()
        return EpochBreakdown(
            aggregation=self._aggregations_per_epoch() * spmm.latency,
            maxk=0.0,
            **shared,
        )

    def maxk_epoch(self, k: int) -> EpochBreakdown:
        """MaxK-GNN epoch: SpGEMM forward + SSpMM backward + MaxK kernel."""
        forward = spgemm_cost(self.pattern, self.shape.hidden, k, self.device)
        backward = sspmm_cost(self.pattern, self.shape.hidden, k, self.device)
        selection = maxk_kernel_cost(
            self.pattern.n_rows, self.shape.hidden, k, self.device
        )
        shared = self._shared_costs()
        return EpochBreakdown(
            aggregation=self.shape.n_layers * (forward.latency + backward.latency),
            maxk=self.shape.n_layers * selection.latency,
            **shared,
        )

    # ------------------------------------------------------------------
    def speedup(self, k: int, baseline: str = "cusparse") -> float:
        """Epoch speedup of MaxK-GNN at ``k`` over a ReLU baseline."""
        return self.baseline_epoch(baseline).total / self.maxk_epoch(k).total

    def amdahl_limit(self, baseline: str = "cusparse") -> float:
        """The Fig.-9 limit line: 1 / (1 - p_SpMM) of the baseline epoch."""
        return self.baseline_epoch(baseline).amdahl().limit
