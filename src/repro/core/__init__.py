"""Core contributions of the paper: MaxK nonlinearity, CBSR format, Amdahl."""

from .amdahl import AmdahlBreakdown, speedup_limit
from .cbsr import CBSRMatrix, index_dtype_for
from .sparsity import (
    SparsityStats,
    dropout_sparsify,
    fatrelu_sparsify,
    regularity_report,
    relu_sparsify,
    row_nnz_profile,
)
from .maxk import (
    PivotSelectResult,
    maxk_forward,
    maxk_mask,
    pivot_select,
    pivot_select_row,
)

__all__ = [
    "CBSRMatrix",
    "index_dtype_for",
    "maxk_forward",
    "maxk_mask",
    "pivot_select",
    "pivot_select_row",
    "PivotSelectResult",
    "AmdahlBreakdown",
    "speedup_limit",
    "SparsityStats",
    "dropout_sparsify",
    "relu_sparsify",
    "fatrelu_sparsify",
    "row_nnz_profile",
    "regularity_report",
]
