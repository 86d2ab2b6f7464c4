"""From-scratch autograd substrate replacing the PyTorch front-end."""

from .functional import (
    add_into,
    bce_with_logits,
    cross_entropy,
    dropout,
    fused_ce,
    linear_act,
    log_softmax,
    maxk,
    relu,
    spgemm_agg,
    spmm_agg,
    weighted_cross_entropy,
)
from .workspace import Workspace
from .init import xavier_uniform, zeros
from .optim import Adam
from .tensor import Tensor, no_grad

__all__ = [
    "Tensor",
    "no_grad",
    "relu",
    "maxk",
    "spmm_agg",
    "spgemm_agg",
    "dropout",
    "linear_act",
    "add_into",
    "Workspace",
    "log_softmax",
    "cross_entropy",
    "weighted_cross_entropy",
    "fused_ce",
    "bce_with_logits",
    "Adam",
    "xavier_uniform",
    "zeros",
]
