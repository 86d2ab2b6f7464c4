"""Parameter initialisers."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = ["xavier_uniform", "zeros"]


def xavier_uniform(fan_in: int, fan_out: int, rng: np.random.Generator) -> Tensor:
    """Glorot/Xavier uniform weight matrix of shape (fan_in, fan_out)."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-bound, bound, size=(fan_in, fan_out)),
                  requires_grad=True)


def zeros(*shape: int) -> Tensor:
    """Zero-initialised trainable tensor (biases)."""
    return Tensor(np.zeros(shape), requires_grad=True)
