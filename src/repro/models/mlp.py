"""MLPs with MaxK / ReLU nonlinearity for the universal-approximator study.

Fig. 4 of the paper trains a one-hidden-layer MLP on ``y = x^2`` with the
top ``ceil(hidden / 4)`` MaxK selection and compares the approximation error
against ReLU as the hidden width grows, empirically supporting Theorem 3.2
(MaxK networks are universal approximators).
"""

from __future__ import annotations

import numpy as np

from ..tensor import Adam, Tensor, maxk, maxout, relu
from .modules import Linear, Module

__all__ = ["ApproximatorMLP", "fit_function", "approximation_error"]


class ApproximatorMLP(Module):
    """``x → Linear(s, r) → f → Linear(r', t)`` (paper Fig. 4a).

    ``f`` is ReLU, MaxK (paper default k = ceil(hidden/4)) or maxout —
    the construction the paper's universal-approximation proof builds on
    (Goodfellow et al. [51]). Maxout shrinks the hidden width by its group
    size, so the output layer adapts accordingly.
    """

    MAXOUT_GROUP = 4

    def __init__(
        self,
        in_features: int,
        hidden: int,
        out_features: int,
        nonlinearity: str = "relu",
        k: int = None,
        seed: int = 0,
    ):
        super().__init__()
        if nonlinearity not in ("relu", "maxk", "maxout"):
            raise ValueError("nonlinearity must be 'relu', 'maxk' or 'maxout'")
        if nonlinearity == "maxk":
            if k is None:
                k = max(1, -(-hidden // 4))  # paper: top ceil(hid/4)
            if not 1 <= k <= hidden:
                raise ValueError("k out of range")
        if nonlinearity == "maxout" and hidden % self.MAXOUT_GROUP != 0:
            raise ValueError(
                f"hidden must be divisible by {self.MAXOUT_GROUP} for maxout"
            )
        rng = np.random.default_rng(seed)
        post_width = (
            hidden // self.MAXOUT_GROUP if nonlinearity == "maxout" else hidden
        )
        self.hidden_layer = Linear(in_features, hidden, rng)
        self.output_layer = Linear(post_width, out_features, rng)
        self.nonlinearity = nonlinearity
        self.k = k

    def forward(self, x: Tensor) -> Tensor:
        h = self.hidden_layer(x)
        if self.nonlinearity == "relu":
            h = relu(h)
        elif self.nonlinearity == "maxk":
            h = maxk(h, self.k)
        else:
            h = maxout(h, self.MAXOUT_GROUP)
        return self.output_layer(h)


def fit_function(
    model: ApproximatorMLP,
    inputs: np.ndarray,
    targets: np.ndarray,
    epochs: int = 400,
    lr: float = 0.01,
) -> float:
    """Train with Adam on MSE until ``epochs``; returns the final loss."""
    x = Tensor(inputs)
    y = Tensor(targets)
    optimizer = Adam(model.parameters(), lr=lr)
    final = float("inf")
    for _ in range(epochs):
        optimizer.zero_grad()
        prediction = model(x)
        residual = prediction - y
        loss = (residual * residual).mean()
        loss.backward()
        optimizer.step()
        final = loss.item()
    return final


def approximation_error(model: ApproximatorMLP, inputs, targets) -> float:
    """Mean squared approximation error on a held-out grid."""
    prediction = model(Tensor(np.asarray(inputs))).numpy()
    return float(np.mean((prediction - np.asarray(targets)) ** 2))
