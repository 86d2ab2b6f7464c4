"""Deep MLP classifier with MaxK — the paper's §6 extension direction.

The conclusion proposes expanding MaxK "to more DNN architectures such as
CNNs and Transformers, to provide regularly sparsified feature map for
acceleration". This module is the simplest such extension: a deep MLP
classifier whose hidden activations are MaxK-sparsified.

The analogue of the GNN result carries over: a ``(batch × hidden)`` MaxK
feature map in CBSR form cuts the second linear layer's input fetch from
``4 * hidden`` to ``5 * k`` bytes per row. That cut is priced beside the
other §4.3 traffic formulas in the A100 cost model; this module trains.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..tensor import Adam, Tensor, cross_entropy, maxk, no_grad, relu
from .modules import Linear, Module

__all__ = ["MaxKMLPClassifier", "train_mlp_classifier"]


class MaxKMLPClassifier(Module):
    """``in → [Linear → f]^L → Linear → logits`` with f ∈ {relu, maxk}."""

    def __init__(
        self,
        in_features: int,
        hidden: int,
        n_classes: int,
        n_layers: int = 2,
        nonlinearity: str = "relu",
        k: int = None,
        seed: int = 0,
    ):
        super().__init__()
        if n_layers < 1:
            raise ValueError("need at least one hidden layer")
        if nonlinearity not in ("relu", "maxk"):
            raise ValueError("nonlinearity must be 'relu' or 'maxk'")
        if nonlinearity == "maxk":
            if k is None or not 1 <= k <= hidden:
                raise ValueError("MaxK MLPs need k in [1, hidden]")
        rng = np.random.default_rng(seed)
        self.hidden_layers: List[Linear] = []
        for layer in range(n_layers):
            linear = Linear(in_features if layer == 0 else hidden, hidden, rng)
            self.hidden_layers.append(linear)
            setattr(self, f"hidden{layer}", linear)
        self.head = Linear(hidden, n_classes, rng)
        self.nonlinearity = nonlinearity
        self.k = k

    def forward(self, x) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(x)
        for linear in self.hidden_layers:
            pre = linear(x)
            x = relu(pre) if self.nonlinearity == "relu" else maxk(pre, self.k)
        return self.head(x)


def train_mlp_classifier(
    model: MaxKMLPClassifier,
    inputs: np.ndarray,
    labels: np.ndarray,
    epochs: int = 100,
    lr: float = 0.01,
) -> float:
    """Train with Adam on cross-entropy; returns final training accuracy."""
    x = Tensor(inputs)
    labels = np.asarray(labels, dtype=np.int64)
    optimizer = Adam(model.parameters(), lr=lr)
    for _ in range(epochs):
        optimizer.zero_grad()
        loss = cross_entropy(model(x), labels)
        loss.backward()
        optimizer.step()
    with no_grad():
        predictions = model(x).numpy().argmax(axis=1)
    return float((predictions == labels).mean())

