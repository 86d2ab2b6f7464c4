"""Optimizers for the training system (the paper trains with Adam)."""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from .tensor import Tensor

__all__ = ["Adam"]


class Optimizer:
    """Base class holding the parameter list."""

    def __init__(self, parameters: Iterable[Tensor]):
        self.parameters: List[Tensor] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        for p in self.parameters:
            if not p.requires_grad:
                raise ValueError("all optimized tensors must require grad")

    def zero_grad(self):
        for p in self.parameters:
            p.zero_grad()

    def step(self):
        raise NotImplementedError


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias correction, updated fully in place.

    Every step runs through two preallocated scratch buffers (sized to the
    largest parameter) and the persistent moment arrays — no per-step
    ``zeros_like`` or temporary chains. The arithmetic replays the textbook
    update term by term in the same order, so trajectories are bit-identical
    to the historical out-of-place implementation. Parameters also receive a
    persistent gradient buffer (:attr:`Tensor._grad_buffer`): a step's first
    gradient is handed over without a copy, and this buffer is where a
    second one is summed (copy-on-write), so a parameter used twice does
    not allocate per step either.
    """

    def __init__(self, parameters, lr: float = 0.001, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        # Moments live in one flat arena; the per-parameter entries of
        # ``_m`` / ``_v`` are reshaped views into it, so the common every-
        # parameter-has-a-gradient step runs one fused vectorized update
        # over the whole parameter set instead of ~10 tiny ufunc calls per
        # tensor.
        self._spans = []
        offset = 0
        for p in self.parameters:
            self._spans.append((offset, offset + p.data.size))
            offset += p.data.size
        dtype = self.parameters[0].data.dtype
        self._flat_m = np.zeros(offset, dtype=dtype)
        self._flat_v = np.zeros(offset, dtype=dtype)
        self._m = [
            self._flat_m[lo:hi].reshape(p.data.shape)
            for p, (lo, hi) in zip(self.parameters, self._spans)
        ]
        self._v = [
            self._flat_v[lo:hi].reshape(p.data.shape)
            for p, (lo, hi) in zip(self.parameters, self._spans)
        ]
        self._flat_grad = np.empty(offset, dtype=dtype)
        self._flat_scratch = np.empty(offset, dtype=dtype)
        self._t = 0
        for p in self.parameters:
            if p._grad_buffer is None:
                p._grad_buffer = np.empty_like(p.data)

    def step(self):
        self._t += 1
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        if all(p.grad is not None for p in self.parameters):
            self._step_flat(bias1, bias2)
            return
        for p, m, v, (lo, hi) in zip(
            self.parameters, self._m, self._v, self._spans
        ):
            if p.grad is not None:
                self._update_one(
                    p, p.grad, m, v, bias1, bias2,
                    self._flat_grad[lo:hi].reshape(p.data.shape),
                    self._flat_scratch[lo:hi].reshape(p.data.shape),
                )

    def _step_flat(self, bias1: float, bias2: float):
        """One in-place update over the concatenated parameter set."""
        grad = self._flat_grad
        for p, (lo, hi) in zip(self.parameters, self._spans):
            grad[lo:hi] = p.grad.ravel()
        if self.weight_decay:
            scratch = self._flat_scratch
            for p, (lo, hi) in zip(self.parameters, self._spans):
                scratch[lo:hi] = p.data.ravel()
            scratch *= self.weight_decay
            grad += scratch
        self._update_one(
            None, grad, self._flat_m, self._flat_v, bias1, bias2,
            grad, self._flat_scratch,
        )
        for p, (lo, hi) in zip(self.parameters, self._spans):
            p.data -= grad[lo:hi].reshape(p.data.shape)

    def _update_one(self, p, grad, m, v, bias1, bias2, a, b):
        """The textbook update, term by term, through scratch ``a``/``b``.

        Identical arithmetic order to the historical out-of-place code, so
        trajectories stay bit-identical. When ``p`` is given, the result is
        applied to it; otherwise the caller applies ``a`` (which holds the
        final update) itself. ``a`` may alias ``grad`` once the moments are
        updated.
        """
        if p is not None and self.weight_decay:
            # a <- grad + weight_decay * p (leaves p.grad untouched)
            np.multiply(p.data, self.weight_decay, out=a)
            np.add(grad, a, out=a)
            grad = a
        # m <- beta1 * m + (1 - beta1) * grad
        np.multiply(grad, 1.0 - self.beta1, out=b)
        m *= self.beta1
        m += b
        # v <- beta2 * v + ((1 - beta2) * grad) * grad
        np.multiply(grad, 1.0 - self.beta2, out=b)
        b *= grad
        v *= self.beta2
        v += b
        # update <- (lr * (m / bias1)) / (sqrt(v / bias2) + eps)
        np.divide(v, bias2, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        np.divide(m, bias1, out=a)
        a *= self.lr
        a /= b
        if p is not None:
            p.data -= a
