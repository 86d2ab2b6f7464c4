"""A compact reverse-mode autograd engine on numpy.

This replaces the PyTorch front-end of the paper's system. It implements
exactly the operator set full-batch GNN training needs: dense matmul, bias
broadcast, elementwise arithmetic, ReLU, the MaxK nonlinearity, sparse
feature aggregation (the SpMM / SpGEMM+SSpMM pair of Fig. 5), dropout,
log-softmax and the losses.

Design: every :class:`Tensor` records its parents and a backward closure;
:meth:`Tensor.backward` runs a topological sweep accumulating ``.grad``.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from ..sparse import ops

__all__ = ["Tensor", "no_grad"]

_GRAD_ENABLED = True


class no_grad:
    """Context manager disabling graph construction (evaluation mode)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._previous = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, exc_type, exc, tb):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._previous
        return False


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` back down to ``shape`` (reverse of numpy broadcasting)."""
    extra = grad.ndim - len(shape)
    for _ in range(extra):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """An n-d array node in the autograd graph."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents",
                 "_grad_buffer", "name")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
        name: str = "",
    ):
        self.data = np.asarray(data, dtype=ops.FLOAT_DTYPE)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad and _GRAD_ENABLED
        self._parents = _parents if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None
        #: Optional preallocated storage this tensor owns (set by optimizers
        #: for parameters and by the workspace-planned fused ops for
        #: intermediates). A first gradient is handed over, not copied; this
        #: is where a second one is summed (copy-on-write), so a steady-state
        #: backward accumulates into reused memory instead of allocating.
        #: ``grad is _grad_buffer`` is what "owned" means (see _accumulate).
        self._grad_buffer: Optional[np.ndarray] = None
        self.name = name

    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return self.data.item()

    def numpy(self) -> np.ndarray:
        return self.data

    def zero_grad(self):
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _make(data, parents, backward) -> "Tensor":
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        return Tensor(data, requires_grad=requires, _parents=parents,
                      _backward=backward if requires else None)

    def _accumulate(self, grad: np.ndarray):
        """Add ``grad`` to ``.grad`` without copying what can be handed over.

        The first gradient is adopted as it is when it has this tensor's
        shape and dtype and is C-contiguous; anything else (a broadcast
        view, another width) is copied as :meth:`_own` does. An adopted
        array may be shared (``__add__`` / ``add_into`` hand one array to
        both parents, ``backward(seed)`` the caller's) and is never written:
        the second gradient is summed into this tensor's own buffer, or a
        fresh array (copy-on-write), and later ones ``+=`` there. The sum
        takes its operands in ``+=``'s order, so its bytes are the same.
        """
        grad = _unbroadcast(np.asarray(grad), self.data.shape)
        if self.grad is None:
            if (grad.shape == self.data.shape and grad.dtype == self.data.dtype
                    and grad.flags.c_contiguous):
                self.grad = grad
            else:
                self._own(grad)
        elif self.grad is self._grad_buffer:
            self.grad += grad
        else:
            self.grad = np.add(self.grad, grad, out=self._fitting_buffer())

    def _fitting_buffer(self) -> Optional[np.ndarray]:
        buffer = self._grad_buffer
        if buffer is not None and buffer.shape == self.data.shape:
            return buffer
        return None

    def _own(self, grad: np.ndarray):
        """Make ``.grad`` a private copy of ``grad``: in this tensor's own
        buffer when it fits, a fresh array otherwise."""
        buffer = self._fitting_buffer()
        if buffer is None:
            self.grad = grad.copy()
        else:
            np.copyto(buffer, grad)
            self.grad = buffer

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def _coerce(self, other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad)
            if other.requires_grad:
                other._accumulate(grad)

        return Tensor._make(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad):
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * other.data)
            if other.requires_grad:
                other._accumulate(grad * self.data)

        return Tensor._make(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __matmul__(self, other) -> "Tensor":
        other = self._coerce(other)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad @ other.data.T)
            if other.requires_grad:
                other._accumulate(self.data.T @ grad)

        return Tensor._make(self.data @ other.data, (self, other), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(self.data ** exponent, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions and shaping
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def backward(grad):
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return Tensor._make(
            self.data.sum(axis=axis, keepdims=keepdims), (self,), backward
        )

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def __getitem__(self, key) -> "Tensor":
        def backward(grad):
            if not self.requires_grad:
                return
            if (
                isinstance(key, np.ndarray)
                and key.ndim == 1
                and np.issubdtype(key.dtype, np.integer)
                and self.data.shape[0] > 0
            ):
                # Row gather: scatter-add through the sparse-ops backend
                # (same bytes on every backend). The forward gather
                # already bounds-checked, so negative indices just need
                # the usual wrap-around before becoming segment ids.
                n = self.data.shape[0]
                ids = np.where(key < 0, key + n, key)
                full = ops.segment_sum(np.asarray(grad), ids, n)
            else:
                full = np.zeros_like(self.data)
                np.add.at(full, key, grad)
            self._accumulate(full)

        return Tensor._make(self.data[key], (self,), backward)

    # ------------------------------------------------------------------
    # Backward driver
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None):
        """Reverse-mode sweep from this tensor.

        ``grad`` defaults to 1 for scalars (loss values).
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a non-differentiable tensor")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be supplied for non-scalar outputs")
            grad = np.ones_like(self.data)

        topo: List[Tensor] = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        # A gradient left by an earlier sweep may be an array handed over
        # from a workspace slot, which this sweep's producer rewrites: own
        # it before any producer runs.
        for node in topo:
            if node.grad is not None and node.grad is not node._grad_buffer:
                node._own(node.grad)
        self._accumulate(np.asarray(grad, dtype=self.data.dtype))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
