"""Workspace arena: pre-planned, reusable buffers for the dense hot path.

Profiling the sampled-flow trainer (PR 2) showed the per-step dense work —
linear/bias/activation temporaries, dropout masks, gradient copies, Adam
moment chains — dominating epoch time once aggregation went through the
compiled SpMM. Most of that cost is not arithmetic but memory churn: every
step allocated, touched and discarded a fresh set of ``(n_nodes, hidden)``
arrays. This module provides the arena those kernels write into instead.

A :class:`Workspace` owns one growable flat buffer per *slot* (a string
name) and dtype. Requests return a view of the slot's storage shaped to
order; capacity only grows, so a steady-state training step performs zero
fresh large allocations — every matmul, mask, activation and gradient
lands in storage planned on the first step. The bookkeeping counters
(:attr:`Workspace.allocations` / :attr:`Workspace.requests`) make that
property testable: ``benchmarks/test_dense_hotpath.py`` asserts the
allocation count stays flat across steady-state steps.

Contract
--------
* Buffer contents are **uninitialised** (or stale from the previous step):
  every consumer must fully overwrite its view (``out=`` kernels,
  ``np.copyto``, explicit fills).
* Slot names must be unique per producer within one step (the fused ops in
  :mod:`repro.tensor.functional` derive them from the layer slot).
* Tensors whose ``.data`` lives in a workspace are valid until the next
  step overwrites the arena — copy (``.numpy().copy()``) to keep results.
* A ``.grad`` may be an array handed over from a producer's slot (the
  first gradient a tensor receives is adopted, not copied): it is valid
  until that producer's next backward. :meth:`Tensor.backward` copies such
  gradients into owned storage before its sweep runs any producer, and the
  optimizer reads them before the next step's backward.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

__all__ = ["Workspace"]


def _tune_ufunc_buffer() -> None:
    """Shrink numpy's per-call ufunc buffer for the planned hot path.

    Numpy's buffered ufunc iteration (every broadcasting binary op: bias
    rows, column thresholds, (n,1) softmax denominators) mallocs a buffer
    of ``bufsize`` elements per call — 8192 by default, i.e. a 64 KB
    allocation at eight bytes an element inside ops the workspace has
    otherwise made allocation-free. Elementwise results are chunk-size
    independent, so shrinking it changes no values, and timing is flat
    (interleaved ratio 0.999); 2048 elements (16 KB) keeps the
    steady-state step's tracemalloc churn under the 64 KB gate.

    The setting is process-global, so it is applied only when a planned
    arena is actually constructed (never at import).
    """
    if hasattr(np, "setbufsize"):
        np.setbufsize(2048)


class Workspace:
    """Named arena of reusable numpy buffers with monotone capacity."""

    __slots__ = ("_store", "allocations", "requests")

    def __init__(self):
        self._store: Dict[Tuple[str, np.dtype], np.ndarray] = {}
        #: Number of fresh backing allocations ever made (steady state: flat).
        self.allocations = 0
        #: Number of buffer requests served.
        self.requests = 0
        _tune_ufunc_buffer()

    def buffer(self, name: str, shape, dtype) -> np.ndarray:
        """A ``shape``-shaped view of slot ``name``'s ``dtype`` storage.

        The first request for a slot (or a request larger than its current
        capacity) allocates backing storage; later requests of any
        not-larger size reuse it, returning a prefix view. Contents are
        undefined — callers must overwrite. ``dtype`` follows the caller's
        operand; any spelling of one dtype names the same slot.
        """
        size = 1
        for s in shape:
            if s < 0:
                raise ValueError(f"negative dimension in {tuple(shape)}")
            size *= s
        key = (name, np.dtype(dtype))
        flat = self._store.get(key)
        if flat is None or flat.size < size:
            flat = np.empty(max(int(size), 1), dtype=dtype)
            self._store[key] = flat
            self.allocations += 1
        self.requests += 1
        return flat[:size].reshape(shape)