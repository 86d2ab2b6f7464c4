"""Workspace arena: one backing array, served at first-fit offsets over the
lifetimes the training tape declares.

Profiling the sampled-flow trainer (PR 2) showed the per-step dense work —
linear/bias/activation temporaries, dropout masks, gradient copies, Adam
moment chains — dominating epoch time once aggregation went through the
compiled SpMM. Most of that cost is not arithmetic but memory churn: every
step allocated, touched and discarded a fresh set of ``(n_nodes, hidden)``
arrays. This module provides the arena those kernels write into instead.

A :class:`Workspace` serves every large array of a training step as a view
into one backing array. A view lives from its request until it is let go,
and how it is let go is what its request means:

* *scratch* — a select's partition scratch, dropout's uniform draw, the
  CBSR value block — is released by the op that requested it before that
  op returns;
* *saved* state — a dropout keep mask, a layer input that a weight
  gradient reads, the CBSR column block — lives until :meth:`reset`, which
  the model calls at the start of every training forward. A node output
  that no backward reads is released by the model once its last forward
  consumer has run;
* a *gradient* is held by the op that produced it and by every tensor that
  adopts it (:meth:`Tensor._accumulate <repro.tensor.Tensor._accumulate>`
  hands a first gradient over instead of copying it). It is free once each
  holder has let go: the producer after handing it over, an adopting node
  once its own backward has run, a leaf at the next reset.

A request lands at the lowest offset where it overlaps no live view (first
fit). The tape is fixed per model — layers forward in order, then backward
in reverse — so every step over one batch shape makes the same requests
and releases in the same order and lands every view where the step before
put it: the first step plans the layout, and the backing array is as large
as the most bytes the tape holds at once, not the sum of its slots.

Capacity only grows. A request past the end gets a new chunk that covers
the missing span and continues the offset space, so a step that grows
reuses what it frees like any other. At the next :meth:`reset`, when
nothing is live, the chunks are replaced by one array as large as the
highest offset used, and later steps make no fresh allocation:
:attr:`Workspace.allocations` stays flat, which
``benchmarks/test_dense_hotpath.py`` asserts. Gradients of parameter shape
(:meth:`owned`) keep storage of their own: a parameter adopts its first
gradient and may sum more over later forwards before one optimizer step,
and a reset would free an arena view it still holds.

Contract
--------
* Buffer contents are **uninitialised** (or stale): every consumer must
  fully overwrite its view (``out=`` kernels, ``np.copyto``, explicit
  fills).
* A view is valid until its lifetime ends: every holder has released it,
  the arena was reset, or its name was requested again. Views whose
  lifetimes do not overlap share storage, so a tensor's ``.data`` or
  ``.grad`` read after that point holds another slot's bytes — copy
  (``.numpy().copy()``) to keep results.
* Slot names must be unique per producer within one step (the fused ops in
  :mod:`repro.tensor.functional` derive them from the layer slot).
* :meth:`Tensor.backward <repro.tensor.Tensor.backward>` copies a leaf's
  gradient into owned storage before a later sweep's producers run, and
  drops what earlier sweeps left on intermediate nodes.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left, bisect_right, insort
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["Workspace", "hold", "holders", "release"]

#: Every span starts on a cache line.
_ALIGN = 64

#: ``id(view) -> weak reference to the arena serving it`` for every live
#: view of every arena, so a tensor can hold or release a gradient without
#: knowing its arena. The arena checks the view's identity, so an entry an
#: arena dropped without a reset (a dead reference, or a reused id) only
#: ever misses; most lookups are misses (fresh arrays, evaluation), and a
#: plain dict keeps those to one probe.
_SERVED: Dict[int, "weakref.ReferenceType[Workspace]"] = {}


def _arena_of(array) -> Optional["Workspace"]:
    served = _SERVED.get(id(array))
    return None if served is None else served()


def hold(array) -> None:
    """One more holder for ``array`` when an arena serves it (no-op else)."""
    arena = _arena_of(array)
    if arena is not None:
        arena.hold(array)


def holders(array) -> int:
    """How many holders keep ``array`` live: 0 when no arena serves it."""
    arena = _arena_of(array)
    return 0 if arena is None else arena.holders(array)


def release(*arrays) -> None:
    """One holder of each array lets go: an arena view whose holders have
    all let go is free for the next request. No-op for any other array."""
    for array in arrays:
        arena = _arena_of(array)
        if arena is not None:
            arena.release(array)


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


def _element_count(shape) -> int:
    size = 1
    for s in shape:
        if s < 0:
            raise ValueError(f"negative dimension in {tuple(shape)}")
        size *= s
    return int(size)


class Workspace:
    """Arena of first-fit views into one growing backing array."""

    __slots__ = ("_starts", "_chunks", "_seams", "_spans", "_live", "_names",
                 "_high", "_owned", "_ref", "allocations", "requests",
                 "__weakref__")

    def __init__(self):
        #: Chunk start offsets and their byte arrays, tiling [0, capacity).
        self._starts: List[int] = []
        self._chunks: List[np.ndarray] = []
        #: Offsets no span may cross: the later chunks' starts, the capacity.
        self._seams: List[int] = [0]
        #: Sorted ``(offset, end)`` of the live views.
        self._spans: List[Tuple[int, int]] = []
        #: ``id(view) -> [view, (name, dtype), offset, end, holders]``.
        self._live: Dict[int, list] = {}
        #: ``(name, dtype) -> id`` of that name's live view.
        self._names: Dict[Tuple[str, np.dtype], int] = {}
        #: The highest span end placed: the size a reset coalesces to.
        self._high = 0
        self._owned: Dict[Tuple[str, np.dtype], np.ndarray] = {}
        self._ref = weakref.ref(self)
        #: Number of fresh backing allocations ever made (steady state: flat).
        self.allocations = 0
        #: Number of buffer requests served.
        self.requests = 0
        _tune_ufunc_buffer()

    @property
    def nbytes(self) -> int:
        """Bytes of backing storage held: the arena's chunks plus the
        parameter-shaped gradients' own storage."""
        return (sum(chunk.nbytes for chunk in self._chunks)
                + sum(flat.nbytes for flat in self._owned.values()))

    def buffer(self, name: str, shape, dtype) -> np.ndarray:
        """A ``shape``-shaped view, live from now until every holder (the
        requester first) has released it, the arena is reset, or ``name``
        is requested again at this ``dtype``.

        It lands at the lowest offset clear of every live view — or, when
        ``name`` is still live and the request fits its span, where it
        already was; contents are undefined (stale) — callers must
        overwrite. ``dtype`` follows the caller's operand; any spelling of
        one dtype names the same slot.
        """
        dtype = np.dtype(dtype)
        shape = tuple(shape)
        nbytes = _element_count(shape) * dtype.itemsize
        key = (name, dtype)
        span = -(-nbytes // _ALIGN) * _ALIGN
        offset = None
        previous = self._names.get(key)
        if previous is not None:
            _, _, start, stop, _ = self._live[previous]
            self._end(previous)
            if span <= stop - start:
                offset = start
        self.requests += 1
        if nbytes == 0:
            return np.empty(shape, dtype=dtype)
        if offset is None:
            offset = self._fit(span)
        end = offset + span
        if end > self._seams[-1]:
            self._grow(end)
        index = bisect_right(self._starts, offset) - 1
        local = offset - self._starts[index]
        view = self._chunks[index][local:local + nbytes].view(dtype).reshape(shape)
        insort(self._spans, (offset, end))
        self._live[id(view)] = [view, key, offset, end, 1]
        self._names[key] = id(view)
        _SERVED[id(view)] = self._ref
        if end > self._high:
            self._high = end
        return view

    def owned(self, name: str, shape, dtype) -> np.ndarray:
        """A view of storage of its own for the whole run (capacity only
        grows), outside the first-fit plan. Valid until ``name`` is
        requested again, not only until the next :meth:`reset`: what a
        parameter-shaped gradient needs, since the parameter that adopts it
        keeps it across the next forward when gradients are summed over
        several forwards before one optimizer step (a reset frees every
        arena view, and the next forward's requests overwrite it)."""
        size = _element_count(shape)
        key = (name, np.dtype(dtype))
        flat = self._owned.get(key)
        if flat is None or flat.size < size:
            flat = np.empty(max(size, 1), dtype=dtype)
            self._owned[key] = flat
            self.allocations += 1
        self.requests += 1
        return flat[:size].reshape(shape)

    def hold(self, view: np.ndarray) -> None:
        """One more holder for a live ``view`` of this arena."""
        record = self._live.get(id(view))
        if record is not None and record[0] is view:
            record[4] += 1

    def holders(self, view: np.ndarray) -> int:
        """How many holders keep ``view`` live (0 once it is free)."""
        record = self._live.get(id(view))
        return record[4] if record is not None and record[0] is view else 0

    def release(self, view: np.ndarray) -> None:
        """One holder of a live ``view`` of this arena lets go; the last
        one frees its span. Any other array is ignored."""
        record = self._live.get(id(view))
        if record is not None and record[0] is view:
            record[4] -= 1
            if record[4] == 0:
                self._end(id(view))

    def reset(self) -> None:
        """End every lifetime: the tape restarts. Chunks added since the
        last reset are coalesced into one backing array here, while no
        view is live."""
        for key in self._live:
            _SERVED.pop(key, None)
        self._live.clear()
        self._names.clear()
        self._spans.clear()
        if len(self._chunks) > 1:
            self._starts = [0]
            self._chunks = [np.empty(self._high, dtype=np.uint8)]
            self._seams = [self._high]
            self.allocations += 1

    # -- placement ------------------------------------------------------
    def _fit(self, span: int) -> int:
        """The lowest offset whose ``span`` bytes overlap no live view and
        cross no chunk seam (the capacity counts as one)."""
        position = 0
        for offset, end in self._spans:
            candidate = self._past_seams(position, span)
            if candidate + span <= offset:
                return candidate
            if end > position:
                position = end
        return self._past_seams(position, span)

    def _past_seams(self, position: int, span: int) -> int:
        for seam in self._seams:
            if position < seam < position + span:
                position = seam
        return position

    def _grow(self, end: int) -> None:
        """A chunk from the capacity to exactly ``end``. Not more: freeing
        large chunks at the coalescing reset raises glibc's dynamic mmap
        threshold, which moves how the rest of the process allocates
        (``benchmarks/PERF.md``, *The training arena at its liveness
        floor*)."""
        capacity = self._seams[-1]
        chunk = np.empty(end - capacity, dtype=np.uint8)
        self._starts.append(capacity)
        self._chunks.append(chunk)
        self._seams = self._starts[1:] + [capacity + chunk.size]
        self.allocations += 1

    def _end(self, key: int) -> None:
        view, name, offset, _, _ = self._live.pop(key)
        del self._spans[bisect_left(self._spans, (offset,))]
        _SERVED.pop(key, None)
        if self._names.get(name) == key:
            del self._names[name]
