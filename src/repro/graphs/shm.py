"""Shared-memory graph store for true multi-core execution.

A :class:`SharedGraphStore` exports every array of a graph's
:meth:`~repro.graphs.graph.Graph.flatten` form into
:mod:`multiprocessing.shared_memory` segments. Worker processes receive a
small picklable :class:`SharedGraphHandle` and map the same physical pages
back as zero-copy ``np.ndarray`` views for ``Graph.unflatten``: a
spawn-started batch builder or replica executor reads the full graph
without ever serialising it.

Lifecycle is explicit: the exporting process owns the segments and must
``unlink()`` them (``close()`` only drops this process's mappings); worker
attachments ``close()`` theirs. Every segment this module creates is
tracked in a process-local registry so tests can assert none leak
(:func:`owned_segment_count`).

CPython detail that shapes :meth:`SharedGraphStore.attach`: on 3.11,
``SharedMemory(name=...)`` registers the segment with the resource tracker
*even when only attaching*. All of this module's attachers are
``multiprocessing``-spawned children of the owner, which inherit the
owner's tracker process — registration lands in one shared set, so the
duplicate is a no-op and the owner's ``unlink()`` balances it. (Calling
``resource_tracker.unregister`` from a worker would strip that shared
entry and make the owner's later unlink complain; don't.)
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .graph import Graph

__all__ = [
    "SharedGraphHandle",
    "SharedGraphStore",
    "StaleHandleError",
    "shared_memory_available",
    "owned_segment_count",
    "owned_segment_names",
    "sweep_leaked_segments",
]


class StaleHandleError(RuntimeError):
    """A :class:`SharedGraphHandle` points at segments that no longer exist.

    Raised when a (respawned) worker attaches a handle whose owner already
    unlinked the segments — e.g. a handle from a previous store generation
    that survived a crash/restart cycle in a worker spec.
    """

#: Segment names this process created and has not yet unlinked.
_OWNED: set = set()

#: Store generations exported by this process (stamps handles + names).
_GENERATION = 0

#: Monotonic per-process segment counter (uniquifies names).
_SEQ = 0

#: Whether this process has already swept leaked segments / written its
#: pidfile (both happen lazily at the first export).
_SWEPT = False

#: All segments this module creates follow this prefix so a startup sweep
#: can recognise (and reclaim) segments leaked by a crashed previous run.
_NAME_PREFIX = "repro-shm-"
_SEGMENT_RE = re.compile(r"^repro-shm-(\d+)-(\d+)-(\d+)$")
_PIDFILE_RE = re.compile(r"^repro-shm-(\d+)\.pid$")
_SHM_DIR = "/dev/shm"


def owned_segment_names() -> frozenset:
    return frozenset(_OWNED)


def owned_segment_count() -> int:
    """Live shared segments owned by this process (leak-check hook)."""
    return len(_OWNED)


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return False
    return True


def _pidfile_path(pid: int) -> str:
    return os.path.join(_SHM_DIR, f"{_NAME_PREFIX}{pid}.pid")


def _write_pidfile() -> None:
    """Mark this process as a live segment owner (crash-sweep evidence)."""
    if not os.path.isdir(_SHM_DIR):
        return
    try:
        with open(_pidfile_path(os.getpid()), "w") as handle:
            handle.write(str(os.getpid()))
    except OSError:
        pass


def sweep_leaked_segments() -> int:
    """Unlink segments leaked by crashed runs; return how many were freed.

    A segment is leaked when its embedded owner pid is dead, or when the
    pid is alive but never wrote this module's pidfile (pid reuse by an
    unrelated process). Segments owned by *this* process are never touched.
    Stale pidfiles of dead owners are cleaned up as well (not counted).
    Runs automatically once per process at the first export; callable
    directly for explicit startup hygiene.
    """
    if not os.path.isdir(_SHM_DIR):
        return 0
    try:
        entries = os.listdir(_SHM_DIR)
    except OSError:
        return 0
    freed = 0
    self_pid = os.getpid()
    for entry in entries:
        match = _SEGMENT_RE.match(entry)
        if match is None:
            pid_match = _PIDFILE_RE.match(entry)
            if pid_match is not None and not _pid_alive(int(pid_match[1])):
                try:
                    os.unlink(os.path.join(_SHM_DIR, entry))
                except OSError:
                    pass
            continue
        owner = int(match[1])
        if owner == self_pid:
            continue
        if _pid_alive(owner) and os.path.exists(_pidfile_path(owner)):
            continue
        try:
            os.unlink(os.path.join(_SHM_DIR, entry))
            freed += 1
        except OSError:
            pass
    return freed


def _next_segment_name() -> str:
    global _SEQ
    _SEQ += 1
    return f"{_NAME_PREFIX}{os.getpid()}-{_GENERATION}-{_SEQ}"


_PROBED: Optional[bool] = None


def shared_memory_available(refresh: bool = False) -> bool:
    """Whether this host can create POSIX shared memory at all.

    Probes once (create + map + unlink of a tiny segment) and caches the
    verdict; containers without a usable ``/dev/shm`` fail the probe and
    every process-pool feature degrades to its in-process path.
    """
    global _PROBED
    if _PROBED is None or refresh:
        try:
            from multiprocessing import shared_memory

            probe = shared_memory.SharedMemory(create=True, size=16)
            probe.buf[0] = 1
            probe.close()
            probe.unlink()
            _PROBED = True
        except (OSError, ImportError, ValueError):
            _PROBED = False
    return _PROBED


@dataclass(frozen=True)
class _ArraySpec:
    """One exported array: where it lives and how to view it."""

    field: str
    segment: str
    dtype: str
    shape: Tuple[int, ...]


@dataclass(frozen=True)
class SharedGraphHandle:
    """Picklable recipe for re-mapping a :class:`SharedGraphStore`.

    Small enough to ship through a spawn bootstrap: ``Graph.flatten``'s
    ``meta`` plus per-array segment names + dtypes + shapes, never the
    data itself.
    """

    meta: dict
    arrays: Tuple[_ArraySpec, ...]
    #: Which export generation of the owning process minted this handle.
    #: A respawned worker handed a handle from an already-unlinked store
    #: fails fast in :meth:`SharedGraphStore.attach` instead of mapping
    #: whatever segment happens to carry the recycled name.
    generation: int = 0


class SharedGraphStore:
    """One graph's arrays exported to (or attached from) shared memory."""

    def __init__(self) -> None:
        self._segments: List = []  # SharedMemory objects, owner or attached
        self._owner = False
        self._handle: Optional[SharedGraphHandle] = None
        self._graph: Optional[Graph] = None
        self._closed = False
        self.nbytes = 0

    # -- owner side ----------------------------------------------------
    @classmethod
    def export(cls, graph: Graph) -> "SharedGraphStore":
        """Copy ``graph``'s arrays into fresh shared segments (owner side)."""
        global _GENERATION, _SWEPT

        store = cls()
        store._owner = True
        _GENERATION += 1
        if not _SWEPT:
            _SWEPT = True
            sweep_leaked_segments()
            _write_pidfile()
        try:
            meta, arrays = graph.flatten()
            store._handle = SharedGraphHandle(
                meta=meta,
                arrays=tuple(
                    store._export_array(name, np.asarray(array))
                    for name, array in arrays.items()
                ),
                generation=_GENERATION,
            )
            store._graph = graph
        except BaseException:
            store.close()
            store.unlink()
            raise
        return store

    def _export_array(self, field: str, array: np.ndarray) -> _ArraySpec:
        from multiprocessing import shared_memory

        array = np.ascontiguousarray(array)
        # A zero-length segment is illegal; keep one byte for empty arrays.
        # Names embed owner pid + generation so crash sweeps can attribute
        # segments; a leftover name (freed pid slot, unswept crash) just
        # advances the sequence counter and retries.
        shm = None
        for _ in range(64):
            try:
                shm = shared_memory.SharedMemory(
                    name=_next_segment_name(), create=True,
                    size=max(int(array.nbytes), 1),
                )
                break
            except FileExistsError:
                continue
        if shm is None:
            shm = shared_memory.SharedMemory(
                create=True, size=max(int(array.nbytes), 1)
            )
        _OWNED.add(shm.name)
        self._segments.append(shm)
        self.nbytes += int(array.nbytes)
        if array.nbytes:
            view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
            view[...] = array
        return _ArraySpec(
            field=field, segment=shm.name, dtype=str(array.dtype),
            shape=tuple(array.shape),
        )

    # -- worker side ---------------------------------------------------
    @classmethod
    def attach(cls, handle: SharedGraphHandle) -> "SharedGraphStore":
        """Map an exported store's segments into this process (zero-copy)."""
        from multiprocessing import shared_memory

        store = cls()
        store._handle = handle
        segments: Dict[str, "shared_memory.SharedMemory"] = {}

        def mapped(spec: _ArraySpec) -> np.ndarray:
            shm = segments.get(spec.segment)
            if shm is None:
                # Attaching re-registers with the (shared, inherited)
                # resource tracker on 3.11 — a set-add no-op; the owner's
                # unlink() balances the single entry. See module docstring.
                try:
                    shm = shared_memory.SharedMemory(name=spec.segment)
                except FileNotFoundError:
                    raise StaleHandleError(
                        f"shared segment {spec.segment!r} (graph "
                        f"{handle.meta['name']!r}, store generation "
                        f"{handle.generation}) no longer exists; the owner "
                        "unlinked it. Re-export the graph and hand workers "
                        "the fresh handle."
                    ) from None
                segments[spec.segment] = shm
                store._segments.append(shm)
            array = np.ndarray(
                spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf
            )
            array.flags.writeable = False
            return array

        try:
            graph = Graph.unflatten(
                handle.meta,
                {spec.field: mapped(spec) for spec in handle.arrays},
            )
            graph._shm_store = store  # the views borrow the store's pages
            store._graph = graph
        except BaseException:
            store.close()
            raise
        return store

    # -- shared --------------------------------------------------------
    def handle(self) -> SharedGraphHandle:
        if self._handle is None:
            raise ValueError("store has no handle (closed before export?)")
        return self._handle

    def graph(self) -> Graph:
        """The store's graph: the original (owner) or zero-copy views."""
        if self._graph is None:
            raise ValueError("store is closed")
        return self._graph

    def close(self) -> None:
        """Drop this process's mappings (idempotent). Owners still must
        :meth:`unlink`."""
        if self._closed:
            return
        self._closed = True
        self._graph = None
        for shm in self._segments:
            try:
                shm.close()
            except (OSError, BufferError):
                pass

    def unlink(self) -> None:
        """Free the segments system-wide (owner side, idempotent)."""
        if not self._owner:
            return
        self.close()
        for shm in self._segments:
            if shm.name not in _OWNED:
                continue
            try:
                shm.unlink()
            except (OSError, FileNotFoundError):
                pass
            _OWNED.discard(shm.name)
        self._segments = []

    def __enter__(self) -> "SharedGraphStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
        self.unlink()
