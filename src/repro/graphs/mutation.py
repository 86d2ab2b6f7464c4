"""Live graph mutation: batched edge/node deltas patched into a served graph.

Real services mutate the graph while serving it.  A :class:`GraphDelta`
batches edge inserts/deletes and node additions; :func:`apply_delta` applies
one to a :class:`~repro.graphs.graph.Graph` *in place*.

Cost model
----------
A delta costs its own size.  The edges it deletes are located through
:meth:`Graph.edge_index <repro.graphs.graph.Graph.edge_index>` by reading
only the touched nodes' groups — O(|delta| * degree) — never by scanning or
keying the edge list (a graph that has no ``in`` index yet builds it here:
the one sort its first reader would have paid anyway; ``out`` too when
nodes are detached).  Everything derived is then *patched*: each
``(row, col)`` key of the delta is binary-searched in its own CSR row, each
deleted COO position in its own index group, and the arrays are rewritten
with ``np.delete`` / ``np.insert``.  What is left that grows with E is
memory-bound: one block copy per array, one renumbering of the surviving
positions per built index direction (``order -= shift[order]``) and the
``scale_rows`` re-derivation of the cached normalisations.  No sort, no
E-length key array, no E-length search.

COO order contract
------------------
After a delta, ``src`` / ``dst`` are the surviving edges in their previous
relative order followed by the delta's adds in delta order:
``np.delete(src, doomed)`` then ``add_src``.  Samplers draw by position in
the edge index, so this order is what makes every post-delta sample,
ego-net and served logit reproducible; it is asserted against the boolean-
mask formula in ``tests/test_graph_mutation.py``.

Bit-identity contract
---------------------
:func:`merge_csr_delta` produces buffers bit-identical to
:func:`~repro.sparse.csr.coo_to_csr` over the equivalent post-delta COO
list.  Two properties make this exact rather than approximate:

* entry *positions* are fully determined by the sorted unique ``(row, col)``
  key set, which the merge reproduces by construction;
* entry *values* are duplicate-edge counts — small integers, exactly
  representable in any float width — so summing an old count with a delta count
  gives the same float as one fused accumulation would.

The normalised adjacencies (``sage``/``gcn``) are then rebuilt from the
merged structural bases through the *same* scaling expressions
:func:`~repro.graphs.graph.normalized_adjacency` uses, so every cached
matrix stays bit-identical to a from-scratch rebuild of the mutated graph.
A patched edge index is likewise byte-equal to ``Graph.edge_index`` over
the post-delta COO: the index is a stable argsort, survivors keep their
relative order and adds take the highest positions, so each add belongs at
the end of its endpoint's group.

Cache discipline
----------------
All replacements — COO, node columns, merged bases, patched index arrays —
are built before the graph is touched, so a delta that is rejected (or
fails half-way) leaves the graph exactly as it was.  ``apply_delta`` then
installs them under a bumped ``graph.generation`` (transposes are dropped
and rebuilt lazily; index arrays are new read-only arrays, so a reader
holding a pre-delta tuple keeps a valid, unchanged one), releases the old
matrices from the active sparse backend's plan caches via ``ops.release``
and re-warms the replacements via ``ops.warm``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..sparse import CSRMatrix
from ..sparse import ops as sparse_ops
from .graph import NODE_FIELDS, normalized_adjacency
from .partition import sorted_unique

__all__ = ["GraphDelta", "apply_delta", "merge_csr_delta"]


def _as_nodes(values, name: str) -> np.ndarray:
    array = np.asarray([] if values is None else values, dtype=np.int64)
    if array.ndim != 1:
        raise ValueError(f"{name} must be a 1-D index array")
    return array


@dataclass(frozen=True)
class GraphDelta:
    """A batch of structural updates applied atomically to one graph.

    ``add_src``/``add_dst``
        New edges (may include duplicates of each other or of existing
        edges; duplicate edges sum their unit weights, exactly as
        :func:`~repro.sparse.csr.coo_to_csr` merges them).
    ``remove_src``/``remove_dst``
        Edge *pairs* to delete.  Every stored occurrence of a listed pair
        is removed; listing a pair that does not exist is a no-op.
    ``add_nodes``
        Number of fresh node slots appended after the current id range.
        New edges may reference them.  ``add_features`` (required when the
        graph has features) and ``add_labels`` extend those columns; every
        other node column (and omitted labels) takes its
        :data:`~repro.graphs.graph.NODE_FIELDS` fill value, which keeps the
        new slots out of every split.
    ``detach_nodes``
        Nodes whose *incident edges* are all removed.  The slots remain
        (ids are stable tombstones), so downstream consumers never see
        ids shift.
    """

    add_src: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    add_dst: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    remove_src: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    remove_dst: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    add_nodes: int = 0
    add_features: Optional[np.ndarray] = None
    add_labels: Optional[np.ndarray] = None
    detach_nodes: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))

    def __post_init__(self):
        object.__setattr__(self, "add_src", _as_nodes(self.add_src, "add_src"))
        object.__setattr__(self, "add_dst", _as_nodes(self.add_dst, "add_dst"))
        object.__setattr__(
            self, "remove_src", _as_nodes(self.remove_src, "remove_src")
        )
        object.__setattr__(
            self, "remove_dst", _as_nodes(self.remove_dst, "remove_dst")
        )
        object.__setattr__(
            self, "detach_nodes", _as_nodes(self.detach_nodes, "detach_nodes")
        )
        if self.add_src.shape != self.add_dst.shape:
            raise ValueError("add_src and add_dst must have equal length")
        if self.remove_src.shape != self.remove_dst.shape:
            raise ValueError("remove_src and remove_dst must have equal length")
        if int(self.add_nodes) < 0:
            raise ValueError("add_nodes must be >= 0")
        object.__setattr__(self, "add_nodes", int(self.add_nodes))

    def summary(self) -> dict:
        return {
            "edges_added": int(len(self.add_src)),
            "edge_pairs_removed": int(len(self.remove_src)),
            "nodes_added": self.add_nodes,
            "nodes_detached": int(len(self.detach_nodes)),
        }


# ----------------------------------------------------------------------
# Grouped-array primitives (a CSR and an edge index are both one)
# ----------------------------------------------------------------------
def _group_search(
    indptr: np.ndarray, members: np.ndarray, groups: np.ndarray,
    wanted: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Binary-search ``wanted[i]`` in group ``groups[i]``'s ascending members.

    Returns the slot of the group's first member ``>= wanted[i]`` (the
    group's end if there is none) and whether that member is ``wanted[i]``.
    Every query bisects in the same numpy pass: O(len(wanted) * log degree).
    """
    low, high = indptr[groups], indptr[groups + 1]
    end = high.copy()
    live = np.flatnonzero(low < high)
    while live.size:
        mid = (low[live] + high[live]) >> 1
        right = members[mid] < wanted[live]
        low[live[right]] = mid[right] + 1
        high[live[~right]] = mid[~right]
        live = live[low[live] < high[live]]
    found = low < end
    found[found] = members[low[found]] == wanted[found]
    return low, found


def _group_slots(
    indptr: np.ndarray, groups: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Every slot of the listed groups, and which list entry owns each."""
    starts = indptr[groups]
    counts = indptr[groups + 1] - starts
    owner = np.repeat(np.arange(len(groups)), counts)
    slots = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    slots += np.arange(slots.size)
    return slots, owner


def _grown_indptr(indptr: np.ndarray, n_groups: int) -> np.ndarray:
    """A copy of ``indptr`` with empty groups appended up to ``n_groups``."""
    return np.pad(indptr, (0, n_groups + 1 - len(indptr)), mode="edge")


def _group_counts(groups: np.ndarray, n_groups: int) -> np.ndarray:
    """How many listed entries precede the end of each group (cumulative)."""
    return np.cumsum(np.bincount(groups, minlength=n_groups))


def merge_csr_delta(
    csr: CSRMatrix,
    shape: Tuple[int, int],
    add_rows: np.ndarray,
    add_cols: np.ndarray,
    add_data: np.ndarray,
    remove_keys: np.ndarray,
) -> CSRMatrix:
    """Merge a delta into an existing CSR without re-sorting its entries.

    ``shape`` is the (possibly larger) output shape; rows/cols may only
    grow. ``remove_keys`` are sorted unique ``row * n_cols + col`` keys
    (``n_cols`` of the output shape) whose stored entries are dropped
    entirely. Delta entries may duplicate each other (summed) or collide
    with kept entries (summed into them). Each key is binary-searched in
    its own row; the only passes over the stored entries are the block
    copies of ``np.delete`` / ``np.insert``. The result is bit-identical to
    ``coo_to_csr`` over the equivalent COO list whenever the data are
    exactly-representable counts (see module docstring).
    """
    n_rows, n_cols = shape
    if n_rows < csr.n_rows or n_cols < csr.n_cols:
        raise ValueError("merge_csr_delta cannot shrink the matrix shape")
    indptr = _grown_indptr(csr.indptr, n_rows)

    rows, cols = np.divmod(np.asarray(remove_keys, dtype=np.int64), n_cols)
    slots, found = _group_search(indptr, csr.indices, rows, cols)
    indices = np.delete(csr.indices, slots[found])
    data = np.delete(csr.data, slots[found])
    indptr[1:] -= _group_counts(rows[found], n_rows)

    add_rows = np.asarray(add_rows, dtype=np.int64)
    add_cols = np.asarray(add_cols, dtype=np.int64)
    add_data = np.asarray(add_data, dtype=csr.data.dtype)
    if len(add_rows):
        add_keys = add_rows * n_cols + add_cols
        order = np.argsort(add_keys, kind="stable")
        add_keys = add_keys[order]
        add_vals = add_data[order]
        # Collapse duplicate delta keys exactly as coo_to_csr does: group
        # by first-occurrence and bincount-sum the values.
        is_new = np.empty(len(add_keys), dtype=bool)
        is_new[0] = True
        np.not_equal(add_keys[1:], add_keys[:-1], out=is_new[1:])
        group_ids = np.cumsum(is_new) - 1
        add_vals = np.bincount(group_ids, weights=add_vals)
        rows, cols = np.divmod(add_keys[is_new], n_cols)

        # Searched in the post-removal rows: a key removed and re-added
        # is a fresh entry, as in a rebuild.
        slots, collide = _group_search(indptr, indices, rows, cols)
        data[slots[collide]] += add_vals[collide]
        fresh = ~collide
        indices = np.insert(indices, slots[fresh], cols[fresh])
        data = np.insert(data, slots[fresh], add_vals[fresh])
        indptr[1:] += _group_counts(rows[fresh], n_rows)

    return CSRMatrix(indptr, indices, data, (n_rows, n_cols))


# ----------------------------------------------------------------------
# Graph-level application
# ----------------------------------------------------------------------
def _supplied_columns(delta: GraphDelta) -> dict:
    """The node columns a delta can carry rows for, by column name."""
    return {"features": delta.add_features, "labels": delta.add_labels}


def _validate_delta(graph, delta: GraphDelta) -> int:
    new_n = graph.n_nodes + delta.add_nodes
    for name, array, bound in (
        ("add_src", delta.add_src, new_n),
        ("add_dst", delta.add_dst, new_n),
        ("remove_src", delta.remove_src, graph.n_nodes),
        ("remove_dst", delta.remove_dst, graph.n_nodes),
        ("detach_nodes", delta.detach_nodes, graph.n_nodes),
    ):
        if len(array) and (array.min() < 0 or array.max() >= bound):
            raise ValueError(f"{name} endpoints out of range [0, {bound})")
    for name, rows in _supplied_columns(delta).items():
        column = getattr(graph, name)
        if rows is None:
            required = NODE_FIELDS[name] is None and column is not None
            if required and delta.add_nodes:
                raise ValueError(f"graph has {name}; add_{name} is required")
        elif column is None:
            raise ValueError(f"add_{name} given but the graph has no {name}")
        else:
            tail = (delta.add_nodes,) + np.shape(column)[1:]
            if np.shape(rows) != tail:
                raise ValueError(f"add_{name} must have shape {tail}")
    return new_n


def _extended_columns(graph, delta: GraphDelta) -> dict:
    """Every node column the graph carries, grown for the appended node
    slots: the delta's rows where it supplies them (shape-checked by
    ``_validate_delta``), the column's
    :data:`~repro.graphs.graph.NODE_FIELDS` fill value otherwise."""
    if not delta.add_nodes:
        return {}
    supplied = _supplied_columns(delta)
    grown = {}
    for name, column in graph.node_arrays().items():
        rows = supplied.get(name)
        if rows is None:
            tail = (delta.add_nodes,) + column.shape[1:]
            rows = np.full(tail, NODE_FIELDS[name], dtype=column.dtype)
        grown[name] = np.concatenate(
            [column, np.asarray(rows, dtype=column.dtype)]
        )
    return grown


def _doomed_positions(graph, delta: GraphDelta) -> np.ndarray:
    """Sorted COO positions of the edges the delta deletes.

    Read off the edge index: a listed pair's occurrences are the entries
    of its destination's in-group whose source matches; a detached node's
    edges are its whole in-group and out-group.
    """
    found = []
    if len(delta.remove_src):
        order, indptr, in_src = graph.edge_index("in")
        slots, owner = _group_slots(indptr, delta.remove_dst)
        found.append(order[slots[in_src[slots] == delta.remove_src[owner]]])
    if len(delta.detach_nodes):
        for direction in ("in", "out"):
            order, indptr, _ = graph.edge_index(direction)
            found.append(order[_group_slots(indptr, delta.detach_nodes)[0]])
    if not found:
        return np.empty(0, dtype=np.int64)
    return sorted_unique(np.concatenate(found))


def _patch_index(
    index: Tuple[np.ndarray, np.ndarray, np.ndarray],
    doomed: np.ndarray,
    shift: np.ndarray,
    doomed_keys: np.ndarray,
    add_keys: np.ndarray,
    add_other: np.ndarray,
    n_nodes: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One direction of :meth:`Graph.edge_index` after the delta, as new
    read-only arrays equal to a rebuild from the post-delta COO.

    ``doomed`` are the deleted COO positions and ``doomed_keys`` their
    grouping endpoint; ``shift[p]`` counts the doomed positions below
    ``p``. Adds take the COO positions after every survivor, so each lands
    at the end of its endpoint's group, in delta order.
    """
    order, indptr, values = index
    # A group's positions ascend (stable argsort), like a CSR row's columns.
    slots, _ = _group_search(indptr, order, doomed_keys, doomed)
    indptr = _grown_indptr(indptr, n_nodes)
    indptr[1:] -= _group_counts(doomed_keys, n_nodes)
    order = np.delete(order, slots)
    if len(doomed):
        order -= shift.take(order)

    # Empty groups share an end slot, and np.insert keeps equal slots in
    # the order given: hand it the adds grouped, delta order within a group.
    grouped = np.argsort(add_keys, kind="stable")
    at = indptr[add_keys[grouped] + 1]
    order = np.insert(order, at, len(order) + grouped)
    values = np.insert(np.delete(values, slots), at, add_other[grouped])
    indptr[1:] += _group_counts(add_keys, n_nodes)
    for array in (order, indptr, values):
        array.flags.writeable = False
    return order, indptr, values


def _merge_structural(
    base: CSRMatrix,
    delta: GraphDelta,
    old_n: int,
    new_n: int,
    removed_keys: np.ndarray,
    loops: bool,
) -> CSRMatrix:
    """Incrementally merge the delta into a cached structural base.

    The ``loops`` base carries one diagonal entry per node on top of the
    edge multiset; deleting a pair ``(v, v)`` therefore drops the diagonal
    entry too, so the merge re-adds a unit loop for every removed diagonal
    key and appends unit loops for fresh node slots — reproducing exactly
    what a from-scratch ``A + I`` build would contain.
    """
    add_rows: List[np.ndarray] = [delta.add_dst]
    add_cols: List[np.ndarray] = [delta.add_src]
    if loops:
        # A diagonal pair's key is d * new_n + d = d * (new_n + 1); every
        # other key has src - dst not divisible by new_n + 1.
        diag = removed_keys[removed_keys % (new_n + 1) == 0] // (new_n + 1)
        fresh = np.arange(old_n, new_n, dtype=np.int64)
        restore = np.concatenate([diag, fresh])
        add_rows.append(restore)
        add_cols.append(restore)
    rows = np.concatenate(add_rows)
    cols = np.concatenate(add_cols)
    return merge_csr_delta(
        base,
        (new_n, new_n),
        rows,
        cols,
        np.ones(len(rows), dtype=base.data.dtype),
        removed_keys,
    )


def apply_delta(graph, delta: GraphDelta, warm: bool = True):
    """Apply ``delta`` to ``graph`` in place; returns the same graph.

    Doomed edges are located through the edge index, cached structural
    bases and every built index direction are patched (no re-sort, no
    per-edge search); cached normalised adjacencies are re-derived from
    the merged bases via the exact scaling expressions of
    ``normalized_adjacency``, so every rebuilt matrix and index is
    bit-identical to a from-scratch build of the mutated edge list.
    Transposes are dropped (rebuilt lazily), ``graph.generation`` is
    bumped, and the active sparse backend's plan caches are released for
    the old buffers (re-warmed for the new ones unless ``warm=False``).
    A delta that is rejected leaves the graph exactly as it was.
    """
    new_n = _validate_delta(graph, delta)
    columns = _extended_columns(graph, delta)
    graph._fresh_caches()

    doomed = _doomed_positions(graph, delta)
    doomed_src, doomed_dst = graph.src[doomed], graph.dst[doomed]
    removed_keys = sorted_unique(doomed_dst * new_n + doomed_src)
    merged = {
        key: _merge_structural(
            base, delta, graph.n_nodes, new_n, removed_keys, key == "loops"
        )
        for key, base in graph._structure_cache.items()
    }
    src = np.concatenate([np.delete(graph.src, doomed), delta.add_src])
    dst = np.concatenate([np.delete(graph.dst, doomed), delta.add_dst])
    # shift[p]: how far COO position p moves down (doomed positions below
    # it), in the narrowest dtype so the table the renumbering gathers from
    # stays cache-sized.
    shift = np.repeat(
        np.arange(len(doomed) + 1, dtype=np.min_scalar_type(len(doomed))),
        np.diff(np.concatenate(([0], doomed, [graph.n_edges]))),
    )
    # Per direction: grouping endpoint of the doomed edges, then of the
    # adds, then the adds' other endpoint.
    endpoints = {
        "in": (doomed_dst, delta.add_dst, delta.add_src),
        "out": (doomed_src, delta.add_src, delta.add_dst),
    }
    indexes = {
        direction: _patch_index(
            index, doomed, shift, *endpoints[direction], new_n
        )
        for direction, index in graph._edge_index.items()
    }

    # Nothing above touched the graph; nothing below can reject the delta.
    old_matrices = list(graph._adj_cache.values()) + list(
        graph._structure_cache.values()
    )
    cached_norms = [k for k in graph._adj_cache if not k.endswith("^T")]
    graph.src, graph.dst = src, dst
    for name, column in columns.items():
        setattr(graph, name, column)
    graph.n_nodes = new_n
    graph.generation += 1
    graph._cache_generation = graph.generation
    graph._adj_cache.clear()
    graph._structure_cache = merged
    graph._edge_index = indexes
    for norm in cached_norms:
        graph._adj_cache[norm] = normalized_adjacency(graph, norm)

    sparse_ops.release(old_matrices)
    if warm and graph._adj_cache:
        sparse_ops.warm(graph._adj_cache.values())
    return graph
