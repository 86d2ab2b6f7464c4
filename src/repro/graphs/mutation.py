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
the one sort its first reader would have paid anyway).  A detached node's
edges are read off the COO columns in one mask pass, so a detach builds
no index.  Everything derived is then *patched*: each
``(row, col)`` key of the delta is binary-searched in its own row of the
input CSR, each deleted COO position in its own index group (one compiled
bisection per query, :func:`_group_search`), and every E-length array is
rebuilt by one :func:`_splice`: the drops and inserts, given in input
coordinates, go into one new array with one block copy per kept run, and
the input is never written.  A built index direction's ``order`` is
renumbered past the deleted positions (``order - shift[order]``) in the
same compiled sweep as its splice (:func:`_renumber_splice`), and a cached
``sage`` matrix takes the ``plain`` base's splice on its own ``data``, with
only the touched rows' weights recomputed (:func:`_patch_sage`).  What is
left that grows with E is one memory-bound copy per kept array; ``gcn``,
whose weights also depend on the column's degree, is still re-derived by
``scale_rows`` / ``scale_cols``.  The ``sage`` patch costs a gather and a
scatter per touched entry, so a bulk delta that touches most rows (a
detach of the highest-degree nodes) pays more for it than a re-derivation
would; no workload of ``python -m bench`` makes such a delta.  No sort, no
E-length key array, no E-length search, and no E-length mask but a
detach's unless the delta edits an array more than once per
``_ENTRIES_PER_EDIT`` entries.
Without a compiler the two loops run their numpy bodies, the same bytes.

COO order contract
------------------
After a delta, ``src`` / ``dst`` are the surviving edges in their previous
relative order followed by the delta's adds in delta order: ``src``
without the doomed positions, then ``add_src``.  Samplers draw by position
in the edge index, so this order is what makes every post-delta sample,
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

The normalised adjacencies (``sage``/``gcn``) are then rebuilt, or for
``sage`` patched row by row, from the merged structural bases through the
*same* scaling expressions :func:`~repro.graphs.graph.normalized_adjacency`
uses, so every cached matrix stays bit-identical to a from-scratch rebuild
of the mutated graph.
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

from ..sparse import CSRMatrix, native
from ..sparse import ops as sparse_ops
from ..sparse.csr import _sum_repeats
from .graph import NODE_FIELDS, _mean_weights, normalized_adjacency
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
    group's end if there is none) and whether that member is ``wanted[i]``:
    O(len(wanted) * log degree). The compiled loop
    (:func:`~repro.sparse.native.group_search`) bisects one query at a
    time; without it every query bisects in the same numpy round.
    """
    library = native.load()
    searched = None if library is None else native.group_search(
        library, indptr, members, groups, wanted)
    if searched is not None:
        return searched
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


# A splice copies its input's runs as views while it makes at most one
# edit (a dropped entry or a distinct insert position) per this many
# entries, and compacts through masks past that. A view costs about 2 us
# of interpreter time, a masked entry about 3.5 ns: on 0.96 M int64
# entries (2-vCPU Xeon, numpy 2.4) views take 0.85 ms and masks 3.0 at 64
# drops, 12.5 and 3.4 at 6 500. A sparse delta so copies at memory speed,
# and a dense one costs what deleting and inserting through masks cost.
_ENTRIES_PER_EDIT = 512


def _splice(
    array: np.ndarray, drop: np.ndarray, at: np.ndarray, values
) -> np.ndarray:
    """``array`` with the positions ``drop`` removed and ``values[i]``
    inserted before input position ``at[i]``, as one new array.

    ``drop`` is sorted and unique, ``at`` ascending (``len(array)``
    appends); both are input coordinates. Inserts that share an ``at`` keep
    their given order, and an insert at a dropped position lands where the
    dropped entry was: the result is ``np.delete`` of ``drop``, then
    ``np.insert`` of ``values`` before the survivors' positions
    ``at - #(drop < at)``. ``values`` are cast to ``array.dtype``;
    ``array`` is never written.

    The cuts (both ends, each dropped entry's two edges, each ``at``) split
    the input into runs. A sparse splice is one ``np.concatenate`` of the
    kept runs, as views, alternating with the blocks of values inserted
    between them: one allocation, one block copy per run, no E-length mask
    or index. A dense one fills the new array through a keep mask and a
    value mask.
    """
    values = np.asarray(values, dtype=array.dtype)
    edits = len(drop) + np.count_nonzero(np.diff(at, prepend=-1))
    if edits * _ENTRIES_PER_EDIT > len(array):
        keep = np.ones(len(array), dtype=bool)
        keep[drop] = False
        survivors = array[keep]
        if not len(values):
            return survivors
        at = at - np.searchsorted(drop, at) + np.arange(len(at))
        is_value = np.zeros(len(survivors) + len(at), dtype=bool)
        is_value[at] = True
        spliced = np.empty(len(is_value), dtype=array.dtype)
        spliced[at] = values
        spliced[~is_value] = survivors
        return spliced
    cuts = sorted_unique(np.concatenate(([0, len(array)], drop, drop + 1, at)))
    kept = ~_members(cuts[:-1], drop)
    starts, stops = cuts[:-1][kept].tolist(), cuts[1:][kept].tolist()
    # Kept run j follows the values inserted in (starts[j - 1], starts[j]].
    ends = np.searchsorted(at, starts, side="right").tolist()
    pieces = [None] * (2 * len(starts) + 1)
    pieces[1::2] = map(array.__getitem__, map(slice, starts, stops))
    pieces[::2] = map(
        values.__getitem__, map(slice, [0] + ends, ends + [len(values)])
    )
    return np.concatenate(pieces)


def _renumber_splice(
    order: np.ndarray, shift: np.ndarray, drop: np.ndarray, at: np.ndarray,
    values: np.ndarray,
) -> np.ndarray:
    """``_splice(order - shift.take(order), drop, at, values)``: an edge
    index's positions renumbered past the deleted ones and spliced. The
    compiled pass (:func:`~repro.sparse.native.splice_renumber`) writes
    the result in one sweep, with no renumbered E-length copy between the
    two; numpy's two passes run where it is not built."""
    library = native.load()
    spliced = None if library is None else native.splice_renumber(
        library, order, shift, drop, at, values)
    if spliced is None:
        spliced = _splice(order - shift.take(order), drop, at, values)
    return spliced


def _members(sorted_ids: np.ndarray, sorted_set: np.ndarray) -> np.ndarray:
    """Which of ``sorted_ids`` are in the sorted unique ``sorted_set``."""
    slots = np.searchsorted(sorted_set, sorted_ids)
    found = slots < len(sorted_set)
    found[found] = sorted_set[slots[found]] == sorted_ids[found]
    return found


def merge_csr_delta(
    csr: CSRMatrix,
    shape: Tuple[int, int],
    add_rows: np.ndarray,
    add_cols: np.ndarray,
    add_data: np.ndarray,
    remove_keys: np.ndarray,
) -> Tuple[CSRMatrix, np.ndarray, np.ndarray, np.ndarray]:
    """Merge a delta into an existing CSR without re-sorting its entries.

    ``shape`` is the (possibly larger) output shape; rows/cols may only
    grow. ``remove_keys`` are sorted unique ``row * n_cols + col`` keys
    (``n_cols`` of the output shape) whose stored entries are dropped
    entirely. Delta entries may duplicate each other (summed) or collide
    with kept entries (summed into them). Every key, removed or added, is
    binary-searched in its own row of the *input*; ``indices`` and
    ``data`` are then each rebuilt by one :func:`_splice` (one block copy
    per run, in input coordinates): removed entries are dropped, a fresh
    add is inserted at its slot (a key being removed and re-added takes
    the removed entry's slot), and a colliding add drops the kept entry
    and inserts the summed count in its place, so the input's arrays are
    never written. The merged matrix is bit-identical to ``coo_to_csr``
    over the equivalent COO list whenever the data are exactly-representable
    counts (see module docstring).

    Returns ``(merged, drop, at, touched)``: the merged matrix and the
    edits it spliced, the input slots dropped, the input slots each
    merged-in entry went before, and the sorted unique rows whose entries
    changed. A matrix laid out like ``csr`` takes the same edits with
    :func:`_splice` (:func:`_patch_sage`).
    """
    n_rows, n_cols = shape
    if n_rows < csr.n_rows or n_cols < csr.n_cols:
        raise ValueError("merge_csr_delta cannot shrink the matrix shape")
    indptr = _grown_indptr(csr.indptr, n_rows)

    rows, cols = np.divmod(np.asarray(remove_keys, dtype=np.int64), n_cols)
    slots, found = _group_search(indptr, csr.indices, rows, cols)
    removed, removed_rows = slots[found], rows[found]

    add_keys = np.asarray(add_rows, dtype=np.int64) * n_cols + np.asarray(
        add_cols, dtype=np.int64
    )
    order = np.argsort(add_keys, kind="stable")
    # Duplicate delta keys are summed exactly as coo_to_csr sums them.
    rows, put_cols, put_vals = _sum_repeats(
        *np.divmod(add_keys[order], n_cols),
        np.asarray(add_data, dtype=csr.data.dtype)[order],
    )

    # Searched in the input rows. A key that is also being removed is
    # fresh, as in a rebuild, and takes the removed entry's slot; a key
    # that collides with a kept entry is dropped and put back summed.
    at, hit = _group_search(indptr, csr.indices, rows, put_cols)
    hit[hit] = ~_members(at[hit], removed)
    put_vals[hit] += csr.data[at[hit]]
    indptr[1:] += _group_counts(rows[~hit], n_rows) - _group_counts(
        removed_rows, n_rows
    )
    drop = sorted_unique(np.concatenate([removed, at[hit]]))
    indices = _splice(csr.indices, drop, at, put_cols)
    data = _splice(csr.data, drop, at, put_vals)
    touched = sorted_unique(np.concatenate([removed_rows, rows]))
    return CSRMatrix(indptr, indices, data, (n_rows, n_cols)), drop, at, touched


def _patch_sage(
    sage: CSRMatrix, merged: CSRMatrix, drop: np.ndarray, at: np.ndarray,
    touched: np.ndarray,
) -> CSRMatrix:
    """The ``sage`` matrix of the merged ``plain`` base ``merged``, patched
    from the pre-delta one instead of re-derived: its ``data`` takes the
    base's splice (``drop`` / ``at``, :func:`merge_csr_delta`'s edits),
    then the entries of the ``touched`` rows are recomputed by the
    rebuild's own row scale, :func:`~repro.graphs.graph._mean_weights`.
    Every other row kept its entries and its entry count, so its weights
    are the rebuild's bytes already."""
    degrees = merged.indptr[touched + 1] - merged.indptr[touched]
    data = _splice(sage.data, drop, at, np.zeros(len(at)))
    slots, _ = _group_slots(merged.indptr, touched)
    data[slots] = _mean_weights(merged.data[slots], degrees)
    return merged.with_data(data)


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

    A listed pair's occurrences are read off the ``in`` edge index: the
    entries of its destination's in-group whose source matches. A
    detached node's edges are read off the COO columns in one mask pass,
    so a detach builds no index the graph did not have.
    """
    found = []
    if len(delta.remove_src):
        order, indptr, in_src = graph.edge_index("in")
        slots, owner = _group_slots(indptr, delta.remove_dst)
        found.append(order[slots[in_src[slots] == delta.remove_src[owner]]])
    if len(delta.detach_nodes):
        detached = np.zeros(graph.n_nodes, dtype=bool)
        detached[delta.detach_nodes] = True
        found.append(np.flatnonzero(detached[graph.src] | detached[graph.dst]))
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
    at the end of its endpoint's group, in delta order. Two E-length
    passes: ``order``'s survivors renumbered (``p - shift[p]``) and
    spliced in one (:func:`_renumber_splice`), and ``values``' splice.
    """
    order, indptr, values = index
    # A group's positions ascend (stable argsort), like a CSR row's columns.
    slots, _ = _group_search(indptr, order, doomed_keys, doomed)
    drop = np.sort(slots)
    indptr = _grown_indptr(indptr, n_nodes)
    # Adds go before their group's input end, grouped, delta order within
    # a group (empty groups share an end slot).
    grouped = np.argsort(add_keys, kind="stable")
    at = indptr[add_keys[grouped] + 1]
    indptr[1:] += _group_counts(add_keys, n_nodes) - _group_counts(
        doomed_keys, n_nodes
    )
    # Survivors renumbered in the splice's pass: the adds' positions are
    # never shifted.
    added = len(order) - len(drop) + grouped
    if len(doomed):
        order = _renumber_splice(order, shift, drop, at, added)
    else:
        order = _splice(order, drop, at, added)
    values = _splice(values, drop, at, add_other[grouped])
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
) -> Tuple[CSRMatrix, np.ndarray, np.ndarray, np.ndarray]:
    """Incrementally merge the delta into a cached structural base; the
    merged base with :func:`merge_csr_delta`'s edits.

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
    bases, a cached ``sage`` matrix and every built index direction are
    patched (no re-sort, no per-edge search); a cached ``gcn`` matrix is
    re-derived from the merged bases via the exact scaling expressions of
    ``normalized_adjacency``, so every matrix and index is
    bit-identical to a from-scratch build of the mutated edge list.
    Transposes are dropped (rebuilt lazily), ``graph.generation`` is
    bumped, and the active sparse backend's plan caches are released for
    the old buffers (re-warmed for the new ones unless ``warm=False``).
    A delta that is rejected leaves the graph exactly as it was.
    """
    new_n = _validate_delta(graph, delta)
    columns = _extended_columns(graph, delta)
    graph._fresh_caches()
    sage = graph._adj_cache.get("sage")
    if sage is not None:
        # The patch reads the plain base's edits: an unflattened graph
        # builds the base here, as its first reader after the delta would.
        graph.structural_adjacency()

    doomed = _doomed_positions(graph, delta)
    doomed_src, doomed_dst = graph.src[doomed], graph.dst[doomed]
    removed_keys = sorted_unique(doomed_dst * new_n + doomed_src)
    edited = {
        key: _merge_structural(
            base, delta, graph.n_nodes, new_n, removed_keys, key == "loops"
        )
        for key, base in graph._structure_cache.items()
    }
    merged = {key: edits[0] for key, edits in edited.items()}
    if sage is not None:
        sage = _patch_sage(sage, *edited["plain"])
    appended = np.full(len(delta.add_src), graph.n_edges)
    src = _splice(graph.src, doomed, appended, delta.add_src)
    dst = _splice(graph.dst, doomed, appended, delta.add_dst)
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
        graph._adj_cache[norm] = (
            sage if norm == "sage" else normalized_adjacency(graph, norm)
        )

    sparse_ops.release(old_matrices)
    if warm and graph._adj_cache:
        sparse_ops.warm(graph._adj_cache.values())
    return graph
