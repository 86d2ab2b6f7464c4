"""Live graph mutation: batched edge/node deltas with incremental CSR merge.

Real services mutate the graph while serving it.  A :class:`GraphDelta`
batches edge inserts/deletes and node additions; :func:`apply_delta` applies
one to a :class:`~repro.graphs.graph.Graph` *in place* by merging the sorted
delta entries into the existing CSR buffers (``indptr``/``indices``/``data``)
instead of re-sorting the whole edge list — an O(E + D log D) merge versus
the O(E log E) lexsort a from-scratch rebuild pays.

Bit-identity contract
---------------------
:func:`merge_csr_delta` produces buffers bit-identical to
:func:`~repro.sparse.csr.coo_to_csr` over the equivalent post-delta COO
list.  Two properties make this exact rather than approximate:

* entry *positions* are fully determined by the sorted unique ``(row, col)``
  key set, which the merge reproduces by construction;
* entry *values* are duplicate-edge counts — small integers, exactly
  representable in float64 — so summing an old count with a delta count
  gives the same float as one fused accumulation would.

The normalised adjacencies (``sage``/``gcn``) are then rebuilt from the
merged structural bases through the *same* scaling expressions
:func:`~repro.graphs.graph.normalized_adjacency` uses, so every cached
matrix stays bit-identical to a from-scratch rebuild of the mutated graph.

Cache discipline
----------------
``apply_delta`` bumps ``graph.generation`` (invalidating the lazily-checked
adjacency / transpose / edge-index caches), releases the old matrices
from the active sparse backend's plan caches via ``ops.release`` and
re-warms the replacements via ``ops.warm``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..sparse import CSRMatrix
from ..sparse import ops as sparse_ops
from .graph import NODE_FIELDS, normalized_adjacency

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

    @property
    def is_empty(self) -> bool:
        return (
            not len(self.add_src)
            and not len(self.remove_src)
            and not len(self.detach_nodes)
            and self.add_nodes == 0
        )

    def summary(self) -> dict:
        return {
            "edges_added": int(len(self.add_src)),
            "edge_pairs_removed": int(len(self.remove_src)),
            "nodes_added": self.add_nodes,
            "nodes_detached": int(len(self.detach_nodes)),
        }


# ----------------------------------------------------------------------
# Low-level sorted-key merge
# ----------------------------------------------------------------------
def _sorted_member_mask(values: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """``values[i] in sorted_keys`` via binary search (no np.isin re-sort)."""
    if not len(values) or not len(sorted_keys):
        return np.zeros(len(values), dtype=bool)
    pos = np.searchsorted(sorted_keys, values)
    valid = pos < len(sorted_keys)
    mask = np.zeros(len(values), dtype=bool)
    mask[valid] = sorted_keys[pos[valid]] == values[valid]
    return mask


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
    grow, so the existing entries' row-major keys stay strictly increasing
    under the new column multiplier.  ``remove_keys`` are sorted unique
    ``row * n_cols + col`` keys whose stored entries are dropped entirely.
    Delta entries may duplicate each other (summed) or collide with kept
    entries (summed into them).  The result is bit-identical to
    ``coo_to_csr`` over the equivalent COO list whenever the data are
    exactly-representable counts (see module docstring).
    """
    n_rows, n_cols = shape
    if n_rows < csr.n_rows or n_cols < csr.n_cols:
        raise ValueError("merge_csr_delta cannot shrink the matrix shape")
    old_rows = np.repeat(np.arange(csr.n_rows, dtype=np.int64), csr.row_degrees())
    old_keys = old_rows * n_cols + csr.indices

    remove_keys = np.asarray(remove_keys, dtype=np.int64)
    if len(remove_keys):
        hit = _sorted_member_mask(old_keys, remove_keys)
        kept_keys = old_keys[~hit]
        kept_data = csr.data[~hit]
    else:
        kept_keys = old_keys
        kept_data = csr.data.copy()

    add_rows = np.asarray(add_rows, dtype=np.int64)
    add_cols = np.asarray(add_cols, dtype=np.int64)
    add_data = np.asarray(add_data, dtype=np.float64)
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
        add_keys = add_keys[is_new]

        collide = _sorted_member_mask(add_keys, kept_keys)
        if collide.any():
            pos = np.searchsorted(kept_keys, add_keys[collide])
            kept_data[pos] += add_vals[collide]
        fresh_keys = add_keys[~collide]
        if len(fresh_keys):
            insert_at = np.searchsorted(kept_keys, fresh_keys)
            kept_keys = np.insert(kept_keys, insert_at, fresh_keys)
            kept_data = np.insert(kept_data, insert_at, add_vals[~collide])

    out_rows = kept_keys // n_cols
    out_cols = kept_keys - out_rows * n_cols
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(out_rows, minlength=n_rows), out=indptr[1:])
    return CSRMatrix(indptr, out_cols, kept_data, (n_rows, n_cols))


# ----------------------------------------------------------------------
# Graph-level application
# ----------------------------------------------------------------------
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
    if delta.add_features is not None:
        if graph.features is None:
            raise ValueError("add_features given but the graph has no features")
        feats = np.asarray(delta.add_features, dtype=np.float64)
        if feats.shape != (delta.add_nodes, graph.features.shape[1]):
            raise ValueError(
                "add_features must have shape "
                f"({delta.add_nodes}, {graph.features.shape[1]})"
            )
    elif delta.add_nodes and graph.features is not None:
        raise ValueError("graph has features; add_features is required")
    return new_n


def _removed_edge_mask(graph, delta: GraphDelta, new_n: int) -> np.ndarray:
    """Mask over the current edge list of edges the delta deletes."""
    mask = np.zeros(graph.n_edges, dtype=bool)
    if len(delta.remove_src):
        pair_keys = np.unique(delta.remove_dst * new_n + delta.remove_src)
        edge_keys = graph.dst * new_n + graph.src
        mask |= _sorted_member_mask(edge_keys, pair_keys)
    if len(delta.detach_nodes):
        detached = np.zeros(graph.n_nodes, dtype=bool)
        detached[delta.detach_nodes] = True
        mask |= detached[graph.src] | detached[graph.dst]
    return mask


def _extend_nodes(graph, delta: GraphDelta) -> None:
    """Grow every node column the graph carries for appended node slots:
    the delta's rows where it supplies them, the column's
    :data:`~repro.graphs.graph.NODE_FIELDS` fill value otherwise."""
    supplied = {"features": delta.add_features, "labels": delta.add_labels}
    for name, column in graph.node_arrays().items():
        tail = (delta.add_nodes,) + column.shape[1:]
        rows = supplied.get(name)
        if name == "features":  # shape-checked by _validate_delta
            rows = np.asarray(rows, dtype=np.float64)
        elif rows is None:
            rows = np.full(tail, NODE_FIELDS[name], dtype=column.dtype)
        else:
            rows = np.asarray(rows, dtype=column.dtype)
            if rows.shape != tail:
                raise ValueError(f"add_{name} must have shape {tail}")
        setattr(graph, name, np.concatenate([column, rows]))


def _merge_structural(
    graph,
    delta: GraphDelta,
    new_n: int,
    removed_keys: np.ndarray,
    loops: bool,
) -> Optional[CSRMatrix]:
    """Incrementally merge the delta into a cached structural base, if any.

    The ``loops`` base carries one diagonal entry per node on top of the
    edge multiset; deleting a pair ``(v, v)`` therefore drops the diagonal
    entry too, so the merge re-adds a unit loop for every removed diagonal
    key and appends unit loops for fresh node slots — reproducing exactly
    what a from-scratch ``A + I`` build would contain.
    """
    key = "loops" if loops else "plain"
    base = graph._structure_cache.get(key)
    if base is None:
        return None
    add_rows: List[np.ndarray] = [delta.add_dst]
    add_cols: List[np.ndarray] = [delta.add_src]
    if loops:
        # A diagonal pair's key is d * new_n + d = d * (new_n + 1); every
        # other key has src - dst not divisible by new_n + 1.
        diag = removed_keys[removed_keys % (new_n + 1) == 0] // (new_n + 1)
        fresh = np.arange(graph.n_nodes, new_n, dtype=np.int64)
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
        np.ones(len(rows), dtype=np.float64),
        removed_keys,
    )


def apply_delta(graph, delta: GraphDelta, warm: bool = True):
    """Apply ``delta`` to ``graph`` in place; returns the same graph.

    Cached structural bases are merged incrementally (no full re-sort);
    cached normalised adjacencies are re-derived from the merged bases via
    the exact scaling expressions of ``normalized_adjacency``, so every
    rebuilt matrix is bit-identical to a from-scratch build of the mutated
    edge list.  Transpose and edge-index caches are dropped (rebuilt
    lazily), ``graph.generation`` is bumped, and the active sparse
    backend's plan caches are released for the old buffers (re-warmed for
    the new ones unless ``warm=False``).
    """
    new_n = _validate_delta(graph, delta)
    graph._fresh_caches()

    removed_mask = _removed_edge_mask(graph, delta, new_n)
    if removed_mask.any():
        removed_keys = np.unique(
            graph.dst[removed_mask] * new_n + graph.src[removed_mask]
        )
    else:
        removed_keys = np.empty(0, dtype=np.int64)

    old_matrices = list(graph._adj_cache.values()) + list(
        graph._structure_cache.values()
    )
    cached_norms = [k for k in graph._adj_cache if not k.endswith("^T")]

    merged = {
        key: _merge_structural(graph, delta, new_n, removed_keys, key == "loops")
        for key in ("plain", "loops")
    }

    keep = ~removed_mask
    graph.src = np.concatenate([graph.src[keep], delta.add_src])
    graph.dst = np.concatenate([graph.dst[keep], delta.add_dst])
    if delta.add_nodes:
        _extend_nodes(graph, delta)
    graph.n_nodes = new_n

    graph.generation += 1
    graph._cache_generation = graph.generation
    graph._adj_cache.clear()
    graph._structure_cache.clear()
    graph._edge_index.clear()
    for key in ("plain", "loops"):
        if merged[key] is not None:
            graph._structure_cache[key] = merged[key]
    for norm in cached_norms:
        graph._adj_cache[norm] = normalized_adjacency(graph, norm)

    sparse_ops.release(old_matrices)
    if warm and graph._adj_cache:
        sparse_ops.warm(graph._adj_cache.values())
    return graph
