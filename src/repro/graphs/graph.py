"""Graph container with the aggregator normalisations of Fig. 5.

The paper's dataflow figure annotates the adjacency edge weights per model:

* GraphSAGE (mean aggregator): ``1 / d_i`` (in-degree of the destination);
* GCN: ``1 / sqrt(d_i * d_j)`` with self-loops added;
* GIN: ``1`` (sum aggregator).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from ..sparse import CSRMatrix
from ..sparse.csr import stable_order

__all__ = ["Graph", "NODE_FIELDS", "normalized_adjacency", "scaled_adjacency"]

#: The per-node payload columns of a :class:`Graph` -> the value a node slot
#: appended by a delta takes (``None``: the rows must be supplied). Slicing,
#: stacking, permuting, extending and shipping a graph all iterate this, so a
#: new column is declared here and on the dataclass and nowhere else.
NODE_FIELDS = {
    "features": None,
    "labels": 0,
    "train_mask": False,
    "val_mask": False,
    "test_mask": False,
    "communities": -1,
    "loss_weights": 0.0,
}

_CSR_PARTS = ("indptr", "indices", "data")


@dataclass
class Graph:
    """A directed graph with optional node features / labels / splits.

    Edges are stored as ``(src, dst)`` arrays; the adjacency matrix ``A`` has
    ``A[dst, src] = w`` so that ``A @ X`` aggregates source features into
    destinations, as in the paper's feature-aggregation stage.
    """

    n_nodes: int
    src: np.ndarray
    dst: np.ndarray
    features: Optional[np.ndarray] = None
    labels: Optional[np.ndarray] = None
    train_mask: Optional[np.ndarray] = None
    val_mask: Optional[np.ndarray] = None
    test_mask: Optional[np.ndarray] = None
    name: str = "graph"
    #: True when ``labels`` is a multi-hot (n_nodes, n_classes) matrix.
    multilabel: bool = False
    #: Planted community assignment (set by the SBM generator).
    communities: Optional[np.ndarray] = None
    #: Per-node importance-sampling loss weights (set by the degree-weighted
    #: samplers): a batch's training loss is ``sum_v w_v * loss_v`` instead
    #: of the plain masked mean, making the sampled-loss estimator unbiased
    #: for the full-graph mean (GraphSAINT normalisation).
    loss_weights: Optional[np.ndarray] = None
    _adj_cache: Dict[str, CSRMatrix] = field(default_factory=dict, repr=False)
    #: Mutation stamp: bumped by :meth:`apply_delta`, which installs the
    #: merged structural bases and the patched edge index under the new
    #: stamp. A bump made by hand (out-of-band edits to ``src`` / ``dst``)
    #: leaves the stamps diverged, and every graph-derived cache
    #: (adjacency, transpose, structural bases, edge index) is then dropped
    #: lazily by its next reader.
    generation: int = 0
    #: Unnormalised structural bases ("plain" edge multiset, "loops" =
    #: edges + I) the normalised adjacencies derive from; kept separate so
    #: mutation can merge deltas into them incrementally.
    _structure_cache: Dict[str, CSRMatrix] = field(
        default_factory=dict, repr=False
    )
    #: Per-direction edge index (see :meth:`edge_index`), built lazily.
    _edge_index: Dict[str, Tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        default_factory=dict, repr=False
    )
    _cache_generation: int = field(default=0, repr=False)
    #: The attached :class:`~repro.graphs.shm.SharedGraphStore` whose pages
    #: the arrays borrow: were it collected while the graph lives, its
    #: finalizer would unmap them under the views (use-after-free).
    _shm_store: Optional[object] = field(default=None, repr=False)

    def __post_init__(self):
        self.src = np.asarray(self.src, dtype=np.int64)
        self.dst = np.asarray(self.dst, dtype=np.int64)
        if self.src.shape != self.dst.shape:
            raise ValueError("src and dst must have equal length")
        # Viewed unsigned, a negative endpoint exceeds every bound.
        if len(self.src) and max(
            self.src.view(np.uint64).max(), self.dst.view(np.uint64).max()
        ) >= self.n_nodes:
            raise ValueError("edge endpoints out of range")

    # ------------------------------------------------------------------
    @property
    def n_edges(self) -> int:
        return len(self.src)

    @property
    def avg_degree(self) -> float:
        return self.n_edges / self.n_nodes if self.n_nodes else 0.0

    def label_dim(self) -> int:
        """Classifier output dimension: classes, or multi-hot label columns."""
        if self.labels is None:
            raise ValueError("graph has no labels")
        if self.multilabel:
            return int(self.labels.shape[1])
        return int(self.labels.max()) + 1

    def in_degrees(self) -> np.ndarray:
        return np.bincount(self.dst, minlength=self.n_nodes).astype(np.int64)

    def out_degrees(self) -> np.ndarray:
        return np.bincount(self.src, minlength=self.n_nodes).astype(np.int64)

    def degree_skew(self) -> float:
        """Gini coefficient of the in-degree distribution (0 = uniform).

        High skew is what produces "evil rows" and warp imbalance in
        row-centric SpMM designs.
        """
        deg = np.sort(self.in_degrees())
        n = len(deg)
        if n == 0 or deg.sum() == 0:
            return 0.0
        cumulative = np.cumsum(deg)
        return float((n + 1 - 2 * (cumulative / cumulative[-1]).sum()) / n)

    def node_arrays(self) -> Dict[str, np.ndarray]:
        """The :data:`NODE_FIELDS` columns this graph carries, by name."""
        columns = ((name, getattr(self, name)) for name in NODE_FIELDS)
        return {
            name: np.asarray(column)
            for name, column in columns if column is not None
        }

    # ------------------------------------------------------------------
    def _fresh_caches(self) -> None:
        """Drop caches stamped by an older generation (mutation safety)."""
        if self._cache_generation != self.generation:
            self._adj_cache.clear()
            self._structure_cache.clear()
            self._edge_index.clear()
            self._cache_generation = self.generation

    def edge_index(
        self, direction: str = "in"
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Edges grouped by endpoint: ``(order, indptr, values)``, cached.

        ``in`` groups by destination, ``out`` by source. ``order`` is the
        stable order of the grouping endpoint, so node ``v``'s edges are
        the COO positions ``order[indptr[v]:indptr[v + 1]]`` in their
        original relative order, and ``values`` (``src[order]`` for ``in``,
        ``dst[order]`` for ``out``) the other endpoint of each. Numpy-only
        and read-only once built: one O(E + n) :func:`stable_order` per
        direction per graph; deltas patch it (:mod:`repro.graphs.mutation` installs new
        arrays equal to a rebuild, so a tuple fetched earlier stays valid
        for the edge list it was fetched from). It buys O(degree)
        neighbour lookups for subgraph induction, the walk / k-hop
        samplers and the delta's own edge removal, from any thread.
        """
        if direction not in ("in", "out"):
            raise ValueError(f"unknown direction {direction!r}; use in/out")
        self._fresh_caches()
        index = self._edge_index.get(direction)
        if index is None:
            keys, other = (
                (self.dst, self.src) if direction == "in"
                else (self.src, self.dst)
            )
            order = stable_order(((keys, self.n_nodes),))
            indptr = np.zeros(self.n_nodes + 1, dtype=np.int64)
            np.cumsum(np.bincount(keys, minlength=self.n_nodes), out=indptr[1:])
            index = (order, indptr, other[order])
            for array in index:  # shared across threads: never written again
                array.flags.writeable = False
            self._edge_index[direction] = index
        return index

    def structural_adjacency(self, loops: bool = False) -> CSRMatrix:
        """The unnormalised adjacency (optionally ``A + I``), cached.

        These are the bases every :func:`normalized_adjacency` variant
        scales from; :mod:`repro.graphs.mutation` merges deltas into them
        incrementally instead of re-sorting the edge list.
        """
        self._fresh_caches()
        key = "loops" if loops else "plain"
        base = self._structure_cache.get(key)
        if base is None:
            src, dst = self.src, self.dst
            if loops:
                loop = np.arange(self.n_nodes, dtype=np.int64)
                src, dst = np.concatenate([src, loop]), np.concatenate([dst, loop])
            base = CSRMatrix.from_edges(src, dst, (self.n_nodes, self.n_nodes))
            self._structure_cache[key] = base
        return base

    def adjacency(self, norm: str = "none") -> CSRMatrix:
        """The (optionally normalised) adjacency in CSR form, cached.

        ``norm`` is one of ``none``/``gin`` (unit weights), ``sage``
        (1/d mean aggregator) or ``gcn`` (symmetric with self-loops).
        """
        self._fresh_caches()
        key = "none" if norm == "gin" else norm
        if key not in self._adj_cache:
            self._adj_cache[key] = normalized_adjacency(self, key)
        return self._adj_cache[key]

    def adjacency_transpose(self, norm: str = "none") -> CSRMatrix:
        """Transpose of :meth:`adjacency`, cached alongside it.

        The backward pass of every aggregation needs ``A^T``; caching it on
        the graph lets the training engine rebind one model across many
        subgraph batches without recomputing the transpose per step.
        """
        self._fresh_caches()
        key = ("none" if norm == "gin" else norm) + "^T"
        if key not in self._adj_cache:
            self._adj_cache[key] = self.adjacency(norm).transpose()
        return self._adj_cache[key]

    def built_adjacencies(self) -> Mapping[str, CSRMatrix]:
        """Every adjacency / transpose built so far, by cache key (read-only).

        What a consumer hands to the sparse backend's ``release`` when the
        graph retires, and what :meth:`flatten` ships pre-built.
        """
        self._fresh_caches()
        return MappingProxyType(self._adj_cache)

    def flatten(self) -> Tuple[dict, Dict[str, np.ndarray]]:
        """``(meta, arrays)``: the graph as picklable scalars + named arrays.

        The one codec for both process boundaries (shared-memory export
        and the prefetch workers' pickled batches): ``arrays`` holds the
        COO endpoints, the node columns present and every built adjacency
        as ``adj[key].indptr|indices|data``, with their shapes in ``meta``.
        """
        arrays = {"src": self.src, "dst": self.dst, **self.node_arrays()}
        shapes = {}
        for key, csr in self.built_adjacencies().items():
            shapes[key] = tuple(csr.shape)
            for part in _CSR_PARTS:
                arrays[f"adj[{key}].{part}"] = getattr(csr, part)
        meta = {
            "n_nodes": self.n_nodes,
            "name": self.name,
            "multilabel": self.multilabel,
            "adjacency": shapes,
        }
        return meta, arrays

    @classmethod
    def unflatten(cls, meta: dict, arrays: Mapping[str, np.ndarray]) -> "Graph":
        """Rebuild :meth:`flatten`'s graph around ``arrays`` (validated, not
        copied: shared-memory views stay views)."""
        graph = cls(
            n_nodes=meta["n_nodes"],
            src=arrays["src"],
            dst=arrays["dst"],
            name=meta["name"],
            multilabel=meta["multilabel"],
            **{name: arrays[name] for name in NODE_FIELDS if name in arrays},
        )
        for key, shape in meta["adjacency"].items():
            graph._adj_cache[key] = CSRMatrix(
                *(arrays[f"adj[{key}].{part}"] for part in _CSR_PARTS),
                shape=tuple(shape),
            )
        return graph

    @classmethod
    def from_structure(cls, base: CSRMatrix, **fields) -> "Graph":
        """The graph whose structural base is the square CSR ``base``
        (``A[dst, src]`` = that edge's multiplicity), installed as its
        ``"plain"`` base: :meth:`adjacency` scales ``base`` without a sort
        (``gcn``'s ``loops`` base is still built from the edges). The COO
        lists each entry once per unit of weight, in CSR order: the edge
        multiset ``base`` counts, so ``n_edges`` and any base rebuilt from
        the edges are what an edge-list build gives. ``fields`` are the
        other dataclass fields (node columns, ``name``, ...).
        """
        n_nodes = base.shape[0]
        if base.shape[1] != n_nodes:
            raise ValueError("a structural base must be square")
        counts = base.data.astype(np.int64)
        if (counts != base.data).any():
            raise ValueError("structural weights must be edge counts")
        rows = np.repeat(np.arange(n_nodes), base.row_degrees())
        graph = cls(
            n_nodes=n_nodes, src=np.repeat(base.indices, counts),
            dst=np.repeat(rows, counts), **fields,
        )
        graph._structure_cache["plain"] = base
        return graph

    def apply_delta(self, delta, warm: bool = True) -> "Graph":
        """Apply a :class:`~repro.graphs.mutation.GraphDelta` in place.

        Patches the delta into the cached CSR buffers and the edge index,
        bumps :attr:`generation`, and swaps the old matrices out of the
        active sparse backend's plan caches. See
        :mod:`repro.graphs.mutation`.
        """
        from .mutation import apply_delta as _apply

        return _apply(self, delta, warm=warm)

    def to_undirected(self) -> "Graph":
        """Add every edge's reverse.

        Nothing deduplicates them: an edge already present in both
        directions appears twice per direction, and the structural base
        stores it as one entry of weight 2. ``sage`` divides by the entry
        count, not the weight sum, so such a row's weights sum above 1.
        """
        return Graph(
            n_nodes=self.n_nodes,
            src=np.concatenate([self.src, self.dst]),
            dst=np.concatenate([self.dst, self.src]),
            name=self.name,
            multilabel=self.multilabel,
            **self.node_arrays(),
        )

    def summary(self) -> Dict[str, float]:
        return {
            "name": self.name,
            "n_nodes": self.n_nodes,
            "n_edges": self.n_edges,
            "avg_degree": round(self.avg_degree, 2),
            "degree_skew": round(self.degree_skew(), 3),
        }


def normalized_adjacency(graph: Graph, norm: str = "none") -> CSRMatrix:
    """Build the normalised adjacency matrix for an aggregator type: the
    :func:`scaled_adjacency` of the graph's structural base (``A + I`` for
    ``gcn``, ``A`` otherwise).

    The structural bases come from :meth:`Graph.structural_adjacency`, so
    a graph mutated through :mod:`repro.graphs.mutation` re-derives every
    normalisation from the incrementally-merged buffers via the exact
    scaling expressions a from-scratch build would use (bit-identity).
    """
    return scaled_adjacency(graph.structural_adjacency(loops=norm == "gcn"), norm)


def scaled_adjacency(base: CSRMatrix, norm: str = "none") -> CSRMatrix:
    """The one place the normalisations are computed, from a structural
    base (``A + I`` for ``gcn``, ``A`` otherwise): a graph's, or a served
    window's (:func:`~repro.sparse.ops.induced_rows`).

    ``none``: ``A[dst, src] = 1`` (GIN sum aggregator).
    ``sage``: rows scaled by 1 / in-degree (mean aggregator).
    ``gcn``:  ``D^{-1/2} (A + I) D^{-1/2}``.
    """
    if norm in ("none", "gin"):
        return base
    degrees = base.row_degrees().astype(base.data.dtype)
    if norm == "sage":
        inv = np.divide(1.0, degrees, out=np.zeros_like(degrees), where=degrees > 0)
        return base.scale_rows(inv)
    if norm == "gcn":
        inv_sqrt = np.divide(
            1.0, np.sqrt(degrees), out=np.zeros_like(degrees), where=degrees > 0
        )
        return base.scale_rows(inv_sqrt).scale_cols(inv_sqrt)
    raise ValueError(f"unknown normalisation {norm!r}; use none/gin/sage/gcn")
