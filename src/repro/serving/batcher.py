"""Deadline-aware dynamic micro-batcher over the training hot path.

Concurrent per-node queries coalesce into one fused forward pass: the
window's fan-out-limited ego-nets (one salt per request seed) expand
together in one :func:`~repro.graphs.sampling.khop_keys` pass, each
normalised window adjacency is cut straight out of the served graph's
structural CSR rows by :func:`~repro.sparse.ops.induced_rows`
(block-diagonal, so no cross-request edges exist and every member
aggregates exactly as it would alone: the bytes of :func:`~repro.graphs.
partition.induced_union`'s merged graph, which a live window never
builds), and one eval-mode forward computes each layer at the rows its
answers read (:func:`layer_blocks`). The window's adjacencies are fresh
one-shot matrices, never ``A^T``: nothing registers them with the sparse
backend beforehand, and the forward drops them from its caches as it
ends. Row-wise dense kernels plus strictly per-row aggregation make each
request's logits **bit-identical** to running it alone — the property
the benchmark gates (see :func:`forward_rows` for the products BLAS does
not compute row-wise).

The batch *window* is bounded twice: by ``max_batch`` (size) and by the
earliest deadline in the queue (time) — :meth:`MicroBatcher.wait_budget`
never extends past the moment the most urgent request would need to
start to finish on time, and :meth:`take_window` sheds anything already
expired instead of serving it late.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..graphs import Graph
from ..graphs.graph import scaled_adjacency
from ..graphs.partition import induced_union
from ..graphs.sampling import khop_keys
from ..models.layers import Block
from ..sparse import CSRMatrix
from ..sparse.ops import get_backend, induced_rows
from ..training.parallel import conv_norms
from .queue import AdmissionQueue, Request

__all__ = ["BatcherConfig", "EgoBatch", "MicroBatcher", "build_ego_batch",
           "layer_blocks", "serve_window"]


@dataclass(frozen=True)
class BatcherConfig:
    """Window geometry: size bound, time bound, ego-net shape."""

    max_batch: int = 8
    #: How long a non-full window may linger waiting for more arrivals.
    linger: float = 0.0
    #: Safety margin subtracted from the earliest deadline when deciding
    #: how long the window may keep waiting (an estimate of service time;
    #: refreshed from measurements by the service).
    service_estimate: float = 0.0
    n_hops: int = 1
    fanout: int = 8

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.linger < 0 or self.service_estimate < 0:
            raise ValueError("linger/service_estimate must be >= 0")


@dataclass
class EgoBatch:
    """One fused window: its rows, their features and adjacencies, and
    each request's query row."""

    requests: List[Request]
    #: The served graph the window reads.
    graph: Graph = field(repr=False)
    #: Sorted unique ``member * n_nodes + node`` ids: window row ``i`` is
    #: ``keys[i]``'s node in request ``member``'s ego-net.
    keys: np.ndarray
    #: Row holding each request's query node, request order (so ascending:
    #: member ``m``'s rows follow member ``m - 1``'s).
    query_rows: np.ndarray
    #: The window rows' node features (one gather from the served graph).
    features: Optional[np.ndarray]
    _adjacency: Dict[str, CSRMatrix] = field(default_factory=dict, repr=False)

    def adjacency(self, norm: str = "none") -> CSRMatrix:
        """The window's ``norm`` adjacency, cached per norm as
        :meth:`Graph.adjacency` caches a graph's: the served graph's
        structural base cut to the window rows, then scaled by the same
        expressions (``merged.adjacency(norm)``'s bytes)."""
        key = "none" if norm == "gin" else norm
        if key not in self._adjacency:
            base = self.graph.structural_adjacency(loops=key == "gcn")
            self._adjacency[key] = scaled_adjacency(
                induced_rows(base, self.keys, len(self.requests)), key)
        return self._adjacency[key]

    @cached_property
    def merged(self) -> Graph:
        """The window as one block-diagonal :class:`Graph`, built on first
        read: the oracle :meth:`adjacency` and :attr:`features` equal, and
        what a staged replay warms (:meth:`MicroBatcher.warm`)."""
        return induced_union(self.graph, self.keys, len(self.requests))


def build_ego_batch(graph: Graph, requests: Sequence[Request],
                    n_hops: int, fanout: int) -> EgoBatch:
    """Materialise one window: per-request ego-nets fused block-diagonally.

    One :func:`khop_keys` expansion with a member per request, salted by
    its seed; the keys reached are the rows of the requests'
    ``khop_neighborhood`` ego-nets stacked in request order, and :meth:`EgoBatch.adjacency`
    cuts their edges out of the served graph on demand. Every member is a
    pure function of ``(graph, node, seed)``, so a retried batch (and a
    single-request batch of the same ``(node, seed)``) reproduces the same
    rows bit for bit.
    """
    nodes = np.array([request.node for request in requests], dtype=np.int64)
    if nodes.view(np.uint64).max() >= graph.n_nodes:  # negatives wrap high
        raise ValueError("request node ids out of range")
    seeds = np.arange(nodes.size) * graph.n_nodes + nodes
    keys = khop_keys(graph, seeds, [r.seed for r in requests], n_hops, fanout)
    return EgoBatch(
        requests=list(requests),
        graph=graph,
        keys=keys,
        query_rows=np.searchsorted(keys, seeds),
        features=None if graph.features is None
        else graph.features[keys % graph.n_nodes],
    )


class MicroBatcher:
    """Forms deadline-bounded windows from an :class:`AdmissionQueue`."""

    def __init__(self, config: Optional[BatcherConfig] = None):
        self.config = config or BatcherConfig()
        #: Measured EMA of batch service seconds (service-maintained);
        #: pre-seeds from config so a cold batcher is conservative.
        self.service_estimate = self.config.service_estimate
        self.batches_formed = 0
        self.requests_batched = 0

    def note_service_time(self, seconds: float) -> None:
        """Fold one measured batch service time into the window margin."""
        if seconds <= 0:
            return
        if self.service_estimate <= 0:
            self.service_estimate = seconds
        else:
            self.service_estimate = (
                0.7 * self.service_estimate + 0.3 * seconds
            )

    def wait_budget(self, queue: AdmissionQueue,
                    now: Optional[float] = None) -> float:
        """How much longer the window may wait for more arrivals.

        Zero when the window must fire now (full, lingered long enough, or
        the earliest deadline leaves no slack for the service time);
        otherwise the smaller of the remaining linger and the earliest
        deadline's remaining slack. Never exceeds ``earliest_deadline -
        now`` — the batcher cannot wait a request straight past its
        deadline.
        """
        if now is None:
            now = queue.clock()
        if len(queue) == 0:
            return self.config.linger
        if len(queue) >= self.config.max_batch:
            return 0.0
        earliest = queue.earliest_deadline()
        slack = earliest - now - self.service_estimate
        oldest = queue.oldest_submitted()
        linger_left = self.config.linger - (now - oldest)
        return max(0.0, min(slack, linger_left))

    def ready(self, queue: AdmissionQueue,
              now: Optional[float] = None) -> bool:
        """Whether the window should fire rather than keep waiting."""
        if len(queue) == 0:
            return False
        return self.wait_budget(queue, now) <= 0.0

    def take_window(self, queue: AdmissionQueue,
                    now: Optional[float] = None) -> List[tuple]:
        """Pop one window (≤ ``max_batch``), shedding expired requests."""
        window = queue.take(self.config.max_batch, now)
        if window:
            self.batches_formed += 1
            self.requests_batched += len(window)
        return window

    # -- a staged replay's hooks (:func:`serve_window` uses neither) -----
    @staticmethod
    def warm(model, merged: Graph) -> None:
        """Register the merged adjacencies (not ``A^T``) with the backend."""
        get_backend().warm([merged.adjacency(n) for n in conv_norms(model)])

    @staticmethod
    def release(batch: EgoBatch) -> None:
        """Drop the merged graph's backend wrappers (LRU hygiene), if
        something built it; never builds it.

        Served windows are one-shot graphs; without this, every warmed
        window would churn the backend's LRU and evict the full graph's
        (and the cache-worthy survivors') warm entries. The window's own
        adjacencies are :func:`forward_rows`' to release.
        """
        if "merged" in vars(batch):
            get_backend().release(batch.merged.built_adjacencies().values())


#: Windows of fewer rows run every layer whole. A layer's fixed cost is
#: ≈ 0.1 ms at any row count there, so blocks cost more than they save:
#: the forward's crossover measured ≈ 4 requests (≈ 280 rows) at fanout
#: 8, 2 hops, hidden 64, on a 2-vCPU x86 host. Whole windows built from
#: the served graph's rows (no merged graph, no warm) moved it little: a
#: served window whole against sliced ties at 3–4 requests (≈ 210–280
#: rows) on both bench graphs, on the same host.
MIN_SLICED_ROWS = 256


def _one_row_twice(rows: np.ndarray) -> np.ndarray:
    # numpy's one-row float32 matmul is a gemv, which rounds unlike the same
    # row inside a GEMM: a lone row never meets a product alone.
    return rows.repeat(2) if rows.size == 1 else rows


def layer_blocks(model, batch: EgoBatch, rows: np.ndarray
                 ) -> Tuple[List[Block], np.ndarray]:
    """Each conv's :class:`~repro.models.layers.Block` for a pass reading
    ``rows`` of the last layer, and the first layer's input features.

    Layer ``L`` writes ``D_L`` = the sorted unique ``rows`` (every row in a
    window under :data:`MIN_SLICED_ROWS`) and layer ``l`` reads ``D_{l-1} =
    D_l`` ∪ the columns of ``A[D_l]``: the window adjacency itself where
    ``D_l`` is every row, else its CSR row slice (same edges, same order)
    with columns renumbered into ``D_{l-1}``.
    """
    n, features = batch.keys.size, batch.features
    mark, local = np.zeros(n, dtype=bool), np.empty(n, dtype=np.int64)
    mark[rows if n >= MIN_SLICED_ROWS else slice(None)] = True
    dst, blocks = np.flatnonzero(mark), []
    for conv in reversed(model.convs):
        adj = batch.adjacency(conv.norm)
        if dst.size == n > 1:
            blocks.insert(0, Block(adj, None))
            continue
        out = _one_row_twice(dst)
        starts = adj.indptr[out]
        counts = adj.indptr[out + 1] - starts
        indptr = np.zeros(out.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        edges = np.arange(indptr[-1])
        edges += np.repeat(starts - indptr[:-1], counts)
        cols = adj.indices[edges]
        mark[cols] = True
        dst = np.flatnonzero(mark)
        inputs = _one_row_twice(dst)
        local[inputs] = np.arange(inputs.size)
        blocks.insert(0, Block(CSRMatrix(
            indptr, local[cols], adj.data[edges], shape=(out.size, inputs.size)
        ), local[out]))
    return blocks, features if dst.size == n > 1 else features[inputs]


def forward_rows(model, batch: EgoBatch) -> List[np.ndarray]:
    """One eval-mode fused pass; returns each request's logits row.

    Eval mode keeps dropout out of the forward (serving consumes no RNG
    beyond the ego-net seeds), so the pass is deterministic and the
    extracted rows are bit-identical to single-request inference.

    Each layer runs on its :func:`layer_blocks` rows (a lone row twice);
    the model is not rebound, so an engine sharing it keeps its graph. The
    head classifies each query row as its own ``(1, hidden)`` product: a
    GEMM whose column count is not a multiple of the BLAS tile rounds a
    row by where it sits among the others (float32, 7 classes: one answer
    in eleven moved in the last bit between a window and the request
    alone), and only the query rows' logits are wanted anyway.
    """
    from ..tensor import no_grad

    blocks, features = layer_blocks(model, batch, batch.query_rows)
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            hidden = model.embed(features, blocks)
            # A sliced last layer writes the (ascending) query rows alone.
            rows = batch.query_rows if blocks[-1].dst is None else range(
                batch.query_rows.size)
            return [model.classify(hidden[row:row + 1]).numpy()[0]
                    for row in rows]
    finally:
        # Every block's adjacency is the window's own: one-shot.
        get_backend().release(block.adj for block in blocks)
        if was_training:
            model.train()


def serve_window(graph: Graph, model, requests: Sequence[Request],
                 n_hops: int, fanout: int) -> List[np.ndarray]:
    """Serve one window: build the ego batch → fused forward.

    The one function a served window and ``infer_single`` both go
    through, so batched rows equal single-request rows bit for bit. The
    window's backend wrappers are released whether or not the forward
    succeeds.
    """
    return forward_rows(model, build_ego_batch(graph, requests, n_hops, fanout))
