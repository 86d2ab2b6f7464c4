"""Pluggable data-flow strategies for the training engine.

The paper (§1) positions the MaxK constructs as orthogonal to how training
batches are formed — full-graph, sampled mini-batch (GraphSAINT [33] /
GraphSAGE [28]) or partition-parallel (BNS-GCN [27]). This module makes
that claim executable: each strategy below turns a graph into a per-epoch
stream of training subgraphs, and :class:`~repro.training.engine.Engine`
runs the identical optimisation loop over whichever stream it is handed
(the same DataLoader-over-samplers layering DGL uses).

* :class:`FullGraphFlow` — one full-batch step per epoch;
* :class:`SampledFlow` — subgraph mini-batches from any of the
  :mod:`repro.graphs.sampling` samplers, with a deterministic per-slot
  batch schedule, streamed generators, and an LRU subgraph pool whose
  evictions release backend CSR caches;
* :class:`PartitionedFlow` — BNS-GCN partitions with freshly sampled
  boundary halos every epoch;
* :class:`PrefetchFlow` — a wrapper that materialises the next batches of
  any flow (sampling, induction, CSR build, backend matrix registration)
  ahead of the consumer: one consumer loop over a builder that is either a
  window of futures on one background thread or a pool of worker
  processes, both warming batches through
  :func:`~repro.training.parallel.build_adjacencies`;
* :class:`DistributedFlow` — simulated multi-GPU data parallelism: the
  inner flow's epoch schedule is sharded across ``R`` replicas in rounds,
  the engine all-reduces replica gradients in a fixed order (one optimizer
  step per round), and the flow reports measured straggler skew next to
  the gpusim-modelled communication volume and predicted scaling.

A flow *is* its schedule: :meth:`DataFlow.plan` — the one method a flow
implements — lists an epoch's batches as :class:`BatchPlan` objects, and
every consumer (the sequential :meth:`DataFlow.batches` loop, both
prefetch builders, the replica rounds) enumerates that list. Batch content
is a pure function of ``(seed, slot)``, so building a plan early or in
another process moves *when* and *where* the work happens, never *what* is
sampled — which is what makes prefetching bit-identical to sequential.
"""

from __future__ import annotations

import warnings
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Deque, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..graphs import (
    Graph,
    Partition,
    batch_graphs,
    bfs_partition,
    bns_sample,
    edge_sampler,
    node_sampler,
    random_walk_sampler,
)
from ..graphs.partition import sorted_unique
from ..graphs.sampling import khop_keys
from ..sparse import ops
from ..sparse.ops import get_backend, induced_rows
from .parallel import (
    PrefetchWorkerError,
    ProcessPrefetchPool,
    WorkerSupervisionError,
    resolve_process_workers,
    warm_batch,
)

__all__ = [
    "BatchPlan",
    "DataFlow",
    "FullGraphFlow",
    "SampledFlow",
    "PartitionedFlow",
    "MicroBatchedFlow",
    "PrefetchFlow",
    "PrefetchWorkerError",
    "DistributedFlow",
    "SubgraphCache",
    "make_flow",
]


def _release_graph(graph: Graph) -> int:
    """Drop the active backend's cached wrappers for ``graph``'s CSRs.

    The per-graph eviction hook: only the adjacency (and transpose)
    matrices this graph ever built are released, so the full graph's and
    surviving pool slots' compiled wrappers stay warm.
    """
    return get_backend().release(graph.built_adjacencies().values())


class SubgraphCache:
    """Bounded LRU of built subgraphs, keyed by schedule slot or by members.

    A cached subgraph keeps its CSR adjacency (and transpose) warm across
    epochs, so re-visiting a pool slot skips both the sampler and the
    adjacency build. Every eviction releases *only the evicted subgraph's*
    CSR wrappers from the active backend (the vectorized backend pins CSR
    buffers per graph), so pinned memory stays proportional to the pool
    while the full graph and every surviving slot remain warm.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[object, Graph]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.released = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key) -> Optional[Graph]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return entry

    def put(self, key, subgraph: Graph) -> None:
        self._entries[key] = subgraph
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            _, evicted = self._entries.popitem(last=False)
            self.evictions += 1
            self.released += _release_graph(evicted)

    def release_all(self) -> int:
        """Drop every entry, releasing each one's backend wrappers.

        Called when the pool is abandoned wholesale (e.g. the flow moves to
        a new parent graph) so the dropped subgraphs' pinned CSR wrappers
        don't outlive them.
        """
        dropped = 0
        while self._entries:
            _, evicted = self._entries.popitem(last=False)
            dropped += _release_graph(evicted)
        self.released += dropped
        return dropped

    def stats(self) -> Dict[str, int]:
        return {
            "size": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "released": self.released,
        }


class BatchPlan:
    """One prefetchable schedule entry of a data flow.

    ``build()`` materialises the batch — deterministically, since batch
    content derives from ``(seed, slot)`` alone — and may run on a
    background thread or in a worker process ahead of consumption.
    ``retire(batch)`` runs on the consumer side once the training step
    finished with it (one-shot flows release its backend wrappers there).
    """

    __slots__ = ()

    def build(self) -> Graph:
        raise NotImplementedError

    def retire(self, batch: Graph) -> None:
        """Consumer-side cleanup after the batch's step completed."""


class DataFlow:
    """One data-flow strategy: a per-epoch schedule of training subgraphs."""

    name = "abstract"

    def plan(self, graph: Graph, epoch: int) -> List[BatchPlan]:
        """The epoch's schedule: one :class:`BatchPlan` per batch, each a
        pure function of the flow's deterministic ``(seed, slot)``. The
        one method a flow implements; :meth:`batches`, the prefetch
        builders and :meth:`DistributedFlow.rounds` all enumerate it."""
        raise NotImplementedError

    def batches(self, graph: Graph, epoch: int) -> Iterator[Graph]:
        """Yield one epoch's training subgraphs (possibly ``graph``): each
        plan is built when reached, retired after the consumer's step."""
        for plan in self.plan(graph, epoch):
            batch = plan.build()
            yield batch
            plan.retire(batch)

    def describe(self) -> str:
        return self.name


class FullGraphFlow(DataFlow):
    """The paper's main setting: one full-batch gradient step per epoch."""

    name = "full"

    def plan(self, graph: Graph, epoch: int) -> List[BatchPlan]:
        return [_FullGraphPlan(graph)]


class _FullGraphPlan(BatchPlan):
    """The whole graph as the epoch's only batch."""

    __slots__ = ("graph",)

    def __init__(self, graph: Graph):
        self.graph = graph

    def build(self) -> Graph:
        return self.graph


#: Named samplers a :class:`SampledFlow` can schedule.
SAMPLER_NAMES = ("node", "edge", "walk", "khop")


class SampledFlow(DataFlow):
    """Sampled mini-batch flow (the GraphSAINT / GraphSAGE regimes).

    ``sampler`` names one of :data:`SAMPLER_NAMES` or is any callable with
    the ``sampler(graph, size, seed=rng)`` shape. Every batch occupies one
    deterministic schedule *slot*; with ``pool_size`` set, slots repeat
    every ``pool_size`` batches (GraphSAINT's precomputed subgraph pool)
    and the LRU cache serves repeats with their CSR adjacencies warm.
    Slot randomness derives from ``(seed, slot)``, so a batch's content is
    independent of visiting order and cache state, and each sampler call
    receives the streaming :class:`np.random.Generator` rather than a
    reseeding integer.
    """

    name = "sampled"

    def __init__(
        self,
        sampler: Union[str, Callable[..., Graph]] = "node",
        batches_per_epoch: int = 1,
        sample_size: Optional[int] = None,
        walk_length: int = 8,
        n_hops: int = 2,
        fanout: int = 8,
        seed: int = 0,
        pool_size: Optional[int] = None,
        importance: bool = False,
        importance_alpha: float = 1.0,
    ):
        if isinstance(sampler, str) and sampler not in SAMPLER_NAMES:
            raise ValueError(
                f"unknown sampler {sampler!r}; options: {list(SAMPLER_NAMES)}"
            )
        if not isinstance(sampler, str) and not callable(sampler):
            raise ValueError("sampler must be a name or a callable")
        if importance and sampler not in ("node", "edge"):
            raise ValueError(
                "importance sampling needs the node or edge sampler"
            )
        if importance_alpha < 0:
            raise ValueError("importance_alpha must be >= 0")
        if batches_per_epoch < 1:
            raise ValueError("batches_per_epoch must be >= 1")
        if sample_size is not None and sample_size < 1:
            raise ValueError("sample_size must be positive")
        if pool_size is not None and pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        self.sampler = sampler
        self.batches_per_epoch = batches_per_epoch
        self.sample_size = sample_size
        self.walk_length = walk_length
        self.n_hops = n_hops
        self.fanout = fanout
        self.seed = seed
        #: Degree-weighted GraphSAINT importance sampling: batches carry
        #: the unbiased ``loss_weights`` the engine's weighted losses use.
        self.importance = importance
        self.importance_alpha = importance_alpha
        self.pool_size = pool_size
        # The cache spans the whole pool: one cycling through more slots
        # than the LRU holds never hits and evicts on every batch (PERF.md:
        # 36.4 vs 28.1 ms / epoch). Unpooled flows never touch it.
        self.cache = SubgraphCache(pool_size if pool_size is not None else 8)
        # Held strongly, like PartitionedFlow's partition: slots are only
        # meaningful for the graph they were sampled from.
        self._cache_graph: Optional[Graph] = None
        self._floor_graph: Optional[Graph] = None
        self._floor = 1

    def __getstate__(self):
        # Picklable for spawn workers: ship the schedule parameters, never
        # the graph-bound runtime state (the worker rebinds to its own
        # shared-memory graph and grows its own pool cache).
        state = self.__dict__.copy()
        state["cache"] = SubgraphCache(self.cache.capacity)
        state["_cache_graph"] = None
        state["_floor_graph"] = None
        return state

    def describe(self) -> str:
        label = self.sampler if isinstance(self.sampler, str) else "custom"
        suffix = "+imp" if self.importance else ""
        return f"sampled/{label}x{self.batches_per_epoch}{suffix}"

    # ------------------------------------------------------------------
    def _labelled_floor(self, graph: Graph) -> int:
        """Smallest default batch whose expected labelled rows cover the task.

        A uniform batch of ``s`` nodes sees ``s * q`` training hits for a
        node class occurring at rate ``q``. Single-label tasks only need a
        training node at all (``q`` = labelled fraction); multi-label tasks
        (the Yelp / ogbn-proteins masks) need **per-label** handling — every
        label column must expect at least one *positive* training row, else
        its BCE column trains on pure negatives (and tiny batches routinely
        carry no labelled rows at all, making whole epochs NaN). The floor
        is ``ceil(1 / min_label_rate)`` capped at the graph size; explicit
        ``sample_size`` requests are honoured unchanged.
        """
        if self._floor_graph is graph:
            return self._floor
        floor = 1
        mask = graph.train_mask
        if mask is not None and graph.labels is not None and np.any(mask):
            mask = np.asarray(mask, dtype=bool)
            if graph.multilabel:
                labels = np.asarray(graph.labels)
                rates = (labels * mask[:, None]).mean(axis=0)
                rates = rates[rates > 0]
                rate = rates.min() if rates.size else mask.mean()
            else:
                rate = mask.mean()
            floor = min(graph.n_nodes, int(np.ceil(1.0 / rate)))
        self._floor_graph = graph
        self._floor = floor
        return floor

    def _size(self, graph: Graph) -> int:
        if self.sample_size is not None:
            return min(self.sample_size, graph.n_nodes)
        default = max(1, graph.n_nodes // max(2 * self.batches_per_epoch, 2))
        return max(default, self._labelled_floor(graph))

    def _sample(self, graph: Graph, slot: int) -> Graph:
        rng = np.random.default_rng((self.seed, slot))
        size = self._size(graph)
        if callable(self.sampler):
            # Custom callables keep the historical int-seed contract (the
            # named samplers below opt in to streamed generators).
            return self.sampler(graph, size, seed=int(rng.integers(1 << 31)))
        if self.sampler == "node":
            return node_sampler(
                graph, size, seed=rng, importance=self.importance,
                alpha=self.importance_alpha,
            )
        if self.sampler == "edge":
            # sample_size counts edges on this path; the default splits the
            # edge set across the epoch's batches like _size does for nodes.
            n_edges = self.sample_size or max(
                1, graph.n_edges // max(2 * self.batches_per_epoch, 2)
            )
            return edge_sampler(graph, n_edges, seed=rng,
                                importance=self.importance,
                                alpha=self.importance_alpha)
        if self.sampler == "walk":
            return random_walk_sampler(
                graph, n_roots=size, walk_length=self.walk_length, seed=rng
            )
        # "khop": GraphSAGE-style — seed on labelled training nodes.
        train_mask = graph.train_mask
        candidates = (
            np.where(train_mask)[0] if train_mask is not None
            else np.arange(graph.n_nodes)
        )
        seeds = rng.choice(
            candidates, size=min(size, candidates.size), replace=False
        )
        # khop_neighborhood's nodes and draw; the batch is cut from the
        # graph's CSR rows instead of induced from its edge list.
        nodes = khop_keys(
            graph, sorted_unique(seeds), [rng], self.n_hops, self.fanout
        )
        return Graph.from_structure(
            induced_rows(graph.structural_adjacency(), nodes),
            name=f"{graph.name}-sub", multilabel=graph.multilabel,
            **{key: rows[nodes] for key, rows in graph.node_arrays().items()},
        )

    def _bind_graph(self, graph: Graph) -> None:
        if self._cache_graph is not graph:
            self.cache.release_all()
            self.cache = SubgraphCache(self.cache.capacity)
            self._cache_graph = graph

    def plan(self, graph: Graph, epoch: int) -> List[BatchPlan]:
        self._bind_graph(graph)
        return [
            _SampledBatchPlan(
                self, graph, epoch * self.batches_per_epoch + index, self.cache
            )
            for index in range(self.batches_per_epoch)
        ]


class _SampledBatchPlan(BatchPlan):
    """One ``(seed, slot)`` schedule entry of a :class:`SampledFlow`.

    Pooled slots are served (and populated) through the flow's LRU cache —
    a warm slot is never rebuilt, and eviction releases only the evicted
    subgraph's backend wrappers. Unpooled steps sample one-shot subgraphs:
    caching would only pin dead subgraphs and thrash the backend cache, so
    ``retire`` drops their wrappers once the consumer's step finished.

    The plan captures the cache *instance* it was scheduled against: if
    the flow rebinds to a new graph (which swaps in a fresh cache) while a
    stale prefetch build is in flight, that build writes into the dead
    cache instead of poisoning the new graph's pool with an old subgraph.
    """

    __slots__ = ("flow", "graph", "step", "cache")

    def __init__(self, flow: "SampledFlow", graph: Graph, step: int,
                 cache: SubgraphCache):
        self.flow = flow
        self.graph = graph
        self.step = step
        self.cache = cache

    def build(self) -> Graph:
        flow = self.flow
        if flow.pool_size is None:
            return flow._sample(self.graph, self.step)
        slot = self.step % flow.pool_size
        subgraph = self.cache.get(slot)
        if subgraph is None:
            subgraph = flow._sample(self.graph, slot)
            self.cache.put(slot, subgraph)
        return subgraph

    def retire(self, batch: Graph) -> None:
        if self.flow.pool_size is None:
            _release_graph(batch)


class MicroBatchedFlow(DataFlow):
    """Stack consecutive batches of an inner flow into merged micro-steps.

    Every group of ``size`` subgraphs the inner flow yields is replaced by
    their disjoint union (:func:`repro.graphs.batch_graphs`): the engine
    then runs the group's dense transforms — dropout, the fused
    linear/bias/activation kernels, the classifier — as **one pass over the
    concatenated rows with shared weights**, while the block-diagonal
    adjacency scatters aggregation back per subgraph (no cross-subgraph
    edges). One optimizer step covers the group, trading step count for
    arithmetic intensity exactly like gradient-accumulation micro-batching.

    Merged graphs are cached (a :class:`SubgraphCache` keyed by member
    identity) so a pooled inner flow keeps merged CSR adjacencies warm
    across epochs; evictions release only the evicted union's backend
    wrappers.
    """

    name = "micro"

    def __init__(self, inner: DataFlow, size: int):
        if size < 1:
            raise ValueError("micro-batch size must be >= 1")
        self.inner = inner
        self.size = size
        self._merged = SubgraphCache(8)  # merged unions kept warm
        self._merge_graph: Optional[Graph] = None

    def __getstate__(self):
        # Spawn-safe: merged unions are keyed by member identity, which
        # does not survive pickling — workers rebuild their own.
        state = self.__dict__.copy()
        state["_merged"] = SubgraphCache(self._merged.capacity)
        state["_merge_graph"] = None
        return state

    def describe(self) -> str:
        return f"{self.inner.describe()}+micro{self.size}"

    def _merge(self, group: list) -> Graph:
        if len(group) == 1:
            return group[0]
        key = _Members(group)
        merged = self._merged.get(key)
        if merged is not None:
            return merged
        merged = batch_graphs(group)
        if merged.loss_weights is not None:
            # Each member's weighted-sum loss estimates the full-graph mean
            # on its own; the merged step computes ONE weighted sum over
            # the union, so rescale to the mean of the member estimators —
            # otherwise a K-way merge silently multiplies loss and
            # gradients by K. (batch_graphs concatenates into a fresh
            # array, so scaling here cannot alias member weights.)
            merged.loss_weights = merged.loss_weights / len(group)
        self._merged.put(key, merged)
        return merged

    def plan(self, graph: Graph, epoch: int) -> List[BatchPlan]:
        inner_plans = self.inner.plan(graph, epoch)
        if self._merge_graph is not graph:
            # New parent graph: the pooled members are gone, so drop (and
            # release) every merged union built from them.
            self._merged.release_all()
            self._merge_graph = graph
        # A trailing partial group still trains.
        return [
            _MicroBatchPlan(self, inner_plans[start:start + self.size])
            for start in range(0, len(inner_plans), self.size)
        ]


class _Members(tuple):
    """Member graphs as a cache key, by identity. Being the key, they live
    as long as the entry, so no ``id`` is recycled under it."""

    def __hash__(self):
        return hash(tuple(map(id, self)))

    def __eq__(self, other):
        return tuple(map(id, self)) == tuple(map(id, other))


class _MicroBatchPlan(BatchPlan):
    """A group of inner-flow plans merged into one micro-step union.

    Members that were merged into a fresh union are retired right after the
    merge (their own backend wrappers — if any were built — are no longer
    needed; the union carries its own adjacency). A singleton group *is*
    its member, so its retirement waits for the consumer's step.
    """

    __slots__ = ("flow", "members")

    def __init__(self, flow: "MicroBatchedFlow", members: List[BatchPlan]):
        self.flow = flow
        self.members = members

    def build(self) -> Graph:
        built = [plan.build() for plan in self.members]
        merged = self.flow._merge(built)
        if len(built) > 1:
            for plan, member in zip(self.members, built):
                plan.retire(member)
        return merged

    def retire(self, merged: Graph) -> None:
        if len(self.members) == 1:
            self.members[0].retire(merged)


class PartitionedFlow(DataFlow):
    """BNS-GCN flow: every epoch visits each partition with a fresh halo.

    The partition is computed once per graph and reused; the sampled
    boundary halo is re-drawn every (epoch, part) visit.
    """

    name = "partitioned"

    def __init__(self, n_parts: int, boundary_fraction: float = 0.2,
                 seed: int = 0):
        if n_parts < 1:
            raise ValueError("n_parts must be >= 1")
        if not 0.0 <= boundary_fraction <= 1.0:
            raise ValueError("boundary_fraction must be in [0, 1]")
        self.n_parts = n_parts
        self.boundary_fraction = boundary_fraction
        self.seed = seed
        self._partition: Optional[Partition] = None
        # Held strongly: keying by id() alone could hand a recycled
        # address the previous graph's partition.
        self._partition_graph: Optional[Graph] = None

    def __getstate__(self):
        # Spawn-safe: workers recompute the (deterministic) partition
        # against their shared-memory view of the graph.
        state = self.__dict__.copy()
        state["_partition"] = None
        state["_partition_graph"] = None
        return state

    def describe(self) -> str:
        return f"partitioned/{self.n_parts}"

    def partition_for(self, graph: Graph) -> Partition:
        if self._partition is None or self._partition_graph is not graph:
            self._partition = bfs_partition(graph, self.n_parts, seed=self.seed)
            self._partition_graph = graph
        return self._partition

    def plan(self, graph: Graph, epoch: int) -> List[BatchPlan]:
        partition = self.partition_for(graph)
        return [
            _PartitionBatchPlan(self, graph, epoch, part)
            for part in range(partition.n_parts)
        ]


class _PartitionBatchPlan(BatchPlan):
    """One ``(epoch, part)`` BNS-GCN halo sample — deterministic by seed."""

    __slots__ = ("flow", "graph", "epoch", "part")

    def __init__(self, flow: "PartitionedFlow", graph: Graph, epoch: int,
                 part: int):
        self.flow = flow
        self.graph = graph
        self.epoch = epoch
        self.part = part

    def build(self) -> Graph:
        flow = self.flow
        return bns_sample(
            self.graph, flow.partition_for(self.graph), self.part,
            boundary_fraction=flow.boundary_fraction,
            seed=flow.seed + self.epoch * 131 + self.part,
        )


class PrefetchFlow(DataFlow):
    """Materialise an inner flow's next batches ahead of the consumer.

    Every flow's batch content is a pure function of its ``(seed, slot)``
    schedule, so building a batch early moves only *when* the sampling /
    induction / CSR-build / backend-registration work happens —
    trajectories are bit-identical with prefetch on or off. A *builder*
    processes :meth:`DataFlow.plan` entries in schedule order (so the
    subgraph pool's LRU sees the exact same get/put sequence) and
    :meth:`batches` consumes them through ``submit_epoch`` / ``result``,
    whichever builder answers: the background thread
    (:class:`_ThreadBuilder`, a window of at most ``depth`` futures) or,
    with an integer ``workers``, that many spawn processes
    (:class:`~repro.training.parallel.ProcessPrefetchPool`, which runs
    ``workers`` slots ahead whatever ``depth`` says). The schedule of epoch
    ``e + 1`` is submitted when epoch ``e`` starts, so the look-ahead rolls
    into the next epoch as the current one drains. An engine names its
    model's adjacencies via :meth:`set_warm_norms`, and every builder
    pre-builds those too.

    Notes
    -----
    * Pooled flows integrate with the LRU pool unchanged: warm slots are
      never rebuilt, and the cache spans the pool, so a built slot is
      never evicted under the trainer.
    * One-shot batches are released by the *consumer* after their step
      (:meth:`BatchPlan.retire`), exactly as in sequential execution.
    * Epochs are assumed to be consumed in the order they are requested
      and to the end: an out-of-order request, a new graph or an abandoned
      epoch shuts the builder down (retiring what it built ahead) and the
      next request starts a fresh one.
    * Only two builder failures reach the consumer: a *deterministic*
      build error (:class:`PrefetchWorkerError` — retrying cannot help),
      raised when the failed slot itself is requested, every earlier slot
      having been delivered; and the process pool's supervised-recovery
      exhaustion, on which the flow warns once, builds the epoch's
      remaining slots inline, and pins the thread builder for good.
    """

    name = "prefetch"

    def __init__(self, inner: DataFlow, depth: int = 2,
                 workers: Union[None, str, int] = None):
        if depth < 1:
            raise ValueError("prefetch depth must be >= 1")
        if isinstance(workers, int) and workers < 1:
            raise ValueError("prefetch workers must be >= 1")
        if isinstance(workers, str) and workers != "thread":
            raise ValueError(
                f"unknown prefetch workers {workers!r}; use 'thread' or a "
                "positive process count"
            )
        self.inner = inner
        #: How many batches the thread builder keeps built or building
        #: ahead of the consumer.
        self.depth = depth
        #: ``None``/``"thread"`` = the background thread; an ``int`` asks
        #: for that many spawn worker processes building against a
        #: shared-memory graph store (degrades back to the thread on hosts
        #: that cannot support it — see
        #: :func:`repro.training.parallel.resolve_process_workers`).
        self.workers = workers
        #: Adjacencies every builder pre-builds per batch, as graph cache
        #: keys (the engine installs its model's ``training_adjacencies``).
        self.warm_norms: Tuple[str, ...] = ()
        self._builder: Union[None, _ThreadBuilder, ProcessPrefetchPool] = None
        self._builder_graph: Optional[Graph] = None
        #: The look-ahead table: plans of epochs handed to the builder
        #: but not yet consumed.
        self._ahead: Dict[int, List[BatchPlan]] = {}
        self._proc_workers: Optional[int] = None  # resolved lazily
        self.built = 0  # batches delivered by a builder (stats/tests)

    def describe(self) -> str:
        procs = f"/procs{self.workers}" if isinstance(self.workers, int) else ""
        return f"{self.inner.describe()}+prefetch{self.depth}{procs}"

    def set_warm_norms(self, norms: Tuple[str, ...]) -> None:
        """Adjacencies (graph cache keys) the builders pre-build on every
        batch."""
        self.warm_norms = tuple(norms)

    # -- builder -------------------------------------------------------
    def _ensure_builder(self, graph: Graph):
        """The builder bound to ``graph``: worker processes when requested
        *and* viable (resolved once; a denial warns once and pins the
        thread), else the background thread."""
        if self._builder is None:
            if isinstance(self.workers, int) and self._proc_workers is None:
                self._proc_workers = resolve_process_workers(
                    self.workers, label="prefetch workers", payload=self.inner
                )
            if self._proc_workers:
                try:
                    self._builder = ProcessPrefetchPool(
                        self.inner, graph, self._proc_workers, self.warm_norms
                    )
                except Exception as exc:
                    warnings.warn(
                        f"prefetch process pool failed to start ({exc!r}); "
                        "falling back to the prefetch thread",
                        RuntimeWarning,
                        stacklevel=4,
                    )
                    self._proc_workers = 0
            if self._builder is None:
                self._builder = _ThreadBuilder(self)
            self._builder_graph = graph
        return self._builder

    def close(self) -> None:
        """Drop pending lookahead batches and shut the builder down (the
        thread is joined; a process pool's workers are joined and its
        shared-memory segments unlinked).

        Call when a flow is retired for good (the CLI does after
        training). Not required between ``fit()`` calls — the next
        ``batches()`` request reuses or discards the lookahead — and a
        never-closed thread-mode flow costs only its idle worker thread
        plus up to ``depth`` built batches of the one epoch past the last
        consumed. A process-mode flow should always be closed: its
        workers and shared segments outlive garbage collection.
        """
        builder, self._builder = self._builder, None
        self._builder_graph = None
        self._ahead.clear()
        if builder is not None:
            builder.close()

    def _build(self, plan: BatchPlan) -> Graph:
        """Build and warm one batch (builder thread, or inline remainder)."""
        batch = plan.build()
        warm_batch(batch, self.warm_norms)
        return batch

    # -- scheduling ----------------------------------------------------
    def _submit(self, graph: Graph, epoch: int) -> List[BatchPlan]:
        """Hand ``epoch``'s plans to the builder (once)."""
        plans = self._ahead.get(epoch)
        if plans is None:
            plans = self.inner.plan(graph, epoch)
            self._ensure_builder(graph).submit_epoch(epoch, plans)
            self._ahead[epoch] = plans
        return plans

    # -- consumption ---------------------------------------------------
    def plan(self, graph: Graph, epoch: int) -> List[BatchPlan]:
        # Nesting prefetch inside another prefetch adds no overlap; expose
        # the inner schedule so an outer wrapper drives it directly.
        return self.inner.plan(graph, epoch)

    def batches(self, graph: Graph, epoch: int) -> Iterator[Graph]:
        if self._builder_graph is not graph or epoch not in self._ahead:
            self.close()  # new graph / out-of-order request
        plans = self._submit(graph, epoch)
        del self._ahead[epoch]
        # Lookahead: start the next epoch while this one is consumed.
        self._submit(graph, epoch + 1)
        builder = self._builder
        try:
            for index, plan in enumerate(plans):
                if builder is not None:
                    try:
                        batch = builder.result(epoch, index)
                    except WorkerSupervisionError as exc:
                        warnings.warn(
                            "prefetch process pool exhausted supervised "
                            f"recovery ({exc}); building the remaining "
                            "batches in-process",
                            RuntimeWarning,
                            stacklevel=3,
                        )
                        self._proc_workers = 0
                        self.close()
                        builder = None
                if builder is None:
                    batch = self._build(plan)
                self.built += 1
                yield batch
                plan.retire(batch)
        except BaseException:
            # An abandoned (GeneratorExit) or failed epoch leaves built
            # batches nobody will consume; closing retires them.
            if self._builder is builder:
                self.close()
            raise


class DistributedFlow(DataFlow):
    """Simulated multi-GPU data-parallel execution of an inner flow.

    The inner flow's deterministic epoch schedule is sharded into *rounds*
    of up to ``replicas`` consecutive :class:`BatchPlan` entries: round
    ``i`` assigns plan ``i * R + r`` to replica ``r``. The engine executes
    each round as one data-parallel step — every replica's forward/backward
    runs against its own gradient workspace, the gradients are all-reduced
    in **fixed ascending replica order** (so trajectories are bit-identical
    to the sequential inner flow at ``R = 1`` and seed-reproducible at any
    ``R``), and a single optimizer step covers the round.

    The flow doubles as the placement oracle: measured per-replica
    wall-clock and edge loads accumulate via :meth:`note_replica_step`
    (straggler skew, load balance through the gpusim balance metrics),
    and :meth:`report` puts them next to the gpusim-modelled gradient
    all-reduce volume, boundary-exchange cost and predicted scaling from
    :mod:`repro.gpusim.multigpu`.
    """

    name = "distributed"

    def __init__(self, inner: DataFlow, replicas: int, device=None,
                 grad_topk: Optional[int] = None, processes: bool = False):
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        if grad_topk is not None and grad_topk < 1:
            raise ValueError("grad_topk must be >= 1")
        self.inner = inner
        self.replicas = replicas
        #: gpusim :class:`~repro.gpusim.device.DeviceModel` used by
        #: :meth:`report` (defaults to the A100 the paper models).
        self.device = device
        #: Per-tensor entry budget of the compressed gradient exchange
        #: (``None`` = dense full-width all-reduce, the bit-identical
        #: default). The engine forwards this to
        #: :class:`~repro.training.engine.ReplicaGradients`.
        self.grad_topk = grad_topk
        #: Ask the engine to run each replica in its own worker process
        #: (persistent model mirror, shared-memory graph store, flat
        #: gradients shipped back for the parent's fixed-order
        #: all-reduce). Degrades to the in-process executor with one
        #: warning when the host cannot support it.
        self.processes = bool(processes)
        self.reset_telemetry()

    def describe(self) -> str:
        tag = (
            f"{self.replicas}" if self.grad_topk is None
            else f"{self.replicas},top{self.grad_topk}"
        )
        if self.processes:
            tag += ",procs"
        return f"distributed[{tag}]/{self.inner.describe()}"

    # -- schedule ------------------------------------------------------
    def plan(self, graph: Graph, epoch: int) -> List[BatchPlan]:
        # Consumers without round support walk the inner schedule: same
        # batch *content*, only the step grouping differs.
        return self.inner.plan(graph, epoch)

    def rounds(self, graph: Graph, epoch: int) -> List[List[BatchPlan]]:
        """One epoch's schedule as replica-sharded data-parallel rounds."""
        plans = self.inner.plan(graph, epoch)
        self.rounds_scheduled += -(-len(plans) // self.replicas)
        return [
            plans[start:start + self.replicas]
            for start in range(0, len(plans), self.replicas)
        ]

    # -- telemetry -----------------------------------------------------
    def reset_telemetry(self) -> None:
        self.replica_seconds = np.zeros(self.replicas)
        self.replica_edges = np.zeros(self.replicas)
        self.replica_steps = np.zeros(self.replicas, dtype=np.int64)
        self.rounds_scheduled = 0
        #: Measured wall-clock per schedule *slot* (plan index — for a
        #: partitioned inner flow, the partition id). This is the
        #: straggler-skew signal the greedy bin-packing placement in
        #: :func:`repro.gpusim.multigpu.pack_stats` consumes.
        self.slot_seconds: Dict[int, float] = {}
        #: Per-replica bytes of the last executed gradient exchange (the
        #: engine reports them after every reduce): the dense full-width
        #: figure and what actually went on the modelled wire.
        self.grad_dense_per_round = 0
        self.grad_payload_per_round = 0
        self.grad_exchanges = 0

    def note_replica_step(self, replica: int, seconds: float,
                          edges: int, slot: Optional[int] = None) -> None:
        """Engine hook: one replica finished one forward/backward.

        ``slot`` (when the engine knows it) attributes the measurement to
        the schedule slot that was trained, feeding the measured-load
        placement; the three-argument form stays valid for callers that
        predate it.
        """
        self.replica_seconds[replica] += seconds
        self.replica_edges[replica] += edges
        self.replica_steps[replica] += 1
        if slot is not None:
            self.slot_seconds[slot] = self.slot_seconds.get(slot, 0.0) \
                + seconds

    def measured_slot_loads(self, n_slots: int) -> Optional[List[float]]:
        """Per-slot wall-clock loads, or ``None`` until every slot in
        ``range(n_slots)`` has at least one measurement."""
        loads = [self.slot_seconds.get(slot) for slot in range(n_slots)]
        if any(value is None for value in loads) or not loads:
            return None
        return [float(value) for value in loads]

    def note_gradient_exchange(self, dense_nbytes: int,
                               payload_nbytes: int) -> None:
        """Engine hook: one all-reduce completed with these payload sizes."""
        self.grad_dense_per_round = int(dense_nbytes)
        self.grad_payload_per_round = int(payload_nbytes)
        self.grad_exchanges += 1

    def measured(self) -> Dict[str, object]:
        """Measured placement quality of the executed replica schedule.

        ``straggler_skew`` is max/mean wall-clock across active replicas
        (1.0 = perfectly level rounds); load efficiency/Gini reuse the
        gpusim balance metrics on the per-replica edge loads — the same
        yardstick the kernel-level "evil rows" analysis uses.
        """
        from ..gpusim.balance import gini, warp_efficiency

        active = self.replica_seconds[self.replica_steps > 0]
        skew = float(active.max() / active.mean()) if active.size else 1.0
        return {
            "replica_ms": [round(1e3 * s, 3) for s in self.replica_seconds],
            "replica_edges": [int(e) for e in self.replica_edges],
            "straggler_skew": skew,
            "load_efficiency": warp_efficiency(self.replica_edges),
            "load_gini": gini(self.replica_edges),
            "rounds": int(self.rounds_scheduled),
        }

    # -- modelled placement --------------------------------------------
    def report(
        self,
        graph: Graph,
        hidden: int,
        n_layers: int,
        n_params: int,
        k: Optional[int] = None,
    ) -> Dict[str, object]:
        """Measured wall-clock telemetry next to the gpusim cost model.

        Always includes the ring all-reduce volume/latency of the round's
        gradient exchange. The dense exchange ships ``n_params`` full-width
        entries per replica; with :attr:`grad_topk` set (and at least one
        executed round, which records the store's exact CBSR byte
        accounting) the priced payload shrinks to the k-proportional
        compressed form, and the report adds the compression ratio plus
        the modelled communication-volume reduction. When the inner flow
        is partitioned, the round-sharded
        :class:`~repro.gpusim.multigpu.MultiGpuEpochModel` schedule (the
        same rounds :meth:`rounds` executes, over the *original*
        partitions) adds boundary communication, modelled epoch latency
        and predicted scaling with an R-independent serial denominator.
        """
        from ..gpusim import (
            A100,
            MultiGpuEpochModel,
            partition_stats,
            ring_allreduce_time,
        )

        device = self.device if self.device is not None else A100
        replicas = self.replicas
        dense_bytes = float(np.dtype(ops.FLOAT_DTYPE).itemsize * n_params)
        if self.grad_exchanges > 0:
            # Exact per-replica figures recorded from the executed store.
            dense_bytes = float(self.grad_dense_per_round)
            wire_bytes = float(self.grad_payload_per_round)
        else:
            # Never trained: price the default dense exchange (a top-k
            # payload needs the store's per-tensor spans to be exact).
            wire_bytes = dense_bytes
        plans = self.inner.plan(graph, 0)
        n_rounds = -(-len(plans) // replicas)

        def epoch_mb(nbytes: float) -> float:
            per_round = (
                2.0 * (replicas - 1) / replicas * nbytes if replicas > 1
                else 0.0
            )
            return round(n_rounds * per_round / 1e6, 6)

        compression = dense_bytes / wire_bytes if wire_bytes > 0 else 1.0
        report: Dict[str, object] = {
            "replicas": replicas,
            "rounds_per_epoch": n_rounds,
            "grad_topk": 0 if self.grad_topk is None else self.grad_topk,
            "allreduce_mb_per_epoch": epoch_mb(wire_bytes),
            "dense_allreduce_mb_per_epoch": epoch_mb(dense_bytes),
            "allreduce_ms_per_epoch": round(
                1e3 * n_rounds * ring_allreduce_time(wire_bytes, replicas), 6
            ),
            "grad_compression_ratio": round(compression, 4),
            "comm_volume_reduction_speedup": round(compression, 4),
        }
        report.update(self.measured())
        partition_for = getattr(self.inner, "partition_for", None)
        if partition_for is not None:
            from ..gpusim import pack_assignment
            from ..gpusim.balance import gini, warp_efficiency

            stats = partition_stats(graph, partition_for(graph))
            model = MultiGpuEpochModel(
                stats, hidden, n_layers, device,
                boundary_fraction=getattr(
                    self.inner, "boundary_fraction", 1.0
                ),
            )
            sharded = min(replicas, stats.n_parts)
            report.update({
                "modelled_epoch_ms": round(
                    1e3 * model.round_epoch(sharded, k), 6
                ),
                "modelled_comm_fraction": round(
                    model.communication_fraction(k, replicas=sharded), 6
                ),
                "predicted_scaling": round(
                    model.predicted_scaling(k, replicas=sharded), 4
                ),
            })
            # Placement: greedy bin-packing of the partitions onto the
            # replicas, driven by measured per-slot wall-clock when every
            # partition has been trained at least once (the straggler
            # signal note_replica_step accumulates), else by edge counts.
            measured = self.measured_slot_loads(stats.n_parts)
            loads = np.asarray(
                measured if measured is not None else stats.edges_per_part
            )
            packed = pack_assignment(loads, sharded)
            robin = np.arange(stats.n_parts) % sharded
            packed_bins = np.bincount(packed, weights=loads,
                                      minlength=sharded)
            robin_bins = np.bincount(robin, weights=loads,
                                     minlength=sharded)
            report["placement"] = {
                "strategy": "bin-packed",
                "load_source": "measured" if measured is not None
                else "edges",
                "assignment": [int(bin_) for bin_ in packed],
                "packed_gini": round(gini(packed_bins), 6),
                "round_robin_gini": round(gini(robin_bins), 6),
                "packed_efficiency": round(
                    warp_efficiency(packed_bins), 6
                ),
                "round_robin_efficiency": round(
                    warp_efficiency(robin_bins), 6
                ),
                "packed_makespan": round(float(packed_bins.max()), 6),
                "round_robin_makespan": round(float(robin_bins.max()), 6),
            }
        return report


class _ThreadBuilder:
    """:class:`~repro.training.parallel.ProcessPrefetchPool`'s
    ``submit_epoch`` / ``result`` / ``close`` on one background thread of
    this process.

    A bounded buffer between producer and consumer: submitted plans wait
    in schedule order and at most ``flow.depth`` of them are in the
    *window* — futures of a single-worker executor, so they build (and
    warm) strictly in schedule order on one thread. Taking a slot's result
    admits the next pending plan, which is how the look-ahead rolls from
    epoch ``e`` into ``e + 1``. The future is the happens-before edge: the
    trainer only ever reads built adjacencies, the two threads never
    race to construct one.
    """

    def __init__(self, flow: PrefetchFlow):
        self.flow = flow
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-prefetch"
        )
        self._pending: Deque[tuple] = deque()  # ((epoch, index), plan)
        self._window: Deque[tuple] = deque()  # (key, plan, future), in order

    def _fill(self) -> None:
        while self._pending and len(self._window) < self.flow.depth:
            key, plan = self._pending.popleft()
            self._window.append(
                (key, plan, self._executor.submit(self.flow._build, plan))
            )

    def submit_epoch(self, epoch: int, plans: List[BatchPlan]) -> None:
        self._pending.extend(
            ((epoch, index), plan) for index, plan in enumerate(plans)
        )
        self._fill()

    def result(self, epoch: int, index: int) -> Graph:
        """The next submitted slot's batch, or — raised here, for the slot
        that failed — its build error."""
        if not self._window or self._window[0][0] != (epoch, index):
            raise RuntimeError(
                f"plan slot {index} of epoch {epoch} is not the next "
                "submitted slot"
            )
        _, _, future = self._window.popleft()
        self._fill()
        original = future.exception()  # waits for the build
        if original is not None:
            raise PrefetchWorkerError(index, epoch, original) from original
        return future.result()

    def close(self) -> None:
        """Cancel what has not started, join the thread, and retire what
        was built but never consumed — or one-shot subgraphs' warmed
        backend wrappers would stay pinned in the backend's LRU."""
        self._pending.clear()
        self._executor.shutdown(wait=True, cancel_futures=True)
        while self._window:
            _, plan, future = self._window.popleft()
            if not future.cancelled() and future.exception() is None:
                plan.retire(future.result())


def make_flow(
    flow: str, micro_batch: int = 1, prefetch: int = 0,
    prefetch_workers: Union[None, str, int] = None, **kwargs
) -> DataFlow:
    """Build a flow by CLI name: ``full`` / ``sampled`` / ``partitioned``
    / ``distributed``.

    ``micro_batch > 1`` wraps the flow in a :class:`MicroBatchedFlow` that
    merges that many consecutive batches into one fused dense pass;
    ``prefetch > 0`` wraps the result in a :class:`PrefetchFlow` that
    builds batches ahead — on a background thread by default, which keeps
    up to that many built or building, or on ``prefetch_workers`` spawn
    processes against a shared-memory graph store when an integer count
    is given (they run ``prefetch_workers`` slots ahead, whatever the
    depth; ``"thread"`` names the default explicitly). ``full`` is never
    wrapped: its only batch is the graph itself.

    ``distributed`` consumes ``replicas`` (simulated data-parallel width),
    ``grad_topk`` (optional top-k gradient-exchange compression),
    ``processes`` (one worker process per replica) and ``inner``
    (``partitioned``, the default, or ``sampled``); the remaining kwargs
    configure that inner flow. It does not compose with micro-batching or
    prefetch — rounds already group the schedule, and the engine drives
    the builds synchronously per round.
    """
    if micro_batch < 1:
        raise ValueError("micro_batch must be >= 1")
    if prefetch < 0:
        raise ValueError("prefetch must be >= 0")
    if flow == "distributed":
        if micro_batch > 1 or prefetch > 0:
            raise ValueError(
                "distributed flow does not compose with micro_batch/prefetch"
            )
        replicas = kwargs.pop("replicas", 2)
        grad_topk = kwargs.pop("grad_topk", None)
        processes = kwargs.pop("processes", False)
        inner_name = kwargs.pop("inner", "partitioned")
        if inner_name == "sampled":
            inner: DataFlow = SampledFlow(**kwargs)
        elif inner_name == "partitioned":
            inner = PartitionedFlow(**kwargs)
        else:
            raise ValueError(
                f"unknown distributed inner {inner_name!r}; "
                "options: ['partitioned', 'sampled']"
            )
        return DistributedFlow(inner, replicas, grad_topk=grad_topk,
                               processes=processes)
    if flow == "full":
        built = FullGraphFlow()
    elif flow == "sampled":
        built = SampledFlow(**kwargs)
    elif flow == "partitioned":
        built = PartitionedFlow(**kwargs)
    else:
        raise ValueError(
            f"unknown flow {flow!r}; options: "
            "['full', 'sampled', 'partitioned', 'distributed']"
        )
    if micro_batch > 1:
        built = MicroBatchedFlow(built, micro_batch)
    if prefetch > 0 and flow != "full":
        built = PrefetchFlow(built, prefetch, workers=prefetch_workers)
    return built
