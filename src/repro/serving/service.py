"""The online inference service: admission → batching → execution → cache.

:class:`InferenceService` serves per-node predictions from a trained
:class:`~repro.models.MaxKGNN` and is built to stay *correct and
available* under overload, crashes, and malformed input:

* **overload** — admission is bounded (:class:`~repro.serving.queue.
  AdmissionQueue`); a full queue sheds new arrivals with an explicit
  ``OVERLOADED`` result, and a request that would be served past its
  deadline is shed with ``DEADLINE_EXCEEDED`` — never served late, never
  silently dropped;
* **crashes** — a window runs in the calling process
  (:func:`~repro.serving.batcher.serve_window`); an exception while
  serving it resolves every request in the window ``FAILED`` with the
  error text, and the service keeps serving the next window;
* **staleness** — results cache under ``(graph generation, node, model
  version, seed)`` and every checkpoint reload bumps the version and
  invalidates the cache, so stale logits are structurally unservable;
* **malformed input** — an out-of-range or non-integer node resolves to
  an explicit ``FAILED`` result instead of poisoning a batch.

The service is a synchronous, explicitly-pumped event loop with an
injectable clock: ``submit`` enqueues (or resolves immediately — cache
hit / shed / malformed), ``pump`` forms and serves one window when the
batcher says the window should fire. Single-threaded by design — the
robustness story is in the explicit state machine, not in locking.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from ..graphs.graph import Graph
from ..sparse.native import keep_heap_mapped
from ..training.checkpoint import (
    check_fingerprint,
    load_state_dict,
    read_checkpoint,
)
from .batcher import BatcherConfig, MicroBatcher, serve_window
from .cache import ResultCache
from .queue import (
    DEADLINE_EXCEEDED,
    FAILED,
    OK,
    AdmissionQueue,
    Request,
    ServeResult,
    Ticket,
)

__all__ = ["ServiceConfig", "InferenceService"]


@dataclass(frozen=True)
class ServiceConfig:
    """Service geometry: admission, batching, caching."""

    queue_capacity: int = 64
    max_batch: int = 8
    #: Default per-request deadline (seconds after submission).
    default_deadline: float = 1.0
    #: Always 0: windows are served in the calling process. The field
    #: stays only because the benchmark still passes ``executors=0``.
    executors: int = 0
    n_hops: int = 1
    fanout: int = 8
    cache_size: int = 256
    #: How long a non-full window may wait for more arrivals.
    linger: float = 0.0

    def __post_init__(self):
        if self.default_deadline <= 0:
            raise ValueError("default_deadline must be > 0")
        if self.executors != 0:
            raise ValueError(
                "executors must be 0: windows are served in-process"
            )

    def batcher(self) -> BatcherConfig:
        return BatcherConfig(
            max_batch=self.max_batch, linger=self.linger,
            n_hops=self.n_hops, fanout=self.fanout,
        )


class InferenceService:
    """Batched, cached online inference over one model.

    Serving never rebinds the model (each window passes its own per-layer
    blocks), so a training engine may share the model object. A service
    pins the process's malloc thresholds (:func:`keep_heap_mapped`) so
    that :meth:`apply_delta` costs the same from one delta to the next.
    """

    def __init__(self, graph: Graph, model,
                 config: Optional[ServiceConfig] = None,
                 clock: Callable[[], float] = time.monotonic):
        keep_heap_mapped()
        self.graph = graph
        self.model = model
        self.config = config or ServiceConfig()
        self.clock = clock
        #: Bumped by :meth:`apply_delta` (live graph mutation) and baked
        #: into every cache key, so pre-mutation logits are structurally
        #: unservable-stale.
        self.generation = 0
        #: How many :meth:`apply_delta` calls this service has absorbed.
        self.deltas_applied = 0
        #: Bumped on every checkpoint reload and baked into cache keys,
        #: so a pre-reload result is never served.
        self.version = 0
        self._next_rid = 0
        self.queue = AdmissionQueue(self.config.queue_capacity, clock=clock)
        self.batcher = MicroBatcher(self.config.batcher())
        self.cache = ResultCache(self.config.cache_size)
        self._closed = False

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Refuse further requests and deltas: :meth:`submit` and
        :meth:`apply_delta` raise ``RuntimeError`` after it. Idempotent;
        the service holds no process, pipe or shared segment to free."""
        self._closed = True

    def __enter__(self) -> "InferenceService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- model hot-swap ---------------------------------------------------
    def load_checkpoint(self, path) -> None:
        """Reload model weights from a checkpoint file (hot swap).

        Validates the architecture fingerprint, swaps the parameters in
        place, bumps the serving version and **invalidates the result
        cache**, so no response served after this call can carry pre-swap
        logits. Weights written at another float width are cast to the
        model's (:func:`~repro.training.checkpoint.load_state_dict`).
        """
        arrays, meta = read_checkpoint(path)
        check_fingerprint(path, meta, self.model, "serve it")
        state = {
            key: value for key, value in arrays.items()
            if not key.startswith("__")
        }
        load_state_dict(self.model, state)
        self.version += 1
        self.cache.invalidate()

    # -- live graph mutation ----------------------------------------------
    def apply_delta(self, delta) -> Dict[str, object]:
        """Mutate the served graph in place, with zero stale responses.

        The admitted queue is drained *first*, so every in-flight request
        is served bit-identical to its admission-time graph; then the
        delta merges into the graph's CSR buffers incrementally
        (:mod:`repro.graphs.mutation`), ``generation`` bumps (making every
        cached result structurally unservable-stale) and the result cache
        is invalidated.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        drained = self.drain()
        self.graph.apply_delta(delta)
        self.generation += 1
        self.deltas_applied += 1
        self.cache.invalidate()
        return {
            "generation": self.generation,
            "drained": drained,
            "delta": delta.summary(),
            "n_nodes": self.graph.n_nodes,
            "n_edges": self.graph.n_edges,
        }

    # -- request plane ----------------------------------------------------
    def submit(self, node, deadline: Optional[float] = None,
               seed: int = 0) -> Ticket:
        """Enqueue one per-node query; returns a ticket that will resolve.

        Every outcome is explicit: malformed input resolves ``FAILED`` on
        the spot, a cache hit resolves ``OK`` on the spot, a full queue
        resolves ``OVERLOADED`` on the spot, and an admitted request
        resolves when a pumped window serves or sheds it. A closed service
        raises ``RuntimeError``.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        now = self.clock()
        rid = self._next_rid
        self._next_rid += 1
        try:
            # operator.index rejects floats/strings outright instead of
            # silently truncating "node 3.7" to node 3.
            node = operator.index(node)
            seed = operator.index(seed)
            if not 0 <= node < self.graph.n_nodes:
                raise ValueError(
                    f"node {node} out of range [0, {self.graph.n_nodes})"
                )
        except (TypeError, ValueError) as exc:
            ticket = Ticket(rid, -1)
            self.queue.stats.failed += 1
            self._resolve(ticket, Request(rid, -1, 0, now, now), FAILED, now,
                          error=repr(exc))
            return ticket
        if deadline is None:
            deadline = now + self.config.default_deadline
        ticket = Ticket(rid, node)
        request = Request(rid=rid, node=node, seed=seed,
                          deadline=deadline, submitted=now,
                          generation=self.generation)
        if deadline <= now:
            self.queue.stats.shed_deadline += 1
            self._resolve(ticket, request, DEADLINE_EXCEEDED, now)
            return ticket
        key = self.cache.key(self.generation, node, self.version, seed)
        cached = self.cache.get(key)
        if cached is not None:
            self._resolve(ticket, request, OK, now, logits=cached.copy(),
                          batch_size=1, cached=True,
                          generation=self.generation)
            self.queue.note_served(request, now, cached=True)
            return ticket
        self.queue.offer(request, ticket)
        return ticket

    @staticmethod
    def _resolve(ticket: Ticket, request: Request, status: str,
                 completed: float, logits=None, error: Optional[str] = None,
                 batch_size: int = 0, cached: bool = False,
                 generation: int = 0) -> None:
        """Give ``ticket`` its terminal result (and error text, if any)."""
        ticket.resolve(ServeResult(
            rid=request.rid, node=request.node, status=status,
            logits=logits, submitted=request.submitted,
            completed=completed, deadline=request.deadline,
            batch_size=batch_size, cached=cached, generation=generation,
        ))
        if error is not None:
            ticket.error = error

    def pump(self, force: bool = False) -> int:
        """Serve one window if the batcher says it should fire.

        Returns how many requests got a terminal result (served + shed).
        ``force`` fires a non-empty window regardless of the wait budget
        (drain paths); an empty queue is always a no-op.
        """
        now = self.clock()
        if len(self.queue) == 0:
            return 0
        if not force and not self.batcher.ready(self.queue, now):
            # Still shed anything already expired so a lingering window
            # cannot hold a doomed request past its deadline silently.
            return self.queue.shed_expired(now)
        shed_before = self.queue.stats.shed_deadline
        window = self.batcher.take_window(self.queue, now)
        resolved = self.queue.stats.shed_deadline - shed_before
        if not window:
            return resolved
        stale = [
            (request, ticket) for request, ticket in window
            if request.generation != self.generation
        ]
        if stale:
            # Unreachable through apply_delta (which drains admitted
            # requests before mutating), so a mismatch means someone
            # mutated out of band: refuse loudly rather than serve a
            # result against a graph the request never saw.
            window = [
                (request, ticket) for request, ticket in window
                if request.generation == self.generation
            ]
            for request, ticket in stale:
                self.queue.stats.failed += 1
                self._resolve(
                    ticket, request, FAILED, now,
                    generation=request.generation,
                    error=(
                        f"request admitted under graph generation "
                        f"{request.generation} but the service is now at "
                        f"{self.generation}; refusing to serve it stale"
                    ),
                )
                resolved += 1
            if not window:
                return resolved
        requests = [request for request, _ in window]
        start = self.clock()
        try:
            rows = self._serve(requests)
        except Exception as exc:
            for request, ticket in window:
                self.queue.stats.failed += 1
                self._resolve(ticket, request, FAILED, self.clock(),
                              batch_size=len(window), error=repr(exc))
            return resolved + len(window)
        completed = self.clock()
        self.batcher.note_service_time(completed - start)
        for (request, ticket), logits in zip(window, rows):
            if completed > request.deadline:
                # Computed, but too late: reclassify as shed — a deadline
                # is a promise about when, not just whether.
                self.queue.stats.shed_late += 1
                self._resolve(ticket, request, DEADLINE_EXCEEDED, completed,
                              batch_size=len(window))
            else:
                key = self.cache.key(
                    self.generation, request.node, self.version, request.seed
                )
                self.cache.put(key, logits)
                self._resolve(ticket, request, OK, completed, logits=logits,
                              batch_size=len(window),
                              generation=request.generation)
                self.queue.note_served(request, completed)
            resolved += 1
        return resolved

    def drain(self) -> int:
        """Pump (forced) until the queue is empty; returns resolutions."""
        resolved = 0
        while len(self.queue):
            n = self.pump(force=True)
            if n == 0:
                break
            resolved += n
        return resolved

    # -- execution --------------------------------------------------------
    def _serve(self, requests: List[Request]) -> List[np.ndarray]:
        return serve_window(
            self.graph, self.model, requests,
            self.config.n_hops, self.config.fanout,
        )

    def infer_single(self, node: int, seed: int = 0) -> np.ndarray:
        """Reference path: serve one node alone, bypassing queue and cache.

        This is the oracle the batched path must match bit for bit.
        """
        request = Request(rid=-1, node=int(node), seed=int(seed),
                          deadline=float("inf"), submitted=0.0)
        return self._serve([request])[0]

    # -- observability ----------------------------------------------------
    def stats(self) -> Dict[str, object]:
        payload: Dict[str, object] = dict(self.queue.stats.as_dict())
        payload["depth"] = len(self.queue)
        payload["batches"] = self.batcher.batches_formed
        if self.batcher.batches_formed:
            payload["mean_batch"] = (
                self.batcher.requests_batched / self.batcher.batches_formed
            )
        payload["cache"] = self.cache.stats()
        payload["version"] = self.version
        payload["generation"] = self.generation
        payload["deltas_applied"] = self.deltas_applied
        return payload
