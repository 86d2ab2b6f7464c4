"""Bounded admission queue with per-request deadlines and backpressure.

The service's first robustness layer: every request either gets an
explicit verdict or an explicit shed — never an unbounded queue, never a
silent drop. Admission fails *fast* (a full queue sheds the new arrival
with :data:`OVERLOADED` at submit time), deadlines fail *loud* (a request
still queued past its deadline is shed with :data:`DEADLINE_EXCEEDED`
when the batcher next looks, and a result computed too late is
reclassified rather than served as if it were on time), and every shed
increments a named counter so overload is observable, not inferred.

Time is injected (``clock``), so deadline semantics are tested with a
fake clock instead of sleeps.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional

import numpy as np

__all__ = [
    "OK",
    "OVERLOADED",
    "DEADLINE_EXCEEDED",
    "FAILED",
    "Request",
    "ServeResult",
    "Ticket",
    "AdmissionQueue",
]

#: Terminal request statuses. ``OK`` is the only one carrying logits.
OK = "ok"
OVERLOADED = "overloaded"
DEADLINE_EXCEEDED = "deadline_exceeded"
FAILED = "failed"


@dataclass
class Request:
    """One admitted query: serve ``node``'s prediction before ``deadline``.

    A request is a pure function of ``(model params, node, seed)`` — the
    seed drives the fan-out-limited ego-net sample — which is what makes
    batched results comparable to single-request inference.
    """

    rid: int
    node: int
    seed: int
    deadline: float
    submitted: float
    #: Graph generation the request was admitted under. A window is only
    #: served while the service's generation still matches — a mutation
    #: drains admitted requests first, so a mismatch is an invariant
    #: violation resolved as ``FAILED``, never served silently stale.
    generation: int = 0


@dataclass
class ServeResult:
    """The explicit outcome of one request (served, shed, or failed)."""

    rid: int
    node: int
    status: str
    logits: Optional[np.ndarray] = None
    submitted: float = 0.0
    completed: float = 0.0
    deadline: float = 0.0
    batch_size: int = 0
    cached: bool = False
    #: Graph generation the logits were computed under (equals the
    #: request's admission generation for every served result).
    generation: int = 0

    @property
    def ok(self) -> bool:
        return self.status == OK

    @property
    def latency(self) -> float:
        return self.completed - self.submitted


class Ticket:
    """Handle returned by ``submit``; resolves to a :class:`ServeResult`."""

    def __init__(self, rid: int, node: int):
        self.rid = rid
        self.node = node
        self.result: Optional[ServeResult] = None
        #: Repr of the exception behind a ``FAILED`` result, if any.
        self.error: Optional[str] = None

    @property
    def done(self) -> bool:
        return self.result is not None

    def resolve(self, result: ServeResult) -> None:
        self.result = result


@dataclass
class QueueStats:
    """Cumulative admission/shed/wait counters (all explicit, no drops)."""

    admitted: int = 0
    served: int = 0
    served_from_cache: int = 0
    shed_overload: int = 0
    shed_deadline: int = 0
    shed_late: int = 0
    failed: int = 0
    wait_seconds: float = 0.0
    max_depth: int = 0

    @property
    def shed_total(self) -> int:
        return self.shed_overload + self.shed_deadline + self.shed_late

    def as_dict(self) -> Dict[str, float]:
        payload = {
            "admitted": self.admitted,
            "served": self.served,
            "served_from_cache": self.served_from_cache,
            "shed_overload": self.shed_overload,
            "shed_deadline": self.shed_deadline,
            "shed_late": self.shed_late,
            "shed_total": self.shed_total,
            "failed": self.failed,
            "max_depth": self.max_depth,
        }
        if self.served:
            payload["mean_wait_s"] = self.wait_seconds / self.served
        return payload


class AdmissionQueue:
    """Bounded FIFO of admitted requests; overflow sheds, never blocks.

    ``offer`` admits or returns an :data:`OVERLOADED` result on the spot;
    ``take`` hands the batcher up to ``limit`` requests, shedding any
    whose deadline already passed (they are *not* served late). Depth,
    shed and wait-time counters live in :attr:`stats`.
    """

    def __init__(self, capacity: int,
                 clock: Callable[[], float] = time.monotonic):
        if capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        self.capacity = capacity
        self.clock = clock
        self._queue: Deque[tuple] = deque()
        self.stats = QueueStats()

    def __len__(self) -> int:
        return len(self._queue)

    def offer(self, request: Request, ticket: Ticket) -> bool:
        """Admit (True) or shed with an explicit ``OVERLOADED`` (False)."""
        if len(self._queue) >= self.capacity:
            self.stats.shed_overload += 1
            ticket.resolve(ServeResult(
                rid=request.rid, node=request.node, status=OVERLOADED,
                submitted=request.submitted, completed=request.submitted,
                deadline=request.deadline,
            ))
            return False
        self._queue.append((request, ticket))
        self.stats.admitted += 1
        self.stats.max_depth = max(self.stats.max_depth, len(self._queue))
        return True

    def earliest_deadline(self) -> Optional[float]:
        """The most urgent queued deadline (the batch window's far edge)."""
        if not self._queue:
            return None
        return min(request.deadline for request, _ in self._queue)

    def oldest_submitted(self) -> Optional[float]:
        if not self._queue:
            return None
        return self._queue[0][0].submitted

    def shed_expired(self, now: Optional[float] = None) -> int:
        """Shed every queued request whose deadline has already passed.

        A request admitted before but batched after its deadline must be
        shed, not served late — this is the enforcement point.
        """
        if now is None:
            now = self.clock()
        shed = 0
        survivors: Deque[tuple] = deque()
        while self._queue:
            request, ticket = self._queue.popleft()
            if request.deadline <= now:
                shed += 1
                self.stats.shed_deadline += 1
                ticket.resolve(ServeResult(
                    rid=request.rid, node=request.node,
                    status=DEADLINE_EXCEEDED, submitted=request.submitted,
                    completed=now, deadline=request.deadline,
                ))
            else:
                survivors.append((request, ticket))
        self._queue = survivors
        return shed

    def take(self, limit: int, now: Optional[float] = None) -> List[tuple]:
        """Pop up to ``limit`` live requests for one batch (FIFO order)."""
        if now is None:
            now = self.clock()
        self.shed_expired(now)
        window: List[tuple] = []
        while self._queue and len(window) < limit:
            window.append(self._queue.popleft())
        return window

    def note_served(self, request: Request, completed: float,
                    cached: bool = False) -> None:
        if cached:
            self.stats.served_from_cache += 1
            return
        self.stats.served += 1
        self.stats.wait_seconds += max(completed - request.submitted, 0.0)
