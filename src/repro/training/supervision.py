"""One supervised worker pool: the only code that spawns, awaits, kills,
respawns and replays a worker process.

:class:`SupervisedPool` starts ``n`` spawn workers against one
:class:`~repro.graphs.shm.SharedGraphStore` export and supervises every
reply: it is awaited with ``multiprocessing.connection.wait`` over the
worker's pipe **and** its process sentinel, so a SIGKILLed child is seen
the moment it dies (exit code captured) and a hung one at a per-attempt
deadline (:class:`SupervisorConfig`; exponential backoff across
retries). Any infrastructure failure — dead, hung, torn pipe, a frame
the client's validator refuses — kills the worker, respawns it and runs
the client's replay recipe; after ``max_retries`` consecutive failures
of one worker (or a failed respawn) :class:`WorkerSupervisionError`
tells the caller to degrade to its in-process path.

What a worker *does* is the client's business
(:class:`~repro.training.parallel.ProcessPrefetchPool`,
:class:`~repro.training.parallel.ReplicaProcessPool`,
:class:`~repro.serving.executor.ExecutorPool`): each brings a worker
function, a spec, two frame validators and a replay recipe, and keeps
the state that makes its replay bit-identical.

Recovery is testable without timing games: :meth:`SupervisedPool.send`
ships the :mod:`~repro.training.faults` actions scheduled at an op's
coordinates along with the op, and the worker runs them through
:func:`_apply_faults`.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from ..graphs.graph import Graph
from ..graphs.shm import SharedGraphHandle, SharedGraphStore
from ..sparse.ops import get_backend
from .faults import current_fault_plan

__all__ = ["SupervisorConfig", "WorkerSupervisionError", "SupervisedPool"]

#: Override the per-call worker reply deadline, in seconds.
TIMEOUT_ENV = "REPRO_WORKER_TIMEOUT"

#: Override how many consecutive infra failures trigger degradation.
RETRIES_ENV = "REPRO_WORKER_RETRIES"

#: How long an injected hang sleeps — far past any sane supervision
#: deadline, so the parent's timeout path is what ends it.
_HANG_SECONDS = 3600.0

#: ``(action, param)`` pairs as shipped to a worker with its op.
FaultActions = List[Tuple[str, Optional[float]]]


@dataclass
class SupervisorConfig:
    """How patiently a pool waits for workers, and when it gives up.

    ``deadline(attempt)`` is the per-reply timeout for a given consecutive
    retry count — exponential backoff, so a slow-but-healthy host that
    trips the first deadline gets progressively more slack before the pool
    concludes the worker class is hopeless and degrades in-process.
    """

    timeout: float = 120.0
    max_retries: int = 2
    backoff: float = 2.0

    @classmethod
    def from_env(cls) -> "SupervisorConfig":
        config = cls()
        raw = os.environ.get(TIMEOUT_ENV, "").strip()
        if raw:
            try:
                config.timeout = max(float(raw), 0.05)
            except ValueError:
                pass
        raw = os.environ.get(RETRIES_ENV, "").strip()
        if raw:
            try:
                config.max_retries = max(int(raw), 0)
            except ValueError:
                pass
        return config

    def deadline(self, attempt: int = 0) -> float:
        return self.timeout * self.backoff ** min(max(attempt, 0), 8)


class WorkerSupervisionError(RuntimeError):
    """Supervised recovery is exhausted; the caller should degrade.

    Raised only after ``max_retries`` consecutive respawn-and-replay
    attempts (or an unrecoverable respawn) — deterministic application
    errors raise their own typed errors immediately instead.
    """


class _WorkerStartError(RuntimeError):
    """A worker died, hung or mis-spoke before its ready handshake."""


def _await_frame(conn, proc, timeout: float):
    """Wait for one frame from ``conn``, watching ``proc``'s sentinel.

    Returns ``("ok", frame)``, ``("dead", exitcode)`` when the child died
    without flushing a frame, or ``("hung", None)`` when the deadline
    passed with the child still alive.
    """
    from multiprocessing.connection import wait as _wait

    ready = _wait([conn, proc.sentinel], timeout=max(timeout, 0.0))
    if not ready:
        return "hung", None
    if conn in ready:
        try:
            return "ok", conn.recv()
        except (EOFError, OSError):
            proc.join(timeout=1.0)
            return "dead", proc.exitcode
    # Sentinel only: the child died. Its last frame may still be in the
    # pipe buffer (workers write an error frame before exiting where they
    # can) — drain it before declaring the cause lost.
    if conn.poll(0.25):
        try:
            return "ok", conn.recv()
        except (EOFError, OSError):
            pass
    proc.join(timeout=1.0)
    return "dead", proc.exitcode


def _consume_events(events: List, a: int, b: int) -> FaultActions:
    """Fault actions scheduled at ``(a, b)``; drop the one-shot ones.

    Non-wildcard events are consumed the moment they are shipped (they
    *will* fire — matching is deterministic), so a respawned worker
    replaying the same coordinates cannot re-trigger the fault that killed
    its predecessor. Wildcard events persist by design: they keep firing
    until the caller's retry budget is exhausted.
    """
    actions = []
    for event in list(events):
        if event.matches(a, b):
            actions.append((event.action, event.param))
            if not event.persistent:
                events.remove(event)
    return actions


def _apply_faults(conn, actions: FaultActions) -> bool:
    """Worker-side injection point. Returns whether to corrupt the reply."""
    corrupt = False
    for action, param in actions:
        if action == "kill_worker":
            os._exit(3)
        elif action == "hang_worker":
            time.sleep(_HANG_SECONDS)
            os._exit(3)
        elif action == "drop_pipe":
            try:
                conn.close()
            finally:
                os._exit(0)
        elif action == "slow_request":
            time.sleep((param or 0.0) / 1000.0)
        elif action == "corrupt_payload":
            corrupt = True
    return corrupt


class SupervisedPool:
    """Spawn workers over one shared-memory graph export, supervised.

    Owns everything about a worker except its protocol: the spawn context
    and process, the shared store (export, re-export, unlink), the ready
    handshake, kill, close, fault-carrying sends and the supervised
    receive. The client supplies what differs between pools:

    * ``target(conn, spec)`` — the worker function (module level: spawn
      pickles it by import path);
    * ``spec_for(worker)`` — the client's part of that worker's spec; the
      pool adds ``backend`` and the current store ``handle``;
    * ``check_ready(worker, frame)`` / ``check_reply(worker, frame)`` —
      why the handshake / reply frame is unusable, or ``None``. A
      validator may bank state from a frame it accepts, and may raise the
      client's own error for a worker's deterministic exception: that
      propagates untouched and is never retried;
    * ``replay(worker)`` — run once per recovery, after the respawn:
      re-issue through :meth:`send` what the dead worker still owed.

    ``label`` names a worker in process names and messages; ``scope`` is
    the :class:`~repro.training.faults.FaultPlan` scope the pool reads.
    """

    def __init__(self, graph: Graph, workers: int, *, label: str,
                 scope: str,
                 target: Callable[[object, dict], None],
                 spec_for: Callable[[int], dict],
                 check_ready: Callable[[int, object], Optional[str]],
                 check_reply: Callable[[int, object], Optional[str]],
                 replay: Callable[[int], None],
                 supervisor: Optional[SupervisorConfig] = None):
        import multiprocessing as mp

        self.workers = workers
        self.label = label
        self.supervisor = supervisor or SupervisorConfig.from_env()
        plan = current_fault_plan()
        self._events = list(plan.events_for(scope)) if plan else []
        self._target = target
        self._spec_for = spec_for
        self._check_ready = check_ready
        self._check_reply = check_reply
        self._replay = replay
        self._conns: List = [None] * workers
        self._procs: List = [None] * workers
        #: Consecutive infrastructure failures of each worker.
        self._retries = [0] * workers
        #: ``(seconds granted, monotonic expiry)`` of each outstanding op.
        self._deadlines = [(0.0, 0.0)] * workers
        self._closed = False
        self._ctx = mp.get_context("spawn")
        self._store = SharedGraphStore.export(graph)
        try:
            for worker in range(workers):
                self._spawn(worker)
        except BaseException:
            self.close()
            raise

    # -- lifecycle -----------------------------------------------------
    def _spawn(self, worker: int) -> None:
        """Start ``worker`` and wait for its validated ready handshake."""
        parent_conn, child_conn = self._ctx.Pipe()
        spec = dict(
            self._spec_for(worker),
            backend=get_backend().name, handle=self._store.handle(),
        )
        proc = self._ctx.Process(
            target=self._target, args=(child_conn, spec),
            name=f"repro-{self.label.replace(' ', '-')}-{worker}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._conns[worker] = parent_conn
        self._procs[worker] = proc
        status, frame = _await_frame(
            parent_conn, proc, self.supervisor.deadline(0)
        )
        try:
            if status == "ok":
                problem = self._check_ready(worker, frame)
            elif status == "dead":
                problem = f"exited with code {frame}"
            else:
                problem = "no ready handshake before the deadline"
        except BaseException:
            self.kill(worker)
            raise
        if problem is not None:
            self.kill(worker)
            raise _WorkerStartError(
                f"{self.label} {worker} failed to start ({problem})"
            )

    def kill(self, worker: int) -> None:
        """SIGKILL (if still alive) and reap ``worker``; drop its pipe."""
        proc = self._procs[worker]
        conn = self._conns[worker]
        if proc is not None:
            if proc.is_alive():
                proc.kill()
            proc.join(timeout=5.0)
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        self._procs[worker] = None
        self._conns[worker] = None

    def close(self) -> None:
        """Stop/kill the workers and free the shared segments (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            if conn is not None:
                try:
                    conn.send(("stop",))
                except (OSError, ValueError):
                    pass
        for worker, proc in enumerate(self._procs):
            if proc is not None:
                proc.join(timeout=2.0)  # grace for a clean exit
            self.kill(worker)
        self._store.close()
        self._store.unlink()

    @contextmanager
    def reexported(self, graph: Graph) -> Iterator[SharedGraphHandle]:
        """Move the pool onto a fresh export of ``graph``; yields its handle.

        Inside the block the client tells each live worker to re-attach;
        a worker respawned from here on attaches the new segments at
        birth. The old segments are closed and unlinked on exit whatever
        happened, so a stale :class:`SharedGraphHandle` can only raise
        :class:`~repro.graphs.shm.StaleHandleError`.
        """
        old_store = self._store
        self._store = SharedGraphStore.export(graph)
        try:
            yield self._store.handle()
        finally:
            old_store.close()
            old_store.unlink()

    # -- supervised transport --------------------------------------------
    def send(self, worker: int, message: tuple,
             at: Optional[Tuple[int, int]] = None) -> None:
        """Ship one op to ``worker`` and start its reply deadline.

        ``at`` are the op's fault-schedule coordinates: the actions
        scheduled there travel as the message's last element, consumed
        *now* so that a respawn replaying the op cannot re-fire the fault
        that killed its predecessor.
        """
        if at is not None:
            message = message + (_consume_events(self._events, *at),)
        try:
            self._conns[worker].send(message)
        except (OSError, ValueError):
            pass  # the sentinel wait will classify the dead worker
        self._arm(worker)

    def _arm(self, worker: int) -> None:
        granted = self.supervisor.deadline(self._retries[worker])
        self._deadlines[worker] = (granted, time.monotonic() + granted)

    def recv(self, worker: int):
        """The validated reply to ``worker``'s outstanding op (blocking)."""
        return self.recv_any((worker,))[1]

    def recv_any(self, workers: Sequence[int]) -> Tuple[int, object]:
        """The next validated reply from any of ``workers``.

        Every listed worker must have an op outstanding. Blocks through
        respawn-and-replay recoveries; raises
        :class:`WorkerSupervisionError` once one worker's retry budget is
        spent or it cannot be respawned.
        """
        from multiprocessing.connection import wait as _wait

        while True:
            sources = {}
            for worker in workers:
                sources[self._conns[worker]] = worker
                sources[self._procs[worker].sentinel] = worker
            overdue = min(workers, key=lambda w: self._deadlines[w][1])
            ready = _wait(list(sources), timeout=max(
                0.0, self._deadlines[overdue][1] - time.monotonic()
            ))
            worker = sources[ready[0]] if ready else overdue
            status, frame = _await_frame(
                self._conns[worker], self._procs[worker], 0.0
            )
            if status == "ok":
                cause = self._check_reply(worker, frame)
                if cause is None:
                    self._retries[worker] = 0
                    return worker, frame
            elif status == "dead":
                cause = f"worker exited unexpectedly (exit code {frame})"
            else:
                cause = (
                    f"no reply within the {self._deadlines[worker][0]:.1f}s "
                    "deadline (hung worker killed)"
                )
            self._recover(worker, cause)

    def _recover(self, worker: int, cause: str) -> None:
        """Kill, count, respawn and replay — or give up."""
        self.kill(worker)
        failures = self._retries[worker] + 1
        self._retries[worker] = failures
        if failures > self.supervisor.max_retries:
            raise WorkerSupervisionError(
                f"{self.label} {worker} failed {failures} consecutive "
                f"times (last cause: {cause})"
            )
        try:
            self._spawn(worker)
        except (_WorkerStartError, OSError) as exc:
            raise WorkerSupervisionError(
                f"{self.label} {worker} could not be respawned after a "
                f"failure ({cause}): {exc!r}"
            ) from exc
        self._replay(worker)
        # A reply accepted *inside* the replay (a rebuilt batch) is not a
        # success of the op being recovered: the count stands, and the
        # re-issued op gets the backed-off deadline that goes with it.
        self._retries[worker] = failures
        self._arm(worker)
