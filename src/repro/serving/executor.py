"""Supervised executor pool: serving's process-isolation layer.

Each executor is a spawn-started worker attached to the
:class:`~repro.graphs.shm.SharedGraphStore` (zero-copy graph reads) that
holds a persistent eval-mode model mirror and answers ``infer`` ops with
:func:`~repro.serving.batcher.serve_window` — the function the in-process
service runs — shipping each request's logits row back. Because a
request is a pure function of
``(model params, node, seed)``, a dead/hung/corrupt executor is survived
by killing it, respawning, and **re-sending the in-flight batch**: the
replayed result is bit-identical, so clients cannot observe a recovery.
Parameters ship only when the model version changes (a respawned worker
has seen nothing, so its first op always carries them).

Supervision is :class:`~repro.training.supervision.SupervisedPool`'s
(see that module for the rules): this pool only supplies the worker, the
frame validators and the replay recipe. Exhausted recovery raises
:class:`~repro.training.supervision.WorkerSupervisionError` so the
service degrades to in-process serving with one cached warning.

Fault injection (``serving`` scope, coordinates ``(executor, 1-based
infer-op count)``): ``kill_worker`` / ``hang_worker`` die or stall
mid-batch, ``corrupt_payload`` ships a garbage frame, and the
parameterised ``slow_request=MS`` sleeps before serving so deadline
paths are drivable deterministically.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..graphs.graph import Graph
from ..graphs.shm import SharedGraphStore
from ..sparse.ops import set_backend
from ..training.parallel import unpack_parameters
from ..training.supervision import (
    SupervisedPool,
    SupervisorConfig,
    _apply_faults,
)
from .batcher import serve_window
from .queue import Request

__all__ = ["ExecutorPool", "InferItem"]

#: One dispatched query: ``(rid, node, seed)`` — everything an executor
#: needs beyond the current parameters to reproduce the result exactly.
InferItem = Tuple[int, int, int]


def _serving_worker(conn, spec: dict) -> None:
    """One executor: eval-mode model mirror + infer loop over shared graph.

    Protocol (parent → worker → parent):

    * handshake — ``("ready", [param sizes])`` once attached and built;
    * ``("infer", version, flat_or_None, items, actions)`` →
      ``("result", version, [logits rows])`` — ``flat`` overwrites the
      mirror's parameters when present (``None`` means the mirror already
      holds ``version``); ``items`` is a list of ``(rid, node, seed)``;
      rows come back in item order;
    * ``("rebind", handle)`` → ``("rebound",)`` — attach the new shared
      segments (live graph mutation), drop the old ones, keep the warm
      model mirror: the executor is re-attached, never restarted;
    * ``("stop",)`` — exit the loop.
    """
    store = None
    try:
        set_backend(spec["backend"])
        store = SharedGraphStore.attach(spec["handle"])
        graph = store.graph()

        from ..models import MaxKGNN

        # Parameters are overwritten from the parent's flat vector before
        # the first infer, so the mirror's init seed is irrelevant — only
        # the architecture must match.
        model = MaxKGNN(graph, spec["config"], seed=0)
        model.eval()
        parameters = list(model.parameters())
        n_hops = spec["n_hops"]
        fanout = spec["fanout"]
        conn.send(("ready", [int(p.data.size) for p in parameters]))

        while True:
            message = conn.recv()
            if message[0] == "stop":
                break
            if message[0] == "rebind":
                new_store = SharedGraphStore.attach(message[1])
                store.close()
                store = new_store
                graph = store.graph()
                conn.send(("rebound",))
                continue
            _, version, flat, items, actions = message
            corrupt = _apply_faults(conn, actions)
            if flat is not None:
                unpack_parameters(parameters, np.asarray(flat))
            requests = [
                Request(rid=rid, node=node, seed=seed,
                        deadline=float("inf"), submitted=0.0)
                for rid, node, seed in items
            ]
            rows = serve_window(graph, model, requests, n_hops, fanout)
            if corrupt:
                conn.send(("result", version, "corrupted-rows"))
            else:
                conn.send(("result", version, rows))
    except (EOFError, KeyboardInterrupt, BrokenPipeError, OSError):
        pass
    finally:
        if store is not None:
            store.close()
        try:
            conn.close()
        except OSError:
            pass


class ExecutorPool:
    """Round-robin pool of supervised serving executors.

    ``infer`` dispatches one window to the next executor and blocks for
    its (validated) rows, transparently respawning and replaying on any
    infrastructure failure. The current flat parameter vector is owned by
    the pool (:meth:`set_params` bumps the version); executors receive it
    lazily — only on their first op of a new version.
    """

    def __init__(self, graph: Graph, config, n_hops: int, fanout: int,
                 executors: int, param_sizes: Sequence[int],
                 supervisor: Optional[SupervisorConfig] = None):
        if executors < 1:
            raise ValueError("need at least one executor")
        self.executors = executors
        spec = {"config": config, "n_hops": n_hops, "fanout": fanout}
        self._param_sizes = [int(size) for size in param_sizes]
        self._flat: Optional[np.ndarray] = None
        self._version = 0
        #: Last parameter version each executor's mirror holds (None =
        #: fresh worker that has seen nothing, must be sent the vector).
        self._shipped: List[Optional[int]] = [None] * executors
        self._ops = [0] * executors
        #: The op each executor owes a reply to — what a replay re-issues:
        #: ``("infer", items, op number)`` or ``("rebind", handle)``.
        self._pending: List[Optional[tuple]] = [None] * executors
        self._next = 0
        self.respawns = 0
        self.rebinds = 0
        self._pool = SupervisedPool(
            graph, executors, label="serving executor", scope="serving",
            target=_serving_worker, spec_for=lambda executor: spec,
            check_ready=self._check_ready, check_reply=self._check_reply,
            replay=self._replay, supervisor=supervisor,
        )

    def close(self) -> None:
        """Stop the executors, join them, free the shared segments."""
        self._pool.close()

    def _check_ready(self, executor: int, frame) -> Optional[str]:
        if not (isinstance(frame, tuple) and len(frame) == 2
                and frame[0] == "ready"
                and list(frame[1]) == self._param_sizes):
            return f"bad handshake {frame!r}"
        return None

    # -- live graph mutation ---------------------------------------------
    def rebind(self, graph: Graph) -> None:
        """Re-export the graph and re-attach every live executor to it.

        The mutated graph is exported into fresh shared segments; each
        worker swaps its zero-copy views over to them (keeping its warm
        model mirror — re-attach, not restart) and the old segments are
        unlinked, so any stale :class:`SharedGraphHandle` attach raises
        :class:`~repro.graphs.shm.StaleHandleError`. The ``rebind`` op is
        supervised like any other: a worker that dies or hangs mid-swap is
        killed, respawned against the new store and sent the op again;
        ``max_retries`` exhaustion raises
        :class:`~repro.training.supervision.WorkerSupervisionError`.
        """
        with self._pool.reexported(graph) as handle:
            for executor in range(self.executors):
                self._pending[executor] = ("rebind", handle)
                self._issue(executor)
                self._pool.recv(executor)
        self.rebinds += 1

    # -- parameters -----------------------------------------------------
    def set_params(self, flat: np.ndarray, version: int) -> None:
        """Install the serving parameter vector (hot-swap entry point).

        Nothing is shipped here — each executor picks the new version up
        lazily with its next op, so a swap costs one vector send per
        executor, not a synchronous broadcast.
        """
        self._flat = np.array(flat)
        self._version = int(version)

    # -- supervised infer ------------------------------------------------
    def infer(self, items: Sequence[InferItem]) -> List[np.ndarray]:
        """Serve one window on the next executor; returns rows in order.

        Blocks through any respawn-and-replay recovery. Raises
        :class:`~repro.training.supervision.WorkerSupervisionError` once
        ``max_retries`` consecutive infrastructure failures exhaust the
        budget — the service then degrades to in-process serving.
        """
        if self._flat is None:
            raise RuntimeError("ExecutorPool.set_params was never called")
        executor = self._next
        self._next = (self._next + 1) % self.executors
        items = [(int(r), int(n), int(s)) for r, n, s in items]
        self._ops[executor] += 1
        self._pending[executor] = ("infer", items, self._ops[executor])
        self._issue(executor)
        frame = self._pool.recv(executor)
        return [np.asarray(row, dtype=self._flat.dtype) for row in frame[2]]

    def _issue(self, executor: int) -> None:
        """Send ``executor`` its pending op (fresh or replayed)."""
        op = self._pending[executor]
        if op[0] == "rebind":
            self._pool.send(executor, op)
            return
        _, items, number = op
        flat = None
        if self._shipped[executor] != self._version:
            flat = self._flat
        self._pool.send(
            executor, ("infer", self._version, flat, items),
            at=(executor, number),
        )
        self._shipped[executor] = self._version

    def _replay(self, executor: int) -> None:
        """Re-send the pending op to the respawned executor.

        The replayed window is bit-identical (pure function of (params,
        items) — the fresh mirror has seen no parameters, so it receives
        the same vector and rebuilds the same seeded ego-nets), so
        recovery is invisible to the requests in the window. A respawn
        during a rebind already attached the new store; re-sending the op
        only has it confirm that through the same supervised receive.
        """
        self.respawns += 1
        self._shipped[executor] = None
        self._issue(executor)

    def _check_reply(self, executor: int, frame) -> Optional[str]:
        """Why ``frame`` cannot answer the pending op, or ``None``."""
        op = self._pending[executor]
        if op[0] == "rebind":
            if frame != ("rebound",):
                return f"malformed rebind acknowledgement {frame!r}"
            return None
        if not isinstance(frame, tuple) or len(frame) != 3 \
                or frame[0] != "result":
            return f"malformed result frame {frame!r}"
        if frame[1] != self._version:
            return (
                f"result for stale parameter version {frame[1]} "
                f"(current {self._version})"
            )
        rows = frame[2]
        if not isinstance(rows, (list, tuple)) or len(rows) != len(op[1]):
            return "corrupt result payload (wrong arity)"
        for row in rows:
            try:
                arr = np.asarray(row, dtype=self._flat.dtype)
            except Exception:
                return "corrupt result payload (not an array)"
            if arr.ndim != 1 or arr.size == 0:
                return "corrupt result payload (bad row shape)"
        return None
