"""Process-pool execution over the shared-memory graph store.

Two executors live here, both spawn-started against a
:class:`~repro.graphs.shm.SharedGraphStore` so workers read the full graph
zero-copy instead of unpickling it:

* :class:`ProcessPrefetchPool` — ``PrefetchFlow``'s multi-core builder:
  dedicated pipe-connected worker processes rebuild the flow's
  deterministic ``BatchPlan`` schedule against the shared graph and ship
  the built batches back in ``Graph.flatten`` form (batch content is a
  pure function of ``(seed, slot)``, so worker-built batches are
  byte-identical to thread-built or inline ones — and any worker can
  rebuild any slot),
  behind the ``submit_epoch`` / ``result`` calls ``PrefetchFlow``'s
  thread builder answers too;
* :class:`ReplicaProcessPool` — ``DistributedFlow``'s process-per-replica
  round executor: each worker holds a persistent model mirror plus its own
  single-row :class:`~repro.training.engine.ReplicaGradients` (so
  ``--grad-topk`` error-feedback residuals live where the gradients are
  computed) and runs :func:`~repro.training.engine.forward_backward` on
  the parameters the parent ships, behind the ``build`` / ``step`` /
  ``retire`` calls the engine's in-process replicas answer too.

Both pools are thin clients of
:class:`~repro.training.supervision.SupervisedPool`, which owns spawning,
the sentinel-watched reply wait, kill, respawn and retry accounting (see
that module for the supervision rules). What lives here is what makes a
replay *bit-identical*: a prefetch slot is a pure function of its
coordinates, so the failed slot is simply re-sent to the respawned
worker; a replica worker is resurrected from its last state snapshot
(every gradient reply ships the worker's post-step PCG64 state and
error-feedback residual row), the active batch is rebuilt, and the failed
op re-issued. Deterministic *application* errors (a worker's own
exception frame) are never retried — they raise immediately with the
worker's traceback attached.

:func:`resolve_process_workers` is the shared degradation gate: no usable
shared memory, an unpicklable flow, or fewer CPU cores than requested all
fall back to the in-process path with a single cached warning per
``(reason, label)`` — never a crash. ``REPRO_FORCE_PROCS=1`` overrides
the core-count check so single-core CI can still exercise the real
process path.
"""

from __future__ import annotations

import os
import pickle
import time
import traceback
import warnings
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..graphs.graph import Graph
from ..graphs.shm import SharedGraphStore, shared_memory_available
from ..sparse import CSRMatrix
from ..sparse.native import available_cores
from ..sparse.ops import get_backend, set_backend
from .supervision import (
    SupervisedPool,
    SupervisorConfig,
    WorkerSupervisionError,
    _apply_faults,
)

__all__ = [
    "available_cores",
    "processes_forced",
    "resolve_process_workers",
    "reset_fallback_warnings",
    "conv_norms",
    "build_adjacencies",
    "warm_batch",
    "pack_parameters",
    "unpack_parameters",
    "SupervisorConfig",
    "WorkerSupervisionError",
    "ReplicaWorkerError",
    "PrefetchWorkerError",
    "ProcessPrefetchPool",
    "ReplicaProcessPool",
]

#: Set to ``1`` to run process pools even when the host reports fewer CPU
#: cores than requested workers (tests / single-core CI coverage).
FORCE_ENV = "REPRO_FORCE_PROCS"


def processes_forced() -> bool:
    return os.environ.get(FORCE_ENV, "") not in ("", "0")


def _picklable(obj) -> bool:
    try:
        pickle.dumps(obj)
        return True
    except Exception:
        return False


#: ``(reason, label)`` pairs that already warned; a long run degrading on
#: every epoch emits one warning, not hundreds.
_WARNED: set = set()


def reset_fallback_warnings() -> None:
    """Clear the once-per-(reason, label) warning cache (test hook)."""
    _WARNED.clear()


def _warn_once(reason: str, label: str, message: str) -> None:
    key = (reason, label)
    if key in _WARNED:
        return
    _WARNED.add(key)
    warnings.warn(message, RuntimeWarning, stacklevel=3)


def resolve_process_workers(requested: int, label: str = "workers",
                            payload=None) -> int:
    """How many worker processes to actually start (0 = stay in-process).

    Degrades gracefully — one cached warning per ``(reason, label)``,
    never a crash — when the host has no usable shared memory, ``payload``
    (the flow/config a worker must unpickle) does not pickle, or fewer
    cores than ``requested`` are available (overridable via
    :data:`FORCE_ENV` for tests).
    """
    if requested < 1:
        return 0
    if not shared_memory_available():
        _warn_once(
            "no-shared-memory", label,
            f"shared memory unavailable; {label} falling back to the "
            "in-process path",
        )
        return 0
    if payload is not None and not _picklable(payload):
        _warn_once(
            "unpicklable-payload", label,
            f"{label} payload is not picklable for a spawn worker; "
            "falling back to the in-process path",
        )
        return 0
    cores = available_cores()
    if cores < requested and not processes_forced():
        _warn_once(
            "too-few-cores", label,
            f"{cores} CPU core(s) available but {requested} {label} "
            "requested; falling back to the in-process path "
            f"(set {FORCE_ENV}=1 to force process execution)",
        )
        return 0
    return requested


# ----------------------------------------------------------------------
# Build-and-warm: what every prefetch builder, the inline remainder after
# a degraded pool and a served window do to a batch before it is used.
# ----------------------------------------------------------------------

def conv_norms(model) -> Tuple[str, ...]:
    """The distinct adjacency normalisations ``model``'s convs aggregate over."""
    return tuple(dict.fromkeys(
        conv.norm for conv in getattr(model, "convs", ())
    ))


def build_adjacencies(graph: Graph, norms: Sequence[str]) -> List[CSRMatrix]:
    """Build ``adjacency(norm)`` and its transpose (into the graph's cache)."""
    matrices = []
    for norm in norms:
        matrices.append(graph.adjacency(norm))
        matrices.append(graph.adjacency_transpose(norm))
    return matrices


def warm_batch(graph: Graph, norms: Sequence[str]) -> None:
    """:func:`build_adjacencies`, registered with the active sparse backend
    (scipy wrappers / vectorized SpMM plans)."""
    get_backend().warm(build_adjacencies(graph, norms))


# ----------------------------------------------------------------------
# Flat-parameter codec for the replica protocol.
# ----------------------------------------------------------------------

def pack_parameters(parameters, out: Optional[np.ndarray] = None
                    ) -> np.ndarray:
    """Concatenate every parameter's data into one vector of their dtype."""
    total = sum(p.data.size for p in parameters)
    if out is None or out.size != total:
        out = np.empty(total, dtype=parameters[0].data.dtype)
    offset = 0
    for p in parameters:
        size = p.data.size
        out[offset:offset + size] = p.data.ravel()
        offset += size
    return out


def unpack_parameters(parameters, flat: np.ndarray) -> None:
    offset = 0
    for p in parameters:
        size = p.data.size
        p.data[...] = flat[offset:offset + size].reshape(p.data.shape)
        offset += size


# ----------------------------------------------------------------------
# Prefetch builder pool (PrefetchFlow's multi-core path).
# ----------------------------------------------------------------------

class PrefetchWorkerError(RuntimeError):
    """A prefetch builder failed; names the originating schedule slot."""

    def __init__(self, slot: Optional[int], epoch: int,
                 original: BaseException):
        where = "unknown slot" if slot is None else f"plan slot {slot}"
        super().__init__(
            f"prefetch builder failed at {where} of epoch {epoch}: "
            f"{original!r}"
        )
        self.slot = slot
        self.epoch = epoch
        self.original = original


def _prefetch_worker(conn, spec: dict) -> None:
    """One builder: attach the shared graph, serve build requests forever.

    Replies: ``("built", epoch, index, payload)`` on success,
    ``("error", epoch, index, summary, traceback)`` on a deterministic
    build exception (the loop keeps serving — the error is the slot's, not
    the worker's).
    """
    store = None
    try:
        set_backend(spec["backend"])
        store = SharedGraphStore.attach(spec["handle"])
        graph = store.graph()
        flow = pickle.loads(spec["flow"])
        warm_norms = spec["warm_norms"]
        conn.send(("ready",))
        while True:
            message = conn.recv()
            if message[0] == "stop":
                break
            _, epoch, index, actions = message
            corrupt = _apply_faults(conn, actions)
            try:
                plans = flow.plan(graph, epoch)
                batch = plans[index].build()
                # Built batches are process-local copies, so pickling them
                # back is safe; the adjacencies the engine will need ship
                # pre-built so that cost also leaves the training process.
                build_adjacencies(batch, warm_norms)
                payload = batch.flatten()
                # Worker-side cleanup mirrors the consumer contract:
                # one-shot batches release their backend wrappers here.
                plans[index].retire(batch)
            except BaseException as exc:
                conn.send((
                    "error", epoch, index, repr(exc), traceback.format_exc()
                ))
                continue
            if corrupt:
                payload = (payload[0], {})
            conn.send(("built", epoch, index, payload))
    except (EOFError, KeyboardInterrupt, BrokenPipeError, OSError):
        pass
    finally:
        if store is not None:
            store.close()
        try:
            conn.close()
        except OSError:
            pass


class ProcessPrefetchPool:
    """Supervised spawn workers building a flow's ``BatchPlan`` schedule.

    One dedicated pipe-connected process per worker (a ``mp.Pool`` cannot
    promptly surface a SIGKILLed child — the lost task only shows up as a
    result timeout; a sentinel-watched ``Process`` reports it instantly).
    Slots are dispatched one-at-a-time per worker; because a batch is a
    pure function of ``(seed, slot)``, a failed slot is replayed on the
    respawned worker with a bit-identical result.
    """

    def __init__(self, inner_flow, graph: Graph, workers: int,
                 warm_norms: Sequence[str] = (),
                 supervisor: Optional[SupervisorConfig] = None):
        self.workers = workers
        self.graph = graph
        spec = {
            "flow": pickle.dumps(inner_flow),
            "warm_norms": tuple(warm_norms),
        }
        self._inflight: Dict[int, Tuple[int, int]] = {}  # worker -> task
        self._queue: deque = deque()
        self._results: Dict[Tuple[int, int], Graph] = {}
        self._failures: Dict[Tuple[int, int], BaseException] = {}
        self._pool = SupervisedPool(
            graph, workers, label="prefetch worker", scope="prefetch",
            target=_prefetch_worker, spec_for=lambda worker: spec,
            check_ready=self._check_ready, check_reply=self._check_reply,
            replay=self._send, supervisor=supervisor,
        )

    def close(self) -> None:
        """Stop/kill the workers and free the shared segments (idempotent)."""
        self._pool.close()

    # -- dispatch ------------------------------------------------------
    def submit_epoch(self, epoch: int, plans: Sequence) -> None:
        """Queue every plan of ``epoch``; workers start building at once
        (they rebuild the schedule themselves — only the count is used)."""
        for index in range(len(plans)):
            self._queue.append((epoch, index))
        self._dispatch()

    def _dispatch(self) -> None:
        for worker in range(self.workers):
            if not self._queue:
                return
            if worker not in self._inflight:
                self._inflight[worker] = self._queue.popleft()
                self._send(worker)

    def _send(self, worker: int) -> None:
        """Send ``worker`` its in-flight slot — also the whole replay
        recipe: a respawned worker rebuilds the same slot from scratch."""
        epoch, index = task = self._inflight[worker]
        self._pool.send(worker, ("build", epoch, index), at=task)

    # -- supervision ---------------------------------------------------
    def result(self, epoch: int, index: int) -> Graph:
        """The built (and validated) batch for one submitted plan slot.

        Blocks until the slot is built, replaying it through respawned
        workers on infrastructure failures. Raises
        :class:`PrefetchWorkerError` for a deterministic builder exception
        and :class:`WorkerSupervisionError` once retries are exhausted.
        """
        key = (epoch, index)
        while True:
            if key in self._failures:
                raise PrefetchWorkerError(
                    index, epoch, self._failures.pop(key)
                )
            if key in self._results:
                return self._results.pop(key)
            if key not in self._inflight.values() and key not in self._queue:
                raise RuntimeError(
                    f"plan slot {index} of epoch {epoch} was never submitted"
                )
            worker, _ = self._pool.recv_any(list(self._inflight))
            del self._inflight[worker]
            self._dispatch()

    @staticmethod
    def _check_ready(worker: int, frame) -> Optional[str]:
        if frame != ("ready",):
            return f"unexpected handshake {frame!r}"
        return None

    def _check_reply(self, worker: int, frame) -> Optional[str]:
        """Validate a build reply and bank what it carries.

        A ``built`` frame is accepted only once its payload decodes into a
        batch (stored for :meth:`result`); an ``error`` frame is the
        slot's deterministic failure, recorded and never retried.
        """
        task = self._inflight[worker]
        try:
            kind = frame[0]
            if kind == "built":
                _, epoch, index, payload = frame
            elif kind == "error":
                _, epoch, index, summary, worker_tb = frame
            else:
                raise ValueError(f"unexpected frame kind {kind!r}")
        except (ValueError, TypeError, IndexError):
            return f"malformed reply frame {frame!r}"
        if task != (epoch, index):
            return f"reply for {(epoch, index)} while {task} in flight"
        if kind == "error":
            self._failures.setdefault(
                task, RuntimeError(f"{summary}\n{worker_tb}")
            )
            return None
        try:
            self._results[task] = Graph.unflatten(*payload)
        except Exception as exc:
            return f"corrupt batch payload ({exc!r})"
        return None


# ----------------------------------------------------------------------
# Process-per-replica round executor (DistributedFlow's multi-core path).
# ----------------------------------------------------------------------

class ReplicaWorkerError(RuntimeError):
    """A replica worker failed on its own code (deterministic — no retry).

    Carries the worker's last traceback and, when the child already died,
    its exit code, so the cause is never reduced to a bare ``EOFError``.
    """

    def __init__(self, replica: int, summary: str,
                 worker_traceback: str = "",
                 exitcode: Optional[int] = None):
        message = f"replica worker {replica} failed: {summary}"
        if exitcode is not None:
            message += f" (worker exit code {exitcode})"
        if worker_traceback:
            message += f"\n{worker_traceback}"
        super().__init__(message)
        self.replica = replica
        self.summary = summary
        self.worker_traceback = worker_traceback
        self.exitcode = exitcode
        self.deterministic = True


def _replica_worker(conn, spec: dict) -> None:
    """One replica: persistent model mirror + gradient store, message loop.

    Protocol (parent → worker → parent):

    * ``("build", epoch, plan_index, actions)`` → ``("built", skip,
      n_nodes, n_edges)`` — rebuild the deterministic plan against the
      shared graph; ``skip`` marks an all-unlabelled batch (retired on
      the spot).
    * ``("step", flat_params, actions)`` → ``("grad", payload, loss,
      seconds, state)`` — overwrite the mirror's parameters, run
      :func:`~repro.training.engine.forward_backward` on the current
      batch, capture the gradients in
      the worker's own single-row :class:`ReplicaGradients` (a copy for
      dense; top-k selection + error-feedback residual update for
      ``grad_topk``), and ship the per-parameter payload. ``state`` is
      the worker's *post-step* snapshot (dropout PCG64 state + residual
      row): the parent banks it so a respawn resumes exactly here.
    * ``("retire", )`` — consumer-side cleanup once the round finished.
    * ``("stop", )`` — exit the loop.

    ``spec["resume_state"]`` (a banked snapshot) restores a respawned
    worker verbatim — no re-jump; replica 0 of a fresh pool keeps the
    parent's stream so R=1 stays bit-identical; replica ``r`` jumps the
    construction-time state by ``r``.
    """
    store = None
    try:
        set_backend(spec["backend"])
        store = SharedGraphStore.attach(spec["handle"])
        graph = store.graph()
        flow = pickle.loads(spec["flow"])

        from ..models import MaxKGNN
        from .engine import ReplicaGradients, forward_backward

        # Parameter values are overwritten from the parent's flat vector
        # every step, so the mirror's init seed is irrelevant — only the
        # architecture (and hence the span layout) must match.
        model = MaxKGNN(graph, spec["config"], seed=0)
        bit_generator = np.random.PCG64()
        resume = spec.get("resume_state")
        if resume is not None:
            bit_generator.state = resume["rng_state"]
        else:
            bit_generator.state = spec["rng_state"]
            if spec["replica"]:
                # Independent deterministic stream per replica; replica 0
                # keeps the parent's stream verbatim so R=1 is
                # bit-identical.
                bit_generator = bit_generator.jumped(spec["replica"])
        model._dropout_rng = np.random.Generator(bit_generator)
        parameters = list(model.parameters())
        grads = ReplicaGradients(parameters, 1, topk=spec["grad_topk"])
        if resume is not None and resume.get("residual") is not None:
            grads.load_residuals([np.asarray(resume["residual"])])

        def snapshot() -> dict:
            state = {
                "rng_state": model._dropout_rng.bit_generator.state,
                "residual": None,
            }
            residual = getattr(grads, "_residual", None)
            if residual is not None:
                state["residual"] = residual[0].copy()
            return state

        conn.send((
            "ready", [int(p.data.size) for p in parameters], snapshot()
        ))

        plan = None
        batch = None
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "stop":
                break
            if kind == "build":
                _, epoch, plan_index, actions = message
                corrupt = _apply_faults(conn, actions)
                plan = flow.plan(graph, epoch)[plan_index]
                batch = plan.build()
                mask = batch.train_mask
                skip = mask is not None and not np.any(mask)
                reply = ("built", skip, batch.n_nodes, batch.n_edges)
                if corrupt:
                    reply = ("built",)
                if skip:
                    plan.retire(batch)
                    plan = None
                    batch = None
                else:
                    model.bind_graph(batch)
                conn.send(reply)
            elif kind == "step":
                _, flat_params, actions = message
                corrupt = _apply_faults(conn, actions)
                start = time.perf_counter()
                unpack_parameters(parameters, flat_params)
                loss = forward_backward(model, batch.features, batch)
                # Dense is a plain copy; top-k applies the residual-
                # corrected selection and updates this replica's residual
                # — byte-for-byte the in-process store's per-replica
                # arithmetic.
                grads.capture(0)
                payload = grads.export_payload()
                if corrupt:
                    payload = "corrupted-payload"
                seconds = time.perf_counter() - start
                conn.send((
                    "grad", payload, float(loss.item()), seconds, snapshot()
                ))
            elif kind == "retire":
                if plan is not None and batch is not None:
                    plan.retire(batch)
                plan = None
                batch = None
                features = None
    except (EOFError, KeyboardInterrupt, BrokenPipeError):
        pass
    except BaseException as exc:
        try:
            conn.send(("error", repr(exc), traceback.format_exc()))
        except Exception:
            pass
    finally:
        if store is not None:
            store.close()
        try:
            conn.close()
        except OSError:
            pass


class ReplicaProcessPool:
    """One persistent, supervised spawn process per replica.

    Every gradient reply banks the worker's post-step state snapshot, so
    an infrastructure failure (killed, hung, torn pipe, corrupt payload)
    is survived by respawning the worker *from that snapshot*, replaying
    its active batch build, and re-issuing the failed op — the recovered
    trajectory is bit-identical to a clean run. Deterministic worker
    exceptions raise :class:`ReplicaWorkerError` immediately (retrying
    deterministic code re-raises deterministically); exhausted retries
    raise :class:`WorkerSupervisionError` so the engine can degrade
    in-process, seeded from :meth:`worker_states`.
    """

    #: The reply kind each supervised op is answered with.
    _REPLY_KIND = {"build": "built", "step": "grad"}

    def __init__(self, graph: Graph, inner_flow, config, rng_state,
                 replicas: int, grad_topk: Optional[int],
                 param_sizes: Sequence[int],
                 supervisor: Optional[SupervisorConfig] = None,
                 resume_states: Optional[Sequence[Optional[dict]]] = None):
        self.replicas = replicas
        self._spec = {
            "flow": pickle.dumps(inner_flow),
            "config": config,
            "rng_state": rng_state,
            "grad_topk": grad_topk,
        }
        self._param_sizes = [int(size) for size in param_sizes]
        self._flat: Optional[np.ndarray] = None
        self._states: List[Optional[dict]] = [None] * replicas
        if resume_states:
            for replica, state in enumerate(resume_states):
                if replica < replicas and state is not None:
                    self._states[replica] = state
        self._active_build: List[Optional[Tuple[int, int, int]]] = (
            [None] * replicas
        )
        self._last_op: List[Optional[Tuple[tuple, int]]] = [None] * replicas
        self._ops = [0] * replicas
        self._pool = SupervisedPool(
            graph, replicas, label="replica worker", scope="replica",
            target=_replica_worker, spec_for=self._spec_for,
            check_ready=self._check_ready, check_reply=self._check_reply,
            replay=self._replay, supervisor=supervisor,
        )

    def close(self) -> None:
        """Stop the workers, join them, free the shared segments."""
        self._pool.close()

    def _spec_for(self, replica: int) -> dict:
        return dict(
            self._spec, replica=replica, resume_state=self._states[replica]
        )

    @staticmethod
    def _raise_worker_error(replica: int, frame) -> None:
        """Surface a worker's own exception frame, traceback attached.

        A deterministic application error: retrying replays the same
        exception, so it is raised instead of being counted as a failure.
        """
        if isinstance(frame, tuple) and frame and frame[0] == "error":
            raise ReplicaWorkerError(
                replica, frame[1], worker_traceback=frame[2]
            )

    def _check_ready(self, replica: int, frame) -> Optional[str]:
        self._raise_worker_error(replica, frame)
        if not (isinstance(frame, tuple) and len(frame) == 3
                and frame[0] == "ready"
                and list(frame[1]) == self._param_sizes):
            return f"mirror layout mismatch: {frame!r} != {self._param_sizes}"
        self._states[replica] = frame[2]
        return None

    # -- supervised op transport ----------------------------------------
    def _send(self, replica: int, op: tuple, number: int) -> None:
        self._pool.send(replica, op, at=(replica, number))
        self._last_op[replica] = (op, number)

    def _send_fresh(self, replica: int, op: tuple) -> None:
        self._ops[replica] += 1
        number = self._ops[replica]
        if op[0] == "build":
            self._active_build[replica] = (op[1], op[2], number)
        self._send(replica, op, number)

    def _check_reply(self, replica: int, frame) -> Optional[str]:
        """Why ``frame`` cannot answer the outstanding op, or ``None``.

        A validated ``grad`` frame banks the worker's post-step snapshot;
        a worker's own exception frame raises :class:`ReplicaWorkerError`.
        """
        self._raise_worker_error(replica, frame)
        if not isinstance(frame, tuple) or not frame:
            return f"malformed reply frame {frame!r}"
        kind = frame[0]
        expect = self._REPLY_KIND[self._last_op[replica][0][0]]
        if kind != expect:
            return f"expected a {expect!r} reply, got {kind!r}"
        if kind == "built":
            if len(frame) != 4:
                return "malformed built frame"
            return None
        if len(frame) != 5:
            return "malformed grad frame"
        payload, state = frame[1], frame[4]
        if not isinstance(state, dict) or "rng_state" not in state:
            return "grad reply carries no worker state snapshot"
        if not isinstance(payload, (list, tuple)) or \
                len(payload) != len(self._param_sizes):
            return "corrupt gradient payload (wrong arity)"
        for size, entry in zip(self._param_sizes, payload):
            if entry is None:
                continue
            if isinstance(entry, tuple):
                if len(entry) != 2:
                    return "corrupt sparse gradient entry"
                continue
            try:
                if np.asarray(entry).size != size:
                    return "corrupt gradient payload (span mismatch)"
            except Exception:
                return "corrupt gradient payload (not an array)"
        self._states[replica] = state
        return None

    def _replay(self, replica: int) -> None:
        """Re-issue the failed op (rebuilding the active batch first).

        The respawned worker resumed from the snapshot taken *before* the
        failed op, so replaying build + op reproduces the op bit-for-bit:
        builds consume no randomness, and the dropout stream/residual row
        advance only on a successful ``grad`` reply.
        """
        op, number = self._last_op[replica]
        if op[0] == "step" and self._active_build[replica] is not None:
            epoch, plan_index, build_number = self._active_build[replica]
            self._send(replica, ("build", epoch, plan_index), build_number)
            self._pool.recv(replica)
        self._send(replica, op, number)

    # -- public round protocol -----------------------------------------
    def build(self, assignments: Sequence[Tuple[int, int]], epoch: int
              ) -> Dict[int, Tuple[bool, int, int]]:
        """Build one round: ``(replica, plan_index)`` pairs, in parallel."""
        for replica, plan_index in assignments:
            self._send_fresh(replica, ("build", epoch, plan_index))
        infos = {}
        for replica, _ in assignments:
            _, skip, n_nodes, n_edges = self._pool.recv(replica)
            if skip:
                self._active_build[replica] = None
            infos[replica] = (bool(skip), int(n_nodes), int(n_edges))
        return infos

    def step(self, participants: Sequence[int], store
             ) -> Dict[int, Tuple[float, float]]:
        """One synchronous gradient step: ``{replica: (loss, seconds)}``.

        Ships ``store``'s parameters down and deposits the returned
        payloads into it in ascending replica order — once *every* reply
        is validated, so an exhausted step leaves the store untouched.
        """
        self._flat = pack_parameters(store.parameters, self._flat)
        for replica in participants:
            self._send_fresh(replica, ("step", self._flat))
        frames = [self._pool.recv(replica) for replica in participants]
        replies = {}
        for replica, (_, payload, loss, seconds, _) in zip(
            participants, frames
        ):
            store.deposit(replica, payload)
            replies[replica] = (float(loss), float(seconds))
        return replies

    def retire(self, participants: Sequence[int]) -> None:
        for replica in participants:
            self._pool.send(replica, ("retire",))
            self._active_build[replica] = None

    def worker_states(self) -> List[Optional[dict]]:
        """Last banked per-worker snapshot (dropout PCG64 state + residual).

        What the engine needs to continue the exact trajectory in-process
        after degradation, or to checkpoint mid-run: replica 0's stream is
        the parent stream's continuation, and each residual row is the
        error-feedback state the in-process store must adopt.
        """
        return list(self._states)
