"""Process-per-replica execution over the shared-memory graph store.

:class:`ReplicaProcessPool` is ``DistributedFlow``'s multi-core round
executor: one spawn-started worker per replica, reading the full graph
zero-copy from one :class:`~repro.graphs.shm.SharedGraphStore` export
instead of unpickling it. Each worker holds a persistent model mirror
plus its own single-row :class:`~repro.training.engine.ReplicaGradients`
and runs :func:`~repro.training.engine.forward_backward` on the
parameters the parent ships, behind the ``build`` / ``step`` /
``retire`` calls the engine's in-process replicas answer too.

The pool is also the one supervisor of a worker process: it spawns,
awaits every reply over the worker's pipe *and* its process sentinel (a
SIGKILLed child is seen the moment it dies, a hung one at a per-attempt
deadline that backs off across retries), kills, respawns and replays.
A replay is *bit-identical*: the worker is resurrected from its last
state snapshot (every gradient reply ships the worker's post-step
dropout PCG64 state), the active batch is rebuilt, and the failed op
re-issued. After ``RETRIES`` consecutive failures of one worker, or a
failed respawn, :class:`WorkerSupervisionError` tells the engine to
degrade to its in-process replicas. Deterministic *application* errors
(a worker's own exception frame) are never retried: they raise
:class:`ReplicaWorkerError` at once, the worker's traceback attached.

The path stays on a measurement, not on the committed 800-node row
(``benchmarks/test_multicore.py``, 0.77×, a replica step of a few ms):
at R = 2 on a 30k-node graph the processes ran an epoch 1.7× (k-hop
inner flow) and 1.8× (partitioned inner flow) faster than in-process
replicas on a 2-vCPU host, winning 10 of 10 alternated pairs each
(``benchmarks/PERF.md``, *measured first*).

The module also holds the build-and-warm helpers ``PrefetchFlow``'s
builder thread runs on each batch, and the replica protocol's
flat-parameter codec.

:func:`resolve_process_workers` is the degradation gate: no usable
shared memory, an unpicklable flow, or fewer CPU cores than requested
all fall back to the in-process path with a single cached warning per
reason, never a crash. ``REPRO_FORCE_PROCS=1`` overrides the core-count
check so single-core CI can still exercise the real process path.
"""

from __future__ import annotations

import os
import pickle
import time
import traceback
import warnings
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..graphs.graph import Graph
from ..graphs.shm import SharedGraphStore, shared_memory_available
from ..sparse import CSRMatrix
from ..sparse.native import available_cores
from ..sparse.ops import get_backend, set_backend
from .faults import _apply_faults, _consume_events, current_fault_plan

__all__ = [
    "available_cores",
    "processes_forced",
    "resolve_process_workers",
    "reset_fallback_warnings",
    "conv_norms",
    "training_adjacencies",
    "build_adjacencies",
    "warm_batch",
    "pack_parameters",
    "unpack_parameters",
    "WorkerSupervisionError",
    "ReplicaWorkerError",
    "PrefetchWorkerError",
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


#: Reasons that already warned; a long run degrading on every epoch
#: emits one warning, not hundreds.
_WARNED: set = set()


def reset_fallback_warnings() -> None:
    """Clear the once-per-reason warning cache (test hook)."""
    _WARNED.clear()


def _warn_once(reason: str, message: str) -> None:
    if reason in _WARNED:
        return
    _WARNED.add(reason)
    warnings.warn(message, RuntimeWarning, stacklevel=3)


def resolve_process_workers(requested: int, payload=None) -> int:
    """How many replica processes to actually start (0 = stay in-process).

    Degrades gracefully — one cached warning per reason, never a crash —
    when the host has no usable shared memory, ``payload`` (the flow /
    config a worker must unpickle) does not pickle, or fewer cores than
    ``requested`` are available (overridable via :data:`FORCE_ENV` for
    tests).
    """
    if requested < 1:
        return 0
    if not shared_memory_available():
        _warn_once(
            "no-shared-memory",
            "shared memory unavailable; replica processes falling back to "
            "the in-process path",
        )
        return 0
    if payload is not None and not _picklable(payload):
        _warn_once(
            "unpicklable-payload",
            "replica processes payload is not picklable for a spawn "
            "worker; falling back to the in-process path",
        )
        return 0
    cores = available_cores()
    if cores < requested and not processes_forced():
        _warn_once(
            "too-few-cores",
            f"{cores} CPU core(s) available but {requested} replica "
            "processes requested; falling back to the in-process path "
            f"(set {FORCE_ENV}=1 to force process execution)",
        )
        return 0
    return requested


# ----------------------------------------------------------------------
# Build-and-warm: what the prefetch thread and a served window do to a
# batch before it is used.
# ----------------------------------------------------------------------

def conv_norms(model) -> Tuple[str, ...]:
    """The distinct adjacency normalisations ``model``'s convs aggregate over."""
    return tuple(dict.fromkeys(
        conv.norm for conv in getattr(model, "convs", ())
    ))


def training_adjacencies(model) -> Tuple[str, ...]:
    """What a training step of ``model`` reads, as graph cache keys: each
    conv's norm, and ``norm^T`` where the conv's backward is the SpMM's
    (the CBSR route's SSpMM reads ``A`` itself)."""
    keys = []
    for conv in getattr(model, "convs", ()):
        keys.append(conv.norm)
        if not conv.use_cbsr_kernels:
            keys.append(conv.norm + "^T")
    return tuple(dict.fromkeys(keys))


def build_adjacencies(graph: Graph, keys: Sequence[str]) -> List[CSRMatrix]:
    """Build each adjacency ``keys`` names into the graph's cache: a norm,
    or ``norm^T`` for its transpose (:func:`training_adjacencies`)."""
    return [
        graph.adjacency_transpose(key[:-2]) if key.endswith("^T")
        else graph.adjacency(key)
        for key in keys
    ]


def warm_batch(graph: Graph, keys: Sequence[str]) -> None:
    """:func:`build_adjacencies`, registered with the active sparse backend
    (the compiled loops' pins, or the numpy SpMM plans without them)."""
    get_backend().warm(build_adjacencies(graph, keys))


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


class PrefetchWorkerError(RuntimeError):
    """``PrefetchFlow``'s builder thread failed to build one schedule slot
    (deterministic: retrying cannot help); names the slot."""

    def __init__(self, slot: int, epoch: int, original: BaseException):
        super().__init__(
            f"prefetch builder failed at plan slot {slot} of epoch "
            f"{epoch}: {original!r}"
        )
        self.slot = slot
        self.epoch = epoch
        self.original = original


# ----------------------------------------------------------------------
# Process-per-replica round executor (DistributedFlow's multi-core path).
# ----------------------------------------------------------------------

class ReplicaWorkerError(RuntimeError):
    """A replica worker failed on its own code (deterministic — no retry).

    Carries the worker's traceback, so the cause is never reduced to a
    bare ``EOFError``.
    """

    def __init__(self, replica: int, summary: str, worker_traceback: str):
        super().__init__(
            f"replica worker {replica} failed: {summary}\n{worker_traceback}"
        )
        self.replica = replica
        self.summary = summary
        self.worker_traceback = worker_traceback


class WorkerSupervisionError(RuntimeError):
    """Supervised recovery is exhausted; the caller should degrade.

    Raised only after ``RETRIES`` consecutive respawn-and-replay attempts
    of one worker, or a respawn that failed — deterministic application
    errors raise :class:`ReplicaWorkerError` immediately instead.
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
      batch, copy the gradients into the worker's own single-row
      :class:`ReplicaGradients`, and ship the per-parameter payload.
      ``state`` is the worker's *post-step* dropout PCG64 state: the
      parent banks it so a respawn resumes exactly here.
    * ``("retire", )`` — consumer-side cleanup once the round finished.
    * ``("stop", )`` — exit the loop.

    ``spec["resume_state"]`` (a banked snapshot) restores a respawned
    worker verbatim — no re-jump; replica 0 of a fresh pool keeps the
    parent's stream so R=1 stays bit-identical; replica ``r`` jumps the
    construction-time state by ``r``. ``spec["faults"]`` are the fault
    actions due at start-up, run before the ready handshake.
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
            bit_generator.state = resume
        else:
            bit_generator.state = spec["rng_state"]
            if spec["replica"]:
                # Independent deterministic stream per replica; replica 0
                # keeps the parent's stream verbatim so R=1 is
                # bit-identical.
                bit_generator = bit_generator.jumped(spec["replica"])
        model._dropout_rng = np.random.Generator(bit_generator)
        parameters = list(model.parameters())
        grads = ReplicaGradients(parameters, 1)

        def snapshot() -> dict:
            return model._dropout_rng.bit_generator.state

        if _apply_faults(conn, spec["faults"]):
            conn.send(("ready",))
        else:
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
    an infrastructure failure (killed, hung, torn pipe, a frame the
    validators refuse) is survived by killing the worker, respawning it
    *from that snapshot*, replaying its active batch build, and
    re-issuing the failed op — the recovered trajectory is bit-identical
    to a clean run. Deterministic worker exceptions raise
    :class:`ReplicaWorkerError` immediately (retrying deterministic code
    re-raises deterministically); exhausted retries raise
    :class:`WorkerSupervisionError` so the engine can degrade
    in-process, seeded from :meth:`worker_states`.

    Each op ships the :mod:`~repro.training.faults` actions the active
    plan schedules at its coordinate ``(replica, op number)``, and each
    spawn those at ``(replica, 0)``.
    """

    #: Seconds the first attempt at a reply (or a ready handshake) may
    #: take; the ``n``-th consecutive retry of a worker is granted
    #: ``TIMEOUT * BACKOFF ** n``, so a slow but healthy host gets more
    #: slack before the pool gives up.
    TIMEOUT = 120.0
    BACKOFF = 2.0
    #: Consecutive infrastructure failures of one worker that are
    #: respawned and replayed; the next one degrades.
    RETRIES = 2

    #: The reply kind each supervised op is answered with.
    _REPLY_KIND = {"build": "built", "step": "grad"}

    def __init__(self, graph: Graph, inner_flow, config, rng_state,
                 replicas: int, param_sizes: Sequence[int],
                 resume_states: Optional[Sequence[Optional[dict]]] = None):
        import multiprocessing as mp

        self.replicas = replicas
        self._spec = {
            "flow": pickle.dumps(inner_flow),
            "config": config,
            "rng_state": rng_state,
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
        plan = current_fault_plan()
        self._events = list(plan.events) if plan else []
        self._conns: List = [None] * replicas
        self._procs: List = [None] * replicas
        #: Consecutive infrastructure failures of each worker.
        self._retries = [0] * replicas
        #: ``(seconds granted, monotonic expiry)`` of each outstanding op.
        self._deadlines = [(0.0, 0.0)] * replicas
        self._closed = False
        self._ctx = mp.get_context("spawn")
        self._store = SharedGraphStore.export(graph)
        try:
            for replica in range(replicas):
                self._spawn(replica)
        except BaseException:
            self.close()
            raise

    # -- lifecycle -----------------------------------------------------
    def _deadline(self, attempt: int) -> float:
        return self.TIMEOUT * self.BACKOFF ** min(attempt, 8)

    def _spawn(self, replica: int) -> None:
        """Start ``replica``'s worker and wait for its validated ready
        handshake."""
        parent_conn, child_conn = self._ctx.Pipe()
        spec = dict(
            self._spec, replica=replica, resume_state=self._states[replica],
            backend=get_backend().name, handle=self._store.handle(),
            faults=_consume_events(self._events, replica, 0),
        )
        proc = self._ctx.Process(
            target=_replica_worker, args=(child_conn, spec),
            name=f"repro-replica-worker-{replica}", daemon=True,
        )
        proc.start()
        child_conn.close()
        self._conns[replica] = parent_conn
        self._procs[replica] = proc
        status, frame = _await_frame(parent_conn, proc, self._deadline(0))
        try:
            if status == "ok":
                problem = self._check_ready(replica, frame)
            elif status == "dead":
                problem = f"exited with code {frame}"
            else:
                problem = "no ready handshake before the deadline"
        except BaseException:
            self._kill(replica)
            raise
        if problem is not None:
            self._kill(replica)
            raise _WorkerStartError(
                f"replica worker {replica} failed to start ({problem})"
            )

    def _kill(self, replica: int) -> None:
        """SIGKILL (if still alive) and reap the worker; drop its pipe."""
        proc = self._procs[replica]
        conn = self._conns[replica]
        if proc is not None:
            if proc.is_alive():
                proc.kill()
            proc.join(timeout=5.0)
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        self._procs[replica] = None
        self._conns[replica] = None

    def close(self) -> None:
        """Stop the workers, join them, free the shared segments
        (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            if conn is not None:
                try:
                    conn.send(("stop",))
                except (OSError, ValueError):
                    pass
        for replica, proc in enumerate(self._procs):
            if proc is not None:
                proc.join(timeout=2.0)  # grace for a clean exit
            self._kill(replica)
        self._store.close()
        self._store.unlink()

    # -- supervised op transport ----------------------------------------
    @staticmethod
    def _raise_worker_error(replica: int, frame) -> None:
        """Surface a worker's own exception frame, traceback attached.

        A deterministic application error: retrying replays the same
        exception, so it is raised instead of being counted as a failure.
        """
        if isinstance(frame, tuple) and frame and frame[0] == "error":
            raise ReplicaWorkerError(replica, frame[1], frame[2])

    def _check_ready(self, replica: int, frame) -> Optional[str]:
        self._raise_worker_error(replica, frame)
        if not (isinstance(frame, tuple) and len(frame) == 3
                and frame[0] == "ready"
                and list(frame[1]) == self._param_sizes):
            return f"mirror layout mismatch: {frame!r} != {self._param_sizes}"
        self._states[replica] = frame[2]
        return None

    def _send(self, replica: int, op: tuple,
              number: Optional[int] = None) -> None:
        """Ship one op to ``replica`` and start its reply deadline.

        ``number`` is the op's fault coordinate: the actions scheduled
        there travel as the message's last element, consumed *now* so that
        a respawn replaying the op cannot re-fire the fault that killed
        its predecessor.
        """
        message = op
        if number is not None:
            message += (_consume_events(self._events, replica, number),)
            self._last_op[replica] = (op, number)
        try:
            self._conns[replica].send(message)
        except (OSError, ValueError):
            pass  # the sentinel wait will classify the dead worker
        self._arm(replica)

    def _send_fresh(self, replica: int, op: tuple) -> None:
        self._ops[replica] += 1
        number = self._ops[replica]
        if op[0] == "build":
            self._active_build[replica] = (op[1], op[2], number)
        self._send(replica, op, number)

    def _arm(self, replica: int) -> None:
        granted = self._deadline(self._retries[replica])
        self._deadlines[replica] = (granted, time.monotonic() + granted)

    def _recv(self, replica: int):
        """The validated reply to ``replica``'s outstanding op.

        Blocks through respawn-and-replay recoveries; raises
        :class:`WorkerSupervisionError` once the worker's retry budget is
        spent or it cannot be respawned.
        """
        while True:
            status, frame = _await_frame(
                self._conns[replica], self._procs[replica],
                self._deadlines[replica][1] - time.monotonic(),
            )
            if status == "ok":
                cause = self._check_reply(replica, frame)
                if cause is None:
                    self._retries[replica] = 0
                    return frame
            elif status == "dead":
                cause = f"worker exited unexpectedly (exit code {frame})"
            else:
                cause = (
                    f"no reply within the {self._deadlines[replica][0]:.1f}s "
                    "deadline (hung worker killed)"
                )
            self._recover(replica, cause)

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
        if not isinstance(state, dict) or "bit_generator" not in state:
            return "grad reply carries no worker state snapshot"
        if not isinstance(payload, (list, tuple)) or \
                len(payload) != len(self._param_sizes):
            return "corrupt gradient payload (wrong arity)"
        for size, entry in zip(self._param_sizes, payload):
            if entry is None:
                continue
            try:
                if np.asarray(entry).size != size:
                    return "corrupt gradient payload (span mismatch)"
            except Exception:
                return "corrupt gradient payload (not an array)"
        self._states[replica] = state
        return None

    def _recover(self, replica: int, cause: str) -> None:
        """Kill, count, respawn and replay — or give up."""
        self._kill(replica)
        failures = self._retries[replica] + 1
        self._retries[replica] = failures
        if failures > self.RETRIES:
            raise WorkerSupervisionError(
                f"replica worker {replica} failed {failures} consecutive "
                f"times (last cause: {cause})"
            )
        try:
            self._spawn(replica)
        except (_WorkerStartError, OSError) as exc:
            raise WorkerSupervisionError(
                f"replica worker {replica} could not be respawned after a "
                f"failure ({cause}): {exc!r}"
            ) from exc
        self._replay(replica)
        # A reply accepted *inside* the replay (a rebuilt batch) is not a
        # success of the op being recovered: the count stands, and the
        # re-issued op gets the backed-off deadline that goes with it.
        self._retries[replica] = failures
        self._arm(replica)

    def _replay(self, replica: int) -> None:
        """Re-issue the failed op (rebuilding the active batch first).

        The respawned worker resumed from the snapshot taken *before* the
        failed op, so replaying build + op reproduces the op bit-for-bit:
        builds consume no randomness, and the dropout stream advances
        only on a successful ``grad`` reply.
        """
        op, number = self._last_op[replica]
        if op[0] == "step" and self._active_build[replica] is not None:
            epoch, plan_index, build_number = self._active_build[replica]
            self._send(replica, ("build", epoch, plan_index), build_number)
            self._recv(replica)
        self._send(replica, op, number)

    # -- public round protocol -----------------------------------------
    def build(self, assignments: Sequence[Tuple[int, int]], epoch: int
              ) -> Dict[int, Tuple[bool, int, int]]:
        """Build one round: ``(replica, plan_index)`` pairs, in parallel."""
        for replica, plan_index in assignments:
            self._send_fresh(replica, ("build", epoch, plan_index))
        infos = {}
        for replica, _ in assignments:
            _, skip, n_nodes, n_edges = self._recv(replica)
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
        frames = [self._recv(replica) for replica in participants]
        replies = {}
        for replica, (_, payload, loss, seconds, _) in zip(
            participants, frames
        ):
            store.deposit(replica, payload)
            replies[replica] = (float(loss), float(seconds))
        return replies

    def retire(self, participants: Sequence[int]) -> None:
        for replica in participants:
            self._send(replica, ("retire",))
            self._active_build[replica] = None

    def worker_states(self) -> List[Optional[dict]]:
        """Last banked per-worker snapshot: its dropout PCG64 state.

        What the engine needs to continue the exact trajectory in-process
        after degradation, or to checkpoint mid-run: replica 0's stream is
        the parent stream's continuation.
        """
        return list(self._states)
