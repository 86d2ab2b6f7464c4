"""Unified training engine over pluggable data-flow strategies.

One ``fit()`` loop serves the paper's full-batch setting and the sampled /
partitioned regimes it claims compatibility with (§1): the engine owns the
model, the Adam state, the metric protocol, early stopping and the
:class:`TrainResult` history, while a :class:`~repro.training.dataflow.DataFlow`
decides what each epoch's batches look like. Subgraph batches reuse the
*same* parameters and optimizer moments — the model is rebound to each
batch's adjacency (:meth:`MaxKGNN.bind_graph`) instead of being rebuilt,
which is what lets one optimisation trajectory span heterogeneous batch
streams.
"""

from __future__ import annotations

import atexit
import time
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..graphs import Graph
from ..models import MaxKGNN
from ..sparse import ops
from ..tensor import (
    Adam,
    Tensor,
    bce_with_logits,
    cross_entropy,
    fused_ce,
    no_grad,
)
from .checkpoint import (
    CheckpointError,
    check_fingerprint,
    check_width,
    config_fingerprint,
    read_checkpoint,
    state_dict,
    load_state_dict,
    write_checkpoint,
)
from .dataflow import BatchPlan, DataFlow, FullGraphFlow
from .metrics import accuracy, micro_f1, roc_auc
from .parallel import (
    ReplicaProcessPool,
    WorkerSupervisionError,
    resolve_process_workers,
    training_adjacencies,
)
from .schedulers import EarlyStopping

__all__ = ["TrainResult", "Engine", "ReplicaGradients", "batch_loss",
           "forward_backward"]


def batch_loss(model, logits: Tensor, subgraph: Graph,
               fused: bool) -> Tensor:
    """The training loss for one batch, as a free function.

    ``fused`` routes single-label training losses through the
    workspace-planned ``fused_ce`` kernel (bit-identical values, zero
    loss-stage allocations) — what :func:`forward_backward` always does;
    the composed path stays as the oracle the fused one is tested against.
    """
    if subgraph.multilabel:
        return bce_with_logits(logits, subgraph.labels, subgraph.train_mask)
    if fused and model.training:
        return fused_ce(
            logits, subgraph.labels, subgraph.train_mask,
            workspace=getattr(model, "workspace", None), slot="loss",
        )
    return cross_entropy(logits, subgraph.labels, subgraph.train_mask)


def forward_backward(model, features: np.ndarray, batch: Graph) -> Tensor:
    """``zero_grad → forward → batch_loss → backward`` on a bound model.

    The one training step :meth:`Engine.train_batch`, the engine's
    in-process replicas and a process-per-replica worker's model mirror
    all run, so their losses and gradients are byte-identical by
    construction. ``model`` must already be bound to ``batch``.
    """
    for p in model.parameters():
        p.zero_grad()
    loss = batch_loss(model, model(features), batch, True)
    loss.backward()
    return loss


@dataclass
class TrainResult:
    """History and final quality of one training run.

    ``train_losses`` holds one entry per epoch (the mean over the epoch's
    batches); multi-batch flows additionally record every batch step in
    ``batch_losses`` / ``batch_sizes``.
    """

    train_losses: List[float] = field(default_factory=list)
    val_metrics: List[float] = field(default_factory=list)
    test_metrics: List[float] = field(default_factory=list)
    epochs_recorded: List[int] = field(default_factory=list)
    best_val: float = -np.inf
    test_at_best_val: float = -np.inf
    metric_name: str = "accuracy"
    flow: str = "full"
    batch_losses: List[float] = field(default_factory=list)
    batch_sizes: List[int] = field(default_factory=list)

    @property
    def final_test(self) -> float:
        return self.test_metrics[-1] if self.test_metrics else float("nan")


class ReplicaGradients:
    """Per-replica gradient workspaces plus the deterministic all-reduce.

    Each simulated replica snapshots its backward pass into its own row of
    one flat arena (the per-replica workspace — sized once, reused every
    round). :meth:`reduce` then averages the participating replicas' rows
    **in fixed ascending replica order** into the parameters' persistent
    gradient buffers: the reduction order never depends on timing, so a
    distributed run is exactly reproducible, and a one-replica round
    degenerates to ``copy → divide by 1`` — bit-identical to handing the
    optimizer the replica's own gradient.
    """

    def __init__(self, parameters: Sequence[Tensor], replicas: int):
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.parameters = list(parameters)
        self.replicas = replicas
        self._spans: List[Tuple[int, int]] = []
        offset = 0
        for p in self.parameters:
            self._spans.append((offset, offset + p.data.size))
            offset += p.data.size
        dtype = self.parameters[0].data.dtype
        self._arena = np.empty((replicas, offset), dtype=dtype)
        self._present = np.zeros((replicas, len(self.parameters)), dtype=bool)
        self._reduced = np.empty(offset, dtype=dtype)

    def capture(self, replica: int) -> None:
        """Snapshot the parameters' current gradients as ``replica``'s.

        Must run right after the replica's backward pass: the parameters'
        gradient buffers are shared across replicas (they execute serially
        on one simulated device), so the next replica's backward overwrites
        them.
        """
        self.deposit(replica, [p.grad for p in self.parameters])

    def reduce(self, participants: Sequence[int]) -> None:
        """Average the participants' arena rows into ``p.grad`` per param.

        The divisor is the number of replicas that trained a batch this
        round (the round objective is the mean of their losses); a
        parameter no participant touched keeps ``grad = None`` so the
        optimizer skips it, exactly as in sequential execution. Rows are
        summed as they are, in fixed ascending replica order, whether
        :meth:`capture` filled them here or a replica's own worker process
        shipped them.
        """
        if not participants:
            raise ValueError("reduce needs at least one participant")
        scale = 1.0 / float(len(participants))
        for index, (p, (lo, hi)) in enumerate(
            zip(self.parameters, self._spans)
        ):
            sources = [r for r in participants
                       if self._present[r, index]]
            if not sources:
                p.grad = None
                continue
            reduced = self._reduced[lo:hi]
            np.copyto(reduced, self._arena[sources[0], lo:hi])
            for replica in sources[1:]:
                reduced += self._arena[replica, lo:hi]
            reduced *= scale
            p._own(reduced.reshape(p.data.shape))

    def export_payload(self, replica: int = 0) -> List[Optional[np.ndarray]]:
        """``replica``'s arena row as the per-parameter payload to ship:
        ``None`` for an untouched parameter, else a copy of its span.
        :meth:`deposit` is the inverse.
        """
        return [
            self._arena[replica, lo:hi].copy()
            if self._present[replica, index] else None
            for index, (lo, hi) in enumerate(self._spans)
        ]

    def deposit(self, replica: int, payload: Sequence[object]) -> None:
        """Adopt per-parameter gradients as ``replica``'s arena row, as
        they are: raw gradients, or a worker-shipped
        :meth:`export_payload` on the parent side of the
        process-per-replica exchange.
        """
        if len(payload) != len(self.parameters):
            raise ValueError(
                f"payload has {len(payload)} entries for "
                f"{len(self.parameters)} parameters"
            )
        for index, (lo, hi) in enumerate(self._spans):
            entry = payload[index]
            present = entry is not None
            self._present[replica, index] = present
            if present:
                np.copyto(self._arena[replica, lo:hi], np.ravel(entry))


class _InProcessReplicas:
    """:class:`ReplicaProcessPool`'s ``build`` / ``step`` / ``retire``, run
    serially on the engine's own model.

    One simulated device hosts every replica: each replica's step rebinds
    the shared model to its batch, runs :func:`forward_backward` and
    snapshots the gradients into its row of the replica store before the
    next replica's backward overwrites them. What the round loop uses
    without a pool, and swaps in when one exhausts supervised recovery.
    """

    def __init__(self, engine: "Engine", plans: Dict[int, BatchPlan]):
        self.engine = engine
        self.plans = plans
        self._built: Dict[int, Tuple[BatchPlan, Graph]] = {}

    def build(self, assignments: Sequence[Tuple[int, int]], epoch: int
              ) -> Dict[int, Tuple[bool, int, int]]:
        infos = {}
        for replica, plan_index in assignments:
            plan = self.plans[plan_index]
            batch = plan.build()
            mask = batch.train_mask
            skip = mask is not None and not np.any(mask)
            if skip:
                plan.retire(batch)
            else:
                self._built[replica] = (plan, batch)
            infos[replica] = (skip, batch.n_nodes, batch.n_edges)
        return infos

    def step(self, participants: Sequence[int], store: ReplicaGradients
             ) -> Dict[int, Tuple[float, float]]:
        engine = self.engine
        replies = {}
        for replica in participants:
            _, batch = self._built[replica]
            start = time.perf_counter()
            engine._bind(batch)
            loss = forward_backward(
                engine.model, engine._features_of(batch), batch
            )
            store.capture(replica)
            replies[replica] = (loss.item(), time.perf_counter() - start)
        return replies

    def retire(self, participants: Sequence[int]) -> None:
        for replica in participants:
            plan, batch = self._built.pop(replica)
            plan.retire(batch)


class Engine:
    """Trains a :class:`MaxKGNN` through a pluggable data-flow strategy.

    The loss is cross-entropy for single-label tasks and BCE-with-logits
    for multi-label tasks. The evaluation metric defaults to accuracy on
    a single-label graph and micro-F1 on a multi-label one (so the
    ogbn-proteins stand-in reports micro-F1, not OGB's ROC-AUC);
    ``metric="roc_auc"`` asks for ROC-AUC. It is always computed on the
    full graph, whatever the training flow.
    """

    def __init__(
        self,
        model: MaxKGNN,
        graph: Graph,
        flow: Optional[DataFlow] = None,
        lr: float = 0.01,
        weight_decay: float = 0.0,
        metric: Optional[str] = None,
        early_stopping: Optional[EarlyStopping] = None,
    ):
        if graph.features is None or graph.labels is None:
            raise ValueError("graph must carry features and labels")
        # An exception past this point (or in a subclass __init__) leaves
        # a partially constructed engine; close() guards every attribute
        # it touches so cleanup of such an object is still safe.
        self.model = model
        self.graph = graph
        self.flow = flow if flow is not None else FullGraphFlow()
        self.optimizer = Adam(model.parameters(), lr=lr, weight_decay=weight_decay)
        if metric is None:
            metric = "micro_f1" if graph.multilabel else "accuracy"
        if metric not in ("accuracy", "micro_f1", "roc_auc"):
            raise ValueError(f"unknown metric {metric!r}")
        if metric == "accuracy" and graph.multilabel:
            raise ValueError("accuracy metric needs single-label targets")
        self.metric = metric
        self.early_stopping = early_stopping
        self._features = np.asarray(graph.features, dtype=ops.FLOAT_DTYPE)
        self._bound = model.graph
        self._replica_grads: Optional[ReplicaGradients] = None
        self._replica_pool = None  # ReplicaProcessPool, created lazily
        self._replica_pool_key: Optional[tuple] = None
        #: Set after the pool exhausts supervised recovery: the engine
        #: stays on the in-process path for the rest of its life instead
        #: of re-provisioning (and re-crashing) a pool every epoch.
        self._procs_disabled = False
        #: Stashed by :meth:`load_checkpoint`, consumed by the next
        #: replica-pool construction so a resumed run continues the
        #: workers' exact dropout streams.
        self._resume_worker_states: Optional[List[Optional[dict]]] = None
        # A prefetching flow builds future batches off the training
        # critical path; tell it which adjacencies this model aggregates
        # over so it builds (and registers) those ahead as well.
        set_warm_norms = getattr(self.flow, "set_warm_norms", None)
        if set_warm_norms is not None:
            set_warm_norms(training_adjacencies(model))
        # A killed/forgotten run must not leak worker processes or shared
        # segments; interpreter exit closes every live engine.
        atexit.register(self.close)

    # ------------------------------------------------------------------
    def _bind(self, subgraph: Graph) -> None:
        if self._bound is not subgraph:
            self.model.bind_graph(subgraph)
            self._bound = subgraph

    def _features_of(self, subgraph: Graph) -> np.ndarray:
        if subgraph is self.graph:
            return self._features
        return subgraph.features

    def _score(self, logits: np.ndarray, mask: np.ndarray) -> float:
        if self.metric == "accuracy":
            return accuracy(logits, self.graph.labels, mask)
        if self.metric == "micro_f1":
            return micro_f1(logits, self.graph.labels, mask)
        return roc_auc(logits, self.graph.labels, mask)

    # ------------------------------------------------------------------
    def evaluate(self) -> Dict[str, float]:
        """Metric on the full graph's val/test splits, model in eval mode."""
        self._bind(self.graph)
        self.model.eval()
        with no_grad():
            logits = self.model(self._features).numpy()
        self.model.train()
        return {
            "val": self._score(logits, self.graph.val_mask),
            "test": self._score(logits, self.graph.test_mask),
        }

    def train_batch(self, subgraph: Graph, steps: int = 1) -> float:
        """``steps`` gradient steps on one batch; returns the last loss."""
        self._bind(subgraph)
        features = self._features_of(subgraph)
        loss_value = float("nan")
        for _ in range(steps):
            loss = forward_backward(self.model, features, subgraph)
            self.optimizer.step()
            loss_value = loss.item()
        return loss_value

    # -- simulated data-parallel execution ------------------------------
    def _replica_store(self, replicas: int) -> ReplicaGradients:
        store = getattr(self, "_replica_grads", None)
        if (
            store is None
            or store.replicas != replicas
            or store.parameters != self.optimizer.parameters
        ):
            store = ReplicaGradients(self.optimizer.parameters, replicas)
            self._replica_grads = store
        return store

    def _train_epoch_rounds(
        self,
        rounds: List[List[BatchPlan]],
        steps_per_batch: int,
        result: Optional[TrainResult],
        epoch: int = 0,
    ) -> float:
        """One data-parallel epoch: a round of replica batches per step.

        Every round is ``build`` → ``steps_per_batch`` × (``step`` →
        fixed-order all-reduce → one optimizer step) → ``retire`` against
        an executor: the process-per-replica pool when the flow requests
        ``processes`` and one can be provisioned, else
        :class:`_InProcessReplicas`. With one replica per round either
        executor replays sequential execution bit for bit. Once the pool
        exhausts supervised recovery the in-process executor takes over
        mid-round: a failed build/step mutated nothing parent-side
        (deposits and the optimizer step only happen on validated
        replies), so the interrupted round is rebuilt and resumes at the
        step it reached, continuing the *exact* trajectory.
        """
        flow = self.flow
        store = self._replica_store(flow.replicas)
        plans = {
            round_index * flow.replicas + replica: plan
            for round_index, round_plans in enumerate(rounds)
            for replica, plan in enumerate(round_plans)
        }
        executor = None
        if getattr(flow, "processes", False):
            executor = self._ensure_replica_pool()
        if executor is None:
            executor = _InProcessReplicas(self, plans)
        note = getattr(flow, "note_replica_step", None)
        losses: List[float] = []
        for round_index, round_plans in enumerate(rounds):
            first_slot = round_index * flow.replicas
            assignments = [
                (replica, first_slot + replica)
                for replica in range(len(round_plans))
            ]
            last_loss: Dict[int, float] = {}
            steps_done = 0
            while True:
                try:
                    infos = executor.build(assignments, epoch)
                    participants = [
                        replica for replica, _ in assignments
                        if not infos[replica][0]
                    ]
                    if not participants:
                        # Nothing trained this round, so nothing may step:
                        # clear any gradients left over from the previous
                        # round's reduce before skipping, or a later
                        # consumer could mistake them for this round's
                        # (stale-gradient hazard).
                        for p in store.parameters:
                            p.grad = None
                        break
                    while steps_done < steps_per_batch:
                        replies = executor.step(participants, store)
                        for replica in participants:
                            last_loss[replica], seconds = replies[replica]
                            if note is not None:
                                note(replica, seconds, infos[replica][2])
                        store.reduce(participants)
                        self.optimizer.step()
                        steps_done += 1
                    executor.retire(participants)
                    break
                except WorkerSupervisionError as exc:
                    self._degrade_to_inproc(exc)
                    executor = _InProcessReplicas(self, plans)
            for replica in participants:
                value = last_loss.get(replica)
                if value is not None:
                    losses.append(value)
                    if result is not None:
                        result.batch_losses.append(value)
                        result.batch_sizes.append(infos[replica][1])
        if not losses:
            return float("nan")
        return float(np.mean(losses))

    def _ensure_replica_pool(self):
        """Provision (or reuse) the process-per-replica pool, or ``None``.

        ``None`` means in-process fallback — the machine can't host the
        pool (no shared memory, unpicklable flow, too few cores) or the
        model lacks the hooks the worker mirror needs. The verdict is
        cached per ``(flow, replicas, graph, backend)`` so the
        fallback warning fires once, not every epoch.
        """
        if self._procs_disabled:
            return None
        flow = self.flow
        key = (
            id(flow),
            flow.replicas,
            id(self.graph),
            ops.get_backend().name,
        )
        if self._replica_pool_key == key:
            return self._replica_pool
        self._close_replica_pool()
        self._replica_pool_key = key
        config = getattr(self.model, "config", None)
        rng = getattr(self.model, "_dropout_rng", None)
        if config is None or rng is None:
            warnings.warn(
                "replica processes need a MaxKGNN model (config + dropout "
                "rng); falling back to in-process replicas",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
        workers = resolve_process_workers(
            flow.replicas, payload=(flow.inner, config)
        )
        if workers == 0:
            return None
        resume_states = self._resume_worker_states
        self._resume_worker_states = None
        try:
            self._replica_pool = ReplicaProcessPool(
                self.graph,
                flow.inner,
                config,
                rng.bit_generator.state,
                flow.replicas,
                [int(p.data.size) for p in self.optimizer.parameters],
                resume_states=resume_states,
            )
        except Exception as exc:
            warnings.warn(
                f"replica process pool failed to start ({exc!r}); "
                "falling back to in-process replicas",
                RuntimeWarning,
                stacklevel=2,
            )
            self._replica_pool = None
        return self._replica_pool

    def _close_replica_pool(self) -> None:
        pool = self._replica_pool
        self._replica_pool = None
        self._replica_pool_key = None
        if pool is not None:
            pool.close()

    def close(self) -> None:
        """Release worker pools and shared-memory segments.

        Idempotent, registered via ``atexit``, and safe on a partially
        constructed engine (an ``__init__`` that raised): every attribute
        is guarded, so double-close and close-after-failed-init are
        no-ops rather than ``AttributeError``s.
        """
        atexit.unregister(self.close)
        if getattr(self, "_replica_pool", None) is not None:
            self._close_replica_pool()
        close_flow = getattr(getattr(self, "flow", None), "close", None)
        if close_flow is not None:
            close_flow()

    def _degrade_to_inproc(self, exc: WorkerSupervisionError) -> None:
        """Adopt the dead pool's dropout stream and pin the in-process path.

        With one replica the worker's stream *is* the parent stream's
        continuation, so it moves into the parent and the continuation is
        bit-identical; with more, each worker drew from its own jumped
        stream and the parent keeps its own. Warned once — the engine
        never re-provisions a pool after exhaustion.
        """
        pool = self._replica_pool
        states = pool.worker_states() if pool is not None else []
        warnings.warn(
            f"replica process pool exhausted supervised recovery ({exc}); "
            "continuing on the in-process path",
            RuntimeWarning,
            stacklevel=3,
        )
        self._procs_disabled = True
        self._close_replica_pool()
        if self.flow.replicas == 1 and states and states[0] is not None:
            bit_generator = np.random.PCG64()
            bit_generator.state = states[0]
            self.model._dropout_rng = np.random.Generator(bit_generator)

    def train_epoch(
        self,
        epoch: int = 0,
        steps_per_batch: int = 1,
        result: Optional[TrainResult] = None,
    ) -> float:
        """Run one epoch of the flow; returns the mean batch loss.

        Batches whose training mask is present but empty are skipped (a
        partition can land entirely outside the labelled split). A flow
        exposing replica-sharded ``rounds`` (:class:`DistributedFlow`)
        trains data-parallel: one all-reduced optimizer step per round.
        """
        rounds_of = getattr(self.flow, "rounds", None)
        if rounds_of is not None:
            return self._train_epoch_rounds(
                rounds_of(self.graph, epoch), steps_per_batch, result,
                epoch=epoch,
            )
        losses: List[float] = []
        for subgraph in self.flow.batches(self.graph, epoch):
            mask = subgraph.train_mask
            if mask is not None and not np.any(mask):
                continue
            loss = self.train_batch(subgraph, steps=steps_per_batch)
            losses.append(loss)
            if result is not None:
                result.batch_losses.append(loss)
                result.batch_sizes.append(subgraph.n_nodes)
        if not losses:
            return float("nan")
        return float(np.mean(losses))

    # -- full-state checkpointing ---------------------------------------
    def save_checkpoint(self, path, next_epoch: int = 0) -> None:
        """Write the complete training state (atomic, CRC-guarded).

        Beyond the parameters this captures the Adam flat-buffer moments
        and step count, the dropout PCG64 stream (and the live
        process-pool workers' streams when a pool is active — replica 0's
        stream is the parent stream's continuation), the epoch cursor, and
        the model's config fingerprint. A run resumed from the file
        continues bit-for-bit.
        """
        arrays = state_dict(self.model)
        arrays["__adam_m__"] = self.optimizer._flat_m.copy()
        arrays["__adam_v__"] = self.optimizer._flat_v.copy()
        rng_state = self.model._dropout_rng.bit_generator.state
        worker_rng: Optional[List[Optional[dict]]] = None
        pool = self._replica_pool
        if pool is not None:
            worker_rng = pool.worker_states()
            if worker_rng and worker_rng[0] is not None:
                # Replica 0's stream is the parent stream's continuation;
                # banking it keeps a pool-less (or R=1 in-process) resume
                # on the identical dropout trajectory.
                rng_state = worker_rng[0]
        meta = {
            "kind": "training",
            "epoch": int(next_epoch),
            "round": 0,
            "adam_t": int(self.optimizer._t),
            "rng_state": rng_state,
            "worker_rng": worker_rng,
            "flow": self.flow.describe(),
        }
        config = getattr(self.model, "config", None)
        if config is not None:
            meta["fingerprint"] = config_fingerprint(config)
        write_checkpoint(path, arrays, meta)

    def load_checkpoint(self, path) -> int:
        """Restore :meth:`save_checkpoint` state; returns the next epoch.

        Refuses (with a clear :class:`CheckpointError`) a file written
        for a different model configuration, at another float width, or
        by a run of the removed ``--grad-topk`` exchange, whose
        error-feedback residuals nothing here can continue. Worker dropout
        streams are stashed and adopted by the next process pool the
        engine provisions.
        """
        arrays, meta = read_checkpoint(path)
        check_fingerprint(path, meta, self.model, "resume")
        check_width(path, meta, "resume")
        if int(meta.get("residual_rows", 0)) > 0:
            raise CheckpointError(
                f"{path} was written by a --grad-topk run; that compressed "
                "gradient exchange has been removed and its error-feedback "
                "residuals cannot be resumed"
            )
        adam_m = arrays.pop("__adam_m__", None)
        adam_v = arrays.pop("__adam_v__", None)
        load_state_dict(self.model, arrays)
        if adam_m is not None and adam_v is not None:
            if adam_m.shape != self.optimizer._flat_m.shape:
                raise CheckpointError(
                    f"{path} carries Adam moments for {adam_m.size} "
                    f"parameters, this optimizer has "
                    f"{self.optimizer._flat_m.size}"
                )
            # In-place copies keep the optimizer's per-parameter reshaped
            # views (self._m / self._v) aliased to the flat arenas.
            self.optimizer._flat_m[...] = adam_m
            self.optimizer._flat_v[...] = adam_v
        self.optimizer._t = int(meta.get("adam_t", 0))
        rng_state = meta.get("rng_state")
        if rng_state is not None:
            bit_generator = np.random.PCG64()
            bit_generator.state = rng_state
            self.model._dropout_rng = np.random.Generator(bit_generator)
        worker_rng = meta.get("worker_rng")
        if worker_rng:
            self._resume_worker_states = list(worker_rng)
            # A resumed pool must attach fresh to the *current* engine's
            # graph/flow — drop any cached pool verdict.
            self._close_replica_pool()
        return int(meta.get("epoch", 0))

    def fit(
        self,
        epochs: int,
        eval_every: int = 10,
        steps_per_batch: int = 1,
        checkpoint_every: Optional[int] = None,
        checkpoint_dir=None,
        resume_from=None,
    ) -> TrainResult:
        """Train for ``epochs``; record metrics every ``eval_every`` epochs.

        ``checkpoint_every``/``checkpoint_dir`` write a full-state
        checkpoint after every N-th epoch (and after the last);
        ``resume_from`` restores one before training, continuing the
        original run's epoch numbering (and trajectory) exactly.
        """
        if epochs < 1:
            raise ValueError("epochs must be positive")
        if eval_every < 1:
            raise ValueError("eval_every must be positive")
        if steps_per_batch < 1:
            raise ValueError("steps_per_batch must be positive")
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError("checkpoint_every must be positive")
        start_epoch = 0
        if resume_from is not None:
            start_epoch = self.load_checkpoint(resume_from)
        checkpoint_path = None
        if checkpoint_dir is not None:
            from pathlib import Path

            directory = Path(checkpoint_dir)
            directory.mkdir(parents=True, exist_ok=True)

            def checkpoint_path(epoch: int):
                return directory / f"checkpoint-{epoch:05d}.ckpt"

        result = TrainResult(
            metric_name=self.metric, flow=self.flow.describe()
        )
        for epoch in range(start_epoch, epochs):
            loss = self.train_epoch(epoch, steps_per_batch, result)
            result.train_losses.append(loss)
            is_last = epoch == epochs - 1
            if checkpoint_path is not None:
                due = (
                    checkpoint_every is not None
                    and (epoch + 1) % checkpoint_every == 0
                )
                if due or is_last:
                    # Saved *before* evaluation so an early-stopping break
                    # can never skip a due checkpoint; evaluation consumes
                    # no randomness (dropout is off in eval mode), so the
                    # captured state is the same either way.
                    self.save_checkpoint(
                        checkpoint_path(epoch + 1), next_epoch=epoch + 1
                    )
            if epoch % eval_every == 0 or is_last:
                scores = self.evaluate()
                result.epochs_recorded.append(epoch)
                result.val_metrics.append(scores["val"])
                result.test_metrics.append(scores["test"])
                if scores["val"] >= result.best_val:
                    result.best_val = scores["val"]
                    result.test_at_best_val = scores["test"]
                if self.early_stopping is not None and self.early_stopping.update(
                    scores["val"]
                ):
                    break
        return result
