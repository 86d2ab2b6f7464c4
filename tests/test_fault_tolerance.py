"""Fault-tolerance tests: supervision, deterministic replay, full-state
checkpoints, and shared-segment hygiene.

The contract under test: worker failures are *invisible to the numerics*.
A :class:`FaultPlan` SIGKILLs / hangs / corrupts specific scheduled ops,
the replica pool respawns and replays them from banked snapshots, and the
final parameters are bit-identical to a fault-free run. When recovery is
exhausted (wildcard plans), training degrades to the in-process path with
one warning and still finishes on the exact trajectory the worker state
implies — leaving zero leaked segments, pidfiles and zombie children.
Each supervision rule (handshake, reply validation, retry accounting,
backoff, failed respawn) is asserted once, against the real pool
(:class:`TestPoolSupervision`). Full state checkpoints resume bit-for-bit
and reject corrupt or mismatched files before touching any array.
"""

import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest

from repro.graphs import (
    Graph,
    SharedGraphStore,
    StaleHandleError,
    attach_classification_task,
    sbm_graph,
    shared_memory_available,
    sweep_leaked_segments,
)
from repro.graphs.shm import _pidfile_path
from repro.models import GNNConfig, MaxKGNN
from repro.sparse import ops
from repro.training import (
    CheckpointError,
    Engine,
    FaultPlan,
    PartitionedFlow,
    ReplicaGradients,
    ReplicaWorkerError,
    TrainResult,
    WorkerSupervisionError,
    current_fault_plan,
    make_flow,
    set_fault_plan,
)
from repro.training.checkpoint import (
    latest_checkpoint,
    read_checkpoint,
    write_checkpoint,
)
from repro.training.faults import FaultEvent, _consume_events
from repro.training.parallel import ReplicaProcessPool, reset_fallback_warnings
from tests.conftest import no_leaks

pytestmark = pytest.mark.skipif(
    not shared_memory_available(),
    reason="host cannot create POSIX shared memory",
)


def _task_graph(n=100, seed=11):
    graph = sbm_graph(n, 4, 8.0, intra_fraction=0.7, seed=seed).to_undirected()
    attach_classification_task(graph, n_features=8, signal=0.5, seed=seed)
    return graph


def _config(dropout=0.1, k=4):
    return GNNConfig(
        model_type="sage", in_features=8, hidden=16, out_features=4,
        n_layers=2, nonlinearity="maxk", k=k, dropout=dropout,
    )


def _run_distributed(replicas, processes, dropout=0.1, epochs=2,
                     plan=None, steps=1):
    set_fault_plan(plan)
    try:
        graph = _task_graph()
        flow = make_flow(
            "distributed", inner="partitioned", replicas=replicas,
            processes=processes, n_parts=4,
            boundary_fraction=0.2, seed=7,
        )
        engine = Engine(MaxKGNN(graph, _config(dropout), seed=0), graph,
                        flow, lr=0.01)
        result = TrainResult()
        try:
            losses = [
                engine.train_epoch(epoch=e, steps_per_batch=steps,
                                   result=result)
                for e in range(epochs)
            ]
            params = [p.data.copy() for p in engine.optimizer.parameters]
        finally:
            engine.close()
        bookkeeping = (
            result.batch_losses, result.batch_sizes,
            flow.replica_steps.tolist(), engine.optimizer._t,
        )
        return losses, params, bookkeeping
    finally:
        set_fault_plan(None)


def _identical(a, b):
    """Epoch losses, final parameters and (for distributed runs) the
    per-batch bookkeeping + flow telemetry, all exactly equal."""
    return a[0] == b[0] and a[2:] == b[2:] and all(
        np.array_equal(x, y) for x, y in zip(a[1], b[1])
    )


class TestFaultPlan:
    def test_parse_round_trip(self):
        spec = "kill_worker:1:0;hang_worker:*:3"
        plan = FaultPlan.parse(spec)
        assert plan.spec() == spec
        assert len(plan) == 2
        assert [event.persistent for event in plan.events] \
            == [False, True]

    @pytest.mark.parametrize("spec, match", [
        ("kill_worker:1", "expected action:replica:op"),
        ("explode:1:0", "unknown fault action"),
        # An action takes no ``=value`` parameter: the suffix makes the
        # action name unknown.
        ("slow_request=5:0:1", "unknown fault action"),
        ("kill_worker=3:0:1", "unknown fault action"),
        ("hang_worker=0:*:1", "unknown fault action"),
        ("corrupt_payload=1:1:0", "unknown fault action"),
        ("kill_worker:x:0", "coordinate"),
        ("kill_worker:-2:0", ">= 0"),
        ("kill_worker:0:", "coordinate"),
        ("kill_worker:0:-1", ">= 0"),
    ])
    def test_malformed_specs_rejected(self, spec, match):
        with pytest.raises(ValueError, match=match):
            FaultPlan.parse(spec)

    @pytest.mark.parametrize("spec", [
        "kill_worker:replica:0:1",
        "hang_worker:replica:*:3",
        # Prefetch builds on a thread and serving runs every window in the
        # calling process: there is no other worker for a scope to name.
        "kill_worker:prefetch:1:0",
        "corrupt_payload:prefetch:0:1",
        "drop_pipe:serving:1:1",
        "slow_request=5:serving:0:*",
    ])
    def test_four_field_specs_are_refused(self, spec):
        with pytest.raises(ValueError, match="expected action:replica:op"):
            FaultPlan.parse(spec)

    def test_only_an_installed_plan_is_active(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "drop_pipe:0:2")
        assert current_fault_plan() is None
        installed = FaultPlan.parse("kill_worker:0:0")
        set_fault_plan(installed)
        assert current_fault_plan() is installed

    def test_wildcard_events_are_persistent(self):
        events = [FaultEvent("kill_worker", 1, 0)]
        assert _consume_events(events, 0, 0) == []
        assert _consume_events(events, 1, 0) == ["kill_worker"]
        assert events == []  # exact-coordinate events consume
        wild = [FaultEvent("kill_worker", -1, -1)]
        assert _consume_events(wild, 5, 9) == ["kill_worker"]
        assert _consume_events(wild, 5, 0) == ["kill_worker"]  # start-up too
        assert wild  # wildcards never consume


class _Driver:
    """A real :class:`ReplicaProcessPool` on the task graph's four
    partitions, driven round by round as the engine drives it."""

    def __init__(self, replicas=1, plan=""):
        set_fault_plan(FaultPlan.parse(plan))
        graph = _task_graph()
        model = MaxKGNN(graph, _config(), seed=0)
        parameters = list(model.parameters())
        self.store = ReplicaGradients(parameters, replicas)
        self.pool = ReplicaProcessPool(
            graph, PartitionedFlow(4, boundary_fraction=0.2, seed=7),
            model.config, model._dropout_rng.bit_generator.state, replicas,
            [p.data.size for p in parameters],
        )

    def round(self, first_slot):
        """Build ``first_slot + r`` on replica ``r`` and take one step:
        the build infos, the losses and the deposited gradient rows."""
        assignments = [
            (replica, first_slot + replica)
            for replica in range(self.pool.replicas)
        ]
        infos = self.pool.build(assignments, epoch=0)
        replicas = [replica for replica, _ in assignments]
        losses = {
            replica: loss
            for replica, (loss, _) in self.pool.step(replicas,
                                                     self.store).items()
        }
        self.pool.retire(replicas)
        return infos, losses, self.store._arena.copy()


def _same_round(a, b):
    return a[:2] == b[:2] and np.array_equal(a[2], b[2])


@pytest.fixture
def replays(monkeypatch):
    """Every replay the pools run, as ``(replica, pid of the respawned
    worker)``."""
    seen = []
    replay = ReplicaProcessPool._replay

    def counted(pool, replica):
        seen.append((replica, pool._procs[replica].pid))
        replay(pool, replica)

    monkeypatch.setattr(ReplicaProcessPool, "_replay", counted)
    return seen


@pytest.fixture
def driver():
    made = []

    def make(*args, **kwargs):
        made.append(_Driver(*args, **kwargs))
        return made[-1]

    yield make
    for client in made:
        client.pool.close()
    no_leaks()


class TestPoolSupervision:
    """Each supervision rule of the replica pool, asserted once."""

    @pytest.mark.parametrize("action, detail", [
        ("kill_worker", "exited with code 3"),
        ("drop_pipe", "exited with code 0"),
        ("corrupt_payload", "mirror layout mismatch: ('ready',)"),
        ("hang_worker", "no ready handshake before the deadline"),
    ])
    def test_failed_handshake_raises_and_leaves_nothing(
        self, driver, monkeypatch, action, detail
    ):
        if action == "hang_worker":
            monkeypatch.setattr(ReplicaProcessPool, "TIMEOUT", 1.0)
        with pytest.raises(RuntimeError,
                           match="replica worker 0 failed to start") as info:
            driver(plan=f"{action}:0:0")
        assert detail in str(info.value)
        # close() already ran inside the failed __init__.
        no_leaks()

    def test_every_reply_failure_is_recovered_with_one_replay_each(
        self, driver, replays
    ):
        clean = driver()
        expected = [clean.round(slot) for slot in range(3)]
        clean.pool.close()
        # Op 1 (a build) is killed, op 2 (a step) ships a corrupt payload,
        # op 3 (a build) a malformed frame, op 4 (a step) tears its pipe;
        # ops 5 and 6 are clean.
        faulted = driver(
            plan="kill_worker:0:1;corrupt_payload:0:2;"
                 "corrupt_payload:0:3;drop_pipe:0:4",
        )
        pool = faulted.pool
        first = pool._procs[0].pid
        for slot in range(3):
            # Each op is still answered with the clean run's bytes, and a
            # success resets the retry count ...
            assert _same_round(faulted.round(slot), expected[slot])
            assert pool._retries == [0]
        # ... after one replay per recovery, each by a new worker ...
        assert [replica for replica, _ in replays] == [0, 0, 0, 0]
        assert len({first, *(pid for _, pid in replays)}) == 5
        assert pool._events == []  # ... and the one-shot faults are spent.
        pool.close()
        pool.close()  # idempotent (the fixture closes a third time)
        no_leaks()

    def test_exhaustion_reports_the_deadline_actually_waited(
        self, driver, monkeypatch, quick_retries, replays
    ):
        # Patient with every first attempt, brisk with a retry: op 1 is
        # killed, and its replay hangs for the 0.3 s a retry is granted.
        monkeypatch.setattr(ReplicaProcessPool, "TIMEOUT", 20.0)
        monkeypatch.setattr(ReplicaProcessPool, "BACKOFF", 0.015)
        faulted = driver(plan="kill_worker:0:1;hang_worker:*:1")
        with pytest.raises(WorkerSupervisionError) as info:
            faulted.round(0)
        message = str(info.value)
        assert "replica worker 0 failed 2 consecutive times" in message
        assert "no reply within the 0.3s deadline" in message
        assert len(replays) == 1
        # The one-shot kill was consumed when shipped; the wildcard persists.
        assert [event.spec() for event in faulted.pool._events] \
            == ["hang_worker:*:1"]

    def test_a_hang_on_a_retry_is_cut_at_the_retry_deadline(
        self, driver, monkeypatch, replays
    ):
        # Patient with first attempts and handshakes, brisk with the first
        # retry only, so that the second retry can still be answered.
        monkeypatch.setattr(
            ReplicaProcessPool, "_deadline",
            lambda pool, attempt: 0.3 if attempt == 1 else 20.0,
        )
        causes = []
        recover = ReplicaProcessPool._recover

        def noted(pool, replica, cause):
            causes.append(cause)
            recover(pool, replica, cause)

        monkeypatch.setattr(ReplicaProcessPool, "_recover", noted)
        clean = driver()
        expected = clean.round(0)
        clean.pool.close()
        # Op 2 (the step) is killed; its replay's rebuild of op 1 hangs
        # and is killed at the retry's deadline; the third worker answers.
        faulted = driver(plan="kill_worker:0:2")
        pool = faulted.pool
        infos = pool.build([(0, 0)], epoch=0)
        # Scheduled after op 1 was shipped, so only the rebuild meets it.
        pool._events.append(FaultEvent("hang_worker", 0, 1))
        losses = {
            replica: loss
            for replica, (loss, _) in pool.step([0], faulted.store).items()
        }
        pool.retire([0])
        assert _same_round((infos, losses, faulted.store._arena.copy()),
                           expected)
        assert causes == [
            "worker exited unexpectedly (exit code 3)",
            "no reply within the 0.3s deadline (hung worker killed)",
        ]
        assert len(replays) == 2
        assert pool._retries == [0]
        assert pool._events == []

    def test_failed_respawn_raises_supervision_error(self, driver, replays):
        faulted = driver(plan="kill_worker:0:1")
        # Scheduled after the first start-up, so only the respawn meets it.
        faulted.pool._events.append(FaultEvent("kill_worker", 0, 0))
        with pytest.raises(WorkerSupervisionError,
                           match="could not be respawned") as info:
            faulted.round(0)
        assert "exit code 3" in str(info.value)          # why it was respawned
        assert "exited with code 3" in str(info.value)   # why that failed
        assert replays == []

    def test_a_reply_inside_the_replay_does_not_refill_the_budget(
        self, driver, quick_retries, replays
    ):
        # Every attempt at op 2 (the first step) dies, and each replay's
        # rebuilt batch (op 1) is answered: the budget must run out
        # instead of being refilled by the rebuilt-batch reply.
        faulted = driver(plan="kill_worker:*:2")
        with pytest.raises(WorkerSupervisionError,
                           match="2 consecutive times"):
            faulted.round(0)
        assert len(replays) == 1

    def test_two_workers_failing_are_each_recovered_by_their_own_recv(
        self, driver, replays
    ):
        clean = driver(replicas=2)
        expected = clean.round(0)
        clean.pool.close()
        # Both workers die on their build before either reply is read:
        # each recv notices its own worker's death and replays only its op.
        faulted = driver(replicas=2, plan="kill_worker:0:1;kill_worker:1:1")
        assert _same_round(faulted.round(0), expected)
        assert [replica for replica, _ in replays] == [0, 1]

    def test_a_worker_exception_is_raised_at_once(self, driver, replays):
        # A step with no batch built fails in the worker's own code: a
        # deterministic error, raised with its traceback, never replayed.
        faulted = driver()
        with pytest.raises(ReplicaWorkerError,
                           match="replica worker 0 failed: AttributeError") \
                as info:
            faulted.pool.step([0], faulted.store)
        assert "Traceback" in info.value.worker_traceback
        assert replays == []


class TestReplicaRecovery:
    """A sabotaged replica op is respawned from its snapshot + replayed."""

    def test_killed_worker_mid_epoch_is_bitwise_invisible(
        self, force_procs, backend
    ):
        # Op 3 is the second round's build of epoch 0 (build, step, build,
        # step per epoch at R=2 over 4 partitions) — squarely mid-epoch.
        clean = _run_distributed(2, True, dropout=0.0)
        faulted = _run_distributed(
            2, True, dropout=0.0,
            plan=FaultPlan.parse("kill_worker:0:3"),
        )
        assert _identical(clean, faulted)
        no_leaks()

    def test_killed_worker_mid_step_with_dropout_r1(self, force_procs):
        # R=1 exercises the snapshot rng restore: the replayed step must
        # redraw the *same* dropout mask the lost reply consumed.
        clean = _run_distributed(1, True)
        faulted = _run_distributed(
            1, True, plan=FaultPlan.parse("kill_worker:0:6"),
        )
        assert _identical(clean, faulted)
        no_leaks()

    def test_corrupt_grad_payload_is_replayed(self, force_procs):
        clean = _run_distributed(2, True, dropout=0.0)
        faulted = _run_distributed(
            2, True, dropout=0.0,
            plan=FaultPlan.parse("corrupt_payload:1:4"),
        )
        assert _identical(clean, faulted)
        no_leaks()

    def test_torn_pipe_is_replayed(self, force_procs):
        clean = _run_distributed(2, True, dropout=0.0)
        faulted = _run_distributed(
            2, True, dropout=0.0,
            plan=FaultPlan.parse("drop_pipe:1:2"),
        )
        assert _identical(clean, faulted)
        no_leaks()

    @pytest.mark.slow
    def test_hung_worker_is_killed_and_replayed(self, force_procs,
                                                monkeypatch):
        monkeypatch.setattr(ReplicaProcessPool, "TIMEOUT", 15.0)
        clean = _run_distributed(1, True, dropout=0.0)
        faulted = _run_distributed(
            1, True, dropout=0.0,
            plan=FaultPlan.parse("hang_worker:0:2"),
        )
        assert _identical(clean, faulted)
        no_leaks()

    def test_exhaustion_degrades_mid_epoch_with_one_warning(
        self, force_procs, quick_retries
    ):
        # Wildcard kills exhaust the retry budget on the very first op; the
        # engine must finish the interrupted epoch (and all later ones)
        # in-process on the exact same trajectory, then leave no workers
        # or segments behind.
        inproc = _run_distributed(2, False, dropout=0.0, epochs=3)
        with pytest.warns(RuntimeWarning, match="in-process") as caught:
            degraded = _run_distributed(
                2, True, dropout=0.0, epochs=3,
                plan=FaultPlan.parse("kill_worker:*:1"),
            )
        relevant = [w for w in caught
                    if "exhausted supervised recovery" in str(w.message)]
        assert len(relevant) == 1
        assert "exit code" in str(relevant[0].message)
        assert _identical(inproc, degraded)
        no_leaks()

    def test_exhaustion_mid_round_resumes_at_the_step_it_reached(
        self, force_procs, quick_retries
    ):
        # Op 3 of every worker is step 2 of the first round (build, step,
        # step): the pool dies with one of three steps taken, and the
        # in-process executor must rebuild the round and take the other
        # two — every loss, batch size and telemetry count as if nothing
        # had happened.
        inproc = _run_distributed(2, False, dropout=0.0, steps=3)
        with pytest.warns(RuntimeWarning, match="in-process"):
            degraded = _run_distributed(
                2, True, dropout=0.0, steps=3,
                plan=FaultPlan.parse("kill_worker:*:3"),
            )
        assert _identical(inproc, degraded)
        assert degraded[2][2] == [12, 12] and degraded[2][3] == 12
        no_leaks()

    def test_engine_close_after_degradation_leaves_nothing(
        self, force_procs, quick_retries
    ):
        graph = _task_graph()
        flow = make_flow(
            "distributed", inner="partitioned", replicas=2, processes=True,
            n_parts=4, boundary_fraction=0.2, seed=7,
        )
        engine = Engine(MaxKGNN(graph, _config(0.0), seed=0), graph, flow,
                        lr=0.01)
        set_fault_plan(FaultPlan.parse("kill_worker:*:1"))
        try:
            with pytest.warns(RuntimeWarning, match="in-process"):
                engine.train_epoch(epoch=0)
            assert engine._procs_disabled
            # Degradation is sticky: the next epoch never re-provisions.
            engine.train_epoch(epoch=1)
            assert engine._replica_pool is None
        finally:
            engine.close()
            engine.close()  # idempotent
        no_leaks()

    def test_shared_memory_failure_still_completes_in_process(
        self, force_procs, monkeypatch
    ):
        # An injected SharedMemory failure at pool construction must warn
        # once and fall back, not crash training.
        def explode(graph):
            raise OSError("no shm today")

        monkeypatch.setattr(SharedGraphStore, "export", explode)
        with pytest.warns(RuntimeWarning, match="in-process"):
            faulted = _run_distributed(2, True, dropout=0.0)
        monkeypatch.undo()
        reset_fallback_warnings()
        clean = _run_distributed(2, False, dropout=0.0)
        assert _identical(clean, faulted)
        no_leaks()


class TestFullStateCheckpoint:
    """Resume is bit-for-bit: params, Adam moments, RNG streams."""

    def _fit_engine(self, graph, flow, **fit_kwargs):
        engine = Engine(MaxKGNN(graph, _config(), seed=0), graph, flow,
                        lr=0.01)
        try:
            engine.fit(4, eval_every=2, **fit_kwargs)
            return [p.data.copy() for p in engine.optimizer.parameters]
        finally:
            engine.close()

    def test_resume_bitwise_full_graph(self, tmp_path, backend):
        graph = _task_graph()
        straight = self._fit_engine(graph, make_flow("full"))
        self._fit_engine(
            graph, make_flow("full"),
            checkpoint_every=2, checkpoint_dir=tmp_path,
        )
        resumed = self._fit_engine(
            graph, make_flow("full"),
            resume_from=tmp_path / "checkpoint-00002.ckpt",
        )
        assert all(np.array_equal(a, b)
                   for a, b in zip(straight, resumed))

    def test_resume_bitwise_sampled(self, tmp_path):
        graph = _task_graph()

        def flow():
            return make_flow(
                "sampled", sampler="node", batches_per_epoch=2,
                sample_size=40, seed=3,
            )

        straight = self._fit_engine(graph, flow())
        self._fit_engine(
            graph, flow(), checkpoint_every=2, checkpoint_dir=tmp_path,
        )
        resumed = self._fit_engine(
            graph, flow(), resume_from=tmp_path / "checkpoint-00002.ckpt",
        )
        assert all(np.array_equal(a, b)
                   for a, b in zip(straight, resumed))

    def test_resume_bitwise_distributed(self, tmp_path, backend):
        graph = _task_graph()

        def flow():
            return make_flow(
                "distributed", inner="partitioned", replicas=2,
                n_parts=4, boundary_fraction=0.2, seed=7,
            )

        straight = self._fit_engine(graph, flow())
        self._fit_engine(
            graph, flow(), checkpoint_every=2, checkpoint_dir=tmp_path,
        )
        resumed = self._fit_engine(
            graph, flow(), resume_from=tmp_path / "checkpoint-00002.ckpt",
        )
        assert all(np.array_equal(a, b)
                   for a, b in zip(straight, resumed))

    def test_resume_bitwise_replica_procs(self, tmp_path, force_procs):
        # A pool-backed run checkpoints its workers' live streams;
        # resuming re-seeds fresh workers from them.
        graph = _task_graph()

        def flow():
            return make_flow(
                "distributed", inner="partitioned", replicas=1,
                processes=True, n_parts=4,
                boundary_fraction=0.2, seed=7,
            )

        straight = self._fit_engine(graph, flow())
        self._fit_engine(
            graph, flow(), checkpoint_every=2, checkpoint_dir=tmp_path,
        )
        resumed = self._fit_engine(
            graph, flow(), resume_from=tmp_path / "checkpoint-00002.ckpt",
        )
        assert all(np.array_equal(a, b)
                   for a, b in zip(straight, resumed))
        no_leaks()

    def test_checkpoint_meta_records_training_state(self, tmp_path):
        graph = _task_graph()
        flow = make_flow("full")
        engine = Engine(MaxKGNN(graph, _config(), seed=0), graph, flow,
                        lr=0.01)
        try:
            engine.fit(2, eval_every=1, checkpoint_every=2,
                       checkpoint_dir=tmp_path)
        finally:
            engine.close()
        arrays, meta = read_checkpoint(tmp_path / "checkpoint-00002.ckpt")
        assert meta["kind"] == "training"
        assert meta["epoch"] == 2
        assert meta["adam_t"] == 2
        assert meta["rng_state"]["bit_generator"] == "PCG64"
        assert "fingerprint" in meta
        assert "__adam_m__" in arrays and "__adam_v__" in arrays
        assert any(key.startswith("conv0.") for key in arrays)

    def test_checkpoint_with_residual_rows_is_refused(self, tmp_path):
        # A file from a run of the removed compressed exchange carries
        # error-feedback residuals that nothing can continue; resuming it
        # would silently take another trajectory.
        graph = _task_graph()
        engine = Engine(MaxKGNN(graph, _config(), seed=0), graph,
                        make_flow("full"), lr=0.01)
        path = tmp_path / "ck.ckpt"
        try:
            engine.save_checkpoint(path, next_epoch=1)
            arrays, meta = read_checkpoint(path)
            arrays["__residual_0__"] = np.zeros(
                engine.model.n_parameters(), dtype=ops.FLOAT_DTYPE
            )
            write_checkpoint(path, arrays, dict(meta, residual_rows=1))
            with pytest.raises(CheckpointError, match="--grad-topk"):
                engine.load_checkpoint(path)
            del arrays["__residual_0__"]
            write_checkpoint(path, arrays, dict(meta, residual_rows=0))
            assert engine.load_checkpoint(path) == 1
        finally:
            engine.close()

    def _as_written_before_the_removal(self, path):
        # A dense run of the compressed-exchange era wrote the same file
        # with a ``residual_rows`` of 0 in its meta.
        arrays, meta = read_checkpoint(path)
        assert "residual_rows" not in meta
        write_checkpoint(path, arrays, dict(meta, residual_rows=0))

    def test_dense_checkpoint_from_before_the_removal_resumes_bitwise(
            self, tmp_path):
        graph = _task_graph()

        def flow():
            return make_flow(
                "distributed", inner="partitioned", replicas=2,
                n_parts=4, boundary_fraction=0.2, seed=7,
            )

        straight = self._fit_engine(graph, flow())
        self._fit_engine(
            graph, flow(), checkpoint_every=2, checkpoint_dir=tmp_path,
        )
        path = tmp_path / "checkpoint-00002.ckpt"
        self._as_written_before_the_removal(path)
        resumed = self._fit_engine(graph, flow(), resume_from=path)
        assert all(np.array_equal(a, b)
                   for a, b in zip(straight, resumed))

    def test_dense_pool_checkpoint_from_before_the_removal_resumes_bitwise(
            self, tmp_path, force_procs):
        # Its worker streams were banked as bare PCG64 states then too.
        graph = _task_graph()

        def flow():
            return make_flow(
                "distributed", inner="partitioned", replicas=1,
                processes=True, n_parts=4,
                boundary_fraction=0.2, seed=7,
            )

        straight = self._fit_engine(graph, flow())
        self._fit_engine(
            graph, flow(), checkpoint_every=2, checkpoint_dir=tmp_path,
        )
        path = tmp_path / "checkpoint-00002.ckpt"
        _, meta = read_checkpoint(path)
        assert meta["worker_rng"][0]["bit_generator"] == "PCG64"
        self._as_written_before_the_removal(path)
        resumed = self._fit_engine(graph, flow(), resume_from=path)
        assert all(np.array_equal(a, b)
                   for a, b in zip(straight, resumed))
        no_leaks()

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        graph = _task_graph()
        engine = Engine(MaxKGNN(graph, _config(), seed=0), graph,
                        make_flow("full"), lr=0.01)
        path = tmp_path / "ck.ckpt"
        try:
            engine.save_checkpoint(path, next_epoch=1)
        finally:
            engine.close()
        other = Engine(MaxKGNN(graph, _config(k=2), seed=0), graph,
                       make_flow("full"), lr=0.01)
        try:
            with pytest.raises(CheckpointError,
                               match="different model configuration"):
                other.load_checkpoint(path)
        finally:
            other.close()

    def test_cbsr_checkpoint_resumes_on_its_dense_twin(self, tmp_path,
                                                        backend):
        """The execution-route flags are not architecture: a run trained
        through the CBSR kernels resumes, bit for bit, on the
        dense-after-MaxK model (and on one without a workspace)."""
        graph = _task_graph()
        cbsr = replace(_config(), use_cbsr_kernels=True)
        twin = replace(_config(), use_workspace=False)

        def fit(config, **fit_kwargs):
            engine = Engine(MaxKGNN(graph, config, seed=0), graph,
                            make_flow("full"), lr=0.01)
            try:
                return engine.fit(3, eval_every=3, **fit_kwargs).train_losses
            finally:
                engine.close()

        straight = fit(cbsr, checkpoint_every=1, checkpoint_dir=tmp_path)
        resumed = fit(twin, resume_from=tmp_path / "checkpoint-00001.ckpt")
        assert resumed == straight[1:]

    @pytest.mark.parametrize("change", [
        {"hidden": 32}, {"k": 2}, {"nonlinearity": "relu"},
    ])
    def test_cbsr_checkpoint_still_refused_by_another_architecture(
        self, tmp_path, change
    ):
        graph = _task_graph()
        cbsr = replace(_config(), use_cbsr_kernels=True)
        engine = Engine(MaxKGNN(graph, cbsr, seed=0), graph,
                        make_flow("full"), lr=0.01)
        path = tmp_path / "ck.ckpt"
        try:
            engine.save_checkpoint(path, next_epoch=1)
        finally:
            engine.close()
        other = Engine(MaxKGNN(graph, replace(_config(), **change), seed=0),
                       graph, make_flow("full"), lr=0.01)
        try:
            with pytest.raises(CheckpointError,
                               match="different model configuration"):
                other.load_checkpoint(path)
        finally:
            other.close()

    def test_latest_checkpoint_orders_by_epoch(self, tmp_path):
        assert latest_checkpoint(tmp_path) is None
        for epoch in (2, 10, 4):
            write_checkpoint(
                tmp_path / f"checkpoint-{epoch:05d}.ckpt",
                {"x": np.zeros(1)}, {"epoch": epoch},
            )
        (tmp_path / "checkpoint-junk.ckpt").write_bytes(b"not a number")
        best = latest_checkpoint(tmp_path)
        assert best is not None and best.name == "checkpoint-00010.ckpt"


class TestCheckpointIntegrity:
    def _write(self, path):
        write_checkpoint(
            path, {"w": np.arange(6.0).reshape(2, 3)}, {"epoch": 3}
        )

    def test_round_trip(self, tmp_path):
        path = tmp_path / "ck.ckpt"
        self._write(path)
        arrays, meta = read_checkpoint(path)
        np.testing.assert_array_equal(
            arrays["w"], np.arange(6.0).reshape(2, 3)
        )
        assert meta == {"epoch": 3, "float": np.dtype(ops.FLOAT_DTYPE).name}

    def test_bit_flip_detected(self, tmp_path):
        path = tmp_path / "ck.ckpt"
        self._write(path)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="CRC32"):
            read_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "ck.ckpt"
        self._write(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    def test_not_a_checkpoint_detected(self, tmp_path):
        path = tmp_path / "ck.ckpt"
        path.write_bytes(b"x" * 64)
        with pytest.raises(CheckpointError, match="footer"):
            read_checkpoint(path)
        path.write_bytes(b"x")
        with pytest.raises(CheckpointError, match="too short"):
            read_checkpoint(path)

    def test_no_tmp_file_left_behind(self, tmp_path):
        path = tmp_path / "ck.ckpt"
        self._write(path)
        self._write(path)  # overwrite goes through the same tmp + rename
        leftovers = [p for p in tmp_path.iterdir() if p.name != "ck.ckpt"]
        assert leftovers == []

    def test_legacy_npz_file_is_rejected(self, tmp_path):
        from repro.training import load_checkpoint

        graph = _task_graph()
        net = MaxKGNN(graph, _config(), seed=0)
        path = tmp_path / "legacy.npz"
        np.savez(path, **{
            f"param_{i}": p.data.copy()
            for i, p in enumerate(net.parameters())
        })
        clone = MaxKGNN(graph, _config(), seed=99)
        before = [p.data.copy() for p in clone.parameters()]
        # A footer-less archive is not a checkpoint any writer produces.
        with pytest.raises(CheckpointError, match="footer"):
            load_checkpoint(clone, path)
        for kept, param in zip(before, clone.parameters()):
            np.testing.assert_array_equal(kept, param.data)


def _export_and_unlink():
    ring = np.arange(4)
    with SharedGraphStore.export(Graph(4, ring, np.roll(ring, 1))):
        pass


class TestSegmentHygiene:
    def test_an_exporter_that_unlinked_leaves_no_pidfile(self):
        # The pidfile says "this live pid owns segments": once the owner
        # has unlinked its last one, nothing may say so.
        child = multiprocessing.get_context("spawn").Process(
            target=_export_and_unlink
        )
        child.start()
        child.join(timeout=60)
        assert child.exitcode == 0
        assert not os.path.exists(_pidfile_path(child.pid))
        with SharedGraphStore.export(_task_graph(60)):
            assert os.path.exists(_pidfile_path(os.getpid()))
        no_leaks()

    def test_the_pidfile_stays_while_any_segment_is_owned(self):
        pidfile = _pidfile_path(os.getpid())
        second = SharedGraphStore.export(_task_graph(60))
        try:
            with SharedGraphStore.export(_task_graph(60)):
                pass
            # The first store is gone, but this pid still owns segments.
            assert os.path.exists(pidfile)
        finally:
            second.close()
            second.unlink()
        assert not os.path.exists(pidfile)
        no_leaks()

    def test_sweep_unlinks_dead_owner_segments(self):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this host")
        pid = 4_000_000  # beyond this container's pid space
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
        segment = f"/dev/shm/repro-shm-{pid}-1-0"
        pidfile = f"/dev/shm/repro-shm-{pid}.pid"
        with open(segment, "wb") as handle:
            handle.write(b"\x00" * 16)
        with open(pidfile, "w") as handle:
            handle.write(str(pid))
        try:
            freed = sweep_leaked_segments()
            assert freed >= 1
            assert not os.path.exists(segment)
            assert not os.path.exists(pidfile)
        finally:
            for leftover in (segment, pidfile):
                try:
                    os.unlink(leftover)
                except OSError:
                    pass

    def test_stale_handle_attach_fails_fast(self):
        graph = _task_graph(60)
        store = SharedGraphStore.export(graph)
        handle = store.handle()
        store.close()
        store.unlink()
        with pytest.raises(StaleHandleError, match="no longer exists"):
            attached = SharedGraphStore.attach(handle)
            attached.graph()
        no_leaks()

    def test_handles_carry_a_generation(self):
        graph = _task_graph(60)
        with SharedGraphStore.export(graph) as first:
            generation = first.handle().generation
        with SharedGraphStore.export(graph) as second:
            assert second.handle().generation == generation + 1
        no_leaks()
