"""Fault-tolerance tests (PR 8): supervision, deterministic replay,
full-state checkpoints, and shared-segment hygiene.

The contract under test: worker failures are *invisible to the numerics*.
A :class:`FaultPlan` SIGKILLs / hangs / corrupts specific scheduled ops,
the pools respawn and replay them from banked snapshots, and the final
parameters are bit-identical to a fault-free run. When recovery is
exhausted (wildcard plans), training degrades to the in-process path with
one warning and still finishes on the exact trajectory the worker state
implies — leaving zero leaked segments and zero zombie children. Full
state checkpoints resume bit-for-bit and reject corrupt or mismatched
files before touching any array.
"""

import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest

from repro.graphs import (
    SharedGraphStore,
    StaleHandleError,
    attach_classification_task,
    owned_segment_count,
    sbm_graph,
    shared_memory_available,
    sweep_leaked_segments,
)
from repro.models import GNNConfig, MaxKGNN
from repro.sparse import ops
from repro.training import (
    CheckpointError,
    Engine,
    FaultPlan,
    TrainResult,
    current_fault_plan,
    make_flow,
    set_fault_plan,
)
from repro.training.checkpoint import (
    latest_checkpoint,
    read_checkpoint,
    write_checkpoint,
)
from repro.training.faults import FaultEvent
from repro.training.parallel import reset_fallback_warnings

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


def _no_leaks():
    assert owned_segment_count() == 0
    assert not multiprocessing.active_children()


class TestFaultPlan:
    def test_parse_round_trip(self):
        spec = "kill_worker:replica:1:0;hang_worker:replica:*:3"
        plan = FaultPlan.parse(spec)
        assert plan.spec() == spec
        assert len(plan) == 2
        assert [event.persistent for event in plan.events] \
            == [False, True]

    @pytest.mark.parametrize("spec, match", [
        ("kill_worker:replica:1", "expected action:scope"),
        ("explode:replica:1:0", "unknown fault action"),
        # An action takes no ``=value`` parameter: the suffix makes the
        # action name unknown.
        ("slow_request=5:replica:0:1", "unknown fault action"),
        ("kill_worker=3:replica:0:1", "unknown fault action"),
        ("hang_worker=0:replica:*:1", "unknown fault action"),
        ("corrupt_payload=1:replica:1:0", "unknown fault action"),
        ("kill_worker:nowhere:1:0", "unknown fault scope"),
        ("kill_worker:replica:x:0", "coordinate"),
        ("kill_worker:replica:-2:0", ">= 0"),
    ])
    def test_malformed_specs_rejected(self, spec, match):
        with pytest.raises(ValueError, match=match):
            FaultPlan.parse(spec)

    @pytest.mark.parametrize("spec", [
        "kill_worker:prefetch:1:0",
        "hang_worker:prefetch:*:3",
        "corrupt_payload:prefetch:0:1",
        "drop_pipe:prefetch:1:1",
        "slow_request=5:prefetch:0:*",
    ])
    def test_prefetch_scope_is_gone(self, spec):
        # Prefetch builds on a thread: there is no prefetch worker to hit,
        # whichever action the spec names.
        with pytest.raises(ValueError, match="unknown fault scope"):
            FaultPlan.parse(spec)

    @pytest.mark.parametrize("spec", [
        "kill_worker:serving:1:0",
        "hang_worker:serving:*:3",
        "corrupt_payload:serving:0:1",
        "drop_pipe:serving:1:1",
        "slow_request=5:serving:0:*",
    ])
    def test_serving_scope_is_gone(self, spec):
        # Serving runs every window in the calling process: there is no
        # serving worker to hit, whichever action the spec names.
        with pytest.raises(ValueError, match="unknown fault scope"):
            FaultPlan.parse(spec)

    def test_env_plan(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "drop_pipe:replica:0:2")
        plan = current_fault_plan()
        assert plan is not None
        assert plan.events[0] == FaultEvent("drop_pipe", "replica", 0, 2)

    def test_installed_plan_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "drop_pipe:replica:0:2")
        installed = FaultPlan.parse("kill_worker:replica:0:0")
        set_fault_plan(installed)
        assert current_fault_plan() is installed

    def test_wildcard_events_are_persistent(self):
        events = [FaultEvent("kill_worker", "replica", 1, 0)]
        from repro.training.supervision import _consume_events

        assert _consume_events(events, 0, 0) == []
        assert _consume_events(events, 1, 0) == ["kill_worker"]
        assert events == []  # exact-coordinate events consume
        wild = [FaultEvent("kill_worker", "replica", -1, -1)]
        assert _consume_events(wild, 5, 9) == ["kill_worker"]
        assert wild  # wildcards never consume


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
            plan=FaultPlan.parse("kill_worker:replica:0:3"),
        )
        assert _identical(clean, faulted)
        _no_leaks()

    def test_killed_worker_mid_step_with_dropout_r1(self, force_procs):
        # R=1 exercises the snapshot rng restore: the replayed step must
        # redraw the *same* dropout mask the lost reply consumed.
        clean = _run_distributed(1, True)
        faulted = _run_distributed(
            1, True, plan=FaultPlan.parse("kill_worker:replica:0:6"),
        )
        assert _identical(clean, faulted)
        _no_leaks()

    def test_corrupt_grad_payload_is_replayed(self, force_procs):
        clean = _run_distributed(2, True, dropout=0.0)
        faulted = _run_distributed(
            2, True, dropout=0.0,
            plan=FaultPlan.parse("corrupt_payload:replica:1:4"),
        )
        assert _identical(clean, faulted)
        _no_leaks()

    def test_torn_pipe_is_replayed(self, force_procs):
        clean = _run_distributed(2, True, dropout=0.0)
        faulted = _run_distributed(
            2, True, dropout=0.0,
            plan=FaultPlan.parse("drop_pipe:replica:1:2"),
        )
        assert _identical(clean, faulted)
        _no_leaks()

    @pytest.mark.slow
    def test_hung_worker_is_killed_and_replayed(self, force_procs,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_WORKER_TIMEOUT", "15")
        clean = _run_distributed(1, True, dropout=0.0)
        faulted = _run_distributed(
            1, True, dropout=0.0,
            plan=FaultPlan.parse("hang_worker:replica:0:2"),
        )
        assert _identical(clean, faulted)
        _no_leaks()

    def test_exhaustion_degrades_mid_epoch_with_one_warning(
        self, force_procs, quick_retries
    ):
        # Wildcard kills exhaust max_retries on the very first op; the
        # engine must finish the interrupted epoch (and all later ones)
        # in-process on the exact same trajectory, then leave no workers
        # or segments behind.
        inproc = _run_distributed(2, False, dropout=0.0, epochs=3)
        with pytest.warns(RuntimeWarning, match="in-process") as caught:
            degraded = _run_distributed(
                2, True, dropout=0.0, epochs=3,
                plan=FaultPlan.parse("kill_worker:replica:*:*"),
            )
        relevant = [w for w in caught
                    if "exhausted supervised recovery" in str(w.message)]
        assert len(relevant) == 1
        assert "exit code" in str(relevant[0].message)
        assert _identical(inproc, degraded)
        _no_leaks()

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
                plan=FaultPlan.parse("kill_worker:replica:*:3"),
            )
        assert _identical(inproc, degraded)
        assert degraded[2][2] == [12, 12] and degraded[2][3] == 12
        _no_leaks()

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
        set_fault_plan(FaultPlan.parse("kill_worker:replica:*:*"))
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
        _no_leaks()

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
        _no_leaks()


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
        _no_leaks()

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
        _no_leaks()

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


class TestSegmentHygiene:
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
        _no_leaks()

    def test_handles_carry_a_generation(self):
        graph = _task_graph(60)
        with SharedGraphStore.export(graph) as first:
            generation = first.handle().generation
        with SharedGraphStore.export(graph) as second:
            assert second.handle().generation == generation + 1
        _no_leaks()
