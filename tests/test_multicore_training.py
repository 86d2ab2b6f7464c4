"""Cross-process determinism tests for true multi-core execution (PR 7).

The process pools must be invisible to the numerics: a process-built
prefetch stream is byte-identical to the thread-built one, a process-per-
replica round is bit-identical to the in-process store at R=1 (and at
R>1 with dropout disabled — the only RNG the replica mirrors consume),
and seed-reproducible otherwise, dense and top-k alike. Failure paths
degrade gracefully: prompt, slot-attributed errors from broken builders;
a single warning and in-process fallback when the host can't host the
pool; and no leaked shared-memory segments or zombie workers after
``Engine.close``.

``REPRO_FORCE_PROCS=1`` lets these run on single-core CI: the resolver
skips its core-count gate, so the pools genuinely exercise the spawn
path (correctness everywhere; the *scaling* gates live in
``benchmarks/test_multicore.py`` and auto-relax on one core).
"""

import multiprocessing
import warnings

import numpy as np
import pytest

from repro.graphs import (
    attach_classification_task,
    bfs_partition,
    owned_segment_count,
    sbm_graph,
    shared_memory_available,
)
from repro.models import GNNConfig, MaxKGNN
from repro.training import (
    Engine,
    PrefetchWorkerError,
    TrainResult,
    make_flow,
)
from repro.training.parallel import available_cores

pytestmark = pytest.mark.skipif(
    not shared_memory_available(),
    reason="host cannot create POSIX shared memory",
)


def _task_graph(n=150, seed=9):
    graph = sbm_graph(n, 4, 8.0, intra_fraction=0.7, seed=seed).to_undirected()
    attach_classification_task(graph, n_features=8, signal=0.5, seed=seed)
    return graph


def _config(dropout=0.1):
    return GNNConfig(
        model_type="sage", in_features=8, hidden=16, out_features=4,
        n_layers=2, nonlinearity="maxk", k=4, dropout=dropout,
    )


def _run_sampled(workers, epochs=2):
    graph = _task_graph()
    flow = make_flow(
        "sampled", sampler="node", batches_per_epoch=2, sample_size=60,
        seed=3, prefetch=2, prefetch_workers=workers,
    )
    engine = Engine(MaxKGNN(graph, _config(), seed=0), graph, flow, lr=0.01)
    try:
        losses = [engine.train_epoch(epoch=e) for e in range(epochs)]
        params = [p.data.copy() for p in engine.optimizer.parameters]
    finally:
        engine.close()
    return losses, params


def _run_distributed(replicas, processes, topk=None, dropout=0.1, epochs=2,
                     steps=1, unlabelled_part=None):
    graph = _task_graph()
    boundary_fraction = 0.2
    if unlabelled_part is not None:
        # No halo and not one training node in the part: whichever
        # executor builds that slot must skip it.
        boundary_fraction = 0.0
        members = bfs_partition(graph, 4, seed=7).members(unlabelled_part)
        graph.train_mask = graph.train_mask.copy()
        graph.train_mask[members] = False
    flow = make_flow(
        "distributed", inner="partitioned", replicas=replicas,
        grad_topk=topk, processes=processes, n_parts=4,
        boundary_fraction=boundary_fraction, seed=7,
    )
    engine = Engine(MaxKGNN(graph, _config(dropout), seed=0), graph, flow,
                    lr=0.01)
    result = TrainResult()
    try:
        losses = [
            engine.train_epoch(epoch=e, steps_per_batch=steps, result=result)
            for e in range(epochs)
        ]
        params = [p.data.copy() for p in engine.optimizer.parameters]
    finally:
        engine.close()
    bookkeeping = (
        result.batch_losses, result.batch_sizes,
        flow.replica_steps.tolist(), flow.grad_exchanges,
    )
    return losses, params, bookkeeping


def _identical(a, b):
    """Epoch losses, final parameters and (for distributed runs) the
    per-batch bookkeeping + flow telemetry, all exactly equal."""
    return a[0] == b[0] and a[2:] == b[2:] and all(
        np.array_equal(x, y) for x, y in zip(a[1], b[1])
    )


def _no_leaks():
    assert owned_segment_count() == 0
    assert not multiprocessing.active_children()


def _broken_sampler(graph, size, seed=0):
    # Module-level so it pickles into the spawn worker.
    raise RuntimeError("sampler exploded")


class TestProcessPrefetch:
    def test_matches_thread_builder_bitwise(self, force_procs):
        thread = _run_sampled("thread")
        procs = _run_sampled(2)
        assert _identical(thread, procs)
        _no_leaks()

    def test_worker_failure_is_prompt_and_slot_attributed(self, force_procs):
        graph = _task_graph(60)
        flow = make_flow(
            "sampled", sampler=_broken_sampler, sample_size=10, seed=0,
            prefetch=2, prefetch_workers=2,
        )
        try:
            # The historical contract: a RuntimeError whose message embeds
            # the original error; the new one: the originating plan slot.
            with pytest.raises(RuntimeError, match="sampler exploded") as info:
                list(flow.batches(graph, 0))
            assert isinstance(info.value, PrefetchWorkerError)
            assert info.value.slot == 0
            assert info.value.epoch == 0
            assert "slot 0" in str(info.value)
        finally:
            flow.close()
        _no_leaks()

    def test_falls_back_to_thread_when_cores_are_short(self, monkeypatch):
        monkeypatch.delenv("REPRO_FORCE_PROCS", raising=False)
        with pytest.warns(RuntimeWarning, match="in-process"):
            over = _run_sampled(available_cores() + 1)
        assert _identical(over, _run_sampled("thread"))
        _no_leaks()


class TestReplicaProcesses:
    def test_r1_bit_identical(self, force_procs, backend):
        # R=1 replays the in-process trajectory bit for bit even with
        # dropout: replica 0 inherits the parent's RNG stream verbatim.
        assert _identical(
            _run_distributed(1, False), _run_distributed(1, True)
        )
        _no_leaks()

    def test_r2_dense_bit_identical_without_dropout(self, force_procs):
        for unlabelled_part in (None, 1):
            inproc = _run_distributed(
                2, False, dropout=0.0, unlabelled_part=unlabelled_part
            )
            assert _identical(inproc, _run_distributed(
                2, True, dropout=0.0, unlabelled_part=unlabelled_part
            ))
        # The skipped slot trained nothing on either executor.
        assert inproc[2][2] == [4, 2] and len(inproc[2][0]) == 6
        _no_leaks()

    def test_zero_steps_train_nothing_on_either_executor(self, force_procs):
        runs = [
            _run_distributed(2, processes, dropout=0.0, steps=0, epochs=1)
            for processes in (False, True)
        ]
        for losses, _, bookkeeping in runs:
            assert np.isnan(losses).all()
            assert bookkeeping == ([], [], [0, 0], 0)
        assert all(np.array_equal(x, y) for x, y in zip(runs[0][1],
                                                        runs[1][1]))
        _no_leaks()

    def test_round_loop_drives_any_executor_in_order(self):
        """The one round loop against a recording fake (no processes):
        build → step × steps → retire per round, and gradients landed
        by the executor summed as they are."""
        graph = _task_graph()
        flow = make_flow(
            "distributed", inner="partitioned", replicas=2, grad_topk=1,
            processes=True, n_parts=4, boundary_fraction=0.2, seed=7,
        )
        engine = Engine(MaxKGNN(graph, _config(), seed=0), graph, flow,
                        lr=0.01)
        calls = []

        class FakeExecutor:
            def build(self, assignments, epoch):
                calls.append(("build", list(assignments), epoch))
                # Replica 1 of the second round reports an unlabelled batch.
                return {
                    replica: (slot == 3, 10 + slot, 100 + slot)
                    for replica, slot in assignments
                }

            def step(self, participants, store):
                calls.append(("step", list(participants)))
                for replica in participants:
                    store.deposit(replica, [
                        np.full(p.data.size, 1.0 + replica)
                        for p in store.parameters
                    ])
                return {replica: (0.5 + replica, 0.01)
                        for replica in participants}

            def retire(self, participants):
                calls.append(("retire", list(participants)))

        engine._ensure_replica_pool = FakeExecutor
        result = TrainResult()
        try:
            loss = engine.train_epoch(epoch=3, steps_per_batch=2,
                                      result=result)
        finally:
            engine.close()
        assert calls == [
            ("build", [(0, 0), (1, 1)], 3),
            ("step", [0, 1]), ("step", [0, 1]), ("retire", [0, 1]),
            ("build", [(0, 2), (1, 3)], 3),
            ("step", [0]), ("step", [0]), ("retire", [0]),
        ]
        assert result.batch_losses == [0.5, 1.5, 0.5]
        assert result.batch_sizes == [10, 11, 12]
        assert loss == pytest.approx(2.5 / 3)
        assert flow.replica_steps.tolist() == [4, 2]
        assert flow.replica_edges.tolist() == [2 * 100 + 2 * 102, 2 * 101]
        assert flow.grad_exchanges == 4
        # The top-1 store summed the deposited rows as they were: reduce
        # never selects, whoever filled the arena.
        for p in engine.optimizer.parameters:
            assert np.array_equal(p.grad, np.ones_like(p.data))

    def test_r2_topk_bit_identical_without_dropout(self, force_procs):
        assert _identical(
            _run_distributed(2, False, topk=4, dropout=0.0),
            _run_distributed(2, True, topk=4, dropout=0.0),
        )
        _no_leaks()

    def test_r2_seed_reproducible_with_dropout(self, force_procs):
        # With dropout the replica mirrors draw from jumped streams, so
        # R>1 is seed-reproducible rather than equal to in-process.
        assert _identical(
            _run_distributed(2, True, dropout=0.1),
            _run_distributed(2, True, dropout=0.1),
        )
        _no_leaks()

    def test_falls_back_in_process_with_one_warning(self, monkeypatch):
        monkeypatch.delenv("REPRO_FORCE_PROCS", raising=False)
        replicas = available_cores() + 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            procs = _run_distributed(replicas, True, epochs=3)
        relevant = [w for w in caught
                    if issubclass(w.category, RuntimeWarning)
                    and "in-process" in str(w.message)]
        # The verdict is cached: one warning, not one per epoch.
        assert len(relevant) == 1
        assert _identical(procs, _run_distributed(replicas, False, epochs=3))
        _no_leaks()

    def test_pool_persists_across_epochs(self, force_procs):
        graph = _task_graph()
        flow = make_flow(
            "distributed", inner="partitioned", replicas=2, processes=True,
            n_parts=4, boundary_fraction=0.2, seed=7,
        )
        engine = Engine(MaxKGNN(graph, _config(), seed=0), graph, flow,
                        lr=0.01)
        try:
            engine.train_epoch(epoch=0)
            pool = engine._replica_pool
            assert pool is not None
            engine.train_epoch(epoch=1)
            assert engine._replica_pool is pool  # no churn per epoch
        finally:
            engine.close()
            engine.close()  # idempotent
        _no_leaks()
