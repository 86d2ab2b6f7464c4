"""Tests for data-parallel training over replicas.

Covers the DistributedFlow contract (replica-sharded rounds, deterministic
fixed-order gradient all-reduce, R=1 bit-identity with the sequential inner
flow, fixed-seed reproducibility at R>1), the ReplicaGradients reduction
math and the flow's measured replica telemetry.
"""

import multiprocessing

import numpy as np
import pytest

from repro.graphs import (
    attach_classification_task,
    sbm_graph,
)
from repro.models import GNNConfig, MaxKGNN
from repro.sparse.partition import gini, warp_efficiency
from repro.tensor import Tensor
from repro.training import (
    BatchPlan,
    DistributedFlow,
    Engine,
    PartitionedFlow,
    ReplicaGradients,
    SampledFlow,
    make_flow,
)
from repro.training.parallel import ReplicaProcessPool
from tests.conftest import floats


@pytest.fixture
def graph():
    graph = sbm_graph(180, 4, 8.0, intra_fraction=0.7, seed=9).to_undirected()
    attach_classification_task(graph, n_features=8, signal=0.5, seed=9)
    return graph


def maxk_config():
    return GNNConfig(
        model_type="sage", in_features=8, hidden=16, out_features=4,
        n_layers=2, nonlinearity="maxk", k=4, dropout=0.1,
    )


def make_engine(graph, flow, seed=0):
    return Engine(MaxKGNN(graph, maxk_config(), seed=seed), graph, flow,
                  lr=0.01)


class TestRoundSharding:
    def test_rounds_chunk_the_inner_schedule(self, graph):
        flow = DistributedFlow(PartitionedFlow(n_parts=5, seed=0), 2)
        rounds = flow.rounds(graph, epoch=0)
        assert [len(r) for r in rounds] == [2, 2, 1]

    def test_single_replica_rounds_are_singletons(self, graph):
        flow = DistributedFlow(PartitionedFlow(n_parts=3, seed=0), 1)
        rounds = flow.rounds(graph, epoch=0)
        assert [len(r) for r in rounds] == [1, 1, 1]

    def test_describe_names_replicas_and_inner(self):
        flow = DistributedFlow(PartitionedFlow(n_parts=4, seed=0), 3)
        assert flow.describe() == "distributed[3]/partitioned/4"

    def test_validation(self):
        with pytest.raises(ValueError):
            DistributedFlow(PartitionedFlow(n_parts=2), 0)

    def test_batches_fall_back_to_inner_stream(self, graph):
        inner = PartitionedFlow(n_parts=3, seed=0)
        flow = DistributedFlow(PartitionedFlow(n_parts=3, seed=0), 2)
        ours = list(flow.batches(graph, epoch=0))
        theirs = list(inner.batches(graph, epoch=0))
        assert len(ours) == len(theirs) == 3
        for a, b in zip(ours, theirs):
            np.testing.assert_array_equal(a.features, b.features)


class TestTrajectoryIdentity:
    def test_r1_bit_identical_to_partitioned(self, graph):
        """The acceptance gate: R=1 replays PartitionedFlow bit for bit."""
        sequential = make_engine(
            graph, PartitionedFlow(n_parts=3, boundary_fraction=0.3, seed=0)
        ).fit(8, eval_every=2)
        distributed = make_engine(
            graph,
            DistributedFlow(
                PartitionedFlow(n_parts=3, boundary_fraction=0.3, seed=0), 1
            ),
        ).fit(8, eval_every=2)
        assert sequential.train_losses == distributed.train_losses
        assert sequential.batch_losses == distributed.batch_losses
        assert sequential.val_metrics == distributed.val_metrics
        assert sequential.test_metrics == distributed.test_metrics

    def test_r1_bit_identical_to_sampled(self, graph):
        """Sharding composes with the pooled sampled flow too."""
        def flow():
            return SampledFlow(sampler="node", batches_per_epoch=4,
                               sample_size=40, pool_size=4, seed=0)

        sequential = make_engine(graph, flow()).fit(5, eval_every=2)
        distributed = make_engine(
            graph, DistributedFlow(flow(), 1)
        ).fit(5, eval_every=2)
        assert sequential.train_losses == distributed.train_losses
        assert sequential.batch_losses == distributed.batch_losses

    def test_fixed_seed_reproducible_at_r2(self, graph):
        def run():
            return make_engine(
                graph, DistributedFlow(PartitionedFlow(n_parts=4, seed=0), 2)
            ).fit(6, eval_every=2)

        first, second = run(), run()
        assert first.train_losses == second.train_losses
        assert first.val_metrics == second.val_metrics

    def test_r2_changes_the_step_structure(self, graph):
        """Two replicas per round halve the optimizer steps per epoch."""
        sequential = make_engine(
            graph, PartitionedFlow(n_parts=4, seed=0)
        )
        distributed = make_engine(
            graph, DistributedFlow(PartitionedFlow(n_parts=4, seed=0), 2)
        )
        sequential.fit(3, eval_every=3)
        distributed.fit(3, eval_every=3)
        assert sequential.optimizer._t == 12
        assert distributed.optimizer._t == 6

    def test_r2_trains_above_chance(self, graph):
        flow = DistributedFlow(
            PartitionedFlow(n_parts=4, boundary_fraction=0.3, seed=0), 2
        )
        result = make_engine(graph, flow).fit(
            8, eval_every=4, steps_per_batch=2
        )
        assert result.final_test > 1.0 / 4
        assert np.isfinite(result.train_losses).all()

    def test_unlabelled_batches_are_skipped(self, graph):
        graph.train_mask = np.zeros(graph.n_nodes, dtype=bool)
        engine = make_engine(
            graph, DistributedFlow(PartitionedFlow(n_parts=3, seed=0), 2)
        )
        loss = engine.train_epoch(0)
        assert np.isnan(loss)
        assert engine.optimizer._t == 0


class TestReplicaGradients:
    def _params(self):
        a = Tensor(np.zeros((2, 2)), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        return [a, b]

    def test_reduce_averages_in_fixed_order(self):
        params = self._params()
        store = ReplicaGradients(params, 2)
        grads = [
            [np.full((2, 2), 1.0), np.full(3, 2.0)],
            [np.full((2, 2), 3.0), np.full(3, 6.0)],
        ]
        for replica, (ga, gb) in enumerate(grads):
            params[0].grad, params[1].grad = ga, gb
            store.capture(replica)
        store.reduce([0, 1])
        np.testing.assert_array_equal(params[0].grad, np.full((2, 2), 2.0))
        np.testing.assert_array_equal(params[1].grad, np.full(3, 4.0))

    def test_single_participant_is_identity(self):
        params = self._params()
        store = ReplicaGradients(params, 2)
        rng = np.random.default_rng(0)
        ga, gb = floats(rng.normal(size=(2, 2))), floats(rng.normal(size=3))
        params[0].grad, params[1].grad = ga.copy(), gb.copy()
        store.capture(1)
        store.reduce([1])
        assert params[0].grad.tobytes() == ga.tobytes()
        assert params[1].grad.tobytes() == gb.tobytes()

    def test_untouched_parameter_keeps_none_grad(self):
        params = self._params()
        store = ReplicaGradients(params, 2)
        params[0].grad = np.ones((2, 2))
        params[1].grad = None
        store.capture(0)
        params[0].grad = np.full((2, 2), 3.0)
        params[1].grad = None
        store.capture(1)
        store.reduce([0, 1])
        np.testing.assert_array_equal(params[0].grad, np.full((2, 2), 2.0))
        assert params[1].grad is None

    def test_partial_presence_still_averages_over_participants(self):
        """The round objective is the participants' mean loss, so a grad
        one replica is missing is averaged as that replica contributing 0
        mass — divided by the participant count, not the source count."""
        params = self._params()
        store = ReplicaGradients(params, 2)
        params[0].grad = np.full((2, 2), 4.0)
        params[1].grad = np.full(3, 4.0)
        store.capture(0)
        params[0].grad = np.full((2, 2), 2.0)
        params[1].grad = None
        store.capture(1)
        store.reduce([0, 1])
        np.testing.assert_array_equal(params[0].grad, np.full((2, 2), 3.0))
        np.testing.assert_array_equal(params[1].grad, np.full(3, 2.0))

    def test_adopts_persistent_grad_buffers(self):
        params = self._params()
        for p in params:
            p._grad_buffer = np.empty_like(p.data)
        store = ReplicaGradients(params, 1)
        params[0].grad = np.ones((2, 2))
        params[1].grad = np.ones(3)
        store.capture(0)
        store.reduce([0])
        assert params[0].grad is params[0]._grad_buffer
        assert params[1].grad is params[1]._grad_buffer

    def test_validation(self):
        with pytest.raises(ValueError):
            ReplicaGradients(self._params(), 0)
        store = ReplicaGradients(self._params(), 1)
        with pytest.raises(ValueError):
            store.reduce([])

    def test_fuzz_matches_mean_oracle(self, backend):
        """Multi-round fuzz vs a plain-numpy oracle, with random gradient
        presence and participant subsets, on every backend: each round
        sums the present rows in ascending replica order and divides by
        the participant count, bit for bit."""
        rng = np.random.default_rng(sum(map(ord, backend)))
        shapes = [(4, 8), (5,), (3, 3)]
        params = [Tensor(np.zeros(shape), requires_grad=True)
                  for shape in shapes]
        replicas = 3
        store = ReplicaGradients(params, replicas)
        for _ in range(6):
            grads = {}
            participants = sorted(rng.choice(
                replicas, size=rng.integers(1, replicas + 1), replace=False
            ).tolist())
            for r in participants:
                grads[r] = [
                    floats(rng.normal(size=s)) if rng.random() > 0.2 else None
                    for s in shapes
                ]
                for p, g in zip(params, grads[r]):
                    p.grad = g
                store.capture(r)
            store.reduce(participants)
            scale = 1.0 / len(participants)
            for index, p in enumerate(params):
                sources = [grads[r][index] for r in participants
                           if grads[r][index] is not None]
                if not sources:
                    assert p.grad is None
                    continue
                accumulated = sources[0].copy()
                for g in sources[1:]:
                    accumulated += g
                accumulated *= scale
                assert p.grad.tobytes() == accumulated.tobytes()

    def test_exported_payload_deposits_to_the_same_reduction(self):
        """The process-per-replica hand-off: a worker's exported row,
        deposited on the parent, reduces exactly as a local capture —
        an untouched parameter ships as ``None`` and stays ungraded."""
        rng = np.random.default_rng(3)
        local_params, parent_params = self._params(), self._params()
        local = ReplicaGradients(local_params, 2)
        parent = ReplicaGradients(parent_params, 2)
        for replica in range(2):
            local_params[0].grad = floats(rng.normal(size=(2, 2)))
            local_params[1].grad = None
            local.capture(replica)
            payload = local.export_payload(replica)
            assert payload[1] is None
            parent.deposit(replica, payload)
        local.reduce([0, 1])
        parent.reduce([0, 1])
        assert parent_params[0].grad.tobytes() == \
            local_params[0].grad.tobytes()
        assert parent_params[1].grad is None

    def test_deposit_rejects_a_payload_of_another_length(self):
        store = ReplicaGradients(self._params(), 2)
        with pytest.raises(ValueError, match="1 entries for 2 parameters"):
            store.deposit(0, [np.zeros((2, 2))])


class _StaticPlan(BatchPlan):
    __slots__ = ("batch",)

    def __init__(self, batch):
        self.batch = batch

    def build(self):
        return self.batch


class _ScriptedRounds:
    """Minimal rounds-protocol flow replaying a fixed schedule."""

    def __init__(self, rounds, replicas=2):
        self.replicas = replicas
        self._rounds = rounds

    def rounds(self, graph, epoch):
        return [list(r) for r in self._rounds]


class TestEmptyRounds:
    def _unlabelled_twin(self):
        twin = sbm_graph(180, 4, 8.0, intra_fraction=0.7,
                         seed=9).to_undirected()
        attach_classification_task(twin, n_features=8, signal=0.5, seed=9)
        twin.train_mask = np.zeros(twin.n_nodes, dtype=bool)
        return twin

    def test_trailing_empty_round_leaves_no_stale_gradients(self, graph):
        """Regression: a round whose batches are all unlabelled skips its
        optimizer step, and must also clear the previous round's reduced
        gradients — a later consumer reading ``p.grad`` would otherwise
        mistake them for fresh ones."""
        empty = self._unlabelled_twin()
        flow = _ScriptedRounds([
            [_StaticPlan(graph), _StaticPlan(graph)],
            [_StaticPlan(empty), _StaticPlan(empty)],
        ])
        engine = make_engine(graph, flow)
        loss = engine.train_epoch(0)
        assert np.isfinite(loss)
        assert engine.optimizer._t == 1
        for p in engine.optimizer.parameters:
            assert p.grad is None

    def test_interior_empty_round_only_skips_its_own_step(self, graph):
        empty = self._unlabelled_twin()
        flow = _ScriptedRounds([
            [_StaticPlan(graph), _StaticPlan(graph)],
            [_StaticPlan(empty), _StaticPlan(empty)],
            [_StaticPlan(graph), _StaticPlan(graph)],
        ])
        engine = make_engine(graph, flow)
        loss = engine.train_epoch(0)
        assert np.isfinite(loss)
        assert engine.optimizer._t == 2
        for p in engine.optimizer.parameters:
            assert p.grad is not None


class TestTelemetryAndReport:
    def test_note_replica_step_accumulates(self):
        flow = DistributedFlow(PartitionedFlow(n_parts=4, seed=0), 2)
        flow.note_replica_step(0, 0.25, 100)
        flow.note_replica_step(0, 0.25, 100)
        flow.note_replica_step(1, 0.10, 40)
        measured = flow.measured()
        assert measured["replica_edges"] == [200, 40]
        assert measured["straggler_skew"] == pytest.approx(0.5 / 0.3)
        assert 0.0 < measured["load_efficiency"] <= 1.0

    def test_measured_reads_back_the_rounds_the_engine_ran(self, graph):
        """After a short R=2 partitioned fit, measured() counts the rounds
        the engine ran, one step per plan, and scores the per-replica edge
        loads with the Edge-Group balance metrics."""
        inner = PartitionedFlow(n_parts=5, boundary_fraction=0.3, seed=0)
        flow = DistributedFlow(inner, 2)
        ran = []
        original = flow.rounds

        def spy(graph, epoch):
            rounds = original(graph, epoch)
            ran.append(rounds)
            return rounds

        flow.rounds = spy
        make_engine(graph, flow).fit(3, eval_every=3)
        measured = flow.measured()
        assert len(ran) == 3
        assert measured["rounds"] == sum(len(rounds) for rounds in ran) == 9
        n_plans = sum(len(plans) for rounds in ran for plans in rounds)
        assert sum(measured["replica_steps"]) == n_plans == 15
        assert measured["replica_steps"] == [9, 6]
        assert len(measured["replica_ms"]) == 2
        assert all(ms > 0 for ms in measured["replica_ms"])
        edges = measured["replica_edges"]
        assert measured["load_efficiency"] == warp_efficiency(edges)
        assert measured["load_gini"] == gini(edges)
        assert measured["straggler_skew"] >= 1.0

    @pytest.mark.parametrize("replicas,n_parts", [
        (1, 5), (2, 5), (3, 5), (4, 5), (4, 3), (5, 2),
    ])
    def test_plan_i_r_plus_r_trains_on_replica_r(self, graph, replicas,
                                                 n_parts):
        """Each replica measures the steps and edges of exactly the plans
        the rounds hand it: plan ``i * R + r`` on replica ``r``. A replica
        no plan reaches stays idle and out of the skew."""
        def inner():
            return PartitionedFlow(n_parts=n_parts, boundary_fraction=0.3,
                                   seed=0)

        flow = DistributedFlow(inner(), replicas)
        make_engine(graph, flow).fit(2, eval_every=2)
        steps, edges = [0] * replicas, [0] * replicas
        for epoch in range(2):
            for index, plan in enumerate(inner().plan(graph, epoch)):
                batch = plan.build()
                steps[index % replicas] += 1
                edges[index % replicas] += batch.n_edges
                plan.retire(batch)
        measured = flow.measured()
        assert measured["replica_steps"] == steps
        assert measured["replica_edges"] == edges
        assert measured["rounds"] == 2 * -(-n_parts // replicas)
        active = flow.replica_seconds[np.array(steps) > 0]
        assert len(active) == min(replicas, n_parts)
        assert measured["straggler_skew"] == pytest.approx(
            active.max() / active.mean()
        )
        if replicas == 1:
            assert measured["straggler_skew"] == 1.0
            assert measured["load_efficiency"] == 1.0
            assert measured["load_gini"] == 0.0

    def test_a_fresh_or_reset_flow_measures_nothing(self, graph):
        flow = DistributedFlow(PartitionedFlow(n_parts=4, seed=0), 2)
        nothing = {
            "replica_ms": [0.0, 0.0], "replica_edges": [0, 0],
            "replica_steps": [0, 0], "straggler_skew": 1.0,
            "load_efficiency": 1.0, "load_gini": 0.0, "rounds": 0,
        }
        assert flow.measured() == nothing
        make_engine(graph, flow).fit(1, eval_every=1)
        assert flow.measured()["replica_steps"] == [2, 2]
        flow.reset_telemetry()
        assert flow.measured() == nothing

    @pytest.mark.parametrize("replicas,rounds,steps", [
        (2, 6, [6, 6]), (3, 6, [6, 3, 3]),
    ])
    def test_a_sampled_inner_measures_every_batch(self, graph, replicas,
                                                  rounds, steps):
        flow = DistributedFlow(
            SampledFlow(sampler="node", batches_per_epoch=4, sample_size=40,
                        seed=0),
            replicas,
        )
        make_engine(graph, flow).fit(3, eval_every=3)
        measured = flow.measured()
        assert measured["rounds"] == rounds
        assert measured["replica_steps"] == steps
        assert all(edges > 0 for edges in measured["replica_edges"])

    def test_report_carries_no_compression_keys(self, graph):
        """The exchange is dense: the flow measures it and names no
        compression."""
        flow = DistributedFlow(PartitionedFlow(n_parts=4, seed=0), 2)
        make_engine(graph, flow).fit(2, eval_every=2)
        measured = flow.measured()
        assert "straggler_skew" in measured
        for gone in ("grad_topk", "dense_allreduce_mb_per_epoch",
                     "grad_compression_ratio",
                     "comm_volume_reduction_speedup"):
            assert gone not in measured

    def test_the_flow_prices_no_hardware(self):
        flow = DistributedFlow(PartitionedFlow(n_parts=2, seed=0), 2)
        for gone in ("report", "device"):
            assert not hasattr(flow, gone), gone
        with pytest.raises(TypeError):
            DistributedFlow(PartitionedFlow(n_parts=2), 2, device=None)
        with pytest.raises(TypeError):
            flow.note_replica_step(0, 0.1, 10, slot=0)


class TestMakeFlowDistributed:
    def test_builds_partitioned_inner_by_default(self):
        flow = make_flow("distributed", replicas=3, n_parts=4, seed=1)
        assert isinstance(flow, DistributedFlow)
        assert flow.replicas == 3
        assert flow.inner.name == "partitioned"
        assert flow.inner.n_parts == 4

    def test_builds_sampled_inner(self):
        flow = make_flow("distributed", replicas=2, inner="sampled",
                         sampler="edge")
        assert flow.inner.name == "sampled"
        assert flow.inner.sampler == "edge"

    def test_rejects_prefetch(self):
        with pytest.raises(ValueError, match="does not compose"):
            make_flow("distributed", prefetch=1, replicas=2)

    def test_rejects_unknown_inner(self):
        with pytest.raises(ValueError, match="unknown distributed inner"):
            make_flow("distributed", inner="full")


class TestOneGradientExchange:
    """The compressed exchange is gone; none of its settings is taken."""

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: make_flow("distributed", replicas=2,
                                       grad_topk=4), id="make_flow"),
        pytest.param(lambda: DistributedFlow(PartitionedFlow(n_parts=2), 2,
                                             grad_topk=4),
                     id="DistributedFlow"),
        pytest.param(lambda: ReplicaGradients(
            [Tensor(np.zeros(3), requires_grad=True)], 2, topk=4),
            id="ReplicaGradients"),
        pytest.param(lambda: ReplicaProcessPool(
            None, PartitionedFlow(n_parts=2), None, None, 2, [3],
            grad_topk=4), id="ReplicaProcessPool"),
    ])
    def test_a_topk_setting_is_refused(self, build):
        with pytest.raises(TypeError, match="topk"):
            build()
        assert not multiprocessing.active_children()


class TestDistributedSampledFlow:
    def test_distributed_over_sampled_flow(self, graph):
        flow = DistributedFlow(
            SampledFlow(sampler="node", batches_per_epoch=4, sample_size=40,
                        seed=0),
            2,
        )
        result = make_engine(graph, flow).fit(4, eval_every=2)
        assert np.isfinite(result.train_losses).all()
        assert len(result.batch_losses) == 16

    @pytest.mark.parametrize("sampler,size", [("edge", 60), ("walk", 10),
                                              ("khop", 15)])
    def test_r1_bit_identical_for_each_sampler(self, graph, sampler, size):
        """R=1 replays the sequential flow under every built-in sampler."""
        def flow():
            return SampledFlow(sampler=sampler, batches_per_epoch=3,
                               sample_size=size, seed=0)

        sequential = make_engine(graph, flow()).fit(3, eval_every=3)
        distributed = make_engine(
            graph, DistributedFlow(flow(), 1)
        ).fit(3, eval_every=3)
        assert len(sequential.batch_losses) == 9
        assert sequential.train_losses == distributed.train_losses
        assert sequential.batch_losses == distributed.batch_losses


class TestCliDistributed:
    def test_train_command_distributed(self, capsys):
        from repro.cli import main

        assert main([
            "train", "--dataset", "Flickr", "--epochs", "3",
            "--flow", "distributed", "--replicas", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "distributed[2]/partitioned/4" in out
        assert "straggler skew" in out

    def test_distributed_lines_come_from_what_was_measured(self, capsys):
        """The replicas and balance lines read flow.measured(); nothing
        modelled is printed."""
        from repro.cli import main

        assert main([
            "train", "--dataset", "Flickr", "--epochs", "2",
            "--flow", "distributed", "--replicas", "2", "--n-parts", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "straggler skew" in out
        assert "modelled" not in out
        assert "predicted" not in out
        replicas = next(line for line in out.splitlines()
                        if line.startswith("replicas"))
        # 3 plans an epoch over R = 2: 2 rounds an epoch, plans 0 and 2 on
        # replica 0, plan 1 on replica 1.
        assert "(4 rounds; per replica 4/2 steps," in replicas

    def test_train_command_distributed_sampled(self, capsys):
        from repro.cli import main

        assert main([
            "train", "--dataset", "Flickr", "--epochs", "2",
            "--flow", "distributed", "--replicas", "2",
            "--distributed-inner", "sampled",
            "--batches-per-epoch", "4", "--sample-size", "80",
        ]) == 0
        out = capsys.readouterr().out
        assert "distributed[2]/sampled/nodex4" in out

    def test_distributed_sampled_lines_come_from_what_was_measured(
            self, capsys):
        from repro.cli import main

        assert main([
            "train", "--dataset", "Flickr", "--epochs", "2",
            "--flow", "distributed", "--replicas", "2",
            "--distributed-inner", "sampled",
            "--batches-per-epoch", "4", "--sample-size", "80",
        ]) == 0
        out = capsys.readouterr().out
        assert "(4 rounds; per replica 4/4 steps," in out
        assert "straggler skew" in out
        assert "modelled" not in out and "predicted" not in out

    def test_cli_r1_measures_one_level_replica(self, capsys):
        from repro.cli import main

        assert main([
            "train", "--dataset", "Flickr", "--epochs", "2",
            "--flow", "distributed", "--replicas", "1", "--n-parts", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "(6 rounds; per replica 6 steps," in out
        assert ("balance      straggler skew 1.00, load efficiency 1.00, "
                "gini 0.000") in out

    def test_cli_replica_procs_print_what_the_workers_measured(
            self, capsys, force_procs):
        from repro.cli import main

        assert main([
            "train", "--dataset", "Flickr", "--epochs", "2",
            "--flow", "distributed", "--replicas", "2", "--n-parts", "4",
            "--replica-procs",
        ]) == 0
        out = capsys.readouterr().out
        assert "distributed[2,procs]/partitioned/4" in out
        assert "(4 rounds; per replica 4/4 steps," in out
        assert "modelled" not in out and "predicted" not in out
        assert not multiprocessing.active_children()

    def test_cli_resumed_at_the_target_measures_no_round(self, capsys,
                                                         tmp_path):
        from repro.cli import main

        argv = ["train", "--dataset", "Flickr", "--epochs", "2",
                "--flow", "distributed", "--replicas", "2",
                "--checkpoint-dir", str(tmp_path)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "(0 rounds; per replica 0/0 steps, 0.0/0.0 ms, 0/0 edges)" \
            in out
        assert ("balance      straggler skew 1.00, load efficiency 1.00, "
                "gini 0.000") in out

    def test_cli_distributed_rejects_prefetch(self):
        """The incompatibility must surface as make_flow's error, not as
        a silently dropped flag."""
        from repro.cli import main

        with pytest.raises(ValueError, match="does not compose"):
            main(["train", "--dataset", "Flickr", "--epochs", "2",
                  "--flow", "distributed", "--replicas", "2",
                  "--prefetch", "2"])

    def test_cli_refuses_grad_topk(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["train", "--dataset", "Flickr", "--epochs", "2",
                  "--flow", "distributed", "--replicas", "2",
                  "--grad-topk", "4"])
        assert exit_info.value.code == 2
        assert "--grad-topk" in capsys.readouterr().err

    def test_cli_r1_matches_partitioned_flow(self, capsys):
        """CLI-level acceptance: --flow distributed --replicas 1 reports
        the same final loss as --flow partitioned."""
        from repro.cli import main

        main(["train", "--dataset", "Flickr", "--epochs", "4",
              "--flow", "partitioned", "--n-parts", "3"])
        sequential = capsys.readouterr().out
        main(["train", "--dataset", "Flickr", "--epochs", "4",
              "--flow", "distributed", "--replicas", "1",
              "--n-parts", "3"])
        distributed = capsys.readouterr().out

        def line(output, key):
            return next(l for l in output.splitlines() if l.startswith(key))

        assert line(sequential, "final loss") == line(distributed, "final loss")
        assert line(sequential, "accuracy") == line(distributed, "accuracy")
