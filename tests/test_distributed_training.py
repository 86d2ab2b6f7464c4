"""Tests for simulated multi-GPU data-parallel training + importance sampling.

Covers the DistributedFlow contract (replica-sharded rounds, deterministic
fixed-order gradient all-reduce, R=1 bit-identity with the sequential inner
flow, fixed-seed reproducibility at R>1), the ReplicaGradients reduction
math, the gpusim placement/communication report, and the degree-weighted
GraphSAINT importance samplers with their unbiased loss normalisation.
"""

import numpy as np
import pytest

from repro.gpusim import (
    MultiGpuEpochModel,
    PartitionStats,
    ring_allreduce_time,
)
from repro.graphs import (
    attach_classification_task,
    attach_multilabel_task,
    degree_node_probabilities,
    edge_sampler,
    node_sampler,
    sbm_graph,
)
from repro.models import GNNConfig, MaxKGNN
from repro.tensor import Tensor, weighted_cross_entropy
from repro.training import (
    BatchPlan,
    DistributedFlow,
    Engine,
    PartitionedFlow,
    ReplicaGradients,
    SampledFlow,
    make_flow,
)
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


class TestSparseGradientExchange:
    def _params(self, shapes=((4, 8), (5,))):
        return [Tensor(np.zeros(shape), requires_grad=True)
                for shape in shapes]

    @staticmethod
    def _oracle_select(corrected, k):
        """Reference top-k: largest |value|, ties to the lower index."""
        if k >= corrected.size:
            return corrected.copy()
        order = np.argsort(-np.abs(corrected), kind="stable")
        selected = np.zeros_like(corrected)
        selected[order[:k]] = corrected[order[:k]]
        return selected

    def test_residual_reinjects_dropped_mass(self):
        """The error-feedback contract, deterministically: mass dropped in
        round one ships in round two even when the fresh gradient is
        zero."""
        params = [Tensor(np.zeros(4), requires_grad=True)]
        store = ReplicaGradients(params, 1, topk=1)
        params[0].grad = np.array([1.0, 2.0, 3.0, 4.0])
        store.capture(0)
        store.reduce([0])
        np.testing.assert_array_equal(params[0].grad, [0.0, 0.0, 0.0, 4.0])
        np.testing.assert_array_equal(store._residual[0], [1.0, 2.0, 3.0, 0.0])
        params[0].grad = np.zeros(4)
        store.capture(0)
        store.reduce([0])
        np.testing.assert_array_equal(params[0].grad, [0.0, 0.0, 3.0, 0.0])
        np.testing.assert_array_equal(store._residual[0], [1.0, 2.0, 0.0, 0.0])

    def test_fuzz_matches_error_feedback_oracle(self, backend):
        """Multi-round fuzz vs a plain-numpy error-feedback oracle, with
        random gradient presence and participant subsets, on every sparse
        backend."""
        rng = np.random.default_rng(sum(map(ord, backend)))
        shapes = [(4, 8), (5,), (3, 3)]
        params = self._params(shapes)
        replicas, topk = 3, 4
        store = ReplicaGradients(params, replicas, topk=topk)
        residual = {
            r: [floats(np.zeros(int(np.prod(s)))) for s in shapes]
            for r in range(replicas)
        }
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
            for index, (p, shape) in enumerate(zip(params, shapes)):
                sources = [r for r in participants
                           if grads[r][index] is not None]
                if not sources:
                    assert p.grad is None
                    continue
                accumulated = floats(np.zeros(int(np.prod(shape))))
                for r in sources:
                    corrected = residual[r][index] + grads[r][index].ravel()
                    k = min(topk, corrected.size)
                    selected = self._oracle_select(corrected, k)
                    accumulated += selected
                    residual[r][index] = corrected - selected
                np.testing.assert_allclose(
                    p.grad, (accumulated * scale).reshape(shape),
                    rtol=0, atol=0,
                )

    def test_topk_covering_every_entry_matches_dense(self):
        """topk >= max dim degenerates to the dense average (== semantics:
        the residual add may flip -0.0 signs, never values)."""
        rng = np.random.default_rng(1)
        sparse_params, dense_params = self._params(), self._params()
        sparse = ReplicaGradients(sparse_params, 2, topk=10**6)
        dense = ReplicaGradients(dense_params, 2)
        for _ in range(3):
            for r in range(2):
                grads = [rng.normal(size=(4, 8)), rng.normal(size=5)]
                for store_params, store in ((sparse_params, sparse),
                                            (dense_params, dense)):
                    for p, g in zip(store_params, grads):
                        p.grad = g.copy()
                    store.capture(r)
            sparse.reduce([0, 1])
            dense.reduce([0, 1])
            for sp, dp in zip(sparse_params, dense_params):
                np.testing.assert_array_equal(sp.grad, dp.grad)
        # Nothing was dropped, so no residual may have accumulated.
        np.testing.assert_array_equal(sparse._residual, 0.0)

    def test_payload_bytes_match_materialised_cbsr(self):
        params = self._params()
        store = ReplicaGradients(params, 2, topk=3)
        rng = np.random.default_rng(2)
        params[0].grad = rng.normal(size=(4, 8))
        params[1].grad = rng.normal(size=5)
        store.capture(0)
        payloads = store.payload_cbsr(0)
        assert len(payloads) == len(params)
        assert store.payload_nbytes == sum(
            c.storage_bytes() for c in payloads
        )
        width = params[0].data.itemsize
        assert store.dense_nbytes == width * (4 * 8 + 5)
        assert store.compression_ratio == pytest.approx(
            store.dense_nbytes / store.payload_nbytes
        )
        # k is clamped per tensor: 3 entries from the matrix, 3 from the
        # 5-vector, each costing one value + a uint8 column index.
        assert store.payload_nbytes == (3 + 3) * (width + 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            ReplicaGradients(self._params(), 2, topk=0)
        with pytest.raises(ValueError):
            DistributedFlow(PartitionedFlow(n_parts=2), 2, grad_topk=0)
        dense = ReplicaGradients(self._params(), 2)
        with pytest.raises(ValueError, match="top-k"):
            dense.payload_cbsr(0)

    def test_describe_names_the_compression(self):
        flow = DistributedFlow(PartitionedFlow(n_parts=4, seed=0), 3,
                               grad_topk=8)
        assert flow.describe() == "distributed[3,top8]/partitioned/4"

    def test_huge_topk_replays_dense_trajectory(self, graph):
        """With every entry selected the compressed exchange must not
        perturb training at all: same losses, same metrics as the dense
        store at R=2."""
        def run(grad_topk):
            flow = DistributedFlow(
                PartitionedFlow(n_parts=4, boundary_fraction=0.3, seed=0),
                2, grad_topk=grad_topk,
            )
            return make_engine(graph, flow).fit(6, eval_every=2)

        dense, sparse = run(None), run(10**6)
        assert dense.train_losses == sparse.train_losses
        assert dense.batch_losses == sparse.batch_losses
        assert dense.val_metrics == sparse.val_metrics
        assert dense.test_metrics == sparse.test_metrics

    def test_sparse_r2_trains_above_chance(self, graph):
        flow = DistributedFlow(
            PartitionedFlow(n_parts=4, boundary_fraction=0.3, seed=0),
            2, grad_topk=4,
        )
        result = make_engine(graph, flow).fit(
            8, eval_every=4, steps_per_batch=2
        )
        assert result.final_test > 1.0 / 4
        assert np.isfinite(result.train_losses).all()

    def test_report_surfaces_compression(self, graph):
        flow = DistributedFlow(
            PartitionedFlow(n_parts=4, boundary_fraction=0.3, seed=0),
            2, grad_topk=4,
        )
        engine = make_engine(graph, flow)
        engine.fit(3, eval_every=3)
        report = flow.report(graph, hidden=16, n_layers=2,
                             n_params=engine.model.n_parameters(), k=4)
        assert report["grad_topk"] == 4
        assert report["grad_compression_ratio"] >= 4.0
        assert report["comm_volume_reduction_speedup"] == pytest.approx(
            report["grad_compression_ratio"]
        )
        assert report["allreduce_mb_per_epoch"] < \
            report["dense_allreduce_mb_per_epoch"]
        assert report["allreduce_ms_per_epoch"] > 0

    def test_dense_report_shows_no_compression(self, graph):
        flow = DistributedFlow(PartitionedFlow(n_parts=4, seed=0), 2)
        engine = make_engine(graph, flow)
        engine.fit(2, eval_every=2)
        report = flow.report(graph, hidden=16, n_layers=2,
                             n_params=engine.model.n_parameters(), k=4)
        assert report["grad_topk"] == 0
        assert report["grad_compression_ratio"] == pytest.approx(1.0)
        assert report["allreduce_mb_per_epoch"] == pytest.approx(
            report["dense_allreduce_mb_per_epoch"]
        )

    @pytest.mark.slow
    def test_three_seed_accuracy_parity_with_dense(self, graph):
        """Acceptance: top-k accuracy within noise of the dense exchange
        over three model seeds."""
        def final(grad_topk, seed):
            flow = DistributedFlow(
                PartitionedFlow(n_parts=4, boundary_fraction=0.3, seed=0),
                2, grad_topk=grad_topk,
            )
            return make_engine(graph, flow, seed=seed).fit(
                20, eval_every=10
            ).final_test

        dense = np.mean([final(None, seed) for seed in range(3)])
        sparse = np.mean([final(8, seed) for seed in range(3)])
        assert sparse == pytest.approx(dense, abs=0.1)
        assert sparse > 1.0 / 4


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

    def test_report_includes_model_and_measurement(self, graph):
        flow = DistributedFlow(
            PartitionedFlow(n_parts=4, boundary_fraction=0.3, seed=0), 2
        )
        engine = make_engine(graph, flow)
        engine.fit(3, eval_every=3)
        report = flow.report(graph, hidden=16, n_layers=2,
                             n_params=engine.model.n_parameters(), k=4)
        assert report["replicas"] == 2
        assert report["rounds_per_epoch"] == 2
        assert report["allreduce_mb_per_epoch"] > 0
        assert report["allreduce_ms_per_epoch"] > 0
        assert report["straggler_skew"] >= 1.0
        assert report["predicted_scaling"] > 0
        assert 0.0 < report["modelled_comm_fraction"] < 1.0

    def test_r1_allreduce_is_free(self, graph):
        flow = DistributedFlow(PartitionedFlow(n_parts=2, seed=0), 1)
        report = flow.report(graph, hidden=16, n_layers=2, n_params=1000)
        assert report["allreduce_mb_per_epoch"] == 0.0
        assert report["allreduce_ms_per_epoch"] == 0.0

    def test_ring_allreduce_time_model(self):
        assert ring_allreduce_time(1e6, 1) == 0.0
        two = ring_allreduce_time(1e6, 2)
        four = ring_allreduce_time(1e6, 4)
        assert two > 0
        assert four > two  # more latency-bound steps, more relayed volume
        with pytest.raises(ValueError):
            ring_allreduce_time(-1.0, 2)
        with pytest.raises(ValueError):
            ring_allreduce_time(1e6, 0)

    def test_predicted_scaling_bounded_by_replica_count(self):
        stats = PartitionStats(
            n_parts=4,
            nodes_per_part=[50000] * 4,
            edges_per_part=[2000000] * 4,
            boundary_per_part=[1000] * 4,
        )
        from repro.gpusim import A100

        model = MultiGpuEpochModel(stats, hidden=256, n_layers=3, device=A100)
        scaling = model.predicted_scaling()
        assert 1.0 < scaling <= 4.0
        assert model.serial_epoch() > model.baseline_epoch()
        maxk_scaling = model.predicted_scaling(k=32)
        assert 0.0 < maxk_scaling <= 4.0

    def test_serial_epoch_sums_per_part_selection_on_skew(self):
        """The serial sweep charges each part its own MaxK selection cost;
        charging n_parts x the largest part would overstate
        predicted_scaling on skewed partitions."""
        from repro.gpusim import A100
        from repro.gpusim.kernels.maxk_kernel import maxk_kernel_cost

        skewed = PartitionStats(
            n_parts=4,
            nodes_per_part=[40000, 400, 400, 400],
            edges_per_part=[1600000, 16000, 16000, 16000],
            boundary_per_part=[500] * 4,
        )
        model = MultiGpuEpochModel(skewed, hidden=256, n_layers=1,
                                   device=A100)
        from repro.gpusim.kernels import SparsePattern, spgemm_cost, sspmm_cost

        kernel_sum = sum(
            spgemm_cost(SparsePattern(n, n, e), 256, 32, A100).latency
            + sspmm_cost(SparsePattern(n, n, e), 256, 32, A100).latency
            for n, e in zip(skewed.nodes_per_part, skewed.edges_per_part)
        )
        per_part_selection = sum(
            maxk_kernel_cost(n, 256, 32, A100).latency
            for n in skewed.nodes_per_part
        )
        inflated_selection = 4 * maxk_kernel_cost(40000, 256, 32,
                                                  A100).latency
        assert per_part_selection < inflated_selection
        # n_layers=1: the serial epoch decomposes exactly into the summed
        # kernels plus the *per-part* selection sum.
        assert model.serial_epoch(k=32) == pytest.approx(
            kernel_sum + per_part_selection
        )
        # And the balanced case is unchanged by the fix (sum == P * each).
        balanced = PartitionStats(
            n_parts=2, nodes_per_part=[1000, 1000],
            edges_per_part=[40000, 40000], boundary_per_part=[100, 100],
        )
        balanced_model = MultiGpuEpochModel(balanced, hidden=64,
                                            n_layers=1, device=A100)
        assert balanced_model.serial_epoch(k=8) == pytest.approx(
            2 * MultiGpuEpochModel(
                PartitionStats(n_parts=1, nodes_per_part=[1000],
                               edges_per_part=[40000],
                               boundary_per_part=[100]),
                hidden=64, n_layers=1, device=A100,
            ).serial_epoch(k=8)
        )


class TestMakeFlowDistributed:
    def test_builds_partitioned_inner_by_default(self):
        flow = make_flow("distributed", replicas=3, n_parts=4, seed=1)
        assert isinstance(flow, DistributedFlow)
        assert flow.replicas == 3
        assert flow.inner.name == "partitioned"
        assert flow.inner.n_parts == 4

    def test_builds_sampled_inner(self):
        flow = make_flow("distributed", replicas=2, inner="sampled",
                         sampler="node", importance=True)
        assert flow.inner.name == "sampled"
        assert flow.inner.importance

    def test_rejects_micro_batch_and_prefetch(self):
        with pytest.raises(ValueError, match="does not compose"):
            make_flow("distributed", micro_batch=2, replicas=2)
        with pytest.raises(ValueError, match="does not compose"):
            make_flow("distributed", prefetch=1, replicas=2)

    def test_rejects_unknown_inner(self):
        with pytest.raises(ValueError, match="unknown distributed inner"):
            make_flow("distributed", inner="full")


class TestImportanceSampling:
    def _loss_carrier(self, seed=3):
        """Graph whose feature column 0 carries a per-node 'loss' value."""
        graph = sbm_graph(150, 3, 6.0, seed=seed).to_undirected()
        attach_classification_task(graph, n_features=4, seed=seed)
        rng = np.random.default_rng(seed)
        values = rng.normal(size=graph.n_nodes) ** 2
        features = np.asarray(graph.features, dtype=np.float64).copy()
        features[:, 0] = values
        graph.features = features
        return graph, values

    def test_degree_probabilities_normalised_and_smoothed(self, graph):
        probs = degree_node_probabilities(graph)
        assert probs.sum() == pytest.approx(1.0)
        assert (probs > 0).all()  # +1 smoothing reaches isolated nodes
        uniform = degree_node_probabilities(graph, alpha=0.0)
        np.testing.assert_allclose(uniform, 1.0 / graph.n_nodes)
        with pytest.raises(ValueError):
            degree_node_probabilities(graph, alpha=-1.0)

    def test_importance_subgraph_carries_weights(self, graph):
        sub = node_sampler(graph, 50, seed=0, importance=True)
        assert sub.loss_weights is not None
        assert sub.loss_weights.shape == (sub.n_nodes,)
        assert (sub.loss_weights > 0).all()
        assert node_sampler(graph, 50, seed=0).loss_weights is None

    def test_importance_sampler_deterministic(self, graph):
        a = node_sampler(graph, 50, seed=7, importance=True)
        b = node_sampler(graph, 50, seed=7, importance=True)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.loss_weights, b.loss_weights)

    @pytest.mark.slow
    def test_node_estimator_unbiased(self):
        """Fuzz: the weighted-loss mean over many draws hits the full-graph
        mean (the GraphSAINT normalisation argument, empirically)."""
        graph, values = self._loss_carrier()
        mask = np.asarray(graph.train_mask, dtype=bool)
        target = values[mask].mean()
        estimates = []
        for seed in range(2000):
            sub = node_sampler(graph, 40, seed=seed, importance=True)
            sub_mask = np.asarray(sub.train_mask, dtype=bool)
            carried = np.asarray(sub.features)[sub_mask, 0]
            estimates.append((sub.loss_weights[sub_mask] * carried).sum())
        assert np.mean(estimates) == pytest.approx(target, rel=0.05)

    @pytest.mark.slow
    def test_edge_estimator_unbiased(self):
        graph, values = self._loss_carrier()
        mask = np.asarray(graph.train_mask, dtype=bool)
        target = values[mask].mean()
        estimates = []
        for seed in range(2000):
            sub = edge_sampler(graph, 60, seed=seed, importance=True)
            sub_mask = np.asarray(sub.train_mask, dtype=bool)
            carried = np.asarray(sub.features)[sub_mask, 0]
            estimates.append((sub.loss_weights[sub_mask] * carried).sum())
        assert np.mean(estimates) == pytest.approx(target, rel=0.05)

    def test_weighted_cross_entropy_matches_manual(self):
        rng = np.random.default_rng(0)
        logits = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        labels = rng.integers(0, 3, size=6)
        weights = rng.random(6) + 0.1
        mask = np.array([True, True, False, True, False, True])
        loss = weighted_cross_entropy(logits, labels, weights, mask)
        shifted = logits.data - logits.data.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(
            np.exp(shifted).sum(axis=1, keepdims=True)
        )
        idx = np.where(mask)[0]
        expected = -(log_probs[idx, labels[idx]] * weights[idx]).sum()
        assert loss.item() == pytest.approx(expected)
        loss.backward()
        assert logits.grad is not None
        # Unmasked rows receive zero gradient.
        np.testing.assert_array_equal(logits.grad[~mask], 0.0)

    def test_sampled_flow_importance_trains(self, graph):
        flow = SampledFlow(sampler="node", batches_per_epoch=2,
                           sample_size=60, seed=0, importance=True)
        assert flow.describe() == "sampled/nodex2+imp"
        result = make_engine(graph, flow).fit(4, eval_every=2)
        assert np.isfinite(result.train_losses).all()

    def test_multilabel_importance_trains(self):
        graph = sbm_graph(160, 4, 6.0, seed=2).to_undirected()
        attach_multilabel_task(graph, n_features=6, n_labels=3, seed=2)
        flow = SampledFlow(sampler="node", batches_per_epoch=2,
                           sample_size=60, seed=0, importance=True)
        config = GNNConfig(
            model_type="sage", in_features=6, hidden=8,
            out_features=int(np.asarray(graph.labels).shape[1]), n_layers=2,
            nonlinearity="maxk", k=2,
        )
        engine = Engine(MaxKGNN(graph, config, seed=0), graph, flow, lr=0.01)
        result = engine.fit(3, eval_every=2)
        assert np.isfinite(result.train_losses).all()

    def test_distributed_over_importance_sampled_flow(self, graph):
        flow = DistributedFlow(
            SampledFlow(sampler="node", batches_per_epoch=4, sample_size=40,
                        seed=0, importance=True),
            2,
        )
        result = make_engine(graph, flow).fit(4, eval_every=2)
        assert np.isfinite(result.train_losses).all()
        assert len(result.batch_losses) == 16

    def test_importance_requires_node_or_edge_sampler(self):
        with pytest.raises(ValueError, match="node or edge"):
            SampledFlow(sampler="walk", importance=True)
        with pytest.raises(ValueError):
            SampledFlow(importance=True, importance_alpha=-0.5)

    def test_edge_alpha_interpolates_to_uniform(self, graph):
        from repro.graphs import degree_edge_probabilities

        uniform = degree_edge_probabilities(graph, alpha=0.0)
        np.testing.assert_allclose(uniform, 1.0 / graph.n_edges)
        weighted = degree_edge_probabilities(graph, alpha=1.0)
        assert weighted.std() > 0
        with pytest.raises(ValueError):
            degree_edge_probabilities(graph, alpha=-1.0)
        # The flow forwards its alpha to the edge sampler: alpha=0 and
        # alpha=1 must draw different batches under the same seed.
        a = edge_sampler(graph, 40, seed=5, importance=True, alpha=0.0)
        b = edge_sampler(graph, 40, seed=5, importance=True, alpha=1.0)
        assert a.n_nodes != b.n_nodes or a.features.shape != b.features.shape \
            or not np.array_equal(a.features, b.features)

    def test_weighted_bce_handles_1d_logits(self):
        from repro.tensor import bce_with_logits

        rng = np.random.default_rng(0)
        z = rng.normal(size=5)
        targets = rng.integers(0, 2, size=5).astype(np.float64)
        weights = rng.random(5) + 0.1
        logits = Tensor(z, requires_grad=True)
        loss = bce_with_logits(logits, targets, weights=weights)
        stable = (np.maximum(z, 0) - z * targets
                  + np.log1p(np.exp(-np.abs(z))))
        assert loss.item() == pytest.approx(float((stable * weights).sum()))
        loss.backward()
        assert logits.grad.shape == z.shape

    def test_micro_batch_merge_normalises_importance_weights(self, graph):
        """Merging K importance batches must not K-fold the weighted loss:
        the merged weights are the concatenation scaled by 1/K, so the
        merged weighted sum is the mean of the member estimators."""
        from repro.training import MicroBatchedFlow

        inner = SampledFlow(sampler="node", batches_per_epoch=2,
                            sample_size=50, pool_size=2, seed=0,
                            importance=True)
        members = list(inner.batches(graph, 0))
        flow = MicroBatchedFlow(
            SampledFlow(sampler="node", batches_per_epoch=2, sample_size=50,
                        pool_size=2, seed=0, importance=True),
            2,
        )
        merged = list(flow.batches(graph, 0))[0]
        assert merged.loss_weights is not None
        expected = np.concatenate(
            [m.loss_weights for m in members]
        ) / len(members)
        np.testing.assert_allclose(merged.loss_weights, expected)
        assert merged.loss_weights.sum() == pytest.approx(
            np.mean([m.loss_weights.sum() for m in members])
        )


class TestCliDistributed:
    def test_train_command_distributed(self, capsys):
        from repro.cli import main

        assert main([
            "train", "--dataset", "Flickr", "--epochs", "3",
            "--flow", "distributed", "--replicas", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "distributed[2]/partitioned/4" in out
        assert "all-reduce" in out
        assert "straggler skew" in out
        assert "predicted" in out

    def test_train_command_distributed_importance(self, capsys):
        from repro.cli import main

        assert main([
            "train", "--dataset", "Flickr", "--epochs", "2",
            "--flow", "distributed", "--replicas", "2",
            "--distributed-inner", "sampled", "--importance",
            "--batches-per-epoch", "4", "--sample-size", "80",
        ]) == 0
        out = capsys.readouterr().out
        assert "distributed[2]/sampled/nodex4+imp" in out

    def test_cli_distributed_rejects_micro_batch_and_prefetch(self):
        """The incompatibility must surface as make_flow's error, not as
        silently dropped flags."""
        from repro.cli import main

        with pytest.raises(ValueError, match="does not compose"):
            main(["train", "--dataset", "Flickr", "--epochs", "2",
                  "--flow", "distributed", "--replicas", "2",
                  "--micro-batch", "4"])
        with pytest.raises(ValueError, match="does not compose"):
            main(["train", "--dataset", "Flickr", "--epochs", "2",
                  "--flow", "distributed", "--replicas", "2",
                  "--prefetch", "2"])

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
