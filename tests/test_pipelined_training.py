"""Tests for the pipelined sampled-training stack (PR 4).

Covers the three tentpole layers and their seams:

* :class:`~repro.training.dataflow.PrefetchFlow` — bit-identical
  trajectories with prefetch on/off across every backend and flow shape
  (pooled / unpooled / micro-batched), in-slot-order worker error
  propagation and abandonment against both builders, and the warm-up
  every builder shares with the inline path;
* ``fused_ce`` — bitwise equality against the composed
  ``cross_entropy`` and a finite-difference gradcheck, per backend;
* the vectorized backend's blocked gather–scatter SpMM (its numpy route,
  ``numpy_fallback``) — bitwise equality against the reference oracle
  (empty rows, single rows, odd dims) and plan-cache bookkeeping through
  ``release`` / ``warm``;
* the per-backend graph-cache bound (``cache_info``'s ``cache_limit``);
* the fused GIN path — bit-identical to the composed ops.
"""

import multiprocessing

import numpy as np
import pytest

from repro.graphs import (
    Graph,
    attach_classification_task,
    owned_segment_count,
    sbm_graph,
    shared_memory_available,
)
from repro.models import GNNConfig, MaxKGNN
from repro.sparse import CSRMatrix, native, ops
from repro.tensor import Tensor, Workspace, cross_entropy, fused_ce
from repro.training import (
    Engine,
    MicroBatchedFlow,
    PartitionedFlow,
    PrefetchFlow,
    SampledFlow,
    batch_loss,
    make_flow,
)
from repro.training.parallel import PrefetchWorkerError, warm_batch
from tests.test_tensor import finite_difference

#: Prefetch builders: the background thread, and (where the host has
#: shared memory) two worker processes. Looped over inside the cases
#: below rather than parametrised, so their test ids stay stable.
BUILDERS = ["thread"] + ([2] if shared_memory_available() else [])


def _task_graph(n=150, seed=3):
    graph = sbm_graph(n, 4, 8.0, intra_fraction=0.7, seed=seed).to_undirected()
    attach_classification_task(graph, n_features=8, signal=0.5, seed=seed)
    return graph


def _engine(graph, flow=None, seed=0, model_type="sage", use_workspace=True,
            use_cbsr_kernels=False):
    config = GNNConfig(
        model_type=model_type, in_features=8, hidden=16, out_features=4,
        n_layers=2, nonlinearity="maxk", k=4, dropout=0.2,
        use_workspace=use_workspace, use_cbsr_kernels=use_cbsr_kernels,
    )
    return Engine(MaxKGNN(graph, config, seed=seed), graph, flow, lr=0.01)


# ----------------------------------------------------------------------
# PrefetchFlow
# ----------------------------------------------------------------------
FLOW_MAKERS = {
    "pooled": lambda: SampledFlow(sampler="node", batches_per_epoch=2,
                                  sample_size=50, pool_size=4, seed=0),
    "unpooled": lambda: SampledFlow(sampler="node", batches_per_epoch=2,
                                    sample_size=50, seed=0),
    "micro": lambda: MicroBatchedFlow(
        SampledFlow(sampler="node", batches_per_epoch=4, sample_size=30,
                    pool_size=4, seed=0), 2),
    "partitioned": lambda: PartitionedFlow(n_parts=3, seed=0),
}


class TestPrefetchDeterminism:
    @pytest.mark.parametrize("flow_name", sorted(FLOW_MAKERS))
    def test_bit_identical_losses_and_params(self, backend, flow_name):
        graph = _task_graph()

        def run(prefetch):
            flow = FLOW_MAKERS[flow_name]()
            if prefetch:
                flow = PrefetchFlow(flow, prefetch)
            engine = _engine(graph, flow)
            result = engine.fit(4, eval_every=2)
            params = [p.data.copy() for p in engine.model.parameters()]
            if prefetch:
                flow.close()
            return result, params

        base, base_params = run(0)
        ahead, ahead_params = run(4)
        assert base.train_losses == ahead.train_losses
        assert base.val_metrics == ahead.val_metrics
        for p0, p4 in zip(base_params, ahead_params):
            assert p0.tobytes() == p4.tobytes()

    def test_khop_sampler_under_prefetch(self):
        graph = _task_graph()

        def run(prefetch):
            flow = SampledFlow(sampler="khop", batches_per_epoch=2,
                               sample_size=20, fanout=4, n_hops=2, seed=0)
            if prefetch:
                flow = PrefetchFlow(flow, prefetch)
            engine = _engine(graph, flow)
            result = engine.fit(3, eval_every=3)
            if prefetch:
                flow.close()
            return result

        assert run(0).train_losses == run(2).train_losses


class _RecordingFlow(SampledFlow):
    """Remembers every batch sampled in *this* process (module-level so it
    pickles into spawn workers, whose own recordings stay with them)."""

    sampled = ()

    def _sample(self, graph, slot):
        subgraph = super()._sample(graph, slot)
        self.sampled = [*self.sampled, subgraph]
        return subgraph


class _FailsOnSlotTwo(_RecordingFlow):
    def _sample(self, graph, slot):
        if slot == 2:
            raise RuntimeError("slot two exploded")
        return super()._sample(graph, slot)


class TestPrefetchMechanics:
    @pytest.mark.parametrize("workers", BUILDERS)
    def test_failure_surfaces_at_its_own_slot(self, workers, force_procs):
        """Both builders fail in slot order: everything scheduled before
        the failed slot is delivered, the failure is raised when *its*
        slot is requested, and closing leaves nothing behind."""
        graph = _task_graph(60)
        inner = _FailsOnSlotTwo(sampler="node", batches_per_epoch=4,
                                sample_size=20, seed=0)
        flow = PrefetchFlow(inner, 2, workers=workers)
        flow.set_warm_norms(("sage",))
        stream = flow.batches(graph, 0)
        delivered = [next(stream), next(stream)]
        assert [b.n_nodes for b in delivered] == [20, 20]
        with pytest.raises(PrefetchWorkerError) as failure:
            next(stream)
        assert failure.value.slot == 2 and failure.value.epoch == 0
        assert "slot two exploded" in str(failure.value)
        flow.close()
        built = [
            matrix for subgraph in [*inner.sampled, *delivered]
            for matrix in subgraph._adj_cache.values()
        ]
        # Delivered slots were retired by the consumer, the slot built
        # ahead of the failure by close(): nothing is still registered.
        assert ops.release(built) == 0
        assert owned_segment_count() == 0
        assert not multiprocessing.active_children()

    def test_worker_errors_propagate(self):
        def broken_sampler(graph, size, seed=0):
            raise RuntimeError("sampler exploded")

        graph = _task_graph(60)
        flow = PrefetchFlow(
            SampledFlow(sampler=broken_sampler, sample_size=10, seed=0), 2
        )
        with pytest.raises(RuntimeError, match="sampler exploded"):
            list(flow.batches(graph, 0))
        flow.close()

    def test_early_abandon_does_not_wedge(self):
        graph = _task_graph(60)
        flow = PrefetchFlow(
            SampledFlow(sampler="node", batches_per_epoch=4, sample_size=20,
                        seed=0), 2)
        stream = flow.batches(graph, 0)
        next(stream)
        stream.close()  # abandon mid-epoch
        # The flow must still serve later epochs.
        assert len(list(flow.batches(graph, 5))) == 4
        flow.close()
        flow.close()  # idempotent

    def test_lookahead_builds_next_epoch(self):
        graph = _task_graph(60)
        flow = PrefetchFlow(
            SampledFlow(sampler="node", batches_per_epoch=2, sample_size=20,
                        pool_size=8, seed=0), 2)
        list(flow.batches(graph, 0))
        list(flow.batches(graph, 1))  # served from the lookahead job
        assert flow.built >= 4
        flow.close()

    def test_describe_and_make_flow(self):
        flow = make_flow("sampled", sampler="node", sample_size=10,
                         micro_batch=2, prefetch=3)
        assert isinstance(flow, PrefetchFlow)
        assert flow.describe() == "sampled/nodex1+micro2+prefetch3"
        with pytest.raises(ValueError, match="prefetch"):
            make_flow("full", prefetch=-1)
        with pytest.raises(ValueError, match="depth"):
            PrefetchFlow(SampledFlow(), -1)
        flow.close()

    def test_stale_plan_cannot_poison_fresh_pool(self):
        """A plan captures the cache instance it was scheduled against:
        building it after the flow rebound to a new graph must write into
        the dead cache, never the new graph's pool."""
        g1 = _task_graph(60, seed=1)
        g2 = _task_graph(60, seed=2)
        flow = SampledFlow(sampler="node", batches_per_epoch=1,
                           sample_size=20, pool_size=4, seed=0)
        stale = flow.plan(g1, 0)[0]
        fresh_plans = flow.plan(g2, 0)  # rebinds: swaps in a fresh cache
        fresh_cache = flow.cache
        built_stale = stale.build()
        assert len(fresh_cache) == 0  # stale build landed in the old cache
        built_fresh = fresh_plans[0].build()
        assert built_fresh is not built_stale
        assert fresh_cache.get(0) is built_fresh

    def test_cancelled_prefetch_retires_oneshot_batches(self, force_procs):
        """A consumer that abandons mid-epoch leaves nothing behind on
        either builder: batches built ahead but never consumed are still
        retired (or their warmed backend wrappers stay pinned), the flow
        keeps serving later epochs, and close() frees every resource."""
        for workers in BUILDERS:
            self._abandon_mid_epoch(workers)

    def _abandon_mid_epoch(self, workers):
        graph = _task_graph(60)
        inner = _RecordingFlow(sampler="node", batches_per_epoch=3,
                               sample_size=20, seed=0)
        flow = PrefetchFlow(inner, 2, workers=workers)
        flow.set_warm_norms(("sage", "sage^T"))
        stream = flow.batches(graph, 0)
        held = next(stream)
        stream.close()  # abandon: queued + in-flight batches are dropped
        assert len(list(flow.batches(graph, 5))) == 3  # still serves
        flow.close()    # joins the builder, so all retires have run
        # Every dropped batch's registrations were released; only the
        # batch the abandoned generator handed out may stay registered
        # (matching sequential flows, which also skip release on
        # abandonment) — and only the thread builder registers at all.
        built = [
            matrix for subgraph in inner.sampled
            for matrix in subgraph._adj_cache.values()
        ]
        held_matrices = list(held._adj_cache.values())
        assert len(held_matrices) == 2
        expected = 2 if workers == "thread" else 0
        assert ops.release(built + held_matrices) == expected
        assert owned_segment_count() == 0
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("cbsr", [False, True], ids=["spmm", "cbsr"])
    def test_engine_installs_warmer(self, backend, force_procs, cbsr):
        """The engine names its model's adjacencies once, and a prefetched
        batch arrives with exactly the matrices an inline-warmed one
        holds, whichever builder made it. ``A^T`` is among them only for
        the SpMM route's backward: the CBSR route's SSpMM reads ``A``."""
        graph = _task_graph(80)
        keys = ("sage",) if cbsr else ("sage", "sage^T")

        def inner():
            return SampledFlow(sampler="node", sample_size=30, seed=0)

        inline = next(inner().batches(graph, 0))
        for workers in BUILDERS:
            flow = PrefetchFlow(inner(), 2, workers=workers)
            engine = _engine(graph, flow, use_cbsr_kernels=cbsr)
            assert flow.warm_norms == keys
            warm_batch(inline, flow.warm_norms)
            try:
                prefetched = next(flow.batches(graph, 0))
            finally:
                engine.close()
            assert set(inline._adj_cache) == set(keys)
            assert set(prefetched._adj_cache) == set(inline._adj_cache)
            for key, matrix in inline._adj_cache.items():
                twin = prefetched._adj_cache[key]
                assert twin.data.tobytes() == matrix.data.tobytes()
                assert twin.indices.tobytes() == matrix.indices.tobytes()
            ops.release(prefetched._adj_cache.values())
        ops.release(inline._adj_cache.values())


# ----------------------------------------------------------------------
# Fused cross-entropy
# ----------------------------------------------------------------------
class TestFusedCE:
    @pytest.mark.parametrize("planned", [False, True])
    @pytest.mark.parametrize("masked", [False, True])
    def test_bitwise_matches_composed(self, backend, planned, masked):
        rng = np.random.default_rng(7)
        for trial in range(3):
            n, c = int(rng.integers(3, 40)), int(rng.integers(2, 11))
            logits = rng.normal(size=(n, c)) * (10.0 ** trial)
            labels = rng.integers(0, c, n)
            mask = (rng.random(n) < 0.6) if masked else None
            if mask is not None and not mask.any():
                mask[0] = True
            a = Tensor(logits, requires_grad=True)
            composed = cross_entropy(a, labels, mask)
            composed.backward()
            b = Tensor(logits, requires_grad=True)
            ws = Workspace() if planned else None
            fused = fused_ce(b, labels, mask, workspace=ws, slot="l")
            fused.backward()
            assert fused.data.tobytes() == composed.data.tobytes()
            assert b.grad.tobytes() == a.grad.tobytes()

    @pytest.mark.usefixtures("double_precision")
    def test_gradcheck(self, backend):
        rng = np.random.default_rng(11)
        logits = rng.normal(size=(6, 5))
        labels = rng.integers(0, 5, 6)
        mask = np.array([True, False, True, True, False, True])
        ws = Workspace()

        def loss_for(arr):
            return fused_ce(Tensor(arr), labels, mask, workspace=ws,
                            slot="g").item()

        tensor = Tensor(logits.copy(), requires_grad=True)
        fused_ce(tensor, labels, mask, workspace=ws, slot="g").backward()
        numeric = finite_difference(loss_for, logits.copy())
        np.testing.assert_allclose(tensor.grad, numeric, rtol=1e-6, atol=1e-9)

    def test_upstream_grad_scaling(self):
        rng = np.random.default_rng(13)
        logits = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, 5)
        a = Tensor(logits, requires_grad=True)
        (cross_entropy(a, labels) * 3.0).backward()
        b = Tensor(logits, requires_grad=True)
        (fused_ce(b, labels) * 3.0).backward()
        assert a.grad.tobytes() == b.grad.tobytes()

    def test_engine_fused_loss_matches_composed(self, backend):
        """The engine's (fused) training loss against the composed oracle:
        value and input gradient, bitwise, on a real model's logits."""
        graph = _task_graph()
        model = _engine(graph).model
        logits = model(np.asarray(graph.features, dtype=np.float64)).data
        grads = []
        values = []
        for fused in (True, False):
            leaf = Tensor(logits.copy(), requires_grad=True)
            loss = batch_loss(model, leaf, graph, fused)
            loss.backward()
            values.append(loss.data.tobytes())
            grads.append(leaf.grad.tobytes())
        assert values[0] == values[1]
        assert grads[0] == grads[1]


# ----------------------------------------------------------------------
# Blocked gather–scatter SpMM (vectorized backend)
# ----------------------------------------------------------------------
class TestBlockedSpMM:
    def _random_csr(self, rng, n_rows, n_cols, density):
        dense = (rng.random((n_rows, n_cols)) < density) * rng.normal(
            size=(n_rows, n_cols)
        )
        return CSRMatrix.from_dense(dense)

    @pytest.mark.usefixtures("numpy_fallback")
    def test_matches_reference_bitwise(self):
        rng = np.random.default_rng(17)
        vec = ops._REGISTRY["vectorized"]
        ref = ops._REGISTRY["reference"]
        for trial in range(8):
            n_rows = int(rng.integers(1, 40))
            n_cols = int(rng.integers(1, 30))
            dim = int(rng.integers(1, 17))
            density = float(rng.choice([0.0, 0.05, 0.3, 0.9]))
            matrix = self._random_csr(rng, n_rows, n_cols, density)
            x = rng.normal(size=(n_cols, dim))
            expected = ref.spmm_csr(matrix.indptr, matrix.indices,
                                    matrix.data, x, n_rows)
            actual = vec.spmm_csr(matrix.indptr, matrix.indices,
                                  matrix.data, x, n_rows)
            assert actual.tobytes() == expected.tobytes(), trial
            out = np.empty((n_rows, dim))
            again = vec.spmm_csr(matrix.indptr, matrix.indices, matrix.data,
                                 x, n_rows, out=out)
            assert again is out
            assert out.tobytes() == expected.tobytes(), trial

    @pytest.mark.usefixtures("numpy_fallback")
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_wide_feature_maps_match_reference_bitwise(self, dtype):
        """>= 3-D inputs ride the blocked kernel through an (n, -1) view."""
        rng = np.random.default_rng(19)
        vec = ops._REGISTRY["vectorized"]
        ref = ops._REGISTRY["reference"]
        matrix = self._random_csr(rng, 50, 40, 0.2)
        data = matrix.data.astype(dtype)
        x = rng.normal(size=(40, 4, 2)).astype(dtype)
        args = (matrix.indptr, matrix.indices, data, x, 50)
        expected = ref.spmm_csr(*args)
        blocked = vec.spmm_csr(*args)
        assert blocked.dtype == expected.dtype == dtype
        assert blocked.shape == (50, 4, 2)
        assert blocked.tobytes() == expected.tobytes()
        out = np.empty((50, 4, 2), dtype=dtype)
        assert vec.spmm_csr(*args, out=out) is out
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.usefixtures("numpy_fallback")
    def test_plan_reads_live_data_after_inplace_mutation(self):
        """Only the structural grouping is cached: in-place edits of the
        stored weights must stay visible, exactly as they are through the
        compiled loops' pinned pointers and the reference loop."""
        vec = ops._REGISTRY["vectorized"]
        matrix = CSRMatrix(
            indptr=np.array([0, 2, 3]), indices=np.array([0, 1, 1]),
            data=np.array([1.0, 2.0, 3.0]), shape=(2, 2),
        )
        x = np.ones((2, 1))
        args = (matrix.indptr, matrix.indices, matrix.data, x, 2)
        np.testing.assert_array_equal(vec.spmm_csr(*args), [[3.0], [3.0]])
        # Mutate the weights in place (same buffer identity: plan cache
        # still hits; augmented assignment would trip the frozen dataclass).
        np.multiply(matrix.data, 10.0, out=matrix.data)
        np.testing.assert_array_equal(vec.spmm_csr(*args), [[30.0], [30.0]])

    @pytest.mark.usefixtures("numpy_fallback")
    def test_direct_backend_call_with_float32_stays_float32(self):
        """The blocked path serves the dtype it is handed: scratch, result
        and accumulation follow the operands, byte-equal to the reference
        loop over the same float32 operands."""
        vec = ops._REGISTRY["vectorized"]
        ref = ops._REGISTRY["reference"]
        rng = np.random.default_rng(41)
        matrix = self._random_csr(rng, 6, 5, 0.5)
        data32 = matrix.data.astype(np.float32)
        x32 = rng.normal(size=(5, 3)).astype(np.float32)
        args = (matrix.indptr, matrix.indices, data32, x32, 6)
        got = vec.spmm_csr(*args)
        assert got.dtype == np.float32
        assert got.tobytes() == ref.spmm_csr(*args).tobytes()

    @pytest.mark.usefixtures("numpy_fallback")
    def test_plan_cache_release_and_warm(self):
        rng = np.random.default_rng(23)
        vec = ops._REGISTRY["vectorized"]
        vec.clear_cache()
        a = self._random_csr(rng, 12, 10, 0.3)
        b = self._random_csr(rng, 12, 10, 0.3)
        with ops.use_backend("vectorized"):
            x = rng.normal(size=(10, 4))
            a.matmul_dense(x)
            assert vec.cache_info()["spmm_plans"] == 1
            ops.warm([b])
            assert vec.cache_info()["spmm_plans"] == 2
            assert ops.release([a]) == 1
            assert vec.cache_info()["spmm_plans"] == 1
            assert ops.release([a]) == 0
        vec.clear_cache()
        assert vec.cache_info()["spmm_plans"] == 0

    @pytest.mark.usefixtures("numpy_fallback")
    def test_cache_limit_knob(self):
        """The plan cache never outgrows the reported (constant) limit."""
        rng = np.random.default_rng(29)
        vec = ops._REGISTRY["vectorized"]
        vec.clear_cache()
        limit = vec.cache_info()["cache_limit"]
        matrices = [self._random_csr(rng, 8, 8, 0.4) for _ in range(limit + 5)]
        try:
            vec.warm(matrices)
            assert vec.cache_info()["spmm_plans"] == limit
            # Oldest-first: the survivors are the most recently warmed.
            assert vec.release(matrices[:5]) == 0
            assert vec.release(matrices[5:]) == limit
        finally:
            vec.clear_cache()

    def test_pin_cache_limit_and_warm(self):
        if native.load() is None:
            pytest.skip("the compiled loops are not built")
        rng = np.random.default_rng(31)
        backend = ops._REGISTRY["vectorized"]
        backend.clear_cache()
        limit = backend.cache_info()["cache_limit"]
        matrices = [self._random_csr(rng, 8, 8, 0.4) for _ in range(limit + 4)]
        try:
            backend.warm(matrices)
            assert backend.cache_info()["csr_entries"] == limit
        finally:
            backend.clear_cache()

    def test_float_topk_mask_matches_bool(self, backend):
        rng = np.random.default_rng(37)
        ws = Workspace()
        for trial in range(4):
            x = rng.normal(size=(9, 8))
            x[trial % 9] = np.repeat(rng.normal(), 8)  # heavy ties
            for k in (1, 3, 8):
                expected = ops.topk_mask(x, k)
                out = np.empty((9, 8), dtype=ops.FLOAT_DTYPE)
                got = ops.topk_mask(x, k, out=out, workspace=ws, slot="f")
                assert got is out
                np.testing.assert_array_equal(out, expected.astype(out.dtype))
                assert set(np.unique(out)) <= {0.0, 1.0}


# ----------------------------------------------------------------------
# Fused GIN path
# ----------------------------------------------------------------------
class TestFusedGIN:
    @pytest.mark.parametrize("nonlinearity,k", [("maxk", 4), ("relu", None),
                                                ("none", None)])
    def test_bit_identical_to_composed(self, backend, nonlinearity, k):
        graph = _task_graph(100, seed=5)

        def run(use_workspace):
            config = GNNConfig(
                model_type="gin", in_features=8, hidden=16, out_features=4,
                n_layers=2, nonlinearity=nonlinearity, k=k, dropout=0.2,
                use_workspace=use_workspace,
            )
            return Engine(MaxKGNN(graph, config, seed=0), graph,
                          lr=0.01).fit(4, eval_every=2)

        fused = run(True)
        composed = run(False)
        assert fused.train_losses == composed.train_losses
        assert fused.val_metrics == composed.val_metrics
        assert np.isfinite(fused.train_losses).all()

    def test_gin_workspace_allocations_flat(self):
        graph = _task_graph(100, seed=5)
        config = GNNConfig(
            model_type="gin", in_features=8, hidden=16, out_features=4,
            n_layers=2, nonlinearity="maxk", k=4, dropout=0.2,
        )
        engine = Engine(MaxKGNN(graph, config, seed=0), graph, lr=0.01)
        engine.fit(3, eval_every=3)
        workspace = engine.model.workspace
        settled = workspace.allocations
        engine.fit(4, eval_every=4)
        assert workspace.allocations == settled
