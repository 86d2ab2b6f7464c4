"""Tests for the unified training engine and its data-flow strategies."""

import numpy as np
import pytest

from repro.graphs import attach_classification_task, sbm_graph
from repro.models import GNNConfig, MaxKGNN
from repro.training import (
    Engine,
    FullGraphFlow,
    PartitionedFlow,
    SampledFlow,
    SubgraphCache,
    make_flow,
)
from repro.training.schedulers import EarlyStopping


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


def make_engine(graph, flow=None, seed=0, **kwargs):
    model = MaxKGNN(graph, maxk_config(), seed=seed)
    return Engine(model, graph, flow, lr=0.01, **kwargs)


class TestEngineFullFlow:
    def test_default_flow_is_full(self, graph):
        engine = make_engine(graph)
        assert engine.flow.name == "full"
        result = engine.fit(3, eval_every=2)
        assert result.flow == "full"
        assert len(result.train_losses) == 3
        assert result.batch_sizes == [graph.n_nodes] * 3

    def test_full_graph_is_a_one_entry_schedule(self, graph):
        """The graph itself is the only plan, so wrappers that enumerate
        the schedule replay the plain full-batch run bit for bit."""
        from repro.training import DistributedFlow, MicroBatchedFlow

        assert FullGraphFlow().plan(graph, 0)[0].build() is graph

        def losses(flow):
            return make_engine(graph, flow).fit(4, eval_every=2).train_losses

        plain = losses(FullGraphFlow())
        assert losses(MicroBatchedFlow(FullGraphFlow(), 2)) == plain
        assert losses(DistributedFlow(FullGraphFlow(), 1)) == plain
        assert type(make_flow("full", prefetch=2)) is FullGraphFlow

    def test_learns_above_chance(self, graph):
        result = make_engine(graph).fit(40, eval_every=10)
        assert result.test_at_best_val > 1.0 / 4

    def test_early_stopping_halts(self, graph):
        engine = make_engine(
            graph, early_stopping=EarlyStopping(patience=1, min_delta=1.0)
        )
        result = engine.fit(50, eval_every=1)
        # An unreachable min_delta stalls immediately: stop on 2nd eval.
        assert len(result.val_metrics) == 2

    def test_validation(self, graph):
        engine = make_engine(graph)
        with pytest.raises(ValueError):
            engine.fit(0)
        with pytest.raises(ValueError):
            engine.fit(5, eval_every=0)
        with pytest.raises(ValueError):
            engine.fit(5, steps_per_batch=0)
        bare = sbm_graph(30, 2, 4.0, seed=0)
        with pytest.raises(ValueError, match="features and labels"):
            Engine(MaxKGNN(graph, maxk_config(), seed=0), bare)


class TestEngineSampledFlow:
    def test_trains_and_records_batches(self, graph):
        flow = SampledFlow(sampler="node", batches_per_epoch=3,
                           sample_size=60, seed=0)
        result = make_engine(graph, flow).fit(6, eval_every=3)
        assert result.flow == "sampled/nodex3"
        assert len(result.train_losses) == 6
        assert len(result.batch_losses) == 18
        assert all(size == 60 for size in result.batch_sizes)

    def test_batches_deterministic_per_slot(self, graph):
        a = SampledFlow(sampler="node", sample_size=50, seed=3)
        b = SampledFlow(sampler="node", sample_size=50, seed=3)
        sub_a = list(a.batches(graph, epoch=0))[0]
        sub_b = list(b.batches(graph, epoch=0))[0]
        np.testing.assert_array_equal(sub_a.features, sub_b.features)

    def test_pool_recycles_subgraphs(self, graph):
        flow = SampledFlow(sampler="node", sample_size=50, seed=0,
                           pool_size=2)
        first = [list(flow.batches(graph, e))[0] for e in range(2)]
        second = [list(flow.batches(graph, e))[0] for e in range(2, 4)]
        assert first[0] is second[0] and first[1] is second[1]
        assert flow.cache.hits == 2

    def test_eviction_releases_only_evicted_graph(self, graph, monkeypatch):
        released = []

        class _Spy:
            def release(self, matrices):
                matrices = list(matrices)
                released.append(matrices)
                return len(matrices)

        import repro.training.dataflow as dataflow

        monkeypatch.setattr(dataflow, "get_backend", lambda: _Spy())
        cache = SubgraphCache(2)
        seen = []
        flow = SampledFlow(sampler="node", sample_size=40, seed=0)
        for slot in range(5):
            subgraph = flow._sample(graph, slot)
            subgraph.adjacency("sage")
            cache.put(slot, subgraph)
            seen.append(subgraph)
        assert cache.evictions == 3
        assert len(released) == 3
        # Each release passes the evicted subgraph's cached CSRs, nothing
        # else (surviving slots and the full graph stay warm).
        for matrices, evicted in zip(released, seen):
            assert all(any(m is c for c in evicted._adj_cache.values())
                       for m in matrices)

    def test_eviction_keeps_survivors_warm(self, graph):
        """End to end: evicting one slot drops only its pins."""
        from repro.sparse import native, ops

        if native.load() is None:
            pytest.skip("the compiled loops are not built")
        with ops.use_backend("vectorized"):
            backend = ops.get_backend()
            backend.clear_cache()
            flow = SampledFlow(sampler="node", sample_size=40, seed=0)
            cache = SubgraphCache(2)
            engine = make_engine(graph, flow)
            engine.evaluate()  # registers the full graph's wrappers
            for slot in range(3):
                subgraph = flow._sample(graph, slot)
                engine.train_batch(subgraph)
                cache.put(slot, subgraph)
            # The full graph's wrappers must have survived the evictions.
            full_keys = [
                (id(m.indptr), id(m.indices), id(m.data))
                for m in graph._adj_cache.values()
            ]
            assert cache.evictions > 0 and cache.released > 0
            assert any(key in backend._csr_cache for key in full_keys)

    def test_cache_resets_on_new_graph(self, graph):
        """Pooled slots are per-graph: switching graphs must not serve
        subgraphs sampled from the previous one."""
        other = sbm_graph(120, 3, 6.0, seed=5).to_undirected()
        attach_classification_task(other, n_features=8, seed=5)
        flow = SampledFlow(sampler="node", sample_size=40, seed=0,
                           pool_size=2)
        from_first = list(flow.batches(graph, 0))[0]
        from_second = list(flow.batches(other, 0))[0]
        assert from_first is not from_second
        assert from_second.n_nodes == 40
        # Reusing slot 0 on the new graph serves the new graph's subgraph.
        assert list(flow.batches(other, 0))[0] is from_second

    def test_unpooled_stream_bypasses_cache(self, graph):
        flow = SampledFlow(sampler="node", sample_size=40, seed=0)
        for epoch in range(5):
            list(flow.batches(graph, epoch))
        assert len(flow.cache) == 0
        assert flow.cache.evictions == 0

    def test_cache_defaults_to_pool_size(self):
        assert SampledFlow(pool_size=16).cache.capacity == 16
        assert SampledFlow().cache.capacity == 8

    def test_khop_flow_trains(self, graph):
        flow = SampledFlow(sampler="khop", batches_per_epoch=2,
                           sample_size=20, n_hops=2, fanout=4, seed=0)
        result = make_engine(graph, flow).fit(4, eval_every=2)
        assert len(result.batch_losses) == 8
        assert all(size >= 1 for size in result.batch_sizes)

    def test_walk_and_edge_flows_train(self, graph):
        for sampler in ("walk", "edge"):
            flow = SampledFlow(sampler=sampler, sample_size=40, seed=0)
            result = make_engine(graph, flow).fit(2, eval_every=1)
            assert len(result.batch_losses) == 2

    def test_custom_callable_sampler(self, graph):
        from repro.graphs import node_sampler

        flow = SampledFlow(sampler=node_sampler, sample_size=45, seed=0)
        result = make_engine(graph, flow).fit(2, eval_every=1)
        assert all(size == 45 for size in result.batch_sizes)

    def test_validation(self):
        with pytest.raises(ValueError):
            SampledFlow(sampler="bogus")
        with pytest.raises(ValueError):
            SampledFlow(batches_per_epoch=0)
        with pytest.raises(ValueError):
            SampledFlow(sample_size=0)
        with pytest.raises(ValueError):
            SampledFlow(pool_size=0)
        with pytest.raises(ValueError):
            SubgraphCache(0)


class TestEnginePartitionedFlow:
    def test_visits_every_part(self, graph):
        flow = PartitionedFlow(n_parts=3, boundary_fraction=0.3, seed=0)
        batches = list(flow.batches(graph, epoch=0))
        assert len(batches) == 3
        covered = sum(b.n_nodes for b in batches)
        assert covered >= graph.n_nodes  # halos overlap the interiors

    def test_partition_computed_once(self, graph):
        flow = PartitionedFlow(n_parts=3, seed=0)
        assert flow.partition_for(graph) is flow.partition_for(graph)

    def test_trains_above_chance(self, graph):
        flow = PartitionedFlow(n_parts=3, boundary_fraction=0.3, seed=0)
        result = make_engine(graph, flow).fit(
            4, eval_every=4, steps_per_batch=4
        )
        assert result.final_test > 1.0 / 4
        assert len(result.batch_losses) == 12

    def test_validation(self):
        with pytest.raises(ValueError):
            PartitionedFlow(n_parts=0)
        with pytest.raises(ValueError):
            PartitionedFlow(n_parts=2, boundary_fraction=1.5)


class TestMakeFlow:
    def test_builds_each_flow(self):
        assert make_flow("full").name == "full"
        assert make_flow("sampled", sampler="node").name == "sampled"
        assert make_flow("partitioned", n_parts=2).name == "partitioned"

    def test_unknown_flow_rejected(self):
        with pytest.raises(ValueError, match="unknown flow"):
            make_flow("streamed")


class TestModelRebinding:
    def test_bind_graph_preserves_parameters(self, graph):
        model = MaxKGNN(graph, maxk_config(), seed=0)
        before = [p.data.copy() for p in model.parameters()]
        sub_nodes = np.arange(0, graph.n_nodes, 2)
        from repro.graphs import induced_subgraph

        subgraph = induced_subgraph(graph, sub_nodes)
        model.bind_graph(subgraph)
        for old, new in zip(before, model.parameters()):
            np.testing.assert_array_equal(old, new.data)
        logits = model(np.asarray(subgraph.features, dtype=np.float64))
        assert logits.shape == (subgraph.n_nodes, 4)
        model.bind_graph(graph)
        assert model(np.asarray(graph.features, dtype=np.float64)).shape == (
            graph.n_nodes, 4,
        )

    def test_optimizer_state_survives_flow_switch(self, graph):
        """One Adam trajectory spans full and sampled batches."""
        engine = make_engine(graph, SampledFlow("node", sample_size=60, seed=0))
        engine.fit(3, eval_every=3)
        t_before = engine.optimizer._t
        engine.flow = FullGraphFlow()
        engine.fit(2, eval_every=2)
        assert engine.optimizer._t == t_before + 2


class TestCliTrain:
    def test_train_command_full(self, capsys):
        from repro.cli import main

        assert main(["train", "--dataset", "Flickr", "--epochs", "3"]) == 0
        out = capsys.readouterr().out
        assert "flow         full" in out

    def test_train_command_sampled(self, capsys):
        from repro.cli import main

        assert main([
            "train", "--dataset", "Flickr", "--epochs", "3",
            "--flow", "sampled", "--sampler", "node",
            "--batches-per-epoch", "2", "--sample-size", "150",
            "--pool-size", "4",
        ]) == 0
        assert "sampled/nodex2" in capsys.readouterr().out

    def test_train_command_micro_batched(self, capsys):
        from repro.cli import main

        assert main([
            "train", "--dataset", "Flickr", "--epochs", "2",
            "--flow", "sampled", "--sampler", "node",
            "--batches-per-epoch", "4", "--sample-size", "80",
            "--pool-size", "4", "--micro-batch", "2",
        ]) == 0
        assert "sampled/nodex4+micro2" in capsys.readouterr().out

    def test_train_command_partitioned(self, capsys):
        from repro.cli import main

        assert main([
            "train", "--dataset", "Flickr", "--epochs", "3",
            "--flow", "partitioned", "--n-parts", "2",
        ]) == 0
        assert "partitioned/2" in capsys.readouterr().out


class TestMicroBatchedFlow:
    def test_merges_groups_and_trains(self, graph):
        from repro.training import MicroBatchedFlow

        inner = SampledFlow(sampler="node", batches_per_epoch=4,
                            sample_size=30, pool_size=4, seed=0)
        flow = MicroBatchedFlow(inner, 2)
        assert flow.describe() == "sampled/nodex4+micro2"
        result = make_engine(graph, flow).fit(3, eval_every=3)
        # 4 inner batches per epoch -> 2 merged steps per epoch.
        assert len(result.batch_losses) == 6
        assert all(size == 60 for size in result.batch_sizes)
        assert result.final_test > 0

    def test_merged_graphs_are_block_diagonal_unions(self, graph):
        from repro.training import MicroBatchedFlow

        inner = SampledFlow(sampler="node", batches_per_epoch=2,
                            sample_size=25, pool_size=2, seed=0)
        flow = MicroBatchedFlow(inner, 2)
        members = list(inner.batches(graph, 0))
        merged = list(flow.batches(graph, 0))[0]
        assert merged.n_nodes == sum(m.n_nodes for m in members)
        assert merged.n_edges == sum(m.n_edges for m in members)
        np.testing.assert_array_equal(
            merged.features,
            np.concatenate([np.asarray(m.features) for m in members]),
        )

    def test_merge_cache_serves_pooled_repeats(self, graph):
        from repro.training import MicroBatchedFlow

        inner = SampledFlow(sampler="node", batches_per_epoch=2,
                            sample_size=25, pool_size=2, seed=0)
        flow = MicroBatchedFlow(inner, 2)
        first = list(flow.batches(graph, 0))[0]
        second = list(flow.batches(graph, 1))[0]  # same pooled slots
        assert second is first
        assert flow._merged.hits == 1 and flow._merged.misses == 1

    def test_trailing_partial_group_still_trains(self, graph):
        from repro.training import MicroBatchedFlow

        inner = SampledFlow(sampler="node", batches_per_epoch=3,
                            sample_size=25, pool_size=3, seed=0)
        flow = MicroBatchedFlow(inner, 2)
        merged = list(flow.batches(graph, 0))
        assert [m.n_nodes for m in merged] == [50, 25]

    def test_make_flow_micro_batch_wrapping(self):
        from repro.training import MicroBatchedFlow
        from repro.training.dataflow import make_flow

        flow = make_flow("sampled", micro_batch=3, sampler="node")
        assert isinstance(flow, MicroBatchedFlow) and flow.size == 3
        assert make_flow("sampled", sampler="node").name == "sampled"
        with pytest.raises(ValueError):
            make_flow("sampled", micro_batch=0)

    def test_validation(self):
        from repro.training import MicroBatchedFlow

        with pytest.raises(ValueError):
            MicroBatchedFlow(SampledFlow(), 0)

    def test_bitwise_equal_to_manual_batching(self, graph):
        """One merged step equals training on the explicit disjoint union."""
        from repro.graphs import batch_graphs
        from repro.training import MicroBatchedFlow

        inner = SampledFlow(sampler="node", batches_per_epoch=2,
                            sample_size=30, pool_size=2, seed=0)
        members = list(inner.batches(graph, 0))
        manual = batch_graphs(members)

        engine_a = make_engine(graph, MicroBatchedFlow(inner, 2), seed=0)
        loss_a = engine_a.train_epoch(0)

        class _Fixed:
            name = "fixed"

            def batches(self, _graph, _epoch):
                yield manual

            def describe(self):
                return "fixed"

        engine_b = make_engine(graph, _Fixed(), seed=0)
        loss_b = engine_b.train_epoch(0)
        assert loss_a == loss_b


class TestSampledFlowSizeHeuristics:
    """The labelled-coverage floor of the default batch size (Yelp masks)."""

    def _multilabel_graph(self, rare_rate=0.02, train_fraction=0.25, seed=0):
        rng = np.random.default_rng(seed)
        graph = sbm_graph(200, 4, 6.0, seed=seed).to_undirected()
        from repro.graphs import attach_multilabel_task

        attach_multilabel_task(graph, n_features=6, n_labels=3, seed=seed)
        # Plant a rare label column and a sparse training mask.
        labels = np.asarray(graph.labels)
        labels[:, 2] = rng.random(graph.n_nodes) < rare_rate
        mask = rng.random(graph.n_nodes) < train_fraction
        mask[np.where(labels[:, 2])[0][:1]] = True  # keep it learnable
        graph.labels = labels
        graph.train_mask = mask
        return graph

    def test_explicit_sample_size_is_honoured(self, graph):
        flow = SampledFlow(sampler="node", sample_size=7)
        assert flow._size(graph) == 7

    def test_single_label_floor_covers_training_mask(self, graph):
        sparse = sbm_graph(200, 4, 6.0, seed=1).to_undirected()
        attach_classification_task(sparse, n_features=6, seed=1)
        mask = np.zeros(200, dtype=bool)
        mask[:10] = True  # 5% labelled
        sparse.train_mask = mask
        flow = SampledFlow(sampler="node", batches_per_epoch=50)
        # Old heuristic: 200 // 100 = 2 nodes; the floor lifts it to the
        # expected-one-training-node size of 1 / 0.05 = 20.
        assert flow._size(sparse) == 20

    def test_multilabel_floor_uses_rarest_label(self):
        graph = self._multilabel_graph()
        flow = SampledFlow(sampler="node", batches_per_epoch=50)
        rate = (
            np.asarray(graph.labels)
            * np.asarray(graph.train_mask)[:, None]
        ).mean(axis=0)
        expected = int(np.ceil(1.0 / rate[rate > 0].min()))
        assert flow._size(graph) == min(graph.n_nodes, expected)
        assert flow._size(graph) > 200 // 100

    def test_floor_caches_per_graph(self, graph):
        flow = SampledFlow(sampler="node")
        assert flow._size(graph) == flow._size(graph)
        assert flow._floor_graph is graph

    def test_unlabelled_graph_keeps_plain_heuristic(self):
        plain = sbm_graph(100, 3, 5.0, seed=2).to_undirected()
        flow = SampledFlow(sampler="node", batches_per_epoch=2)
        assert flow._size(plain) == 25

    def test_sampled_flow_trains_multilabel_without_nan_epochs(self):
        """Regression: Yelp-style masks with many small default batches."""
        graph = self._multilabel_graph()
        flow = SampledFlow(sampler="node", batches_per_epoch=6, seed=0,
                           pool_size=6)
        config = GNNConfig(
            model_type="sage", in_features=6, hidden=8,
            out_features=int(np.asarray(graph.labels).shape[1]), n_layers=2,
            nonlinearity="maxk", k=2,
        )
        engine = Engine(MaxKGNN(graph, config, seed=0), graph, flow, lr=0.01)
        result = engine.fit(4, eval_every=2)
        assert np.isfinite(result.train_losses).all()
        assert len(result.batch_losses) >= 4


class TestCacheReleaseOnReset:
    def test_graph_switch_releases_old_pool(self, graph, monkeypatch):
        released = []

        class _Spy:
            def release(self, matrices):
                matrices = list(matrices)
                released.append(matrices)
                return len(matrices)

        import repro.training.dataflow as dataflow

        monkeypatch.setattr(dataflow, "get_backend", lambda: _Spy())
        flow = SampledFlow(sampler="node", batches_per_epoch=2,
                           sample_size=40, seed=0, pool_size=2)
        list(flow.batches(graph, 0))
        assert len(flow.cache) == 2
        other = sbm_graph(100, 3, 6.0, seed=7).to_undirected()
        attach_classification_task(other, n_features=8, seed=7)
        list(flow.batches(other, 0))
        # Both of the abandoned pool's subgraphs were released.
        assert len(released) >= 2

    def test_micro_flow_releases_merged_on_graph_switch(self, graph,
                                                        monkeypatch):
        released = []

        class _Spy:
            def release(self, matrices):
                released.append(list(matrices))
                return 0

        import repro.training.dataflow as dataflow

        from repro.training import MicroBatchedFlow

        inner = SampledFlow(sampler="node", batches_per_epoch=2,
                            sample_size=25, pool_size=2, seed=0)
        flow = MicroBatchedFlow(inner, 2)
        list(flow.batches(graph, 0))
        assert len(flow._merged) == 1
        monkeypatch.setattr(dataflow, "get_backend", lambda: _Spy())
        other = sbm_graph(100, 3, 6.0, seed=7).to_undirected()
        attach_classification_task(other, n_features=8, seed=7)
        list(flow.batches(other, 0))
        # The old parent graph's merged union was dropped and released.
        assert released and len(flow._merged) == 1

    def test_unpooled_stream_releases_each_batch(self, graph, monkeypatch):
        released = []

        class _Spy:
            def release(self, matrices):
                released.append(list(matrices))
                return 0

        import repro.training.dataflow as dataflow

        monkeypatch.setattr(dataflow, "get_backend", lambda: _Spy())
        flow = SampledFlow(sampler="node", batches_per_epoch=3,
                           sample_size=40, seed=0)  # pool_size=None
        for epoch in range(2):
            for subgraph in flow.batches(graph, epoch):
                subgraph.adjacency("sage")  # simulate one training step
        # Every one-shot subgraph was released right after its step.
        assert len(released) == 6
