"""Live graph mutation: incremental CSR deltas + generation-bumped serving.

The contract under test, layer by layer:

* ``merge_csr_delta`` / ``apply_delta`` produce CSR buffers **bit-identical**
  to a from-scratch rebuild of the mutated edge list (fuzz-asserted on every
  registered backend, all three normalisations plus transposes);
* every graph-derived cache — adjacency, transpose, structural bases,
  the edge index, backend SpMM plans — invalidates on the
  ``generation`` bump, so nothing downstream ever reads pre-delta structure;
* the serving layer mutates **live**: in-flight requests are served
  bit-identical to their admission-time graph, repeated queries miss the
  cache on the new generation and match a fresh-graph oracle bit for bit,
  executors are re-attached to the re-exported shared segments (same pids —
  re-attach, not restart), and a stale ``SharedGraphHandle`` attach raises
  ``StaleHandleError`` naming the segment.
"""

import multiprocessing

import numpy as np
import pytest

from repro.graphs import (
    Graph,
    GraphDelta,
    apply_delta,
    attach_classification_task,
    induced_subgraph,
    khop_neighborhood,
    merge_csr_delta,
    owned_segment_count,
    sbm_graph,
)
from repro.graphs.generators import erdos_renyi_graph, rmat_graph
from repro.graphs.shm import SharedGraphStore, StaleHandleError
from repro.models import GNNConfig, MaxKGNN
from repro.serving import InferenceService, ServiceConfig
from repro.sparse import CSRMatrix, coo_to_csr, ops
from tests.test_partition_sampling import (
    assert_expansion_matches_oracle,
    assert_same_graph,
    messy_graph,
    node_sets,
    reference_induced_subgraph,
)

SEEDS = [0, 1, 2]


def _bitwise_equal(a: CSRMatrix, b: CSRMatrix) -> bool:
    return (
        a.shape == b.shape
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and a.data.dtype == b.data.dtype
        and a.data.tobytes() == b.data.tobytes()
    )


def _random_graph(trial: int, rng) -> Graph:
    n = int(rng.integers(6, 60))
    maker = trial % 3
    if maker == 0:
        return erdos_renyi_graph(n, avg_degree=4.0, seed=trial)
    if maker == 1:
        return rmat_graph(n, n_edges=4 * n, seed=trial)
    return sbm_graph(n, 3, 5.0, seed=trial)


def _random_delta(graph: Graph, rng) -> GraphDelta:
    add_nodes = int(rng.integers(0, 4))
    new_n = graph.n_nodes + add_nodes
    n_add = int(rng.integers(0, 20))
    n_rm = int(rng.integers(0, 12))
    if graph.n_edges and n_rm:
        # Half real edges (some repeated), half random pairs that may or
        # may not exist — removal of a missing pair must be a no-op.
        pick = rng.integers(0, graph.n_edges, n_rm // 2)
        rm_src = np.concatenate(
            [graph.src[pick], rng.integers(0, graph.n_nodes, n_rm - n_rm // 2)]
        )
        rm_dst = np.concatenate(
            [graph.dst[pick], rng.integers(0, graph.n_nodes, n_rm - n_rm // 2)]
        )
    else:
        rm_src = rm_dst = np.empty(0, np.int64)
    return GraphDelta(
        add_src=rng.integers(0, new_n, n_add),
        add_dst=rng.integers(0, new_n, n_add),
        remove_src=rm_src,
        remove_dst=rm_dst,
        add_nodes=add_nodes,
        detach_nodes=rng.choice(
            graph.n_nodes, size=int(rng.integers(0, 3)), replace=False
        ),
    )


def _index_deltas(graph: Graph, rng):
    """Chained deltas over ``graph``'s state at the time each is taken:
    multi-edges removed by one listed pair, self-loops, listed pairs that
    do not exist, new node ids that receive edges, detached nodes (one of
    them an add endpoint), an empty delta, a delta removing every edge,
    and adds onto the emptied graph. Features are 3 wide (``messy_graph``).
    """
    def picks(count):
        chosen = rng.integers(0, max(graph.n_edges, 1),
                              min(graph.n_edges, count))
        if graph.n_edges >= 8:  # messy_graph: [0] is a multi-edge, [-1] a loop
            chosen = np.concatenate([chosen, [0, graph.n_edges - 1]])
        return chosen

    n, picked = graph.n_nodes, picks(5)
    yield GraphDelta(
        add_src=np.concatenate([rng.integers(0, n + 2, 9), [n + 1, 2, n]]),
        add_dst=np.concatenate([rng.integers(0, n + 2, 9), [n, 2, n]]),
        remove_src=np.concatenate([graph.src[picked], rng.integers(0, n, 3)]),
        remove_dst=np.concatenate([graph.dst[picked], rng.integers(0, n, 3)]),
        add_nodes=2, add_features=rng.normal(size=(2, 3)),
    )
    n = graph.n_nodes
    detached = rng.choice(n, size=2, replace=False)
    yield GraphDelta(
        add_src=[detached[0], 0, detached[0]], add_dst=[1, detached[0], 0],
        detach_nodes=detached,
    )
    yield GraphDelta()
    picked = picks(4)
    yield GraphDelta(
        add_src=rng.integers(0, n, 6), add_dst=rng.integers(0, n, 6),
        remove_src=graph.src[picked], remove_dst=graph.dst[picked],
        detach_nodes=[int(rng.integers(0, n))],
    )
    yield GraphDelta(remove_src=graph.src, remove_dst=graph.dst)
    yield GraphDelta(
        add_src=rng.integers(0, n + 1, 7), add_dst=rng.integers(0, n + 1, 7),
        add_nodes=1, add_features=rng.normal(size=(1, 3)),
    )


# ----------------------------------------------------------------------
# Low-level merge
# ----------------------------------------------------------------------
class TestMergeCsrDelta:
    def test_pure_insert_matches_coo_build(self):
        base = coo_to_csr([0, 2], [1, 0], [1.0, 1.0], (3, 3))
        merged = merge_csr_delta(
            base, (3, 3), np.array([1, 0]), np.array([2, 0]),
            np.ones(2), np.empty(0, np.int64),
        )
        oracle = coo_to_csr([0, 2, 1, 0], [1, 0, 2, 0], np.ones(4), (3, 3))
        assert _bitwise_equal(merged, oracle)

    def test_colliding_insert_sums_counts(self):
        base = coo_to_csr([0, 0], [1, 1], [1.0, 1.0], (2, 2))  # entry = 2.0
        merged = merge_csr_delta(
            base, (2, 2), np.array([0]), np.array([1]),
            np.ones(1), np.empty(0, np.int64),
        )
        assert merged.nnz == 1
        assert merged.data[0] == 3.0

    def test_delete_drops_whole_entry(self):
        base = coo_to_csr([0, 1], [1, 0], [2.0, 1.0], (2, 2))
        merged = merge_csr_delta(
            base, (2, 2), np.empty(0, np.int64), np.empty(0, np.int64),
            np.empty(0), np.array([0 * 2 + 1]),
        )
        assert merged.nnz == 1
        assert merged.indices[0] == 0

    def test_shape_growth_appends_empty_rows(self):
        base = coo_to_csr([0], [0], [1.0], (1, 1))
        merged = merge_csr_delta(
            base, (3, 3), np.empty(0, np.int64), np.empty(0, np.int64),
            np.empty(0), np.empty(0, np.int64),
        )
        assert merged.shape == (3, 3)
        assert list(merged.indptr) == [0, 1, 1, 1]

    def test_shrinking_shape_is_rejected(self):
        base = coo_to_csr([1], [1], [1.0], (2, 2))
        with pytest.raises(ValueError, match="shrink"):
            merge_csr_delta(
                base, (1, 1), np.empty(0, np.int64), np.empty(0, np.int64),
                np.empty(0), np.empty(0, np.int64),
            )


# ----------------------------------------------------------------------
# Delta validation
# ----------------------------------------------------------------------
class TestGraphDeltaValidation:
    def test_mismatched_add_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            GraphDelta(add_src=[0, 1], add_dst=[0])

    def test_negative_add_nodes_rejected(self):
        with pytest.raises(ValueError, match="add_nodes"):
            GraphDelta(add_nodes=-1)

    def test_out_of_range_endpoints_rejected(self):
        graph = erdos_renyi_graph(5, avg_degree=2.0, seed=0)
        with pytest.raises(ValueError, match="add_src"):
            apply_delta(graph, GraphDelta(add_src=[7], add_dst=[0]))
        with pytest.raises(ValueError, match="remove_src"):
            apply_delta(graph, GraphDelta(remove_src=[5], remove_dst=[0]))
        with pytest.raises(ValueError, match="detach_nodes"):
            apply_delta(graph, GraphDelta(detach_nodes=[5]))

    def test_new_edge_may_reference_new_node(self):
        graph = erdos_renyi_graph(5, avg_degree=2.0, seed=0)
        apply_delta(graph, GraphDelta(add_src=[5], add_dst=[0], add_nodes=1))
        assert graph.n_nodes == 6
        assert 5 in graph.src

    def test_featureful_graph_requires_add_features(self):
        graph = sbm_graph(30, 3, 4.0, seed=0)
        attach_classification_task(graph, n_features=4, seed=0)
        with pytest.raises(ValueError, match="add_features"):
            apply_delta(graph, GraphDelta(add_nodes=2))
        with pytest.raises(ValueError, match="shape"):
            apply_delta(
                graph,
                GraphDelta(add_nodes=2, add_features=np.zeros((2, 3))),
            )

    def test_rejected_delta_leaves_graph_untouched(self):
        graph = sbm_graph(30, 3, 4.0, seed=0)
        attach_classification_task(graph, n_features=4, seed=0)
        graph.adjacency("sage")
        indexes = {d: graph.edge_index(d) for d in ("in", "out")}
        arrays = {"src": graph.src, "dst": graph.dst, **graph.node_arrays()}
        saved = {name: array.copy() for name, array in arrays.items()}
        adjacencies = dict(graph.built_adjacencies())
        bad_deltas = [
            GraphDelta(add_src=[30], add_dst=[0], add_nodes=2,
                       add_features=np.zeros((2, 4)), add_labels=np.zeros(3)),
            GraphDelta(add_src=[30], add_dst=[0], add_nodes=2,
                       remove_src=graph.src[:3], remove_dst=graph.dst[:3],
                       add_features=np.zeros((2, 4)),
                       add_labels=["not", "labels"]),
            GraphDelta(add_src=[32], add_dst=[0], add_nodes=2,
                       add_features=np.zeros((2, 4))),
        ]
        for delta in bad_deltas:
            with pytest.raises(ValueError):
                apply_delta(graph, delta)
            assert graph.n_nodes == 30 and graph.generation == 0
            for name, array in arrays.items():
                assert getattr(graph, name) is array, name
                assert array.tobytes() == saved[name].tobytes(), name
            assert dict(graph.built_adjacencies()) == adjacencies
            for key, csr in adjacencies.items():
                assert graph.built_adjacencies()[key] is csr
            for direction, index in indexes.items():
                assert graph.edge_index(direction) is index

    def test_labels_for_a_graph_without_labels_rejected(self):
        graph = erdos_renyi_graph(5, avg_degree=2.0, seed=0)
        with pytest.raises(ValueError, match="add_labels"):
            apply_delta(graph, GraphDelta(add_nodes=1, add_labels=[0]))
        assert graph.n_nodes == 5 and graph.generation == 0

    def test_empty_delta_still_bumps_generation(self):
        graph = erdos_renyi_graph(5, avg_degree=2.0, seed=0)
        before = graph.adjacency("none")
        apply_delta(graph, GraphDelta())
        assert graph.generation == 1
        assert _bitwise_equal(graph.adjacency("none"), before)


# ----------------------------------------------------------------------
# Bit-identity fuzz: incremental merge vs from-scratch rebuild
# ----------------------------------------------------------------------
class TestApplyDeltaBitIdentity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_fuzz_matches_fresh_rebuild(self, backend, seed):
        rng = np.random.default_rng(seed)
        for trial in range(8):
            graph = _random_graph(trial + 10 * seed, rng)
            for norm in ("none", "sage", "gcn"):
                graph.adjacency(norm)
                graph.adjacency_transpose(norm)
            delta = _random_delta(graph, rng)
            apply_delta(graph, delta)
            oracle = Graph(
                n_nodes=graph.n_nodes, src=graph.src.copy(),
                dst=graph.dst.copy(),
            )
            for norm in ("none", "sage", "gcn"):
                assert _bitwise_equal(
                    graph.adjacency(norm), oracle.adjacency(norm)
                ), f"trial {trial} norm {norm}"
                assert _bitwise_equal(
                    graph.adjacency_transpose(norm),
                    oracle.adjacency_transpose(norm),
                ), f"trial {trial} norm {norm} transpose"

    @pytest.mark.parametrize("seed", SEEDS)
    def test_chained_deltas_stay_identical(self, seed):
        rng = np.random.default_rng(100 + seed)
        graph = _random_graph(seed, rng)
        graph.adjacency("gcn")
        for step in range(4):
            apply_delta(graph, _random_delta(graph, rng))
            assert graph.generation == step + 1
        oracle = Graph(
            n_nodes=graph.n_nodes, src=graph.src.copy(), dst=graph.dst.copy()
        )
        for norm in ("none", "sage", "gcn"):
            assert _bitwise_equal(graph.adjacency(norm), oracle.adjacency(norm))

    def test_spmm_after_delta_matches_oracle(self, backend):
        rng = np.random.default_rng(5)
        graph = sbm_graph(50, 3, 5.0, seed=5)
        features = rng.normal(size=(graph.n_nodes, 6))
        adj = graph.adjacency("sage")
        adj.matmul_dense(features)  # warm backend plans on the old buffers
        apply_delta(graph, _random_delta(graph, rng))
        if graph.n_nodes > 50:
            features = np.vstack(
                [features, rng.normal(size=(graph.n_nodes - 50, 6))]
            )
        oracle = Graph(
            n_nodes=graph.n_nodes, src=graph.src.copy(), dst=graph.dst.copy()
        )
        got = graph.adjacency("sage").matmul_dense(features)
        expected = oracle.adjacency("sage").matmul_dense(features)
        assert np.array_equal(got, expected)

    def test_backend_cache_does_not_accumulate_stale_plans(self):
        with ops.use_backend("vectorized"):
            graph = sbm_graph(40, 3, 5.0, seed=3)
            features = np.ones((graph.n_nodes, 4))
            rng = np.random.default_rng(0)
            graph.adjacency("sage").matmul_dense(features)
            before = ops.get_backend().cache_info().get("spmm_plans", 0)
            for _ in range(5):
                delta = _random_delta(graph, rng)
                while delta.add_nodes:
                    delta = _random_delta(graph, rng)
                apply_delta(graph, delta)
                graph.adjacency("sage").matmul_dense(features)
            after = ops.get_backend().cache_info().get("spmm_plans", 0)
            # release() dropped each superseded plan, so the count stays
            # flat instead of growing by one per delta.
            assert after <= before + 1


# ----------------------------------------------------------------------
# Generation-stamped cache invalidation
# ----------------------------------------------------------------------
class TestGenerationCaches:
    def test_apply_delta_bumps_generation(self):
        graph = erdos_renyi_graph(10, avg_degree=2.0, seed=0)
        assert graph.generation == 0
        apply_delta(graph, GraphDelta(add_src=[0], add_dst=[1]))
        assert graph.generation == 1

    def test_manual_generation_bump_invalidates_lazily(self):
        graph = erdos_renyi_graph(10, avg_degree=2.0, seed=0)
        stale = graph.adjacency("none")
        graph.src = np.concatenate([graph.src, [0]])
        graph.dst = np.concatenate([graph.dst, [9]])
        graph.generation += 1
        fresh = graph.adjacency("none")
        assert fresh is not stale
        assert fresh.nnz >= stale.nnz

    def test_transpose_cache_invalidates_on_mutation(self):
        graph = erdos_renyi_graph(12, avg_degree=2.0, seed=1)
        graph.adjacency_transpose("none")
        apply_delta(graph, GraphDelta(add_src=[11], add_dst=[0]))
        transpose = graph.adjacency_transpose("none")
        # A^T[src, dst]: the new edge must be visible in row 11.
        row = transpose.indices[transpose.indptr[11]:transpose.indptr[12]]
        assert 0 in row

    def test_edge_index_invalidates_on_mutation(self):
        # Node 2 starts with no in-edges; warm the graph's cached edge
        # index, then add 0 -> 2 and re-sample.
        graph = Graph(n_nodes=3, src=np.array([0]), dst=np.array([1]))
        before = khop_neighborhood(graph, [2], 1, 4, rng_seed=0,
                                   return_nodes=True)[1]
        assert list(before) == [2]
        apply_delta(graph, GraphDelta(add_src=[0], add_dst=[2]))
        after = khop_neighborhood(graph, [2], 1, 4, rng_seed=0,
                                  return_nodes=True)[1]
        assert list(after) == [0, 2]

    @pytest.mark.parametrize("seed", range(6))
    def test_index_paths_equal_oracle_after_deltas(self, seed):
        # Removals shift COO positions, adds append, add_nodes grows
        # indptr; each delta patches the index, which must stay the one a
        # rebuild from the post-delta COO gives.
        graph = messy_graph(seed)
        rng = np.random.default_rng(300 + seed)
        if seed % 2:  # even seeds: the first delta meets an un-indexed graph
            for direction in ("in", "out"):
                graph.edge_index(direction)
        for round_, delta in enumerate(_index_deltas(graph, rng)):
            apply_delta(graph, delta)
            assert graph.generation == round_ + 1
            oracle = Graph(graph.n_nodes, graph.src.copy(), graph.dst.copy())
            for direction in ("in", "out"):
                for got, want in zip(graph.edge_index(direction),
                                     oracle.edge_index(direction)):
                    assert got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes()
                    assert got.flags.writeable is False
            for nodes in node_sets(graph, rng):
                assert_same_graph(induced_subgraph(graph, nodes),
                                  reference_induced_subgraph(graph, nodes))
            for rng_seed, (fanout, n_hops) in enumerate(
                    ((1, 1), (3, 2), (graph.n_edges + 1, 3))):
                seeds = rng.integers(0, graph.n_nodes, 2)
                assert_expansion_matches_oracle(graph, seeds, n_hops, fanout,
                                                rng_seed)

    def test_delta_patches_index_without_resorting(self, monkeypatch):
        graph = sbm_graph(300, 3, 8.0, seed=4)
        assert graph.n_edges >= 2000
        graph.adjacency("sage")
        before = {d: graph.edge_index(d) for d in ("in", "out")}
        saved = {d: [a.copy() for a in index] for d, index in before.items()}
        rng = np.random.default_rng(4)
        picked = rng.choice(graph.n_edges, 24, replace=False)
        delta = GraphDelta(
            add_src=rng.integers(0, 300, 40), add_dst=rng.integers(0, 300, 40),
            remove_src=graph.src[picked], remove_dst=graph.dst[picked],
            detach_nodes=[7],
        )
        # The parent's COO formula: survivors in order, then the adds.
        doomed = np.isin(graph.dst * 300 + graph.src,
                         delta.remove_dst * 300 + delta.remove_src)
        doomed |= (graph.src == 7) | (graph.dst == 7)
        expected_src = np.concatenate([graph.src[~doomed], delta.add_src])
        expected_dst = np.concatenate([graph.dst[~doomed], delta.add_dst])

        sorted_lengths, searched_lengths = [], []
        argsort, searchsorted = np.argsort, np.searchsorted

        def spy_argsort(a, *args, **kwargs):
            sorted_lengths.append(len(a))
            return argsort(a, *args, **kwargs)

        def spy_searchsorted(a, v, *args, **kwargs):
            searched_lengths.append(np.size(v))
            return searchsorted(a, v, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", spy_argsort)
        monkeypatch.setattr(np, "searchsorted", spy_searchsorted)
        apply_delta(graph, delta)
        installed = dict(graph._edge_index)
        khop_neighborhood(graph, [3, 11], 2, 4, rng_seed=0)
        monkeypatch.undo()

        assert sorted_lengths  # the spy sees this module's spelling
        assert max(sorted_lengths + searched_lengths) < graph.n_edges // 2
        assert graph.src.tobytes() == expected_src.tobytes()
        assert graph.dst.tobytes() == expected_dst.tobytes()
        for direction in ("in", "out"):
            assert graph.edge_index(direction) is installed[direction]
            # Copy-on-write: the pre-delta tuple is still the pre-delta index.
            for held, copy in zip(before[direction], saved[direction]):
                assert held.tobytes() == copy.tobytes()
                assert held.flags.writeable is False

    def test_node_payload_extension(self):
        graph = sbm_graph(30, 3, 4.0, seed=2)
        attach_classification_task(graph, n_features=4, seed=2)
        delta = GraphDelta(
            add_nodes=2,
            add_features=np.ones((2, 4)),
            add_labels=np.zeros(2, dtype=graph.labels.dtype),
        )
        apply_delta(graph, delta)
        assert graph.n_nodes == 32
        assert graph.features.shape == (32, 4)
        assert graph.labels.shape[0] == 32
        for mask in (graph.train_mask, graph.val_mask, graph.test_mask):
            assert mask.shape == (32,)
            assert not mask[30:].any()
        assert graph.communities.shape == (32,)
        assert (graph.communities[30:] == -1).all()


# ----------------------------------------------------------------------
# Serving under live mutation
# ----------------------------------------------------------------------
def _task_graph(n=120, seed=11):
    graph = sbm_graph(n, 4, 8.0, intra_fraction=0.7, seed=seed).to_undirected()
    attach_classification_task(graph, n_features=8, signal=0.5, seed=seed)
    return graph


def _config(k=4):
    return GNNConfig(
        model_type="sage", in_features=8, hidden=16, out_features=4,
        n_layers=2, nonlinearity="maxk", k=k, dropout=0.1,
    )


def _service(graph=None, **overrides):
    graph = graph if graph is not None else _task_graph()
    model = MaxKGNN(graph, _config(), seed=7)
    return InferenceService(graph, model, ServiceConfig(**overrides))


def _rewire(graph, rng, n=30) -> GraphDelta:
    pick = rng.choice(graph.n_edges, size=min(n, graph.n_edges),
                      replace=False)
    return GraphDelta(
        add_src=rng.integers(0, graph.n_nodes, n),
        add_dst=rng.integers(0, graph.n_nodes, n),
        remove_src=graph.src[pick].copy(),
        remove_dst=graph.dst[pick].copy(),
    )


def _no_leaks():
    assert owned_segment_count() == 0
    assert not multiprocessing.active_children()


class TestServingMutation:
    def test_repeat_query_recomputes_and_matches_fresh_oracle(self):
        service = _service()
        try:
            first = service.submit(3, seed=5)
            service.drain()
            assert first.result.ok and first.result.generation == 0

            rng = np.random.default_rng(0)
            service.apply_delta(_rewire(service.graph, rng))
            assert service.generation == 1

            # Same (node, seed): must be a cache MISS on the new
            # generation, recomputed against the mutated graph.
            second = service.submit(3, seed=5)
            service.drain()
            result = second.result
            assert result.ok and not result.cached
            assert result.generation == 1

            # Fresh-graph oracle: a brand-new service over an
            # independently-rebuilt graph must agree bit for bit.
            oracle_graph = Graph(
                n_nodes=service.graph.n_nodes,
                src=service.graph.src.copy(),
                dst=service.graph.dst.copy(),
                features=service.graph.features.copy(),
                labels=service.graph.labels,
            )
            oracle = InferenceService(oracle_graph, service.model)
            try:
                expected = oracle.infer_single(3, seed=5)
            finally:
                oracle.close()
            assert np.array_equal(result.logits, expected)

            # And the third submit is a hit under the new generation.
            third = service.submit(3, seed=5)
            assert third.result.ok and third.result.cached
        finally:
            service.close()
        _no_leaks()

    def test_inflight_requests_served_on_admission_graph(self):
        service = _service(max_batch=64, linger=10.0, default_deadline=60.0)
        try:
            nodes = [1, 2, 3, 4]
            expected = [service.infer_single(n, seed=0) for n in nodes]
            tickets = [service.submit(n, seed=0) for n in nodes]
            assert all(t.result is None for t in tickets)  # still queued

            rng = np.random.default_rng(1)
            service.apply_delta(_rewire(service.graph, rng))

            # apply_delta drained them against the pre-delta graph.
            for ticket, want in zip(tickets, expected):
                result = ticket.result
                assert result.ok
                assert result.generation == 0
                assert np.array_equal(result.logits, want)
        finally:
            service.close()
        _no_leaks()

    def test_out_of_band_generation_bump_fails_loud(self):
        service = _service(max_batch=64, linger=10.0, default_deadline=60.0)
        try:
            ticket = service.submit(2, seed=0)
            service.generation += 1  # simulated out-of-band mutation
            service.pump(force=True)
            result = ticket.result
            assert result is not None and result.status == "failed"
            assert "generation" in ticket.error
            assert "stale" in ticket.error
        finally:
            service.close()
        _no_leaks()

    def test_mutation_stream_zero_stale(self):
        service = _service(default_deadline=60.0)
        try:
            rng = np.random.default_rng(7)
            for round_no in range(4):
                if round_no:
                    service.apply_delta(_rewire(service.graph, rng, n=10))
                tickets = [
                    service.submit(int(rng.integers(0, 120)), seed=round_no)
                    for _ in range(6)
                ]
                service.drain()
                for ticket in tickets:
                    result = ticket.result
                    assert result.ok
                    assert result.generation == service.generation
            stats = service.stats()
            assert stats["generation"] == 3
            assert stats["deltas_applied"] == 3
            assert stats["failed"] == 0
        finally:
            service.close()
        _no_leaks()

    def test_closed_service_rejects_delta(self):
        service = _service()
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.apply_delta(GraphDelta())
        _no_leaks()


class TestServingRebind:
    def test_executors_reattach_not_restart(self, force_procs):
        service = _service(executors=1, default_deadline=60.0)
        try:
            assert service.pool is not None
            pid = service.pool._pool._procs[0].pid
            old_handle = service.pool._pool._store.handle()

            first = service.submit(3, seed=5)
            service.drain()
            assert first.result.ok

            rng = np.random.default_rng(0)
            service.apply_delta(_rewire(service.graph, rng))

            # Re-attached, not restarted: same worker process, one
            # rebind, zero respawns, still not degraded.
            assert service.pool is not None and not service.degraded
            assert service.pool._pool._procs[0].pid == pid
            assert service.pool.rebinds == 1
            assert service.pool.respawns == 0

            # The mutated-graph result from the pool matches the
            # in-process oracle bit for bit.
            second = service.submit(3, seed=5)
            service.drain()
            assert second.result.ok
            expected = service.infer_single(3, seed=5)
            assert np.array_equal(second.result.logits, expected)

            stats = service.stats()
            assert stats["rebinds"] == 1 and stats["respawns"] == 0

            with pytest.raises(StaleHandleError) as info:
                SharedGraphStore.attach(old_handle)
            stale_segments = {spec.segment for spec in old_handle.arrays}
            assert any(seg in str(info.value) for seg in stale_segments)
        finally:
            service.close()
        _no_leaks()

    def test_dead_executor_respawns_against_new_store(self, force_procs):
        service = _service(executors=1, default_deadline=60.0)
        try:
            assert service.pool is not None
            proc = service.pool._pool._procs[0]
            proc.kill()
            proc.join(timeout=5.0)

            rng = np.random.default_rng(2)
            service.apply_delta(_rewire(service.graph, rng))

            # The dead worker could not acknowledge the rebind; the
            # respawn attached the new store, which completes it.
            assert service.pool is not None and not service.degraded
            assert service.pool.respawns == 1

            ticket = service.submit(4, seed=1)
            service.drain()
            assert ticket.result.ok
            expected = service.infer_single(4, seed=1)
            assert np.array_equal(ticket.result.logits, expected)
        finally:
            service.close()
        _no_leaks()
