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
  cache on the new generation and match a fresh-graph oracle bit for bit.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graphs import (
    Graph,
    GraphDelta,
    apply_delta,
    attach_classification_task,
    induced_subgraph,
    khop_neighborhood,
    merge_csr_delta,
    sbm_graph,
)
from repro.graphs import mutation
from repro.graphs.generators import erdos_renyi_graph, rmat_graph
from repro.models import GNNConfig, MaxKGNN
from repro.serving import InferenceService, ServiceConfig
from repro.sparse import CSRMatrix, coo_to_csr, native, ops
from tests.conftest import ARMS, arm_backend, no_leaks, without_compiled_loops
from tests.test_partition_sampling import (
    assert_expansion_matches_oracle,
    assert_same_graph,
    messy_graph,
    node_sets,
    reference_induced_subgraph,
)

SEEDS = [0, 1, 2]

# _splice copies its input's runs as views while its edits are sparse and
# compacts through masks when they are dense (mutation._ENTRIES_PER_EDIT);
# these settings force either regime.
SPLICE_REGIMES = {"views": 0, "masks": 10**9}


@pytest.fixture(params=sorted(SPLICE_REGIMES))
def splice_regime(request, monkeypatch):
    """Run the test with every splice taking one regime."""
    monkeypatch.setattr(
        mutation, "_ENTRIES_PER_EDIT", SPLICE_REGIMES[request.param]
    )
    return request.param


@pytest.fixture(params=ARMS)
def arm(request):
    """Run the test on the compiled delta loops (where they build) and on
    their numpy bodies."""
    arm_backend(request)
    return request.param


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
        merged, *_ = merge_csr_delta(
            base, (3, 3), np.array([1, 0]), np.array([2, 0]),
            np.ones(2), np.empty(0, np.int64),
        )
        oracle = coo_to_csr([0, 2, 1, 0], [1, 0, 2, 0], np.ones(4), (3, 3))
        assert _bitwise_equal(merged, oracle)

    def test_colliding_insert_sums_counts(self):
        base = coo_to_csr([0, 0], [1, 1], [1.0, 1.0], (2, 2))  # entry = 2.0
        merged, *_ = merge_csr_delta(
            base, (2, 2), np.array([0]), np.array([1]),
            np.ones(1), np.empty(0, np.int64),
        )
        assert merged.nnz == 1
        assert merged.data[0] == 3.0

    def test_delete_drops_whole_entry(self):
        base = coo_to_csr([0, 1], [1, 0], [2.0, 1.0], (2, 2))
        merged, *_ = merge_csr_delta(
            base, (2, 2), np.empty(0, np.int64), np.empty(0, np.int64),
            np.empty(0), np.array([0 * 2 + 1]),
        )
        assert merged.nnz == 1
        assert merged.indices[0] == 0

    def test_shape_growth_appends_empty_rows(self):
        base = coo_to_csr([0], [0], [1.0], (1, 1))
        merged, *_ = merge_csr_delta(
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

    def test_merge_leaves_its_inputs_unwritten(self, splice_regime):
        # Removed keys, re-added keys, collisions with kept entries and
        # fresh keys, on read-only buffers, against a COO rebuild.
        rng = np.random.default_rng(7)
        for trial in range(40):
            n = int(rng.integers(1, 9))
            rows, cols = rng.integers(0, n, (2, int(rng.integers(0, 30))))
            base = coo_to_csr(rows, cols, np.ones(len(rows)), (n, n))
            for array in (base.indptr, base.indices, base.data):
                array.flags.writeable = False
            keys = np.repeat(np.arange(n), np.diff(base.indptr)) * n
            keys += base.indices
            removed = np.unique(rng.choice(keys, min(len(keys), 3)))
            add_rows, add_cols = rng.integers(0, n + 1, (2, 8))
            merged, drop, at, touched = merge_csr_delta(
                base, (n + 1, n + 1), add_rows, add_cols, np.ones(8),
                removed // n * (n + 1) + removed % n,
            )
            # The edits it reports: one insert per new slot, and every row
            # outside `touched` kept its entries.
            assert len(at) == merged.nnz - base.nnz + len(drop)
            for row in np.setdiff1d(np.arange(n), touched):
                old = slice(base.indptr[row], base.indptr[row + 1])
                new = slice(merged.indptr[row], merged.indptr[row + 1])
                assert merged.indices[new].tolist() == base.indices[old].tolist()
                assert merged.data[new].tolist() == base.data[old].tolist()
            kept = ~np.isin(rows * n + cols, removed)
            oracle = coo_to_csr(
                np.concatenate([rows[kept], add_rows]),
                np.concatenate([cols[kept], add_cols]),
                np.ones(kept.sum() + 8), (n + 1, n + 1),
            )
            assert _bitwise_equal(merged, oracle), trial


@st.composite
def splices(draw):
    """An input array (read-only), sorted unique drops, ascending insert
    positions in ``[0, len]`` and float64 values, which need a cast."""
    dtype = draw(st.sampled_from([np.int64, np.float32, np.float64]))
    n = draw(st.integers(0, 24))
    array = np.arange(n, dtype=dtype) * 3 + 1
    array.flags.writeable = False
    drop = np.array(sorted(draw(st.sets(st.integers(0, max(n - 1, 0)),
                                        max_size=n))), dtype=np.int64)
    at = np.array(sorted(draw(st.lists(st.integers(0, n), max_size=10))),
                  dtype=np.int64)
    values = np.array(
        draw(st.lists(st.floats(-1e6, 1e6, allow_nan=False),
                      min_size=len(at), max_size=len(at))),
        dtype=np.float64,
    )
    return array, drop, at, values


def _readonly(dtype, values):
    array = np.asarray(values, dtype=dtype)
    array.flags.writeable = False
    return array


class TestSplice:
    """``_splice`` against numpy's delete-then-insert, in both regimes."""

    @pytest.mark.parametrize("regime", sorted(SPLICE_REGIMES))
    @given(case=splices())
    @settings(max_examples=150, derandomize=True, deadline=None)
    @example(case=(_readonly(np.int64, range(6)), np.array([], np.int64),
                   np.array([], np.int64), np.array([])))
    @example(case=(_readonly(np.int64, range(6)), np.array([0, 5]),
                   np.array([], np.int64), np.array([])))
    @example(case=(_readonly(np.float32, range(6)), np.arange(6),
                   np.array([0, 3, 6]), np.array([0.1, 1.7, 2.5])))
    @example(case=(_readonly(np.int64, range(6)), np.array([2, 3]),
                   np.array([2, 2, 3, 6, 6]),
                   np.array([9.9, -8.5, 7.2, 6.0, 5.5])))
    @example(case=(_readonly(np.float64, []), np.array([], np.int64),
                   np.array([0, 0]), np.array([1.0, 2.0])))
    def test_matches_delete_then_insert(self, regime, case):
        array, drop, at, values = case
        before = array.tobytes()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mutation, "_ENTRIES_PER_EDIT",
                          SPLICE_REGIMES[regime])
            got = mutation._splice(array, drop, at, values)
        survivors = at - np.searchsorted(drop, at)
        want = np.insert(np.delete(array, drop), survivors, values)
        assert got.dtype == array.dtype
        assert got.tobytes() == want.tobytes()
        assert array.tobytes() == before


def _renumber_case(n_edges, n_doomed, n_adds, seed):
    """An edge index's ``order`` over ``n_edges`` COO positions, the
    ``shift`` table of ``n_doomed`` deleted positions (apply_delta's), the
    slots holding them, and insert positions that include a dropped slot
    (when there is one) and appends at ``n_edges``."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n_edges).astype(np.int64)
    order.flags.writeable = False
    doomed = np.sort(rng.choice(n_edges, n_doomed, replace=False))
    shift = np.repeat(
        np.arange(n_doomed + 1, dtype=np.min_scalar_type(n_doomed)),
        np.diff(np.concatenate(([0], doomed, [n_edges]))),
    )
    drop = np.flatnonzero(np.isin(order, doomed))
    at = rng.integers(0, n_edges + 1, n_adds)
    if n_adds >= 3:
        at[:2] = n_edges
        if len(drop):
            at[2] = drop[len(drop) // 2]
    at = np.sort(at)
    values = n_edges - n_doomed + rng.permutation(n_adds)
    return order, shift, drop, at, values


class TestRenumberSplice:
    """``_renumber_splice`` (one compiled sweep, or numpy's renumbering
    then ``_splice``) against ``_splice(order - shift.take(order), ...)``."""

    @pytest.mark.parametrize("n_edges, n_doomed, n_adds, width", [
        (0, 0, 3, 8),          # an empty index: appends only
        (50, 0, 6, 8),         # no doomed positions
        (50, 12, 0, 8),        # drops only
        (50, 50, 4, 8),        # every position doomed
        (300, 255, 5, 8),      # the widest uint8 shift
        (900, 256, 7, 16),     # uint16
        (70000, 65536, 9, 32),  # uint32
    ])
    def test_matches_renumbering_then_splicing(self, arm, splice_regime,
                                               n_edges, n_doomed, n_adds,
                                               width):
        for seed in range(3):
            order, shift, drop, at, values = _renumber_case(
                n_edges, n_doomed, n_adds, seed)
            assert shift.dtype.itemsize * 8 == width
            want = mutation._splice(order - shift.take(order), drop, at,
                                    values)
            got = mutation._renumber_splice(order, shift, drop, at, values)
            assert got.dtype == np.int64
            assert got.tobytes() == want.tobytes(), seed

    def test_the_compiled_arm_runs_the_loop(self):
        library = native.load()
        if library is None:
            pytest.skip("no compiler: the numpy arm is the only one")
        order, shift, drop, at, values = _renumber_case(40, 10, 4, 0)
        got = native.splice_renumber(library, order, shift, drop, at, values)
        want = mutation._splice(order - shift.take(order), drop, at, values)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("drop, at", [
        ([3, 3], []), ([4, 2], []), ([-1], []), ([10], []),
        ([], [5, 2]), ([], [11]), ([], [-1]),
    ])
    def test_the_loop_refuses_positions_out_of_order(self, drop, at):
        library = native.load()
        if library is None:
            pytest.skip("no compiler")
        shift = np.zeros(10, dtype=np.uint8)
        with pytest.raises(ValueError, match="sorted unique"):
            native.splice_renumber(
                library, np.arange(10), shift, np.array(drop, np.int64),
                np.array(at, np.int64), np.zeros(len(at), np.int64))

    @pytest.mark.parametrize("n_shift", [9, 11])
    def test_the_loop_refuses_a_shift_of_another_length(self, n_shift):
        library = native.load()
        if library is None:
            pytest.skip("no compiler")
        with pytest.raises(ValueError, match="one entry per position"):
            native.splice_renumber(
                library, np.arange(10), np.zeros(n_shift, dtype=np.uint8),
                np.empty(0, np.int64), np.empty(0, np.int64),
                np.empty(0, np.int64))


def _numpy_group_search(*args):
    with pytest.MonkeyPatch.context() as patch:
        without_compiled_loops(patch)
        return mutation._group_search(*args)


class TestGroupSearch:
    """``_group_search`` on both arms against its numpy body and against
    one ``np.searchsorted`` per query."""

    def test_matches_numpy_and_per_query_bisection(self, arm):
        rng = np.random.default_rng(3)
        for trial in range(20):
            n_groups = int(rng.integers(1, 12))
            sizes = rng.integers(0, 9, n_groups)
            sizes[rng.integers(0, n_groups)] = 0  # an empty group
            indptr = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
            members = np.concatenate([
                np.sort(rng.choice(30, size, replace=False)) for size in sizes
            ]).astype(np.int64)
            n_queries = int(rng.integers(0, 40))
            groups = rng.integers(0, n_groups, n_queries)
            # Hits, misses inside a group, below it, past its end (30+).
            wanted = rng.integers(-2, 34, n_queries)
            slot, found = mutation._group_search(indptr, members, groups,
                                                 wanted)
            want_slot, want_found = _numpy_group_search(indptr, members,
                                                        groups, wanted)
            assert slot.dtype == np.int64 and found.dtype == bool
            assert slot.tobytes() == want_slot.tobytes(), trial
            assert found.tobytes() == want_found.tobytes(), trial
            for i, (group, value) in enumerate(zip(groups, wanted)):
                low, high = indptr[group], indptr[group + 1]
                at = low + np.searchsorted(members[low:high], value)
                assert slot[i] == at
                assert found[i] == (at < high and members[at] == value)

    def test_empty_groups_and_misses_past_the_end(self, arm):
        indptr = np.array([0, 0, 3, 3, 5], dtype=np.int64)
        members = np.array([2, 4, 6, 1, 9], dtype=np.int64)
        groups = np.array([0, 1, 1, 1, 2, 3, 3, 3])
        wanted = np.array([5, 4, 5, 7, 0, 9, 10, 0])
        slot, found = mutation._group_search(indptr, members, groups, wanted)
        assert slot.tolist() == [0, 1, 2, 3, 3, 4, 5, 3]
        assert found.tolist() == [False, True, False, False, False, True,
                                  False, False]

    def test_no_queries(self, arm):
        slot, found = mutation._group_search(
            np.array([0, 2]), np.array([1, 5]), np.empty(0, np.int64),
            np.empty(0, np.int64))
        assert slot.shape == found.shape == (0,)

    @pytest.mark.parametrize("indptr, members, groups, wanted, match", [
        ([0, 2, 4], [1, 5, 2], [0, 1], [1, 2], "outside members"),
        ([-1, 2, 3], [1, 5, 2], [0], [1], "outside members"),
        ([0, 2, 3], [1, 5, 2], [0, 1], [1], "one wanted value"),
        ([0, 2, 3], [1, 5, 2], [0], [1, 5], "one wanted value"),
    ])
    def test_the_loop_refuses_inconsistent_groups(self, indptr, members,
                                                  groups, wanted, match):
        library = native.load()
        if library is None:
            pytest.skip("no compiler")
        with pytest.raises(ValueError, match=match):
            native.group_search(library, *(np.array(a, np.int64) for a in (
                indptr, members, groups, wanted)))


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

    @pytest.mark.parametrize("seed", SEEDS)
    def test_each_splice_regime_matches_fresh_rebuild(self, splice_regime,
                                                      seed):
        # The index oracle's corner cases, then the fuzz's deltas: the COO
        # order contract, every cached matrix and both index directions.
        rng = np.random.default_rng(500 + seed)
        messy, fuzzed = messy_graph(seed), _random_graph(seed, rng)
        runs = [
            (messy, _index_deltas(messy, rng)),
            (fuzzed, (_random_delta(fuzzed, rng) for _ in range(4))),
        ]
        for graph, deltas in runs:
            for norm in ("sage", "gcn"):
                graph.adjacency(norm)
            for direction in ("in", "out"):
                graph.edge_index(direction)
            for delta in deltas:
                n = graph.n_nodes
                gone = np.isin(graph.dst * n + graph.src,
                               delta.remove_dst * n + delta.remove_src)
                gone |= np.isin(graph.src, delta.detach_nodes)
                gone |= np.isin(graph.dst, delta.detach_nodes)
                src = np.concatenate([graph.src[~gone], delta.add_src])
                dst = np.concatenate([graph.dst[~gone], delta.add_dst])
                apply_delta(graph, delta)
                assert graph.src.tobytes() == src.tobytes()
                assert graph.dst.tobytes() == dst.tobytes()
                oracle = Graph(graph.n_nodes, src, dst)
                for norm in ("none", "sage", "gcn"):
                    assert _bitwise_equal(graph.adjacency(norm),
                                          oracle.adjacency(norm)), norm
                for direction in ("in", "out"):
                    for got, want in zip(graph.edge_index(direction),
                                         oracle.edge_index(direction)):
                        assert got.tobytes() == want.tobytes(), direction


# ----------------------------------------------------------------------
# A cached sage matrix is patched, not re-derived
# ----------------------------------------------------------------------
def _rebuilt(graph: Graph) -> Graph:
    return Graph(n_nodes=graph.n_nodes, src=graph.src.copy(),
                 dst=graph.dst.copy())


class TestSagePatch:
    def test_a_steady_delta_patches_sage_without_rescaling(self, arm,
                                                          monkeypatch):
        graph = sbm_graph(2000, 5, 16.0, seed=8).to_undirected()
        graph.adjacency("sage")
        graph.edge_index("in")
        nnz = graph.structural_adjacency().nnz
        rng = np.random.default_rng(8)
        picked = rng.choice(graph.n_edges, 3, replace=False)
        delta = GraphDelta(
            add_src=rng.integers(0, 2000, 6), add_dst=rng.integers(0, 2000, 6),
            remove_src=graph.src[picked], remove_dst=graph.dst[picked],
        )
        rescaled, rederived, scaled = [], [], []
        scale_rows, mean_weights = CSRMatrix.scale_rows, mutation._mean_weights

        def spy_scale_rows(matrix, *args):
            rescaled.append(matrix.nnz)
            return scale_rows(matrix, *args)

        def spy_mean_weights(data, degrees):
            scaled.append(len(data))
            return mean_weights(data, degrees)

        monkeypatch.setattr(CSRMatrix, "scale_rows", spy_scale_rows)
        monkeypatch.setattr(mutation, "_mean_weights", spy_mean_weights)
        monkeypatch.setattr(mutation, "normalized_adjacency",
                            lambda *args: rederived.append(args))
        apply_delta(graph, delta)
        monkeypatch.undo()
        assert rescaled == [] and rederived == []
        assert len(scaled) == 1
        assert 0 < scaled[0] < nnz
        assert _bitwise_equal(graph.adjacency("sage"),
                              _rebuilt(graph).adjacency("sage"))

    def test_a_bulk_delta_patches_too(self, monkeypatch):
        graph = sbm_graph(200, 4, 10.0, seed=2)
        graph.adjacency("sage")
        rederived = []
        normalized = mutation.normalized_adjacency

        def spy(graph, norm):
            rederived.append(norm)
            return normalized(graph, norm)

        monkeypatch.setattr(mutation, "normalized_adjacency", spy)
        apply_delta(graph, GraphDelta(detach_nodes=np.arange(0, 200, 2)))
        assert rederived == []
        assert _bitwise_equal(graph.adjacency("sage"),
                              _rebuilt(graph).adjacency("sage"))

    def test_patched_bytes_equal_a_rebuild(self, arm, splice_regime):
        graph = messy_graph(4)
        n = graph.n_nodes
        row = int(np.bincount(graph.dst, minlength=n).argmax())
        sources = graph.src[graph.dst == row]
        kept, absent = sources[0], np.setdiff1d(np.arange(n), sources)[0]
        deltas = [
            # Row `row` swaps one entry and keeps its count.
            GraphDelta(remove_src=[kept], remove_dst=[row],
                       add_src=[absent] * int((sources == kept).sum()),
                       add_dst=[row] * int((sources == kept).sum())),
            # Fresh node slots, one receiving edges; duplicate adds.
            GraphDelta(add_nodes=2, add_features=np.zeros((2, 3)),
                       add_src=[n, n, 0, 0], add_dst=[1, 1, n + 1, n + 1]),
            # Self-loops added and removed; a detach.
            GraphDelta(add_src=[2, 2, 3], add_dst=[2, 2, 3],
                       remove_src=graph.src[-2:], remove_dst=graph.dst[-2:],
                       detach_nodes=[row]),
            GraphDelta(),
        ]
        graph.adjacency("sage")
        graph.adjacency("gcn")
        for step, delta in enumerate(deltas):
            apply_delta(graph, delta)
            oracle = _rebuilt(graph)
            for norm in ("sage", "gcn"):
                assert _bitwise_equal(graph.adjacency(norm),
                                      oracle.adjacency(norm)), (step, norm)

    def test_row_that_swaps_an_entry_is_recomputed(self):
        # Row 0: in-edges from 1 and 2 (weights 1/2); 1 -> 0 becomes 3 -> 0.
        graph = Graph(4, np.array([1, 2, 0]), np.array([0, 0, 1]))
        graph.adjacency("sage")
        apply_delta(graph, GraphDelta(remove_src=[1], remove_dst=[0],
                                      add_src=[3], add_dst=[0]))
        sage = graph.adjacency("sage")
        assert sage.indices[:2].tolist() == [2, 3]
        assert sage.data[:2].tolist() == [0.5, 0.5]
        assert _bitwise_equal(sage, _rebuilt(graph).adjacency("sage"))

    def test_unflattened_graph_builds_its_base_first(self, monkeypatch):
        source = sbm_graph(120, 3, 6.0, seed=6)
        source.adjacency("sage")
        graph = Graph.unflatten(*source.flatten())
        assert graph._structure_cache == {}
        rng = np.random.default_rng(6)
        delta = _random_delta(graph, rng)
        rederived = []
        normalized = mutation.normalized_adjacency

        def spy(graph, norm):
            rederived.append(norm)
            return normalized(graph, norm)

        monkeypatch.setattr(mutation, "normalized_adjacency", spy)
        apply_delta(graph, delta)
        assert rederived == []
        assert set(graph._structure_cache) == {"plain"}
        assert _bitwise_equal(graph.adjacency("sage"),
                              _rebuilt(graph).adjacency("sage"))

    def test_fuzz_matches_fresh_rebuild(self, arm):
        rng = np.random.default_rng(41)
        for trial in range(9):
            graph = _random_graph(trial, rng)
            graph.adjacency("sage")
            graph.adjacency("gcn")
            for _ in range(3):
                apply_delta(graph, _random_delta(graph, rng))
                oracle = _rebuilt(graph)
                for norm in ("sage", "gcn"):
                    assert _bitwise_equal(graph.adjacency(norm),
                                          oracle.adjacency(norm)), trial


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

    @pytest.mark.parametrize("built", [(), ("in",), ("out",), ("in", "out")])
    def test_a_detach_builds_no_index(self, built):
        # A detach reads its edges off the COO columns; the directions the
        # graph had are patched, no other built.
        graph = sbm_graph(300, 3, 8.0, seed=5)
        graph.adjacency("sage")
        for direction in built:
            graph.edge_index(direction)
        detached = np.arange(0, 300, 7)
        kept = ~(np.isin(graph.src, detached) | np.isin(graph.dst, detached))
        expected_src, expected_dst = graph.src[kept], graph.dst[kept]
        apply_delta(graph, GraphDelta(detach_nodes=detached))
        assert sorted(graph._edge_index) == sorted(built)
        assert graph.src.tobytes() == expected_src.tobytes()
        assert graph.dst.tobytes() == expected_dst.tobytes()
        oracle = _rebuilt(graph)
        for direction in built:
            for got, want in zip(graph._edge_index[direction],
                                 oracle.edge_index(direction)):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
        assert _bitwise_equal(graph.adjacency("sage"),
                              oracle.adjacency("sage"))

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
        no_leaks()

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
        no_leaks()

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
        no_leaks()

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
        no_leaks()

    def test_closed_service_rejects_delta(self):
        service = _service()
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.apply_delta(GraphDelta())
        no_leaks()
