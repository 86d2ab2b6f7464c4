"""Unit tests for graph partitioning, boundary sampling and subgraph samplers."""

import numpy as np
import pytest

from repro.graphs import (
    Graph,
    Partition,
    as_generator,
    attach_classification_task,
    bfs_partition,
    bns_sample,
    boundary_nodes,
    edge_sampler,
    induced_subgraph,
    khop_neighborhood,
    node_sampler,
    random_walk_sampler,
    sbm_graph,
)
from repro.graphs.sampling import khop_keys
from repro.sparse import ops
from tests.conftest import ARMS, arm_backend


@pytest.fixture
def graph():
    graph = sbm_graph(240, 6, 8.0, seed=4).to_undirected()
    attach_classification_task(graph, n_features=8, seed=4)
    return graph


class TestPartition:
    def test_every_node_assigned(self, graph):
        partition = bfs_partition(graph, 4, seed=0)
        assert (partition.assignment >= 0).all()
        assert partition.sizes().sum() == graph.n_nodes

    def test_balanced_within_one_capacity(self, graph):
        partition = bfs_partition(graph, 4, seed=0)
        sizes = partition.sizes()
        assert sizes.max() <= -(-graph.n_nodes // 4) + 1

    def test_single_part(self, graph):
        partition = bfs_partition(graph, 1)
        assert partition.edge_cut(graph) == 0

    def test_edge_cut_counts_crossings(self):
        from repro.graphs import Graph

        graph = Graph(n_nodes=4, src=np.array([0, 2]), dst=np.array([1, 3]))
        partition = Partition(assignment=np.array([0, 0, 1, 1]), n_parts=2)
        assert partition.edge_cut(graph) == 0
        crossing = Partition(assignment=np.array([0, 1, 0, 1]), n_parts=2)
        assert crossing.edge_cut(graph) == 2

    def test_validation(self, graph):
        with pytest.raises(ValueError):
            bfs_partition(graph, 0)
        with pytest.raises(ValueError):
            bfs_partition(graph, graph.n_nodes + 1)
        with pytest.raises(ValueError):
            Partition(assignment=np.array([0, 5]), n_parts=2)

    def test_bfs_partition_locality(self, graph):
        """BFS growth should cut fewer edges than random assignment."""
        partition = bfs_partition(graph, 4, seed=0)
        rng = np.random.default_rng(0)
        random_partition = Partition(
            assignment=rng.integers(0, 4, graph.n_nodes), n_parts=4
        )
        assert partition.edge_cut(graph) < random_partition.edge_cut(graph)


class TestBoundary:
    def test_boundary_nodes_belong_to_part(self, graph):
        partition = bfs_partition(graph, 3, seed=1)
        for part in range(3):
            boundary = boundary_nodes(graph, partition, part)
            assert (partition.assignment[boundary] == part).all()

    def test_boundary_nodes_have_crossing_edges(self, graph):
        partition = bfs_partition(graph, 3, seed=1)
        boundary = set(boundary_nodes(graph, partition, 0).tolist())
        assignment = partition.assignment
        for node in list(boundary)[:10]:
            touches = (
                ((graph.src == node) & (assignment[graph.dst] != 0))
                | ((graph.dst == node) & (assignment[graph.src] != 0))
            )
            assert touches.any()


class TestInducedSubgraph:
    def test_subgraph_edges_internal_only(self, graph):
        nodes = np.arange(0, graph.n_nodes, 2)
        sub = induced_subgraph(graph, nodes)
        assert sub.n_nodes == len(nodes)
        assert sub.n_edges <= graph.n_edges
        assert (sub.src < sub.n_nodes).all()

    def test_subgraph_edge_set_matches_dense(self, graph):
        nodes = np.arange(50)
        sub = induced_subgraph(graph, nodes)
        full = graph.adjacency("none").to_dense()
        np.testing.assert_array_equal(
            sub.adjacency("none").to_dense(), full[np.ix_(nodes, nodes)]
        )

    def test_payloads_sliced(self, graph):
        nodes = np.array([5, 10, 20])
        sub = induced_subgraph(graph, nodes)
        np.testing.assert_array_equal(sub.features, graph.features[nodes])
        np.testing.assert_array_equal(sub.labels, graph.labels[nodes])

    def test_out_of_range_rejected(self, graph):
        with pytest.raises(ValueError):
            induced_subgraph(graph, np.array([graph.n_nodes]))


class TestBnsSample:
    def test_contains_all_interior_nodes(self, graph):
        partition = bfs_partition(graph, 3, seed=2)
        sub = bns_sample(graph, partition, 0, boundary_fraction=0.0)
        assert sub.n_nodes == len(partition.members(0))

    def test_boundary_fraction_grows_subgraph(self, graph):
        partition = bfs_partition(graph, 3, seed=2)
        small = bns_sample(graph, partition, 0, boundary_fraction=0.0)
        large = bns_sample(graph, partition, 0, boundary_fraction=1.0)
        assert large.n_nodes >= small.n_nodes

    def test_fraction_validation(self, graph):
        partition = bfs_partition(graph, 2)
        with pytest.raises(ValueError):
            bns_sample(graph, partition, 0, boundary_fraction=1.5)


class TestSamplers:
    def test_node_sampler_size(self, graph):
        sub = node_sampler(graph, 40, seed=0)
        assert sub.n_nodes == 40

    def test_node_sampler_deterministic(self, graph):
        a = node_sampler(graph, 40, seed=5)
        b = node_sampler(graph, 40, seed=5)
        np.testing.assert_array_equal(a.features, b.features)

    def test_edge_sampler_nonempty(self, graph):
        sub = edge_sampler(graph, 60, seed=0)
        assert sub.n_edges > 0
        assert sub.n_nodes <= 120

    def test_random_walk_sampler_connected_ish(self, graph):
        sub = random_walk_sampler(graph, n_roots=5, walk_length=10, seed=0)
        assert 5 <= sub.n_nodes <= 55

    def test_khop_respects_fanout(self, graph):
        seeds = np.array([0, 1])
        one_hop = khop_neighborhood(graph, seeds, n_hops=1, fanout=2)
        # 2 seeds + at most 2 parents each.
        assert one_hop.n_nodes <= 2 + 2 * 2

    def test_khop_zero_hops_is_seeds_only(self, graph):
        seeds = np.array([3, 7, 9])
        sub = khop_neighborhood(graph, seeds, n_hops=0, fanout=4)
        assert sub.n_nodes == 3

    def test_sampler_validation(self, graph):
        with pytest.raises(ValueError):
            node_sampler(graph, 0)
        with pytest.raises(ValueError):
            edge_sampler(graph, 0)
        with pytest.raises(ValueError):
            random_walk_sampler(graph, 0, 5)
        with pytest.raises(ValueError):
            khop_neighborhood(graph, np.array([0]), -1, 2)
        with pytest.raises(ValueError):
            khop_neighborhood(graph, np.array([graph.n_nodes]), 1, 2)


class TestGeneratorSeeds:
    """Samplers accept a streaming np.random.Generator in place of an int."""

    def test_generator_matches_int_seed(self, graph):
        from_int = node_sampler(graph, 40, seed=7)
        from_gen = node_sampler(graph, 40, seed=np.random.default_rng(7))
        np.testing.assert_array_equal(from_int.features, from_gen.features)

    def test_generator_streams_across_calls(self, graph):
        """One generator yields a different batch per call — no reseeding."""
        rng = np.random.default_rng(7)
        first = node_sampler(graph, 40, seed=rng)
        second = node_sampler(graph, 40, seed=rng)
        assert not np.array_equal(first.features, second.features)

    def test_every_sampler_accepts_generator(self, graph):
        rng = np.random.default_rng(0)
        assert node_sampler(graph, 30, seed=rng).n_nodes == 30
        assert edge_sampler(graph, 50, seed=rng).n_edges > 0
        assert random_walk_sampler(graph, 4, 6, seed=rng).n_nodes >= 4
        sub = khop_neighborhood(graph, np.array([0, 1]), 1, 3, rng_seed=rng)
        assert sub.n_nodes >= 2

    def test_as_generator_passthrough(self):
        rng = np.random.default_rng(0)
        assert as_generator(rng) is rng
        assert isinstance(as_generator(5), np.random.Generator)


class TestPayloadPropagation:
    """Labels / features / split masks must survive subgraph induction —
    the engine trains and skips batches based on the sliced masks."""

    @pytest.fixture
    def annotated(self):
        # Identity-coded payloads make the node mapping checkable exactly.
        base = sbm_graph(60, 3, 6.0, seed=2).to_undirected()
        n = base.n_nodes
        return Graph(
            n_nodes=n, src=base.src, dst=base.dst,
            features=np.arange(n, dtype=np.float64)[:, None].repeat(4, axis=1),
            labels=np.arange(n, dtype=np.int64) % 3,
            train_mask=np.arange(n) % 3 == 0,
            val_mask=np.arange(n) % 3 == 1,
            test_mask=np.arange(n) % 3 == 2,
        )

    def test_induced_subgraph_propagates_all_payloads(self, annotated):
        nodes = np.array([3, 7, 12, 30, 59])
        sub = induced_subgraph(annotated, nodes)
        np.testing.assert_array_equal(sub.features[:, 0], nodes)
        np.testing.assert_array_equal(sub.labels, nodes % 3)
        np.testing.assert_array_equal(sub.train_mask, nodes % 3 == 0)
        np.testing.assert_array_equal(sub.val_mask, nodes % 3 == 1)
        np.testing.assert_array_equal(sub.test_mask, nodes % 3 == 2)

    def test_khop_subgraph_propagates_masks(self, annotated):
        seeds = np.array([0, 9, 21])
        sub = khop_neighborhood(annotated, seeds, n_hops=2, fanout=3,
                                rng_seed=0)
        # Features column 0 recovers each node's original id.
        original = sub.features[:, 0].astype(np.int64)
        np.testing.assert_array_equal(sub.labels, original % 3)
        np.testing.assert_array_equal(sub.train_mask, original % 3 == 0)
        np.testing.assert_array_equal(sub.test_mask, original % 3 == 2)
        # The khop seeds were training nodes — they must remain in-mask.
        assert set(seeds).issubset(set(original[sub.train_mask]))

    def test_khop_masks_consistent_with_splits(self, annotated):
        sub = khop_neighborhood(annotated, np.array([0, 3]), n_hops=1,
                                fanout=4, rng_seed=1)
        overlap = (
            (sub.train_mask & sub.val_mask)
            | (sub.train_mask & sub.test_mask)
            | (sub.val_mask & sub.test_mask)
        )
        assert not overlap.any()
        assert (sub.train_mask | sub.val_mask | sub.test_mask).all()

    def test_sampler_subgraphs_keep_mask_dtype_bool(self, graph):
        sub = node_sampler(graph, 50, seed=0)
        assert sub.train_mask.dtype == bool
        assert sub.train_mask.shape == (50,)


# ----------------------------------------------------------------------
# Oracle: full edge-list scan + per-edge neighbour lists
# ----------------------------------------------------------------------
# Test-local reference implementations of what the library computes from
# ``Graph.edge_index``: induction by scanning every edge against a node
# mask, and expansion over neighbour lists appended edge by edge, one node
# at a time in Python ints. The library must equal them array for array,
# and draw the same random numbers. ``tests/test_graph_mutation.py``
# reuses them after deltas.
PAYLOADS = ("features", "labels", "train_mask", "val_mask", "test_mask",
            "communities", "loss_weights")


def reference_induced_subgraph(graph, nodes):
    nodes = np.unique(np.asarray(nodes, dtype=np.int64))
    local_id = np.full(graph.n_nodes, -1, dtype=np.int64)
    local_id[nodes] = np.arange(nodes.size)
    keep = (local_id[graph.src] >= 0) & (local_id[graph.dst] >= 0)
    payloads = {
        name: None if getattr(graph, name) is None
        else np.asarray(getattr(graph, name))[nodes]
        for name in PAYLOADS
    }
    return Graph(
        n_nodes=int(nodes.size),
        src=local_id[graph.src[keep]],
        dst=local_id[graph.dst[keep]],
        name=f"{graph.name}-sub",
        multilabel=graph.multilabel,
        **payloads,
    )


def reference_neighbour_lists(graph, direction):
    keys, values = (
        (graph.src, graph.dst) if direction == "out" else (graph.dst, graph.src)
    )
    lists = {}
    for key, value in zip(keys.tolist(), values.tolist()):
        lists.setdefault(key, []).append(value)
    return lists


MASK64 = 2**64 - 1


def reference_mix64(salt, node, rank):
    """The k-hop draw key of in-edge ``rank`` of ``node``, in Python ints:
    splitmix64's finaliser over ``(salt ^ node * PHI) + rank * STEP``,
    top 32 bits."""
    z = ((salt ^ (node * 0x9E3779B97F4A7C15 & MASK64))
         + rank * 0xD1B54A32D192ED03) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) >> 32


def reference_khop_nodes(graph, seeds, n_hops, fanout, rng):
    salt = int(rng.integers(2**64, dtype=np.uint64))
    in_neighbours = reference_neighbour_lists(graph, "in")
    reached = set(int(s) for s in np.unique(np.asarray(seeds, dtype=np.int64)))
    frontier = list(reached)
    for _ in range(n_hops):
        next_frontier = []
        for node in frontier:
            parents = in_neighbours.get(node, [])
            if len(parents) > fanout:
                ranks = sorted(range(len(parents)),
                               key=lambda r: (reference_mix64(salt, node, r), r))
                parents = [parents[r] for r in ranks[:fanout]]
            for parent in parents:
                if parent not in reached:
                    reached.add(parent)
                    next_frontier.append(parent)
        frontier = next_frontier
        if not frontier:
            break
    return np.array(sorted(reached), dtype=np.int64)


def reference_walk_nodes(graph, n_roots, walk_length, rng):
    neighbours = reference_neighbour_lists(graph, "out")
    visited = set()
    roots = rng.choice(graph.n_nodes, size=min(n_roots, graph.n_nodes),
                       replace=False)
    for root in roots:
        node = int(root)
        visited.add(node)
        for _ in range(walk_length):
            successors = neighbours.get(node)
            if not successors:
                break
            node = successors[rng.integers(0, len(successors))]
            visited.add(node)
    return np.array(sorted(visited), dtype=np.int64)


def assert_same_graph(actual, expected):
    assert actual.n_nodes == expected.n_nodes
    assert actual.name == expected.name
    assert actual.multilabel == expected.multilabel
    for name in ("src", "dst") + PAYLOADS:
        got, want = getattr(actual, name), getattr(expected, name)
        if want is None:
            assert got is None, name
        else:
            assert got.dtype == want.dtype, name
            np.testing.assert_array_equal(got, want, err_msg=name)


def messy_graph(seed):
    """A directed multigraph with duplicate edges, self-loops, one-way
    edges and isolated nodes (the last third has no edge at all)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 70))
    connected = max(1, 2 * n // 3)
    n_edges = int(rng.integers(0, 6 * n))
    src = rng.integers(0, connected, n_edges)
    dst = rng.integers(0, connected, n_edges)
    if n_edges >= 8:
        src[:4], dst[:4] = src[4:8], dst[4:8]  # duplicates
        dst[-2:] = src[-2:]                    # self-loops
    multilabel = seed % 2 == 1
    return Graph(
        n_nodes=n, src=src, dst=dst,
        features=rng.normal(size=(n, 3)),
        labels=(rng.integers(0, 2, (n, 4)) if multilabel
                else rng.integers(0, 4, n)),
        train_mask=rng.random(n) < 0.5,
        val_mask=rng.random(n) < 0.3,
        test_mask=rng.random(n) < 0.3,
        name=f"messy{seed}",
        multilabel=multilabel,
        communities=rng.integers(0, 3, n),
        loss_weights=rng.random(n),
    )


def node_sets(graph, rng):
    n = graph.n_nodes
    return [
        np.empty(0, dtype=np.int64),
        np.array([int(rng.integers(0, n))]),
        rng.integers(0, n, 2 * n)[::-1],          # unsorted, with repeats
        rng.permutation(n)[: n // 2],
        np.arange(n),
    ]


def assert_expansion_matches_oracle(graph, seeds, n_hops, fanout, rng_seed):
    """k-hop and walk from one generator state equal the oracle's nodes,
    subgraph and final generator state (the k-hop takes one 64-bit draw)."""
    ours, oracle = (np.random.default_rng(rng_seed) for _ in range(2))
    sub, nodes = khop_neighborhood(graph, seeds, n_hops, fanout,
                                   rng_seed=ours, return_nodes=True)
    expected = reference_khop_nodes(graph, seeds, n_hops, fanout, oracle)
    np.testing.assert_array_equal(nodes, expected)
    assert_same_graph(sub, reference_induced_subgraph(graph, expected))
    assert ours.bit_generator.state == oracle.bit_generator.state
    walk = random_walk_sampler(graph, 1 + fanout % 5, 1 + n_hops, seed=ours)
    expected = reference_walk_nodes(graph, 1 + fanout % 5, 1 + n_hops, oracle)
    assert_same_graph(walk, reference_induced_subgraph(graph, expected))
    assert ours.bit_generator.state == oracle.bit_generator.state


class TestEdgeIndexOracle:
    @pytest.mark.parametrize("seed", range(12))
    def test_induction_equals_full_scan(self, seed):
        graph = messy_graph(seed)
        rng = np.random.default_rng(100 + seed)
        for nodes in node_sets(graph, rng):
            assert_same_graph(induced_subgraph(graph, nodes),
                              reference_induced_subgraph(graph, nodes))

    @pytest.mark.parametrize("seed", range(12))
    def test_khop_and_walk_equal_neighbour_lists(self, seed):
        graph = messy_graph(seed)
        max_degree = int(max(graph.in_degrees().max(),
                             graph.out_degrees().max()))
        rng = np.random.default_rng(200 + seed)
        triples = [(s, fanout, hops)
                   for s, fanout in enumerate((1, 2, 5, max_degree + 1))
                   for hops in (0, 1, 3)]
        for rng_seed, fanout, n_hops in triples:
            seeds = rng.integers(0, graph.n_nodes, 1 + rng_seed)
            assert_expansion_matches_oracle(graph, seeds, n_hops, fanout,
                                            rng_seed)

    def test_index_groups_edges_in_coo_order(self):
        graph = messy_graph(3)
        for direction, keys, other in (("in", graph.dst, graph.src),
                                       ("out", graph.src, graph.dst)):
            order, indptr, values = graph.edge_index(direction)
            lists = reference_neighbour_lists(graph, direction)
            assert indptr.shape == (graph.n_nodes + 1,)
            for node in range(graph.n_nodes):
                span = slice(indptr[node], indptr[node + 1])
                assert values[span].tolist() == lists.get(node, [])
                assert (keys[order[span]] == node).all()
                assert (np.diff(order[span]) > 0).all()
            np.testing.assert_array_equal(other[order], values)
        with pytest.raises(ValueError):
            graph.edge_index("both")

    def test_concurrent_induction_equals_serial(self):
        """The prefetch builder and its consumer induce from one graph at
        once: the lazily built index is shared, the id map is not."""
        import sys
        import threading

        shared = sbm_graph(400, 4, 10.0, seed=9)
        rng = np.random.default_rng(9)
        work = [
            [rng.integers(0, shared.n_nodes, int(rng.integers(1, 90)))
             for _ in range(200)]
            for _ in range(2)
        ]
        # The oracle never touches the index, so both threads race to
        # build it.
        serial = [[reference_induced_subgraph(shared, nodes) for nodes in sets]
                  for sets in work]
        assert not shared._edge_index
        results = [[], []]
        start = threading.Barrier(2, timeout=30)

        def run(slot):
            start.wait()
            for nodes in work[slot]:
                results[slot].append(induced_subgraph(shared, nodes))

        threads = [threading.Thread(target=run, args=(slot,), daemon=True)
                   for slot in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for got, want in zip(results, serial):
            assert len(got) == len(want) == 200
            for actual, expected in zip(got, want):
                assert_same_graph(actual, expected)


def reference_bfs_nodes(graph, seeds, n_hops):
    in_neighbours = reference_neighbour_lists(graph, "in")
    reached = set(int(s) for s in np.unique(np.asarray(seeds, dtype=np.int64)))
    frontier = set(reached)
    for _ in range(n_hops):
        frontier = {p for node in frontier
                    for p in in_neighbours.get(node, [])} - reached
        reached |= frontier
    return np.array(sorted(reached), dtype=np.int64)


def ego_window(graph, pairs, n_hops, fanout):
    from repro.serving.batcher import build_ego_batch
    from repro.serving.queue import Request

    requests = [Request(rid=i, node=node, seed=seed, deadline=float("inf"),
                        submitted=0.0)
                for i, (node, seed) in enumerate(pairs)]
    return build_ego_batch(graph, requests, n_hops, fanout)


class TestCounterKeyedDraw:
    """The k-hop draw: fair, BFS past the fanout, local to a node's
    in-edges, and a served window is exactly its requests."""

    def test_pick_is_uniform_and_pairwise_fair(self):
        # Node 0 has 12 in-edges; fanout 4 keeps each with p = 4/12 and
        # each pair with p = C(10, 2) / C(12, 4) = 1/11.
        degree, fanout, trials = 12, 4, 3000
        star = Graph(n_nodes=degree + 1, src=np.arange(1, degree + 1),
                     dst=np.zeros(degree, dtype=np.int64))
        picked = np.zeros((trials, degree + 1), dtype=bool)
        for salt in range(trials):
            _, nodes = khop_neighborhood(star, [0], 1, fanout, rng_seed=salt,
                                         return_nodes=True)
            assert nodes.size == fanout + 1
            picked[salt, nodes] = True
        picked = picked[:, 1:].astype(float)

        def within_five_sigma(observed, p):
            sigma = np.sqrt(p * (1 - p) / trials)
            assert np.abs(observed - p).max() < 5 * sigma, observed

        within_five_sigma(picked.mean(axis=0), fanout / degree)
        pairs = (picked.T @ picked) / trials
        within_five_sigma(pairs[np.triu_indices(degree, 1)], 1 / 11)

    @pytest.mark.parametrize("seed", range(8))
    def test_fanout_past_every_degree_is_bfs(self, seed):
        graph = messy_graph(seed) if seed % 2 else sbm_graph(
            200, 4, 6.0, seed=seed)
        fanout = int(graph.in_degrees().max()) + seed % 3
        seeds = np.random.default_rng(seed).integers(0, graph.n_nodes, 3)
        for n_hops in (0, 1, 2, 4):
            _, nodes = khop_neighborhood(graph, seeds, n_hops, fanout,
                                         rng_seed=seed, return_nodes=True)
            np.testing.assert_array_equal(
                nodes, reference_bfs_nodes(graph, seeds, n_hops))

    @pytest.mark.parametrize("seed", range(10))
    def test_window_is_its_requests(self, seed):
        from repro.graphs import batch_graphs

        graph = messy_graph(seed) if seed % 2 else sbm_graph(
            300, 5, 7.0, seed=seed)
        if graph.features is None:
            attach_classification_task(graph, n_features=4, seed=seed)
        rng = np.random.default_rng(400 + seed)
        isolated = graph.n_nodes - 1 if seed % 2 else None  # messy: no edges
        for size in range(1, 9):
            pairs = [(int(rng.integers(0, graph.n_nodes)), int(rng.integers(0, 3)))
                     for _ in range(size)]
            if size > 2:
                pairs[-1] = pairs[0]                     # repeated request
                pairs[-2] = (pairs[0][0], pairs[0][1] + 1)  # node, other seed
            if isolated is not None and size > 3:
                pairs[1] = (isolated, 5)
            for n_hops, fanout in ((0, 2), (1, 1), (2, 3), (3, 50)):
                batch = ego_window(graph, pairs, n_hops, fanout)
                members, rows, offset = [], [], 0
                for node, salt in pairs:
                    ego, nodes = khop_neighborhood(
                        graph, [node], n_hops, fanout, rng_seed=salt,
                        return_nodes=True)
                    rows.append(offset + int(np.searchsorted(nodes, node)))
                    offset += ego.n_nodes
                    members.append(ego)
                assert_same_graph(batch.merged, batch_graphs(members))
                assert batch.query_rows.tolist() == rows
                np.testing.assert_array_equal(
                    batch.merged.features[batch.query_rows],
                    graph.features[[node for node, _ in pairs]])

    def test_a_window_salts_once_per_seed_and_per_generator_use(self, graph):
        """Equal int seeds share one salt; a generator seeding two members
        still draws twice, the second member under the second draw."""
        keys = np.array([3, graph.n_nodes + 3])
        twice = khop_keys(graph, keys, [7, 7], 2, 2) % graph.n_nodes
        once = khop_keys(graph, keys[:1], [7], 2, 2)
        np.testing.assert_array_equal(twice, np.concatenate([once, once]))
        ours, oracle = np.random.default_rng(1), np.random.default_rng(1)
        pair = khop_keys(graph, keys, [ours, ours], 2, 2)
        oracle.integers(2**64, dtype=np.uint64)
        second = khop_keys(graph, keys[:1], [oracle], 2, 2)
        np.testing.assert_array_equal(
            pair[pair >= graph.n_nodes] - graph.n_nodes, second)
        assert ours.bit_generator.state == oracle.bit_generator.state

    def test_seeds_are_deduped_like_np_unique(self, graph):
        seeds = np.array([9, 2, 9, 40, 2, 2, 0])
        for n_hops in (0, 1, 2):
            _, nodes = khop_neighborhood(graph, seeds, n_hops, 3,
                                         rng_seed=4, return_nodes=True)
            _, expected = khop_neighborhood(graph, np.unique(seeds), n_hops,
                                            3, rng_seed=4, return_nodes=True)
            np.testing.assert_array_equal(nodes, expected)
        assert_same_graph(induced_subgraph(graph, seeds),
                          reference_induced_subgraph(graph, seeds))

    def test_window_rejects_out_of_range_nodes(self, graph):
        for bad in (-1, graph.n_nodes, -graph.n_nodes):
            with pytest.raises(ValueError, match="out of range"):
                ego_window(graph, [(0, 0), (bad, 0)], 2, 4)
        with pytest.raises(ValueError):
            ego_window(graph, [], 2, 4)

    @pytest.mark.parametrize("seed", range(4))
    def test_a_delta_redraws_only_the_nodes_it_touches(self, seed):
        from repro.graphs.mutation import GraphDelta, apply_delta

        graph = sbm_graph(150, 3, 10.0, seed=seed).to_undirected()
        rng = np.random.default_rng(seed)
        u = int(rng.integers(0, graph.n_nodes))
        into_u = np.flatnonzero(graph.dst == u)[:3]
        delta = GraphDelta(
            add_src=rng.integers(0, graph.n_nodes, 4), add_dst=[u] * 4,
            remove_src=graph.src[into_u], remove_dst=graph.dst[into_u],
        )

        def draws():
            return [khop_neighborhood(graph, [v], 1, 3, rng_seed=seed,
                                      return_nodes=True)[1].tolist()
                    for v in range(graph.n_nodes)]

        before = draws()
        apply_delta(graph, delta)
        after = draws()
        assert graph.generation == 1
        changed = [v for v in range(graph.n_nodes) if before[v] != after[v]]
        assert changed == [u]


NORMS = ("none", "sage", "gcn", "gin")


def assert_same_csr(actual, expected, what=""):
    assert actual.shape == expected.shape, what
    for part in ("indptr", "indices", "data"):
        got, want = getattr(actual, part), getattr(expected, part)
        assert got.dtype == want.dtype, (what, part)
        assert got.tobytes() == want.tobytes(), (what, part)


def assert_window_is_the_merged_graph(batch):
    """Each norm's window adjacency and the window features are the bytes
    of the merged graph the window stands for."""
    for norm in NORMS:
        assert_same_csr(batch.adjacency(norm), batch.merged.adjacency(norm),
                        norm)
    assert batch.features.dtype == batch.merged.features.dtype
    assert batch.features.tobytes() == batch.merged.features.tobytes()


@pytest.fixture(params=ARMS)
def arm(request):
    """The vectorized backend's compiled loops, or its numpy bodies."""
    with ops.use_backend(arm_backend(request)):
        yield request.param


class TestWindowAdjacency:
    """A served window's adjacency is cut from the served graph's CSR rows
    (``ops.induced_rows``), never through a merged graph; it must be that
    graph's, byte for byte, on both arms of the backend."""

    @pytest.mark.parametrize("seed", range(8))
    def test_window_adjacency_is_the_merged_graphs(self, seed, arm):
        graph = messy_graph(seed) if seed % 2 else sbm_graph(
            300, 5, 7.0, seed=seed)
        if graph.features is None:
            attach_classification_task(graph, n_features=4, seed=seed)
        rng = np.random.default_rng(700 + seed)
        isolated = graph.n_nodes - 1 if seed % 2 else None  # messy: no edges
        for size in (1, 2, 5, 8):
            pairs = [(int(rng.integers(0, graph.n_nodes)), int(rng.integers(0, 3)))
                     for _ in range(size)]
            if size > 2:
                pairs[-1] = pairs[0]                     # repeated request
                pairs[-2] = (pairs[0][0], pairs[0][1] + 1)  # node, other seed
            if isolated is not None and size > 3:
                pairs[1] = (isolated, 5)
            for n_hops, fanout in ((0, 2), (1, 1), (2, 3), (3, 50)):
                assert_window_is_the_merged_graph(
                    ego_window(graph, pairs, n_hops, fanout))

    @pytest.mark.parametrize("seed", range(3))
    def test_after_a_delta_merged_into_the_bases(self, seed, arm):
        from repro.graphs.mutation import GraphDelta

        graph = sbm_graph(150, 3, 10.0, seed=seed).to_undirected()
        attach_classification_task(graph, n_features=4, seed=seed)
        for norm in NORMS:  # the bases the delta then merges into
            graph.adjacency(norm)
        rng = np.random.default_rng(seed)
        drop = rng.choice(graph.n_edges, 6, replace=False)
        graph.apply_delta(GraphDelta(
            add_src=rng.integers(0, graph.n_nodes, 8).tolist() + [4],
            add_dst=rng.integers(0, graph.n_nodes, 8).tolist() + [4],
            remove_src=graph.src[drop], remove_dst=graph.dst[drop],
        ))
        assert graph.generation == 1
        assert set(graph._structure_cache) == {"plain", "loops"}
        for hops in (1, 2):
            pairs = [(int(node), 1) for node in rng.integers(0, 150, 6)]
            pairs.append((4, 0))
            assert_window_is_the_merged_graph(ego_window(graph, pairs, hops, 4))

    @pytest.mark.parametrize("width", [np.float32, np.float64])
    def test_both_bodies_write_the_same_bytes(self, width, monkeypatch):
        from repro.sparse import native
        from repro.sparse.csr import CSRMatrix

        monkeypatch.setattr(ops, "FLOAT_DTYPE", width)
        rng = np.random.default_rng(5)
        n, edges = 90, 700
        base = CSRMatrix.from_edges(  # non-unit weights, duplicates summed
            rng.integers(0, n, edges), rng.integers(0, n, edges), (n, n),
            data=rng.random(edges),
        )
        keys = np.unique(rng.integers(0, 4 * n, 120))
        with ops.use_backend("vectorized"):
            if native.load() is not None:
                assert hasattr(native.load(), f"window_rows_{base.data.dtype.char}")
            compiled = ops.induced_rows(base, keys, 4)
            monkeypatch.setattr(native, "load", lambda: None)
            fallback = ops.induced_rows(base, keys, 4)
        assert compiled.data.dtype == width
        assert_same_csr(compiled, fallback)

    def test_the_op_refuses_keys_it_cannot_read(self, graph):
        base = graph.structural_adjacency()
        n = graph.n_nodes
        for keys, members in (([3, 2], 1), ([1, 1], 1), ([n], 1),
                              ([-1, 2], 1), ([0, 2 * n], 2)):
            with pytest.raises(ValueError, match="keys"):
                ops.induced_rows(base, np.array(keys), members)
        with pytest.raises(ValueError, match="square"):
            ops.induced_rows(first_row_alone(base), np.array([0]), 1)
        with pytest.raises(ValueError, match="n_members"):
            ops.induced_rows(base, np.array([0]), 0)
        empty = ops.induced_rows(base, np.empty(0, dtype=np.int64), 3)
        assert empty.shape == (0, 0) and empty.nnz == 0


def first_row_alone(base):
    """``base``'s first row alone: a non-square CSR."""
    from repro.sparse.csr import CSRMatrix

    end = base.indptr[1]
    return CSRMatrix(base.indptr[:2], base.indices[:end], base.data[:end],
                     shape=(1, base.shape[1]))


def khop_flow_batches(graph, flow, epochs, monkeypatch):
    """``(slot, batch, nodes, generator)`` of every batch ``flow`` samples
    (pool hits yield nothing new): its ``khop_keys`` nodes and the slot's
    generator after the call."""
    from repro.training import dataflow

    drawn = []

    def spy(graph, keys, rng_seeds, n_hops, fanout):
        nodes = khop_keys(graph, keys, rng_seeds, n_hops, fanout)
        drawn.append((nodes, rng_seeds[0]))
        return nodes

    monkeypatch.setattr(dataflow, "khop_keys", spy)
    for epoch in range(epochs):
        for plan in flow.plan(graph, epoch):
            before = len(drawn)
            batch = plan.build()
            if len(drawn) > before:
                slot = (plan.step if flow.pool_size is None
                        else plan.step % flow.pool_size)
                yield (slot, batch) + drawn[-1]


class TestKhopBatchFromRows:
    """A k-hop ``SampledFlow`` batch is cut from the graph's structural CSR
    rows (``ops.induced_rows`` + ``Graph.from_structure``); it must be the
    batch ``khop_neighborhood`` induces from the slot's generator, on both
    arms of the backend."""

    @pytest.mark.parametrize("pool_size", [None, 2])
    @pytest.mark.parametrize("seed", range(10))
    def test_each_slot_is_the_induced_batch(self, seed, pool_size, arm,
                                            monkeypatch):
        from repro.training import SampledFlow

        graph = messy_graph(seed)
        n_hops, fanout = seed % 3, 1 + seed % 4
        flow = SampledFlow(
            "khop", batches_per_epoch=3, n_hops=n_hops, fanout=fanout,
            sample_size=None if seed % 2 else 1 + seed % 5, seed=seed,
            pool_size=pool_size,
        )
        sampled = list(khop_flow_batches(graph, flow, 2, monkeypatch))
        assert len(sampled) == (2 if pool_size else 6)
        for slot, batch, nodes, ours in sampled:
            rng = np.random.default_rng((seed, slot))
            candidates = np.flatnonzero(graph.train_mask)
            seeds = rng.choice(candidates, replace=False, size=min(
                flow._size(graph), candidates.size))
            expected, expected_nodes = khop_neighborhood(
                graph, seeds, n_hops, fanout, rng_seed=rng, return_nodes=True)
            np.testing.assert_array_equal(nodes, expected_nodes)
            assert ours.bit_generator.state == rng.bit_generator.state
            assert_same_batch(batch, expected)

    def test_an_empty_seed_set_is_an_empty_batch(self, monkeypatch):
        from repro.training import SampledFlow

        graph = messy_graph(3)
        graph.train_mask = np.zeros(graph.n_nodes, dtype=bool)
        flow = SampledFlow("khop", batches_per_epoch=1, seed=1)
        (_, batch, nodes, _), = khop_flow_batches(graph, flow, 1, monkeypatch)
        assert nodes.size == batch.n_nodes == batch.n_edges == 0
        for norm in NORMS:
            assert batch.adjacency_transpose(norm).shape == (0, 0)

    def test_the_constructor_refuses_what_is_no_base(self):
        from repro.sparse.csr import CSRMatrix

        base = messy_graph(4).structural_adjacency()
        with pytest.raises(ValueError, match="square"):
            Graph.from_structure(first_row_alone(base))
        with pytest.raises(ValueError, match="counts"):
            Graph.from_structure(base.with_data(base.data * 0.5))
        empty = CSRMatrix(np.zeros(4, dtype=np.int64), [], [], shape=(3, 3))
        graph = Graph.from_structure(empty, name="e")
        assert graph.n_nodes == 3 and graph.n_edges == 0
        assert graph.structural_adjacency() is empty


def assert_same_batch(batch, expected):
    """The batch's nodes, payloads, edge multiset and every adjacency the
    training step reads are ``expected``'s."""
    assert batch.n_nodes == expected.n_nodes
    assert batch.n_edges == expected.n_edges
    assert (batch.name, batch.multilabel) == (expected.name, expected.multilabel)
    got, want = batch.node_arrays(), expected.node_arrays()
    assert list(got) == list(want)
    for name, column in want.items():
        assert got[name].dtype == column.dtype, name
        assert got[name].tobytes() == column.tobytes(), name

    def edges(graph):
        order = np.lexsort((graph.src, graph.dst))
        return graph.dst[order], graph.src[order]

    for ours, theirs in zip(edges(batch), edges(expected)):
        np.testing.assert_array_equal(ours, theirs)
    for norm in ("none", "sage", "gcn"):
        assert_same_csr(batch.adjacency(norm), expected.adjacency(norm), norm)
        assert_same_csr(batch.adjacency_transpose(norm),
                        expected.adjacency_transpose(norm), norm + "^T")
