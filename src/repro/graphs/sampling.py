"""Subgraph sampling (the GraphSAINT / Betty role).

The paper positions MaxK-GNN as compatible with "current methods employed
in … graph sampling [28, 33]". These samplers produce the mini-batch
subgraphs such trainers consume; MaxK layers run on them unchanged.

* :func:`node_sampler` — GraphSAINT random-node sampler (uniform, or
  degree-weighted importance sampling with unbiased loss weights);
* :func:`edge_sampler` — GraphSAINT random-edge sampler (union of
  endpoints, induced; optionally degree-weighted à la GraphSAINT-Edge);
* :func:`random_walk_sampler` — GraphSAINT random-walk sampler;
* :func:`khop_neighborhood` — GraphSAGE-style fan-out-limited k-hop
  neighbourhood around seed nodes.

The walk and k-hop samplers read a node's neighbours as a slice of the
graph's cached edge index (:meth:`Graph.edge_index`: ``out`` for walks,
``in`` for k-hop; one O(E + n) stable order per direction per graph),
and every sampler induces through
:func:`~repro.graphs.partition.induced_union` over the same index. The
walk draws positionally, so the edge-list order is part of its stream;
the k-hop draw is counter-keyed (:func:`khop_keys`), so a node's pick
depends only on the call's salt, the node and its own in-edge list.

Importance sampling draws **with replacement** from an explicit probability
vector and attaches :attr:`~repro.graphs.graph.Graph.loss_weights` to the
induced subgraph: node ``v`` drawn ``c_v`` times out of ``m`` draws gets
weight ``c_v / (m * q_v * N)`` where ``q_v`` is its expected incidences
per draw and ``N`` the number of labelled training nodes of the parent
graph. Because ``E[c_v] = m * q_v``, the weighted batch loss
``sum_v w_v * loss_v`` is an *unbiased* estimator of the full-graph mean
training loss — the GraphSAINT loss-normalisation argument, testable by
the fuzz test in ``tests/test_distributed_training.py``.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from .graph import Graph
from .partition import induced_subgraph, induced_union, sorted_unique

__all__ = [
    "as_generator",
    "degree_node_probabilities",
    "degree_edge_probabilities",
    "node_sampler",
    "edge_sampler",
    "random_walk_sampler",
    "khop_neighborhood",
    "khop_keys",
]

#: Seed-or-generator type accepted by every sampler below.
SeedLike = Union[int, np.random.Generator]


def as_generator(seed: SeedLike) -> np.random.Generator:
    """Coerce an int seed to a fresh generator; pass generators through.

    Passing a :class:`np.random.Generator` lets callers (the training
    engine's data flows) stream many batches from one random state instead
    of reseeding per call.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _labelled_count(graph: Graph) -> int:
    """Training nodes the loss estimator targets (all nodes when unmasked)."""
    if graph.train_mask is None:
        return graph.n_nodes
    count = int(np.count_nonzero(graph.train_mask))
    return count if count else graph.n_nodes


def _attach_importance_weights(
    graph: Graph,
    subgraph: Graph,
    nodes: np.ndarray,
    counts: np.ndarray,
    expected_rate: np.ndarray,
    n_draws: int,
) -> Graph:
    """Attach the unbiased GraphSAINT loss weights to an induced subgraph.

    ``counts[v]`` is how many of the ``n_draws`` draws touched node ``v``
    and ``expected_rate[v]`` its expected incidences per draw, so
    ``counts / (n_draws * expected_rate)`` has expectation 1 for every
    node; dividing by the parent's labelled-node count turns the weighted
    batch sum into an unbiased estimator of the full-graph mean loss.
    ``nodes`` must be the sorted unique node set (the order
    :func:`induced_subgraph` keeps its rows in).
    """
    scale = float(n_draws) * float(_labelled_count(graph))
    subgraph.loss_weights = counts[nodes] / (expected_rate[nodes] * scale)
    return subgraph


def degree_node_probabilities(graph: Graph, alpha: float = 1.0) -> np.ndarray:
    """Degree-weighted node-draw distribution ``p_v ∝ (deg_in(v) + 1)^alpha``.

    The +1 smoothing keeps isolated nodes reachable (a zero probability
    would bias the labelled-loss estimator wherever such a node is
    labelled); ``alpha`` interpolates between uniform (0) and fully
    degree-proportional (1) sampling.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    weights = (graph.in_degrees() + 1.0) ** alpha
    return weights / weights.sum()


def node_sampler(
    graph: Graph,
    n_nodes: int,
    seed: SeedLike = 0,
    importance: bool = False,
    alpha: float = 1.0,
) -> Graph:
    """Random-node induced subgraph (GraphSAINT-Node).

    Uniform without replacement by default. With ``importance=True``,
    ``n_nodes`` i.i.d. draws are taken from the degree-weighted
    distribution (:func:`degree_node_probabilities`), the subgraph is
    induced over the unique draws, and unbiased loss weights are attached
    (see the module docstring) — high-degree hubs are visited more often
    but down-weighted exactly in proportion.
    """
    if not 1 <= n_nodes <= graph.n_nodes:
        raise ValueError("n_nodes must be in [1, graph.n_nodes]")
    rng = as_generator(seed)
    if not importance:
        nodes = rng.choice(graph.n_nodes, size=n_nodes, replace=False)
        return induced_subgraph(graph, nodes)
    probs = degree_node_probabilities(graph, alpha)
    draws = rng.choice(graph.n_nodes, size=n_nodes, replace=True, p=probs)
    counts = np.bincount(draws, minlength=graph.n_nodes)
    nodes = np.flatnonzero(counts)
    subgraph = induced_subgraph(graph, nodes)
    return _attach_importance_weights(
        graph, subgraph, nodes, counts, probs, n_nodes
    )


def degree_edge_probabilities(graph: Graph, alpha: float = 1.0) -> np.ndarray:
    """GraphSAINT-Edge draw distribution ``p_e ∝ (1/deg(u) + 1/deg(v))^alpha``.

    Degrees are in-degrees with +1 smoothing (matching the node variant);
    the ``alpha = 1`` form favours edges whose endpoints are otherwise
    rarely covered, which is GraphSAINT's variance-reduction argument, and
    ``alpha = 0`` degenerates to uniform edge draws — the same
    interpolation knob :func:`degree_node_probabilities` exposes.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    deg = graph.in_degrees() + 1.0
    weights = (1.0 / deg[graph.src] + 1.0 / deg[graph.dst]) ** alpha
    return weights / weights.sum()


def edge_sampler(
    graph: Graph,
    n_edges: int,
    seed: SeedLike = 0,
    importance: bool = False,
    alpha: float = 1.0,
) -> Graph:
    """Random-edge sampler (GraphSAINT-Edge): endpoints of sampled edges.

    Uniform without replacement by default. With ``importance=True``,
    ``n_edges`` i.i.d. edge draws come from
    :func:`degree_edge_probabilities`; a node's draw count is its number
    of sampled incident edges, whose per-draw expectation is the summed
    probability of its incident edges — the counting estimator stays
    unbiased, so the attached loss weights normalise exactly as in the
    node variant.
    """
    if graph.n_edges == 0:
        raise ValueError("graph has no edges to sample")
    if n_edges < 1:
        raise ValueError("n_edges must be positive")
    rng = as_generator(seed)
    if not importance:
        picked = rng.choice(graph.n_edges, size=min(n_edges, graph.n_edges),
                            replace=False)
        return induced_subgraph(
            graph, np.concatenate([graph.src[picked], graph.dst[picked]])
        )
    probs = degree_edge_probabilities(graph, alpha)
    draws = rng.choice(graph.n_edges, size=n_edges, replace=True, p=probs)
    endpoint_counts = (
        np.bincount(graph.src[draws], minlength=graph.n_nodes)
        + np.bincount(graph.dst[draws], minlength=graph.n_nodes)
    )
    # Expected incidences of node v per draw: the mass of its edges.
    incident_rate = (
        np.bincount(graph.src, weights=probs, minlength=graph.n_nodes)
        + np.bincount(graph.dst, weights=probs, minlength=graph.n_nodes)
    )
    nodes = np.flatnonzero(endpoint_counts)
    subgraph = induced_subgraph(graph, nodes)
    return _attach_importance_weights(
        graph, subgraph, nodes, endpoint_counts, incident_rate, n_edges
    )


def random_walk_sampler(
    graph: Graph, n_roots: int, walk_length: int, seed: SeedLike = 0
) -> Graph:
    """Random-walk sampler (GraphSAINT-RW): union of all walk nodes."""
    if n_roots < 1 or walk_length < 1:
        raise ValueError("n_roots and walk_length must be positive")
    rng = as_generator(seed)
    _, indptr, out_dst = graph.edge_index("out")
    visited = set()
    roots = rng.choice(graph.n_nodes, size=min(n_roots, graph.n_nodes),
                       replace=False)
    for root in roots:
        node = int(root)
        visited.add(node)
        for _ in range(walk_length):
            start, end = int(indptr[node]), int(indptr[node + 1])
            if start == end:
                break
            node = int(out_dst[start + rng.integers(0, end - start)])
            visited.add(node)
    return induced_subgraph(graph, np.array(sorted(visited), dtype=np.int64))


#: The k-hop draw's golden-ratio node increment and per-rank step, and
#: splitmix64's finaliser rounds ``z ^= z >> shift; z *= factor``.
_PHI = np.uint64(0x9E3779B97F4A7C15)
_STEP = np.uint64(0xD1B54A32D192ED03)
_FINALISER = ((30, np.uint64(0xBF58476D1CE4E5B9)),
              (27, np.uint64(0x94D049BB133111EB)))


def khop_keys(graph: Graph, keys: np.ndarray, rng_seeds: Sequence[SeedLike],
              n_hops: int, fanout: int) -> np.ndarray:
    """Every ``member * n_nodes + node`` reached from ``keys``, sorted.

    Member ``m`` takes one 64-bit salt from ``as_generator(rng_seeds[m])``
    (one draw per distinct int seed, a generator's per member) and draws
    under it: in-edge ``r`` of node ``v`` (its rank in ``v``'s
    ``Graph.edge_index("in")`` list) gets the key ``mix64(salt, v, r)``,
    splitmix64's finaliser over ``(salt ^ v * PHI) + r * STEP`` in
    wrapping ``uint64``, top 32 bits. Each hop gathers the frontier's
    in-edges at once; a row with more than ``fanout`` keeps the ``fanout``
    smallest keys, ties by rank (one stable sort of ``(frontier row,
    key)``, skipped when no row is over), a smaller row keeps all and draws
    nothing, and the ``(member, node)`` pairs first reached are the next
    frontier.
    """
    if n_hops < 0 or fanout < 1:
        raise ValueError("n_hops must be >= 0 and fanout >= 1")
    drawn = {seed: as_generator(seed).integers(2**64, dtype=np.uint64)
             for seed in dict.fromkeys(rng_seeds)
             if not isinstance(seed, np.random.Generator)}
    salts = np.array([drawn[seed] if seed in drawn else
                      seed.integers(2**64, dtype=np.uint64)
                      for seed in rng_seeds])
    n = graph.n_nodes
    _, indptr, in_src = graph.edge_index("in")
    seen = np.zeros(len(salts) * n, dtype=bool)
    seen[keys] = True
    frontier, levels = keys, [keys]
    for _ in range(n_hops):
        if not frontier.size:
            break
        member, nodes = np.divmod(frontier, n) if len(salts) > 1 else (0, frontier)
        starts = indptr[nodes]
        counts = indptr[nodes + 1] - starts
        first = np.cumsum(counts) - counts
        owner = np.repeat(np.arange(frontier.size), counts)
        rank = np.arange(first[-1] + counts[-1]) - first[owner]
        reached = in_src[starts[owner] + rank]
        if counts.max() > fanout:
            z = (salts[member] ^ nodes.view(np.uint64) * _PHI)[owner]
            z += rank.view(np.uint64) * _STEP
            for shift, factor in _FINALISER:
                z ^= z >> shift
                z *= factor
            draw = (z ^ z >> 31) >> 32
            order = np.argsort(owner.view(np.uint64) << 32 | draw, kind="stable")
            order = order[rank < fanout]
            owner, reached = owner[order], reached[order]
        if len(salts) > 1:
            reached += (frontier - nodes)[owner]
        frontier = sorted_unique(reached[~seen[reached]])
        seen[frontier] = True
        levels.append(frontier)
    return np.sort(np.concatenate(levels))


def khop_neighborhood(
    graph: Graph,
    seeds: np.ndarray,
    n_hops: int,
    fanout: int,
    rng_seed: SeedLike = 0,
    return_nodes: bool = False,
):
    """Fan-out-limited k-hop neighbourhood (GraphSAGE mini-batching).

    Expands ``n_hops`` times from ``seeds`` (:func:`khop_keys`, one member)
    and induces the subgraph over everything reached. The call takes one
    64-bit draw from ``rng_seed``, so a passed generator still streams
    across calls. A node's pick depends only on ``(salt, node, its in-edge
    list)``: a delta re-samples only the nodes whose in-edge lists it
    changed, and a served window member (:func:`~repro.serving.batcher.
    build_ego_batch`) equals the same request expanded alone, by
    construction. With ``return_nodes`` the sorted node ids come back too
    (row ``i`` of the subgraph is ``nodes[i]``).
    """
    seeds = sorted_unique(np.asarray(seeds, dtype=np.int64))
    if seeds.size and (seeds[0] < 0 or seeds[-1] >= graph.n_nodes):
        raise ValueError("seed ids out of range")
    nodes = khop_keys(graph, seeds, [rng_seed], n_hops, fanout)
    subgraph = induced_union(graph, nodes)
    if return_nodes:
        return subgraph, nodes
    return subgraph
