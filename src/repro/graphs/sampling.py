"""Subgraph sampling (the GraphSAINT / Betty role).

The paper positions MaxK-GNN as compatible with "current methods employed
in … graph sampling [28, 33]". These samplers produce the mini-batch
subgraphs such trainers consume; MaxK layers run on them unchanged.

* :func:`node_sampler` — GraphSAINT random-node sampler;
* :func:`edge_sampler` — GraphSAINT random-edge sampler (union of
  endpoints, induced);
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
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from .graph import Graph
from .partition import induced_subgraph, induced_union, sorted_unique

__all__ = [
    "as_generator",
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


def node_sampler(graph: Graph, n_nodes: int, seed: SeedLike = 0) -> Graph:
    """Random-node induced subgraph (GraphSAINT-Node): uniform without
    replacement."""
    if not 1 <= n_nodes <= graph.n_nodes:
        raise ValueError("n_nodes must be in [1, graph.n_nodes]")
    rng = as_generator(seed)
    nodes = rng.choice(graph.n_nodes, size=n_nodes, replace=False)
    return induced_subgraph(graph, nodes)


def edge_sampler(graph: Graph, n_edges: int, seed: SeedLike = 0) -> Graph:
    """Random-edge sampler (GraphSAINT-Edge): endpoints of sampled edges,
    drawn uniformly without replacement."""
    if graph.n_edges == 0:
        raise ValueError("graph has no edges to sample")
    if n_edges < 1:
        raise ValueError("n_edges must be positive")
    rng = as_generator(seed)
    picked = rng.choice(graph.n_edges, size=min(n_edges, graph.n_edges),
                        replace=False)
    return induced_subgraph(
        graph, np.concatenate([graph.src[picked], graph.dst[picked]])
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
