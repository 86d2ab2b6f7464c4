"""Graph reordering for memory locality (the Rabbit-order role).

The paper notes GNNAdvisor's kernel gains come mainly from Rabbit-order
reordering (§2.2). This module provides lightweight stand-ins with the same
goal — renumber nodes so neighbours sit close in memory, improving the
cache behaviour of feature fetches:

* :func:`degree_sort_reorder` — hubs first (GNNAdvisor-style grouping);
* :func:`bfs_reorder` — reverse-Cuthill-McKee-flavoured breadth-first
  renumbering for community locality;
* :func:`community_sort_reorder` — sort by planted/estimated community;
* :func:`locality_score` — mean normalised |src - dst| distance, the metric
  the reordering ablation tracks.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict

import numpy as np

from .graph import Graph
from .partition import sorted_unique

__all__ = [
    "apply_permutation",
    "degree_sort_reorder",
    "bfs_reorder",
    "community_sort_reorder",
    "locality_score",
    "REORDERINGS",
]


def apply_permutation(graph: Graph, new_ids: np.ndarray) -> Graph:
    """Renumber nodes: ``new_ids[v]`` is node v's new index.

    Every node column the graph carries is permuted consistently.
    """
    new_ids = np.asarray(new_ids, dtype=np.int64)
    if new_ids.shape != (graph.n_nodes,):
        raise ValueError("permutation must assign every node a new id")
    if len(sorted_unique(new_ids)) != graph.n_nodes:
        raise ValueError("permutation must be a bijection")

    inverse = np.empty_like(new_ids)
    inverse[new_ids] = np.arange(graph.n_nodes)

    return Graph(
        n_nodes=graph.n_nodes,
        src=new_ids[graph.src],
        dst=new_ids[graph.dst],
        name=f"{graph.name}-reordered",
        multilabel=graph.multilabel,
        **{name: rows[inverse] for name, rows in graph.node_arrays().items()},
    )


def degree_sort_reorder(graph: Graph) -> Graph:
    """Renumber nodes by descending in-degree (hubs get low ids).

    Groups the frequently-fetched hub rows at the front of the feature
    matrix, where they share cache lines and stay resident.
    """
    order = np.argsort(-graph.in_degrees(), kind="stable")
    new_ids = np.empty(graph.n_nodes, dtype=np.int64)
    new_ids[order] = np.arange(graph.n_nodes)
    return apply_permutation(graph, new_ids)


def bfs_reorder(graph: Graph, seed_node: int = None) -> Graph:
    """Breadth-first renumbering from the highest-degree node.

    Neighbouring nodes receive adjacent ids, shrinking the span of every
    row's feature gathers (the locality effect Rabbit order targets).
    """
    degrees = graph.in_degrees() + graph.out_degrees()
    if seed_node is None:
        seed_node = int(np.argmax(degrees))
    if not 0 <= seed_node < graph.n_nodes:
        raise ValueError("seed_node out of range")

    neighbours: Dict[int, list] = {}
    for s, d in zip(graph.src, graph.dst):
        neighbours.setdefault(int(s), []).append(int(d))
        neighbours.setdefault(int(d), []).append(int(s))

    new_ids = np.full(graph.n_nodes, -1, dtype=np.int64)
    next_id = 0
    visited = np.zeros(graph.n_nodes, dtype=bool)
    # BFS from the seed, then sweep remaining components by degree.
    seeds = [seed_node] + list(np.argsort(-degrees))
    for start in seeds:
        if visited[start]:
            continue
        queue = deque([int(start)])
        visited[start] = True
        while queue:
            node = queue.popleft()
            new_ids[node] = next_id
            next_id += 1
            for neighbour in neighbours.get(node, ()):
                if not visited[neighbour]:
                    visited[neighbour] = True
                    queue.append(neighbour)
    return apply_permutation(graph, new_ids)


def community_sort_reorder(graph: Graph) -> Graph:
    """Renumber by community id (requires planted communities).

    Intra-community edges — the majority under homophily — become
    short-range after the sort.
    """
    if graph.communities is None:
        raise ValueError("graph has no community annotation")
    order = np.argsort(graph.communities, kind="stable")
    new_ids = np.empty(graph.n_nodes, dtype=np.int64)
    new_ids[order] = np.arange(graph.n_nodes)
    return apply_permutation(graph, new_ids)


def locality_score(graph: Graph) -> float:
    """Mean normalised |src - dst| over edges; lower is more local."""
    if graph.n_edges == 0 or graph.n_nodes < 2:
        return 0.0
    spans = np.abs(graph.src - graph.dst)
    return float(spans.mean() / (graph.n_nodes - 1))


REORDERINGS: Dict[str, Callable[[Graph], Graph]] = {
    "degree": degree_sort_reorder,
    "bfs": bfs_reorder,
    "community": community_sort_reorder,
}
