"""Graph partitioning and boundary sampling (BNS-GCN / Cluster-GCN role).

§1 of the paper states the MaxK constructs "align with current methods
employed in graph partitioning [27, 32]" — BNS-GCN's partition-parallel
training with random boundary-node sampling and Cluster-GCN's subgraph
batches. This module provides that substrate:

* :func:`bfs_partition` — a light BFS-grown P-way partitioner (the METIS
  role at laptop scale);
* :func:`boundary_nodes` — per-partition halo sets;
* :func:`induced_subgraph` — node-induced training subgraphs, and
  :func:`induced_union` — many at once, block-diagonally;
* :func:`bns_sample` — BNS-GCN-style random boundary sampling: keep a
  fraction of each partition's boundary, drop the rest of the halo.

:func:`induced_union` is the edge-list induction: the samplers of
:mod:`repro.graphs.sampling`, the BNS partitions and
``EgoBatch.merged`` induce through it. It walks the selected rows of the
graph's cached in-edge index (:meth:`Graph.edge_index`: one stable radix
order of ``dst`` per graph generation, O(E + n), patched by
``apply_delta``), so one call costs the selected nodes' in-degrees plus an
``n_nodes`` id-map fill — not a scan of the edge list — and emits the same
arrays, in the same COO order, as the full scan would. The other route
cuts CSR rows instead: :func:`~repro.sparse.ops.induced_rows` over the
graph's structural base gives a served window's adjacency and a k-hop
training batch (``SampledFlow``), the bytes of this route's adjacency
without a COO round trip.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from .graph import Graph

__all__ = [
    "Partition",
    "bfs_partition",
    "boundary_nodes",
    "induced_subgraph",
    "induced_union",
    "bns_sample",
]


@dataclass(frozen=True)
class Partition:
    """A P-way node partition: ``assignment[v]`` is node v's part id."""

    assignment: np.ndarray
    n_parts: int

    def __post_init__(self):
        assignment = np.asarray(self.assignment, dtype=np.int64)
        if assignment.ndim != 1:
            raise ValueError("assignment must be 1-D")
        if assignment.size and (
            assignment.min() < 0 or assignment.max() >= self.n_parts
        ):
            raise ValueError("part ids out of range")
        object.__setattr__(self, "assignment", assignment)

    def members(self, part: int) -> np.ndarray:
        return np.where(self.assignment == part)[0]

    def sizes(self) -> np.ndarray:
        counts = np.zeros(self.n_parts, dtype=np.int64)
        np.add.at(counts, self.assignment, 1)
        return counts

    def edge_cut(self, graph: Graph) -> int:
        """Number of edges crossing partition boundaries."""
        return int(
            (self.assignment[graph.src] != self.assignment[graph.dst]).sum()
        )


def bfs_partition(graph: Graph, n_parts: int, seed: int = 0) -> Partition:
    """Grow ``n_parts`` balanced parts by parallel BFS from random seeds.

    Greedy frontier growth caps every part at ``ceil(n / P)`` nodes, then
    sweeps up any unreached nodes round-robin — cheap, deterministic, and
    good enough to expose the boundary-sampling behaviour BNS-GCN relies on.
    """
    if n_parts < 1:
        raise ValueError("n_parts must be >= 1")
    if n_parts > graph.n_nodes:
        raise ValueError("more parts than nodes")
    rng = np.random.default_rng(seed)
    capacity = -(-graph.n_nodes // n_parts)

    neighbours: Dict[int, List[int]] = {}
    for s, d in zip(graph.src, graph.dst):
        neighbours.setdefault(int(s), []).append(int(d))
        neighbours.setdefault(int(d), []).append(int(s))

    assignment = np.full(graph.n_nodes, -1, dtype=np.int64)
    sizes = np.zeros(n_parts, dtype=np.int64)
    seeds = rng.choice(graph.n_nodes, size=n_parts, replace=False)
    queues = [deque([int(s)]) for s in seeds]
    for part, seed_node in enumerate(seeds):
        assignment[seed_node] = part
        sizes[part] += 1

    progress = True
    while progress:
        progress = False
        for part in range(n_parts):
            queue = queues[part]
            while queue and sizes[part] < capacity:
                node = queue.popleft()
                expanded = False
                for neighbour in neighbours.get(node, ()):
                    if assignment[neighbour] == -1 and sizes[part] < capacity:
                        assignment[neighbour] = part
                        sizes[part] += 1
                        queue.append(neighbour)
                        expanded = True
                progress = progress or expanded
                if expanded:
                    break  # round-robin between parts for balance

    unassigned = np.where(assignment == -1)[0]
    for i, node in enumerate(unassigned):
        # Fill the currently smallest part.
        part = int(np.argmin(sizes))
        assignment[node] = part
        sizes[part] += 1
    return Partition(assignment=assignment, n_parts=n_parts)


def boundary_nodes(graph: Graph, partition: Partition, part: int) -> np.ndarray:
    """Nodes of ``part`` with at least one edge to/from another part."""
    assignment = partition.assignment
    crossing = assignment[graph.src] != assignment[graph.dst]
    candidates = np.concatenate(
        [graph.src[crossing], graph.dst[crossing]]
    )
    candidates = candidates[assignment[candidates] == part]
    return sorted_unique(candidates)


def sorted_unique(ids: np.ndarray) -> np.ndarray:
    """``np.unique(ids)`` from a sort and an adjacent-difference mask
    (numpy 2's hash-based ``np.unique`` is 15–20x slower at batch sizes)."""
    ids = np.sort(ids, axis=None)
    return ids[np.concatenate(([True], ids[1:] != ids[:-1]))[:ids.size]]


def induced_subgraph(graph: Graph, nodes: np.ndarray) -> Graph:
    """Node-induced subgraph with re-indexed, consistently sliced payloads:
    :func:`induced_union` of one member."""
    nodes = sorted_unique(np.asarray(nodes, dtype=np.int64))
    if nodes.size and (nodes[0] < 0 or nodes[-1] >= graph.n_nodes):
        raise ValueError("node ids out of range")
    return induced_union(graph, nodes)


def induced_union(graph: Graph, keys: np.ndarray, n_members: int = 1) -> Graph:
    """Disjoint union of the subgraphs each member's nodes induce.

    ``keys`` are sorted unique ``member * n_nodes + node`` ids; row ``i``
    is ``keys[i]``'s node and each member keeps its edges in COO order —
    the bytes :func:`~repro.graphs.batching.batch_graphs` gives for the
    members induced one by one. Reads the in-edge ranges of the members'
    node union once: O(n_nodes memset + the union's in-degrees + kept log
    kept + members x kept), not a scan of the edge list.
    """
    order, indptr, in_src = graph.edge_index("in")
    # Per call, not cached: concurrent builders induce from one graph.
    local_id = np.full(graph.n_nodes, -1, dtype=np.int64)
    nodes = union = keys
    if n_members > 1:
        member, nodes = np.divmod(keys, graph.n_nodes)
        local_id[nodes] = 0  # a scan of the map beats numpy 2's np.unique
        union = np.flatnonzero(local_id == 0)
    local_id[union] = np.arange(union.size)
    starts = indptr[union]
    counts = indptr[union + 1] - starts
    # Index positions of every selected row: each row's start, repeated,
    # plus the offset within the row.
    rows = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    rows += np.arange(rows.size)
    # Sorting the surviving COO positions restores the edge-list order.
    kept = np.sort(order[np.compress(local_id[in_src[rows]] >= 0, rows)])
    src, dst = local_id[graph.src[kept]], local_id[graph.dst[kept]]
    name = f"{graph.name}-sub"
    if n_members > 1:
        # Row of each (member, union node); -1 where the member lacks it.
        row = np.full((n_members, union.size), -1, dtype=np.int64)
        row[member, local_id[nodes]] = np.arange(nodes.size)
        member, edge = np.nonzero((row[:, src] >= 0) & (row[:, dst] >= 0))
        src, dst = row[member, src[edge]], row[member, dst[edge]]
        name = f"batch[{n_members}x{name}]"
    return Graph(
        n_nodes=int(nodes.size), src=src, dst=dst, name=name,
        multilabel=graph.multilabel,
        **{key: rows[nodes] for key, rows in graph.node_arrays().items()},
    )


def bns_sample(
    graph: Graph,
    partition: Partition,
    part: int,
    boundary_fraction: float = 0.1,
    seed: int = 0,
) -> Graph:
    """BNS-GCN-style training subgraph for one partition.

    Keeps every interior node of ``part`` plus a random
    ``boundary_fraction`` of the *other* parts' nodes adjacent to it (the
    sampled halo), then induces the subgraph.
    """
    if not 0.0 <= boundary_fraction <= 1.0:
        raise ValueError("boundary_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    assignment = partition.assignment
    own = partition.members(part)

    src_in = assignment[graph.src] == part
    dst_in = assignment[graph.dst] == part
    halo = sorted_unique(
        np.concatenate(
            [graph.dst[src_in & ~dst_in], graph.src[dst_in & ~src_in]]
        )
    )
    n_keep = int(round(halo.size * boundary_fraction))
    kept_halo = (
        rng.choice(halo, size=n_keep, replace=False)
        if n_keep
        else np.empty(0, dtype=np.int64)
    )
    return induced_subgraph(graph, np.concatenate([own, kept_halo]))
