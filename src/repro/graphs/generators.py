"""Deterministic synthetic graph generators.

The paper benchmarks on 24 public graphs (Table 1) spanning four decades of
average degree (0.17 for OVCAR-8H up to 597 for ogbn-proteins) and strongly
power-law degree distributions. Kernel behaviour in the paper depends on
(n_nodes, nnz, avg degree, degree skew) — all of which these generators
control — so scaled synthetic stand-ins exercise the identical code paths.

All generators take an explicit ``seed`` and are reproducible.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .graph import Graph

__all__ = ["rmat_graph", "sbm_graph", "chain_of_cliques", "erdos_renyi_graph"]


def _dedupe_edges(src: np.ndarray, dst: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Remove duplicate (src, dst) pairs and self-loops, preserving order."""
    keep = src != dst
    src, dst = src[keep], dst[keep]
    keys = src.astype(np.int64) * (dst.max() + 1 if len(dst) else 1) + dst
    _, unique_idx = np.unique(keys, return_index=True)
    unique_idx.sort()
    return src[unique_idx], dst[unique_idx]


def rmat_graph(
    n_nodes: int,
    n_edges: int,
    seed: int = 0,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    name: str = "rmat",
) -> Graph:
    """Recursive-matrix (R-MAT) generator producing power-law graphs.

    The default (a, b, c, d) = (0.57, 0.19, 0.19, 0.05) matches the Graph500
    parameters and yields the heavy-tailed degree skew of social graphs like
    Reddit. Oversamples 30% to compensate for duplicate removal, then trims.
    """
    if a + b + c >= 1.0:
        raise ValueError("a + b + c must be < 1")
    rng = np.random.default_rng(seed)
    scale = max(1, int(np.ceil(np.log2(max(n_nodes, 2)))))
    n_samples = int(n_edges * 1.3) + 16

    src = np.zeros(n_samples, dtype=np.int64)
    dst = np.zeros(n_samples, dtype=np.int64)
    for _ in range(scale):
        quadrant = rng.random(n_samples)
        go_right = (quadrant >= a) & (quadrant < a + b)
        go_down = (quadrant >= a + b) & (quadrant < a + b + c)
        go_diag = quadrant >= a + b + c
        src = src * 2 + (go_down | go_diag)
        dst = dst * 2 + (go_right | go_diag)
    src %= n_nodes
    dst %= n_nodes
    src, dst = _dedupe_edges(src, dst)
    src, dst = src[:n_edges], dst[:n_edges]
    return Graph(n_nodes=n_nodes, src=src, dst=dst, name=name)


def sbm_graph(
    n_nodes: int,
    n_communities: int,
    avg_degree: float,
    intra_fraction: float = 0.85,
    seed: int = 0,
    name: str = "sbm",
) -> Graph:
    """Stochastic-block-model graph with planted communities.

    Used for the training datasets: community structure is what lets a GNN
    actually learn, and its strength controls achievable accuracy.
    """
    if not 0.0 < intra_fraction <= 1.0:
        raise ValueError("intra_fraction must be in (0, 1]")
    rng = np.random.default_rng(seed)
    communities = rng.integers(0, n_communities, size=n_nodes)
    n_edges = int(n_nodes * avg_degree)
    n_intra = int(n_edges * intra_fraction)

    # Intra-community edges: pick a community (weighted by size), then two
    # members. Build per-community member lists once.
    order = np.argsort(communities, kind="stable")
    sorted_comm = communities[order]
    boundaries = np.searchsorted(sorted_comm, np.arange(n_communities + 1))

    comm_sizes = np.diff(boundaries)
    comm_probs = comm_sizes / comm_sizes.sum()
    chosen = rng.choice(n_communities, size=n_intra, p=comm_probs)
    lo = boundaries[chosen]
    span = np.maximum(boundaries[chosen + 1] - lo, 1)
    src_intra = order[lo + (rng.integers(0, 2**31, size=n_intra) % span)]
    dst_intra = order[lo + (rng.integers(0, 2**31, size=n_intra) % span)]

    n_inter = n_edges - n_intra
    src_inter = rng.integers(0, n_nodes, size=n_inter)
    dst_inter = rng.integers(0, n_nodes, size=n_inter)

    src = np.concatenate([src_intra, src_inter])
    dst = np.concatenate([dst_intra, dst_inter])
    src, dst = _dedupe_edges(src, dst)
    return Graph(
        n_nodes=n_nodes, src=src, dst=dst, name=name, communities=communities
    )


def chain_of_cliques(n_cliques: int, clique_size: int, name: str = "cliques") -> Graph:
    """Deterministic chain of fully-connected cliques (testing workhorse)."""
    src_list, dst_list = [], []
    for c in range(n_cliques):
        base = c * clique_size
        for i in range(clique_size):
            for j in range(clique_size):
                if i != j:
                    src_list.append(base + i)
                    dst_list.append(base + j)
        if c + 1 < n_cliques:
            src_list.append(base + clique_size - 1)
            dst_list.append(base + clique_size)
            src_list.append(base + clique_size)
            dst_list.append(base + clique_size - 1)
    return Graph(
        n_nodes=n_cliques * clique_size,
        src=np.array(src_list, dtype=np.int64),
        dst=np.array(dst_list, dtype=np.int64),
        name=name,
    )


def erdos_renyi_graph(
    n_nodes: int, avg_degree: float, seed: int = 0, name: str = "er"
) -> Graph:
    """Uniform random graph — the no-skew control for balance studies."""
    rng = np.random.default_rng(seed)
    n_edges = int(n_nodes * avg_degree)
    src = rng.integers(0, n_nodes, size=int(n_edges * 1.2) + 8)
    dst = rng.integers(0, n_nodes, size=len(src))
    src, dst = _dedupe_edges(src, dst)
    return Graph(n_nodes=n_nodes, src=src[:n_edges], dst=dst[:n_edges], name=name)
