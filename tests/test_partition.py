"""Unit tests for Edge-Group warp partitioning (§4.1)."""

import numpy as np
import pytest

from repro.graphs import chain_of_cliques, rmat_graph
from repro.sparse import (
    WARP_SIZE,
    egs_per_warp,
    partition_edge_groups,
)


@pytest.fixture
def adjacency():
    return chain_of_cliques(4, 5).adjacency("none")


class TestEgsPerWarp:
    @pytest.mark.parametrize("dim_k,expected", [(2, 16), (4, 8), (8, 4), (16, 2)])
    def test_case1_packs_multiple_egs(self, dim_k, expected):
        assert egs_per_warp(dim_k) == expected

    @pytest.mark.parametrize("dim_k", [17, 32, 64, 192])
    def test_case2_one_eg_per_warp(self, dim_k):
        assert egs_per_warp(dim_k) == 1

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            egs_per_warp(0)


class TestPartition:
    def test_covers_every_nonzero_exactly_once(self, adjacency):
        partition = partition_edge_groups(adjacency, dim_k=4, max_edges_per_group=3)
        covered = np.zeros(adjacency.nnz, dtype=int)
        for group in partition.groups:
            covered[group.start : group.stop] += 1
        assert (covered == 1).all()

    def test_groups_respect_row_boundaries(self, adjacency):
        partition = partition_edge_groups(adjacency, dim_k=4, max_edges_per_group=3)
        for group in partition.groups:
            lo = adjacency.indptr[group.row]
            hi = adjacency.indptr[group.row + 1]
            assert lo <= group.start < group.stop <= hi

    def test_group_size_capped_by_w(self, adjacency):
        w = 3
        partition = partition_edge_groups(adjacency, dim_k=4, max_edges_per_group=w)
        assert all(1 <= g.size <= w for g in partition.groups)

    def test_case1_warp_packing(self, adjacency):
        partition = partition_edge_groups(adjacency, dim_k=8, max_edges_per_group=2)
        assert partition.groups_per_warp == WARP_SIZE // 8
        per_warp_counts = {}
        for group in partition.groups:
            per_warp_counts[group.warp] = per_warp_counts.get(group.warp, 0) + 1
        assert max(per_warp_counts.values()) <= partition.groups_per_warp

    def test_case2_one_group_per_warp(self, adjacency):
        partition = partition_edge_groups(adjacency, dim_k=32, max_edges_per_group=4)
        warps = [g.warp for g in partition.groups]
        assert len(warps) == len(set(warps))

    def test_empty_matrix(self):
        from repro.sparse import coo_to_csr

        empty = coo_to_csr([], [], [], (5, 5))
        partition = partition_edge_groups(empty, dim_k=4)
        assert partition.groups == []
        assert partition.n_warps == 0

    def test_rejects_bad_w(self, adjacency):
        with pytest.raises(ValueError):
            partition_edge_groups(adjacency, dim_k=4, max_edges_per_group=0)


class TestBalance:
    def test_partitioning_tames_power_law_imbalance(self):
        """Splitting evil rows into EGs bounds the per-warp load."""
        graph = rmat_graph(400, 6000, seed=3)
        adjacency = graph.adjacency("none")
        max_degree = adjacency.row_degrees().max()

        partition = partition_edge_groups(adjacency, dim_k=32, max_edges_per_group=8)
        loads = partition.warp_loads()
        assert loads.max() <= 8  # one EG per warp, at most w edges
        assert loads.max() < max_degree  # the evil row got split
