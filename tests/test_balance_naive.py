"""Tests for workload-balance analysis and the naive kernel ablations."""

import numpy as np
import pytest

from repro.gpusim import (
    A100,
    SparsePattern,
    compare_mappings,
    edge_group_loads,
    gini,
    naive_spgemm_cost,
    naive_sspmm_cost,
    row_split_loads,
    spgemm_cost,
    sspmm_cost,
    warp_efficiency,
)
from repro.graphs import TABLE1_GRAPHS, erdos_renyi_graph, rmat_graph

REDDIT = SparsePattern.from_spec(TABLE1_GRAPHS["Reddit"])


class TestBalanceMetrics:
    def test_uniform_loads_perfectly_efficient(self):
        assert warp_efficiency(np.full(10, 7)) == 1.0
        assert gini(np.full(10, 7)) == pytest.approx(0.0, abs=1e-12)

    def test_single_evil_row_tanks_efficiency(self):
        loads = np.array([1, 1, 1, 1, 100])
        assert warp_efficiency(loads) < 0.25
        assert gini(loads) > 0.5

    def test_empty_loads(self):
        assert warp_efficiency(np.array([])) == 1.0
        assert gini(np.array([])) == 0.0

    def test_zero_loads_ignored_for_efficiency(self):
        assert warp_efficiency(np.array([0, 0, 4, 4])) == 1.0


class TestLoadMetricsBesideThePartitioner:
    """``gini`` / ``warp_efficiency`` live in ``sparse/partition.py`` (the
    executed program scores replica loads with them); ``gpusim`` re-exports
    them unchanged."""

    def test_gpusim_re_exports_the_partitioner_metrics(self):
        from repro import gpusim
        from repro.gpusim import balance
        from repro.sparse import partition

        for name in ("gini", "warp_efficiency"):
            assert getattr(balance, name) is getattr(partition, name)
            assert getattr(gpusim, name) is getattr(partition, name)

    @pytest.mark.parametrize("loads", [
        [7] * 10,
        [1, 1, 1, 1, 100],
        [0, 0, 4, 4],
        [0, 0, 0],
        [3],
        # Longer than numpy's reduction buffer: a cast-then-sum and an
        # exact integer sum must still agree.
        list(np.random.default_rng(3).integers(0, 10**6, size=20_000)),
    ], ids=["level", "evil-row", "idle-warps", "all-zero", "one",
            "long"])
    def test_integer_and_float_loads_read_the_same(self, loads):
        as_int = np.asarray(loads, dtype=np.int64)
        for same in (as_int.astype(float), list(loads)):
            assert warp_efficiency(same) == warp_efficiency(as_int)
            assert gini(same) == gini(as_int)

    def test_order_and_power_of_two_scale_do_not_matter(self):
        loads = np.random.default_rng(5).integers(0, 1000, size=257)
        shuffled = np.random.default_rng(6).permutation(loads)
        for other in (shuffled, 4 * loads):
            assert warp_efficiency(other) == warp_efficiency(loads)
            assert gini(other) == gini(loads)

    @pytest.mark.parametrize("n", [2, 5, 64])
    def test_gini_spans_level_to_one_hot(self, n):
        one_hot = np.zeros(n, dtype=np.int64)
        one_hot[-1] = 9
        assert gini(one_hot) == pytest.approx(1.0 - 1.0 / n)
        assert warp_efficiency(one_hot) == 1.0  # idle warps are ignored
        assert gini(np.full(n, 9)) == pytest.approx(0.0, abs=1e-12)


class TestMappingComparison:
    def test_edge_groups_fix_power_law_imbalance(self):
        """The paper's motivation: EGs remove the evil-row problem."""
        graph = rmat_graph(512, 8192, seed=6)
        comparison = compare_mappings(graph.adjacency("none"), dim_k=32)
        assert comparison.edge_group_efficiency > comparison.row_split_efficiency
        assert comparison.edge_group_gini < comparison.row_split_gini
        assert comparison.max_edge_group_load < comparison.max_row_load
        assert comparison.efficiency_gain > 2.0

    def test_uniform_graph_needs_less_fixing(self):
        skewed = rmat_graph(512, 8192, seed=6)
        uniform = erdos_renyi_graph(512, 16.0, seed=6)
        gain_skewed = compare_mappings(skewed.adjacency("none")).efficiency_gain
        gain_uniform = compare_mappings(uniform.adjacency("none")).efficiency_gain
        assert gain_skewed > gain_uniform

    def test_loads_cover_all_edges(self):
        graph = rmat_graph(128, 1024, seed=7)
        adjacency = graph.adjacency("none")
        assert row_split_loads(adjacency).sum() == adjacency.nnz
        assert edge_group_loads(adjacency, 32).sum() == adjacency.nnz


class TestNaiveKernels:
    """The ablations behind §4's two design decisions."""

    def test_shared_memory_buffering_pays_off(self):
        """Algorithm 1's Buf_w vs naive global sparse atomics."""
        for k in (8, 32, 128):
            buffered = spgemm_cost(REDDIT, 256, k, A100).latency
            naive = naive_spgemm_cost(REDDIT, 256, k, A100).latency
            assert naive > 2.0 * buffered, k

    def test_dense_row_prefetch_pays_off(self):
        """Algorithm 2's stage-1 buffering vs naive irregular gathers."""
        for k in (8, 32, 128):
            prefetched = sspmm_cost(REDDIT, 256, k, A100).latency
            naive = naive_sspmm_cost(REDDIT, 256, k, A100).latency
            assert naive > 2.0 * prefetched, k

    def test_naive_spgemm_can_lose_to_dense_spmm(self):
        """Without coalescing, CBSR sparsity alone does not win — the
        motivation for the kernel co-design."""
        from repro.gpusim import cusparse_spmm_cost

        spmm = cusparse_spmm_cost(REDDIT, 256, A100).latency
        naive = naive_spgemm_cost(REDDIT, 256, 128, A100).latency
        assert naive > spmm

    def test_naive_traffic_categories(self):
        cost = naive_spgemm_cost(REDDIT, 256, 32, A100)
        assert "global_sparse_atomic" in cost.traffic.categories
        cost = naive_sspmm_cost(REDDIT, 256, 32, A100)
        assert "irregular_dense_gather" in cost.traffic.categories

    def test_k_validation(self):
        with pytest.raises(ValueError):
            naive_spgemm_cost(REDDIT, 256, 0, A100)
        with pytest.raises(ValueError):
            naive_sspmm_cost(REDDIT, 256, 300, A100)
