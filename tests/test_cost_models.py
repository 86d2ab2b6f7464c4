"""Tests of the kernel cost models against the paper's §4.3 algebra.

These lock in the analytic structure: traffic closed forms, reduction
formulas, speedup monotonicity/saturation in k, and the Table-4 relative
latencies.
"""

import numpy as np
import pytest

from repro.gpusim import (
    A100,
    SparsePattern,
    cusparse_spmm_cost,
    elementwise_cost,
    gemm_cost,
    gnnadvisor_spmm_cost,
    maxk_kernel_cost,
    spgemm_cost,
    spgemm_traffic_bytes,
    spgemm_traffic_reduction,
    spmm_traffic_bytes,
    sspmm_cost,
    sspmm_read_bytes,
    sspmm_write_bytes,
)
from repro.gpusim.kernels.spgemm import spgemm_request_traffic
from repro.gpusim.kernels.spmm import spmm_request_traffic
from repro.gpusim.kernels.sspmm import sspmm_request_traffic
from repro.graphs import TABLE1_GRAPHS

REDDIT = SparsePattern.from_spec(TABLE1_GRAPHS["Reddit"])
DIM = 256


class TestClosedForms:
    """The §4.3 formulas, verbatim."""

    def test_spmm_feature_traffic(self):
        assert spmm_traffic_bytes(256, 1000) == 4 * 256 * 1000

    def test_spgemm_uint8_traffic(self):
        assert spgemm_traffic_bytes(32, 1000) == 5 * 32 * 1000

    def test_spgemm_int32_traffic(self):
        assert spgemm_traffic_bytes(32, 1000, uint8_index=False) == 8 * 32 * 1000

    def test_sspmm_read_formula(self):
        assert sspmm_read_bytes(256, 32, 100, 1000) == 4 * 100 * 256 + 5 * 32 * 1000

    def test_sspmm_write_formula(self):
        assert sspmm_write_bytes(32, 1000) == 4 * 32 * 1000

    def test_forward_reduction_formula(self):
        assert spgemm_traffic_reduction(256, 16, 1000) == (4 * 256 - 5 * 16) * 1000

    def test_reduction_is_fetch_difference(self):
        nnz = 12345
        assert spgemm_traffic_reduction(DIM, 16, nnz) == (
            spmm_traffic_bytes(DIM, nnz) - spgemm_traffic_bytes(16, nnz)
        )

    def test_paper_reddit_headline_reduction(self):
        """Reddit, dim 256 -> k 16: ~90.6% forward traffic reduction."""
        nnz = REDDIT.nnz
        reduction = spgemm_traffic_reduction(DIM, 16, nnz)
        assert reduction / spmm_traffic_bytes(DIM, nnz) == pytest.approx(
            0.922, abs=0.01
        )

    def test_kernel_traffic_contains_closed_form_fetch(self):
        traffic = spgemm_request_traffic(REDDIT, DIM, 32, A100)
        assert traffic.categories["cbsr_fetch"] == spgemm_traffic_bytes(
            32, REDDIT.nnz
        )
        spmm = spmm_request_traffic(REDDIT, DIM, A100)
        assert spmm.categories["feature_fetch"] == spmm_traffic_bytes(
            DIM, REDDIT.nnz
        )

    def test_sspmm_kernel_traffic_split(self):
        traffic = sspmm_request_traffic(REDDIT, DIM, 32, A100)
        combined = (
            traffic.categories["dense_row_unique"]
            + traffic.categories["sparse_fetch"]
        )
        assert combined == sspmm_read_bytes(DIM, 32, REDDIT.n_rows, REDDIT.nnz)
        assert traffic.categories["sp_data_write"] == sspmm_write_bytes(
            32, REDDIT.nnz
        )


class TestSpeedupShape:
    """Fig.-8 qualitative structure."""

    @pytest.fixture
    def spmm_latency(self):
        return cusparse_spmm_cost(REDDIT, DIM, A100).latency

    def test_speedup_monotone_decreasing_in_k(self, spmm_latency):
        speedups = [
            spmm_latency / spgemm_cost(REDDIT, DIM, k, A100).latency
            for k in (2, 4, 8, 16, 32, 64, 96, 128, 192)
        ]
        assert speedups == sorted(speedups, reverse=True)

    def test_speedup_saturates_at_low_k(self, spmm_latency):
        """Halving k below 8 must gain far less than 2x (accumulation floor)."""
        s2 = spmm_latency / spgemm_cost(REDDIT, DIM, 2, A100).latency
        s4 = spmm_latency / spgemm_cost(REDDIT, DIM, 4, A100).latency
        s64 = spmm_latency / spgemm_cost(REDDIT, DIM, 64, A100).latency
        s128 = spmm_latency / spgemm_cost(REDDIT, DIM, 128, A100).latency
        assert s2 / s4 < 1.25  # saturated regime
        assert (s64 / s128) > (s2 / s4)  # unsaturated regime gains more

    def test_high_degree_graphs_speed_up_more(self):
        """Reddit (deg 492) must out-speed pubmed (deg 5) at the same k."""
        pubmed = SparsePattern.from_spec(TABLE1_GRAPHS["pubmed"])
        def speedup(pattern):
            spmm = cusparse_spmm_cost(pattern, DIM, A100).latency
            return spmm / spgemm_cost(pattern, DIM, 16, A100).latency
        assert speedup(REDDIT) > speedup(pubmed)

    def test_sspmm_faster_than_spgemm_at_low_k(self):
        """Paper: backward SSpMM achieves better speedup than forward at k<=16."""
        forward = spgemm_cost(REDDIT, DIM, 8, A100).latency
        backward = sspmm_cost(REDDIT, DIM, 8, A100).latency
        assert backward < forward

    def test_gnnadvisor_slower_than_cusparse(self):
        for name in ("Reddit", "Flickr", "ogbn-products"):
            pattern = SparsePattern.from_spec(TABLE1_GRAPHS[name])
            assert (
                gnnadvisor_spmm_cost(pattern, DIM, A100).latency
                > cusparse_spmm_cost(pattern, DIM, A100).latency
            )

    def test_gnnadvisor_slowdown_range_matches_table5(self):
        """Measured 1.05x (products) to 1.37x (proteins)."""
        for name, low, high in [
            ("ogbn-proteins", 1.30, 1.40),
            ("Reddit", 1.25, 1.37),
            ("ogbn-products", 1.05, 1.12),
            ("Flickr", 1.05, 1.08),
        ]:
            pattern = SparsePattern.from_spec(TABLE1_GRAPHS[name])
            ratio = (
                gnnadvisor_spmm_cost(pattern, DIM, A100).latency
                / cusparse_spmm_cost(pattern, DIM, A100).latency
            )
            assert low <= ratio <= high, (name, ratio)


@pytest.mark.parametrize("name", sorted(TABLE1_GRAPHS))
class TestEveryTable1Graph:
    """The Fig.-8 / Table-5 structure holds on every Table-1 graph, not
    only on Reddit."""

    K_SWEEP = (2, 4, 8, 16, 32, 64, 96, 128, 192)

    def speedups(self, name, cost):
        pattern = SparsePattern.from_spec(TABLE1_GRAPHS[name])
        spmm = cusparse_spmm_cost(pattern, DIM, A100).latency
        return [spmm / cost(pattern, DIM, k, A100).latency for k in self.K_SWEEP]

    def test_gnnadvisor_is_cusparse_traffic_at_its_slowdown(self, name):
        pattern = SparsePattern.from_spec(TABLE1_GRAPHS[name])
        cusparse = cusparse_spmm_cost(pattern, DIM, A100)
        gnnadvisor = gnnadvisor_spmm_cost(pattern, DIM, A100)
        assert gnnadvisor.traffic.categories == cusparse.traffic.categories
        ratio = gnnadvisor.latency / cusparse.latency
        assert 1.0 < ratio <= A100.gnnadvisor_slowdown(pattern.avg_degree)

    def test_spgemm_speedup_falls_with_k_and_wins_up_to_32(self, name):
        speedups = self.speedups(name, spgemm_cost)
        assert speedups == sorted(speedups, reverse=True)
        assert speedups[self.K_SWEEP.index(32)] > 1.0

    def test_sspmm_speedup_falls_with_k_and_wins_up_to_32(self, name):
        speedups = self.speedups(name, sspmm_cost)
        assert speedups == sorted(speedups, reverse=True)
        assert speedups[self.K_SWEEP.index(32)] > 1.0


class TestTable4Calibration:
    def test_spmm_to_spgemm_ratio(self):
        """Paper Table 4: 44.98 / 15.49 = 2.9x."""
        spmm = cusparse_spmm_cost(REDDIT, DIM, A100).latency
        spgemm = spgemm_cost(REDDIT, DIM, 32, A100).latency
        assert spmm / spgemm == pytest.approx(2.9, rel=0.15)

    def test_spmm_to_sspmm_ratio(self):
        """Paper Table 4: 44.98 / 15.07 = 2.98x."""
        spmm = cusparse_spmm_cost(REDDIT, DIM, A100).latency
        sspmm = sspmm_cost(REDDIT, DIM, 32, A100).latency
        assert spmm / sspmm == pytest.approx(2.98, rel=0.15)

    def test_maxk_kernel_under_two_percent_of_spgemm(self):
        maxk = maxk_kernel_cost(REDDIT.n_rows, DIM, 32, A100).latency
        spgemm = spgemm_cost(REDDIT, DIM, 32, A100).latency
        assert maxk / spgemm < 0.02

    def test_absolute_spmm_latency_near_paper(self):
        """The L2-service boost is calibrated against Table 4's 44.98 ms."""
        spmm = cusparse_spmm_cost(REDDIT, DIM, A100).latency
        assert spmm == pytest.approx(44.98e-3, rel=0.1)


class TestValidation:
    def test_k_bounds_enforced(self):
        with pytest.raises(ValueError):
            spgemm_cost(REDDIT, DIM, 0, A100)
        with pytest.raises(ValueError):
            sspmm_cost(REDDIT, DIM, DIM + 1, A100)
        with pytest.raises(ValueError):
            maxk_kernel_cost(10, DIM, DIM + 1, A100)

    def test_pattern_validation(self):
        with pytest.raises(ValueError):
            SparsePattern(0, 5, 3)
        with pytest.raises(ValueError):
            SparsePattern(5, 5, -1)

    def test_gemm_cost_positive_and_compute_bound_for_big_gemm(self):
        cost = gemm_cost(10_000, 4096, 4096, A100)
        compute = 2.0 * 10_000 * 4096 * 4096 / A100.peak_fp32_flops
        assert cost.latency == pytest.approx(compute + A100.launch_overhead, rel=1e-6)

    def test_gemm_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            gemm_cost(0, 4, 4, A100)

    def test_elementwise_scales_with_passes(self):
        one = elementwise_cost(1_000_000, A100, n_passes=1).latency
        four = elementwise_cost(1_000_000, A100, n_passes=4).latency
        assert four == pytest.approx(4 * one, rel=0.05)

    def test_device_validation(self):
        with pytest.raises(ValueError):
            A100.memory_time(-1.0, 0.5)
        with pytest.raises(ValueError):
            A100.memory_time(1.0, 0.0)
        with pytest.raises(ValueError):
            A100.compute_time(-1.0)
        with pytest.raises(ValueError):
            A100.gnnadvisor_slowdown(-1.0)
