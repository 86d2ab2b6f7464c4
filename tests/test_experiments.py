"""Tests of the per-table / per-figure experiment modules.

Training-based experiments run with reduced epochs here; the full paper
configurations live in the benchmark harness.
"""

import numpy as np
import pytest

from repro.experiments import (
    fig1_breakdown,
    fig4_approximator,
    fig8_kernels,
    fig9_system,
    fig10_convergence,
    table2_memory,
    table4_maxk_kernel,
    table5_accuracy,
)
from repro.experiments.common import format_table, scaled_k
from repro.graphs import TRAINING_CONFIGS


class TestCommon:
    def test_scaled_k_proportional(self):
        cfg = TRAINING_CONFIGS["Reddit"]  # hidden 64 vs paper 256
        assert scaled_k(32, cfg) == 8
        assert scaled_k(256, cfg) == cfg.hidden  # clamped

    def test_scaled_k_floor_one(self):
        cfg = TRAINING_CONFIGS["Reddit"]
        assert scaled_k(2, cfg) >= 1

    def test_format_table_alignment(self):
        table = format_table(["a", "bb"], [(1, 2.5), (10, 0.125)])
        lines = table.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1

    def test_format_table_empty(self):
        assert format_table(["a"], []) == "a"


class TestFig1:
    def test_spmm_dominates(self):
        result = fig1_breakdown.run()
        assert result.spmm_fraction > 0.8  # paper: 83.6%
        assert result.spmm_fraction < 1.0

    def test_component_keys(self):
        result = fig1_breakdown.run(n_epochs=5)
        assert set(result.seconds) == {"spmm", "linear", "others"}
        assert result.total > 0

    def test_report_mentions_paper_number(self):
        assert "83.6%" in fig1_breakdown.report(fig1_breakdown.run())


class TestFig4:
    @pytest.fixture(scope="class")
    def result(self):
        return fig4_approximator.run(
            hidden_sizes=[4, 32], n_train=64, epochs=150
        )

    def test_error_decreases_with_width(self, result):
        assert result.maxk_errors[-1] < result.maxk_errors[0]
        assert result.relu_errors[-1] < result.relu_errors[0]

    def test_maxk_comparable_to_relu_at_width(self, result):
        """Paper: similar approximation performance at the largest width."""
        assert result.maxk_errors[-1] < max(10 * result.relu_errors[-1], 2e-3)


class TestFig8:
    @pytest.fixture(scope="class")
    def result(self):
        return fig8_kernels.run(
            graphs=["Reddit", "ogbn-proteins", "ddi", "pubmed", "Flickr"],
        )

    def test_all_four_series_present(self, result):
        assert set(result.series) == {
            "spgemm_vs_cusparse",
            "spgemm_vs_gnnadvisor",
            "sspmm_vs_cusparse",
            "sspmm_vs_gnnadvisor",
        }

    def test_speedup_monotone_in_k_for_reddit(self, result):
        values = [
            result.speedup("spgemm_vs_cusparse", "Reddit", k)
            for k in result.k_values
        ]
        assert values == sorted(values, reverse=True)

    def test_high_degree_aggregate_near_paper(self, result):
        """Paper: 4.63/4.15/2.54/1.46 at k=8/16/32/64 (vs cuSPARSE)."""
        means = fig8_kernels.high_degree_mean_speedups(
            result, "spgemm_vs_cusparse"
        )
        paper = {8: 4.63, 16: 4.15, 32: 2.54, 64: 1.46}
        for k, expected in paper.items():
            assert means[k] == pytest.approx(expected, rel=0.35)

    def test_gnnadvisor_series_higher(self, result):
        for graph in result.series["spgemm_vs_cusparse"]:
            for k in result.k_values:
                assert result.speedup(
                    "spgemm_vs_gnnadvisor", graph, k
                ) > result.speedup("spgemm_vs_cusparse", graph, k)

    def test_win_fraction_matches_paper_claim(self, result):
        """Paper: >= 92.2% of cases beat cuSPARSE at k <= 128; 100% vs GNNA."""
        assert result.win_fraction("spgemm_vs_cusparse") > 0.75
        assert result.win_fraction("spgemm_vs_gnnadvisor") > 0.85

    def test_report_contains_summary(self, result):
        assert "high-degree" in fig8_kernels.report(result)


class TestFig9:
    @pytest.fixture(scope="class")
    def result(self):
        return fig9_system.run(models=["sage", "gcn"], k_values=[8, 32, 128])

    def test_every_speedup_below_limit(self, result):
        for model, per_dataset in result.speedups.items():
            for dataset, per_baseline in per_dataset.items():
                for baseline, per_k in per_baseline.items():
                    limit = result.limit(model, dataset, baseline)
                    for speedup in per_k.values():
                        assert speedup < limit

    def test_reddit_exceeds_3x_at_low_k(self, result):
        assert result.speedup("sage", "Reddit", "gnnadvisor", 8) > 3.0

    def test_flickr_amdahl_limited_to_small_speedup(self, result):
        assert result.limit("sage", "Flickr", "cusparse") < 1.5

    def test_dataset_ordering_matches_paper(self, result):
        """Reddit and proteins admit larger speedups than Yelp/Flickr."""
        high = result.speedup("sage", "Reddit", "cusparse", 8)
        for low_ds in ("Yelp", "Flickr"):
            assert high > result.speedup("sage", low_ds, "cusparse", 8)

    def test_report_runs(self, result):
        assert "Reddit" in fig9_system.report(result)


@pytest.mark.slow
class TestTable2:
    @pytest.fixture(scope="class")
    def study(self):
        return table2_memory.run()

    def test_traffic_reduction_matches_paper_magnitude(self, study):
        """Paper: ~90% DRAM traffic reduction for both CBSR kernels."""
        spmm = study["spmm"].total_traffic_bytes
        assert study["spgemm"].total_traffic_bytes < 0.25 * spmm
        assert study["sspmm"].total_traffic_bytes < 0.25 * spmm

    def test_hit_rate_orderings(self, study):
        assert study["spmm"].l1_hit_rate < study["spgemm"].l1_hit_rate
        assert study["spmm"].l2_hit_rate < study["spgemm"].l2_hit_rate

    def test_report_contains_all_kernels(self, study):
        text = table2_memory.report(study)
        for kernel in ("spmm", "spgemm", "sspmm"):
            assert kernel in text


class TestTable4:
    def test_ratios(self):
        result = table4_maxk_kernel.run()
        latencies = result.latencies
        assert latencies["spmm"] / latencies["spgemm"] == pytest.approx(2.9, rel=0.2)
        assert result.maxk_over_spgemm < 0.02

    def test_report(self):
        assert "maxk" in table4_maxk_kernel.report().lower()


class TestTable5Small:
    @pytest.fixture(scope="class")
    def result(self):
        # One model, two datasets, reduced epochs: structure + trend check.
        return table5_accuracy.run(
            models=["sage"], datasets=["Flickr", "Reddit"], epochs=40
        )

    def test_rows_complete(self, result):
        assert len(result.rows) == 2 * 3  # baseline + two maxk variants

    def test_baseline_speedup_is_one(self, result):
        row = result.variant("sage", "Flickr", "baseline")
        assert row.speedup_cusparse == 1.0
        assert row.speedup_gnnadvisor > 1.0

    def test_maxk_speedups_exceed_baseline(self, result):
        for dataset in ("Flickr", "Reddit"):
            for paper_k in table5_accuracy.PAPER_K_SELECTIONS[("sage", dataset)]:
                row = result.variant("sage", dataset, "maxk", paper_k)
                assert row.speedup_cusparse > 1.0

    def test_reddit_speedup_larger_than_flickr(self, result):
        reddit = result.variant("sage", "Reddit", "maxk", 16)
        flickr = result.variant("sage", "Flickr", "maxk", 8)
        assert reddit.speedup_cusparse > flickr.speedup_cusparse

    def test_quality_in_valid_range(self, result):
        for row in result.rows:
            assert 0.0 <= row.quality <= 1.0

    def test_report(self, result):
        assert "spd_cusp" in table5_accuracy.report(result)


class TestFig10Small:
    def test_curves_structure(self):
        result = fig10_convergence.run(
            paper_k_values=[32], epochs=20, eval_every=10
        )
        assert set(result.variants()) == {"relu", "maxk_k32"}
        for curve in result.curves.values():
            assert len(curve.train_losses) == 20
            assert curve.final_test > 0.0

    def test_report(self):
        result = fig10_convergence.run(
            paper_k_values=[32], epochs=10, eval_every=5
        )
        assert "relu" in fig10_convergence.report(result)
