"""Unit tests for the epoch-latency model (Fig. 9 machinery)."""

import pytest

from repro.experiments.timing import EpochCostModel, ModelShape
from repro.gpusim import A100, SparsePattern
from repro.graphs import TABLE1_GRAPHS


def model_for(dataset="Reddit", model_type="sage", layers=4, hidden=256):
    pattern = SparsePattern.from_spec(TABLE1_GRAPHS[dataset])
    shape = ModelShape(
        model_type=model_type, n_layers=layers, in_features=602,
        hidden=hidden, out_features=41,
    )
    return EpochCostModel(pattern, shape, A100)


class TestBreakdowns:
    def test_total_is_sum_of_parts(self):
        epoch = model_for().baseline_epoch()
        assert epoch.total == pytest.approx(
            epoch.aggregation + epoch.gemm + epoch.elementwise
            + epoch.maxk + epoch.overhead
        )

    def test_baseline_has_no_maxk_kernel(self):
        assert model_for().baseline_epoch().maxk == 0.0

    def test_maxk_epoch_includes_selection_kernel(self):
        epoch = model_for().maxk_epoch(32)
        assert epoch.maxk > 0.0

    def test_shared_costs_identical_across_variants(self):
        cost_model = model_for()
        baseline = cost_model.baseline_epoch()
        maxk = cost_model.maxk_epoch(32)
        assert baseline.gemm == maxk.gemm
        assert baseline.elementwise == maxk.elementwise
        assert baseline.overhead == maxk.overhead

    def test_gnnadvisor_baseline_slower(self):
        cost_model = model_for()
        assert (
            cost_model.baseline_epoch("gnnadvisor").total
            > cost_model.baseline_epoch("cusparse").total
        )

    def test_unknown_baseline_rejected(self):
        with pytest.raises(ValueError):
            model_for().baseline_epoch("pyg")

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ModelShape("transformer", 2, 4, 8, 2)
        with pytest.raises(ValueError):
            ModelShape("sage", 0, 4, 8, 2)


class TestSpeedups:
    def test_speedup_above_one_on_reddit(self):
        cost_model = model_for()
        assert cost_model.speedup(32) > 2.0

    def test_speedup_monotone_in_k(self):
        cost_model = model_for()
        values = [cost_model.speedup(k) for k in (8, 16, 32, 64, 128)]
        assert values == sorted(values, reverse=True)

    def test_speedup_below_amdahl_limit(self):
        """Every measured speedup must respect the Fig.-9 limit lines."""
        for dataset in ("Reddit", "Flickr", "Yelp", "ogbn-proteins"):
            cost_model = model_for(dataset)
            limit = cost_model.amdahl_limit()
            for k in (2, 8, 32, 128):
                assert cost_model.speedup(k) < limit

    def test_gnnadvisor_speedups_larger(self):
        """Speedup vs the slower baseline is larger (Table 5 pattern)."""
        cost_model = model_for()
        assert cost_model.speedup(32, "gnnadvisor") > cost_model.speedup(32)

    def test_amdahl_limit_matches_breakdown(self):
        cost_model = model_for()
        epoch = cost_model.baseline_epoch()
        assert cost_model.amdahl_limit() == pytest.approx(epoch.amdahl().limit)

    def test_aggregation_fraction_reasonable_for_reddit(self):
        """Reddit/SAGE is SpMM-dominated (paper: p >= 0.8)."""
        epoch = model_for().baseline_epoch()
        assert epoch.amdahl().p_spmm > 0.8

    def test_flickr_amdahl_limited(self):
        """Flickr's limit is small (paper: 1.16x) — below 1.5x here."""
        pattern = SparsePattern.from_spec(TABLE1_GRAPHS["Flickr"])
        shape = ModelShape("sage", 3, 500, 256, 7)
        cost_model = EpochCostModel(pattern, shape, A100)
        assert cost_model.amdahl_limit() < 1.5

    def test_gcn_fewer_gemms_than_sage(self):
        sage = model_for(model_type="sage").baseline_epoch()
        gcn = model_for(model_type="gcn").baseline_epoch()
        assert gcn.gemm < sage.gemm
