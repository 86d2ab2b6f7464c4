"""Unit tests for the Amdahl's-law utilities."""

import pytest

from repro.core import AmdahlBreakdown, speedup_limit


class TestSpeedupLimit:
    def test_paper_reddit_example(self):
        # p_SpMM = 0.8188 gives the 5.52x limit reported for Reddit/SAGE.
        assert speedup_limit(1 - 1 / 5.52) == pytest.approx(5.52)

    def test_zero_fraction_no_speedup(self):
        assert speedup_limit(0.0) == 1.0

    def test_full_fraction_unbounded(self):
        assert speedup_limit(1.0) == float("inf")

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            speedup_limit(1.5)
        with pytest.raises(ValueError):
            speedup_limit(-0.1)


class TestBreakdown:
    def test_p_spmm_and_limit(self):
        breakdown = AmdahlBreakdown(spmm_time=8.0, other_time=2.0)
        assert breakdown.p_spmm == pytest.approx(0.8)
        assert breakdown.limit == pytest.approx(5.0)

    def test_rejects_invalid_times(self):
        with pytest.raises(ValueError):
            AmdahlBreakdown(spmm_time=-1.0, other_time=1.0)
        with pytest.raises(ValueError):
            AmdahlBreakdown(spmm_time=0.0, other_time=0.0)
