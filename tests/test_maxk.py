"""Unit tests for the MaxK nonlinearity and the pivot-selection kernel."""

import numpy as np
import pytest

from repro.core import (
    maxk_forward,
    maxk_mask,
    pivot_select,
    pivot_select_row,
)


@pytest.fixture
def features():
    return np.random.default_rng(11).normal(size=(30, 24))


class TestMaxKForward:
    def test_exactly_k_survivors_per_row(self, features):
        for k in (1, 3, 8, 24):
            _, mask = maxk_forward(features, k)
            np.testing.assert_array_equal(mask.sum(axis=1), k)

    def test_survivors_are_the_largest(self, features):
        k = 5
        out, mask = maxk_forward(features, k)
        for i in range(features.shape[0]):
            kept_min = features[i, mask[i]].min()
            dropped_max = features[i, ~mask[i]].max()
            assert kept_min >= dropped_max

    def test_kept_values_unchanged_rest_zero(self, features):
        out, mask = maxk_forward(features, 4)
        np.testing.assert_allclose(out[mask], features[mask])
        assert (out[~mask] == 0).all()

    def test_k_equals_dim_is_identity(self, features):
        out, mask = maxk_forward(features, features.shape[1])
        np.testing.assert_allclose(out, features)
        assert mask.all()

    def test_ties_resolve_deterministically(self):
        row = np.zeros((1, 6))
        _, mask = maxk_forward(row, 2)
        assert mask.sum() == 2
        # Lowest column indices win ties.
        assert mask[0, 0] and mask[0, 1]

    def test_rejects_bad_k(self, features):
        with pytest.raises(ValueError):
            maxk_mask(features, 0)
        with pytest.raises(ValueError):
            maxk_mask(features, features.shape[1] + 1)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            maxk_mask(np.ones(5), 2)


class TestPivotSelection:
    def test_matches_exact_topk_count(self, features):
        for k in (1, 4, 12):
            _, masks, _ = pivot_select(features, k)
            np.testing.assert_array_equal(masks.sum(axis=1), k)

    def test_selects_same_values_as_exact_topk(self, features):
        k = 7
        _, pivot_masks, _ = pivot_select(features, k)
        exact_masks = maxk_mask(features, k)
        # The *value sets* must agree even if tie positions differ.
        for i in range(features.shape[0]):
            np.testing.assert_allclose(
                np.sort(features[i, pivot_masks[i]]),
                np.sort(features[i, exact_masks[i]]),
            )

    def test_converges_fast_on_gaussian_rows(self, features):
        """Paper: < 10 iterations on normally distributed feature maps."""
        _, _, iterations = pivot_select(features, 6, max_iterations=30)
        assert iterations.max() <= 30
        assert iterations.mean() < 10

    def test_handles_constant_row(self):
        result = pivot_select_row(np.full(8, 2.5), 3)
        assert result.mask.sum() == 3

    def test_handles_k_equals_dim(self):
        result = pivot_select_row(np.arange(5.0), 5)
        assert result.mask.all()

    def test_iteration_budget_respected(self):
        row = np.random.default_rng(5).normal(size=64)
        result = pivot_select_row(row, 16, max_iterations=2)
        assert result.iterations <= 2
        assert result.mask.sum() == 16  # exact fallback fills the rest

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            pivot_select_row(np.ones((2, 2)), 1)
        with pytest.raises(ValueError):
            pivot_select_row(np.ones(4), 0)
        with pytest.raises(ValueError):
            pivot_select(np.ones(4), 1)
