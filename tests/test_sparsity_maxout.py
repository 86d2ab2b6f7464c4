"""Tests for the sparsity-regularity analysis (§2.3) and maxout."""

import numpy as np
import pytest

from repro.core import (
    dropout_sparsify,
    fatrelu_sparsify,
    regularity_report,
    relu_sparsify,
    row_nnz_profile,
)
from repro.models import ApproximatorMLP
from repro.tensor import Tensor, maxout
from tests.test_tensor import check_gradient


@pytest.fixture(scope="module")
def features():
    return np.random.default_rng(17).normal(size=(400, 128))


class TestSparsifiers:
    def test_dropout_density(self, features):
        sparse = dropout_sparsify(features, p=0.75, seed=0)
        assert (sparse != 0).mean() == pytest.approx(0.25, abs=0.02)

    def test_dropout_preserves_kept_values(self, features):
        sparse = dropout_sparsify(features, p=0.5, seed=1)
        kept = sparse != 0
        np.testing.assert_array_equal(sparse[kept], features[kept])

    def test_dropout_validation(self, features):
        with pytest.raises(ValueError):
            dropout_sparsify(features, p=1.0)

    def test_relu_zeroes_negatives(self, features):
        sparse = relu_sparsify(features)
        assert (sparse >= 0).all()
        assert (sparse != 0).mean() == pytest.approx(0.5, abs=0.05)

    def test_fatrelu_threshold_controls_density(self, features):
        lo = fatrelu_sparsify(features, 0.0)
        hi = fatrelu_sparsify(features, 1.0)
        assert (hi != 0).mean() < (lo != 0).mean()

    def test_fatrelu_validation(self, features):
        with pytest.raises(ValueError):
            fatrelu_sparsify(features, -0.1)

    def test_row_nnz_profile(self):
        x = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0]])
        np.testing.assert_array_equal(row_nnz_profile(x), [2, 0])
        with pytest.raises(ValueError):
            row_nnz_profile(np.ones(3))


class TestRegularityReport:
    """The quantitative version of the paper's §2.3 argument."""

    @pytest.fixture(scope="class")
    def report(self):
        x = np.random.default_rng(18).normal(size=(400, 128))
        return regularity_report(x, k=16, seed=0)

    def test_densities_matched(self, report):
        for name in ("maxk", "dropout", "fatrelu"):
            assert report[name].density == pytest.approx(16 / 128, abs=0.02)

    def test_maxk_is_perfectly_regular(self, report):
        assert report["maxk"].irregularity == 0.0
        assert report["maxk"].padding_overhead == 0.0
        assert report["maxk"].row_nnz_std == 0.0

    def test_irregular_methods_waste_padding(self, report):
        for name in ("dropout", "fatrelu"):
            assert report[name].irregularity > 0.05
            assert report[name].padding_overhead > 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            regularity_report(np.ones(4), 2)
        with pytest.raises(ValueError):
            regularity_report(np.ones((3, 4)), 0)


class TestMaxout:
    def test_output_width_shrinks(self):
        x = Tensor(np.random.default_rng(0).normal(size=(5, 12)))
        assert maxout(x, 4).shape == (5, 3)

    def test_values_are_group_maxima(self):
        x = Tensor(np.array([[1.0, 5.0, -2.0, 0.0]]))
        np.testing.assert_allclose(maxout(x, 2).numpy(), [[5.0, 0.0]])

    def test_gradient_routes_to_winner(self):
        x = Tensor(np.array([[1.0, 5.0, -2.0, 0.0]]), requires_grad=True)
        maxout(x, 2).sum().backward()
        np.testing.assert_allclose(x.grad, [[0.0, 1.0, 0.0, 1.0]])

    @pytest.mark.usefixtures("double_precision")
    def test_gradient_finite_difference(self):
        check_gradient(lambda x: (maxout(x, 3) ** 2).sum(), (4, 6), seed=19)

    def test_rejects_indivisible_groups(self):
        with pytest.raises(ValueError):
            maxout(Tensor(np.ones((2, 5))), 2)

    def test_maxout_approximator_learns(self):
        from repro.models import fit_function, approximation_error

        rng = np.random.default_rng(20)
        x = rng.uniform(-1, 1, size=(64, 1))
        model = ApproximatorMLP(1, 16, 1, nonlinearity="maxout", seed=0)
        fit_function(model, x, x ** 2, epochs=200)
        assert approximation_error(model, x, x ** 2) < 0.01

    def test_maxout_width_validation(self):
        with pytest.raises(ValueError):
            ApproximatorMLP(1, 10, 1, nonlinearity="maxout")
