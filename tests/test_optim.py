"""Unit tests for optimizers and initialisers."""

import numpy as np
import pytest

from repro.tensor import Adam, Tensor, xavier_uniform, zeros


def quadratic_loss(param: Tensor) -> Tensor:
    target = Tensor(np.array([3.0, -2.0, 0.5]))
    diff = param - target
    return (diff * diff).sum()


class TestAdam:
    def test_converges_on_quadratic(self):
        param = Tensor(np.zeros(3), requires_grad=True)
        optimizer = Adam([param], lr=0.05)
        for _ in range(500):
            optimizer.zero_grad()
            quadratic_loss(param).backward()
            optimizer.step()
        np.testing.assert_allclose(param.data, [3.0, -2.0, 0.5], atol=1e-3)

    def test_first_step_size_is_lr(self):
        """With bias correction the first Adam step is ~lr in magnitude."""
        param = Tensor(np.array([10.0]), requires_grad=True)
        optimizer = Adam([param], lr=0.01)
        optimizer.zero_grad()
        (param * 5.0).sum().backward()
        optimizer.step()
        assert param.data[0] == pytest.approx(10.0 - 0.01, rel=1e-4)

    def test_zero_grad_clears(self):
        param = Tensor(np.ones(2), requires_grad=True)
        optimizer = Adam([param])
        (param.sum()).backward()
        optimizer.zero_grad()
        assert param.grad is None

    def test_rejects_empty_parameter_list(self):
        with pytest.raises(ValueError):
            Adam([])

    def test_rejects_non_trainable_tensor(self):
        with pytest.raises(ValueError):
            Adam([Tensor(np.ones(2))])


class TestInit:
    def test_xavier_bound(self):
        rng = np.random.default_rng(0)
        weight = xavier_uniform(64, 32, rng)
        bound = np.sqrt(6.0 / (64 + 32))
        assert weight.requires_grad
        assert np.abs(weight.data).max() <= bound

    def test_zeros(self):
        bias = zeros(8)
        assert bias.requires_grad
        np.testing.assert_array_equal(bias.data, np.zeros(8))
