"""Unit tests for the autograd engine, including finite-difference checks."""

import numpy as np
import pytest

from repro.tensor import Tensor, no_grad
from repro.tensor.tensor import _unbroadcast
from tests.conftest import fd_tolerance


def finite_difference(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of x."""
    grad = np.zeros_like(x)
    flat = x.ravel()
    grad_flat = grad.ravel()
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = fn(x)
        flat[i] = original - eps
        minus = fn(x)
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


def check_gradient(build_loss, shape, seed=0, **overrides):
    """Analytic against central-difference gradient; callers run under the
    ``double_precision`` fixture."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    tensor = Tensor(x.copy(), requires_grad=True)
    loss = build_loss(tensor)
    loss.backward()
    numeric = finite_difference(lambda arr: build_loss(Tensor(arr)).item(), x.copy())
    np.testing.assert_allclose(
        tensor.grad, numeric, **{**fd_tolerance(), **overrides}
    )


@pytest.mark.usefixtures("double_precision")
class TestBasicOps:
    def test_add_gradient(self):
        check_gradient(lambda x: (x + 3.0).sum(), (4, 3))

    def test_mul_gradient(self):
        check_gradient(lambda x: (x * x).sum(), (3, 3))

    def test_div_gradient(self):
        check_gradient(lambda x: (x / 2.5).sum(), (5,))

    def test_div_by_tensor_gradient(self):
        rng = np.random.default_rng(1)
        other = Tensor(rng.normal(size=(4,)) + 3.0)
        check_gradient(lambda x: (x / other).sum(), (4,))

    def test_neg_and_sub(self):
        check_gradient(lambda x: (5.0 - x).sum(), (4,))

    def test_pow_gradient(self):
        check_gradient(lambda x: (x ** 3).sum(), (6,), seed=2)

    def test_matmul_gradient_both_sides(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(4, 2))
        check_gradient(lambda x: (x @ Tensor(w)).sum(), (3, 4))
        x_fixed = rng.normal(size=(3, 4))
        check_gradient(lambda w_: (Tensor(x_fixed) @ w_).sum(), (4, 2))

    def test_mean_gradient(self):
        check_gradient(lambda x: x.mean(), (4, 5))

    def test_sum_axis_gradient(self):
        check_gradient(lambda x: (x.sum(axis=1) ** 2).sum(), (3, 4))

    def test_getitem_gradient(self):
        check_gradient(lambda x: x[1:3].sum() * 2.0, (5, 2))

    def test_transpose_gradient(self):
        check_gradient(lambda x: (x.T @ x).sum(), (3, 2))

    def test_reshape_gradient(self):
        check_gradient(lambda x: (x.reshape(6) ** 2).sum(), (2, 3))


class TestBroadcasting:
    def test_bias_broadcast_gradient(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 3))
        bias = Tensor(rng.normal(size=(3,)), requires_grad=True)
        loss = (Tensor(x) + bias).sum()
        loss.backward()
        np.testing.assert_allclose(bias.grad, np.full(3, 5.0))

    def test_unbroadcast_sums_leading_axes(self):
        grad = np.ones((4, 3))
        assert _unbroadcast(grad, (3,)).tolist() == [4.0, 4.0, 4.0]

    def test_unbroadcast_keeps_singleton_axes(self):
        grad = np.ones((4, 3))
        assert _unbroadcast(grad, (1, 3)).shape == (1, 3)


class TestGraphMechanics:
    def test_grad_accumulates_over_reuse(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        loss = (x * x + x).sum()
        loss.backward()
        np.testing.assert_allclose(x.grad, [5.0])  # 2x + 1 at x=2

    def test_diamond_graph(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        a = x * 2.0
        b = x * 3.0
        loss = (a * b).sum()  # 6x^2 -> grad 12x = 36
        loss.backward()
        np.testing.assert_allclose(x.grad, [36.0])

    def test_backward_requires_scalar_without_grad(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(RuntimeError, match="non-scalar"):
            (x * 2).backward()

    def test_backward_on_detached_rejected(self):
        x = Tensor(np.ones(3))
        with pytest.raises(RuntimeError):
            x.backward()

    def test_no_grad_stops_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = (x * 2).sum()
        assert not y.requires_grad

    def test_detach(self):
        x = Tensor(np.ones(3), requires_grad=True)
        assert not x.detach().requires_grad

    def test_zero_grad(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (x.sum()).backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None

    def test_explicit_grad_seed(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        y = x * 3.0
        y.backward(np.full((2, 2), 2.0))
        np.testing.assert_allclose(x.grad, np.full((2, 2), 6.0))

    def test_deep_chain_iterative_toposort(self):
        """The backward sweep is iterative: deep graphs must not recurse out."""
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 1.0
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0])
