"""Unit tests for the autograd engine, including finite-difference checks."""

import numpy as np
import pytest

from repro.tensor import Tensor, Workspace, add_into, no_grad
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

    @pytest.mark.parametrize("add", [
        lambda a, b: a + b,
        lambda a, b: add_into(a, b),
        lambda a, b: add_into(a, b, workspace=Workspace(), slot="s"),
    ], ids=["__add__", "add_into", "add_into-planned"])
    def test_shared_gradient_is_copied_on_write(self, add):
        # ``add`` hands the seed itself to both parents; x then receives a
        # second gradient through c, which must not be summed in place.
        x = Tensor(np.ones(3), requires_grad=True)
        c = x * 5.0
        seed = np.ones(3, dtype=x.data.dtype)
        add(x, c).backward(seed)
        assert c.grad is seed  # handed over, not copied
        np.testing.assert_array_equal(seed, np.ones(3))
        np.testing.assert_array_equal(c.grad, np.ones(3))
        np.testing.assert_array_equal(x.grad, np.full(3, 6.0))

    def test_first_gradient_is_adopted_only_when_it_fits(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        fits = np.ones((2, 3), dtype=x.data.dtype)
        x._accumulate(fits)
        assert x.grad is fits
        other_width = np.float64 if x.data.dtype == np.float32 else np.float32
        for misfit in (np.ones((2, 3), dtype=other_width),
                       np.ones((3, 2), dtype=x.data.dtype).T):
            x.zero_grad()
            x._accumulate(misfit)
            assert x.grad is not misfit
            np.testing.assert_array_equal(x.grad, misfit)

    def test_second_gradient_goes_to_the_own_buffer(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        x._grad_buffer = np.empty(3, dtype=x.data.dtype)
        first = np.ones(3, dtype=x.data.dtype)
        x._accumulate(first)
        x._accumulate(first)
        assert x.grad is x._grad_buffer
        x._accumulate(first)
        assert x.grad is x._grad_buffer
        np.testing.assert_array_equal(x.grad, np.full(3, 3.0))
        np.testing.assert_array_equal(first, np.ones(3))

    @pytest.mark.parametrize("shape", [(), (1,), (1, 1)])
    def test_item_of_one_element(self, shape):
        assert Tensor(np.full(shape, 2.5)).item() == 2.5

    def test_item_rejects_more_than_one_element(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros(2)).item()

    def test_deep_chain_iterative_toposort(self):
        """The backward sweep is iterative: deep graphs must not recurse out."""
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 1.0
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0])
