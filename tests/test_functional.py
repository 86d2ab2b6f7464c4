"""Unit tests for differentiable GNN operators (relu/maxk/spmm/losses)."""

import numpy as np
import pytest

from repro.graphs import chain_of_cliques
from repro.sparse import ops
from repro.tensor import (
    Tensor,
    Workspace,
    bce_with_logits,
    cross_entropy,
    dropout,
    linear_act,
    log_softmax,
    maxk,
    relu,
    spmm_agg,
)
from repro.tensor.functional import maxk_with_mask, spgemm_agg
from tests.conftest import fd_tolerance, tolerance
from tests.test_sparse_ops import (
    adversarial_rows,
    adversarial_values,
    bytes_equal,
    column_weights,
    heaviside_topk_mask,
)
from tests.test_tensor import check_gradient, finite_difference


class TestActivations:
    def test_relu_values(self):
        x = Tensor(np.array([[-1.0, 2.0, 0.0]]))
        np.testing.assert_allclose(relu(x).numpy(), [[0.0, 2.0, 0.0]])

    @pytest.mark.usefixtures("double_precision")
    def test_relu_gradient(self):
        check_gradient(lambda x: (relu(x) * 3.0).sum(), (4, 5), seed=1)

    def test_maxk_keeps_k_per_row(self):
        x = Tensor(np.random.default_rng(0).normal(size=(6, 10)))
        out = maxk(x, 3)
        assert ((out.numpy() != 0).sum(axis=1) <= 3).all()

    def test_maxk_gradient_matches_mask_routing(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 8))
        tensor = Tensor(x.copy(), requires_grad=True)
        weights = rng.normal(size=(5, 8))
        loss = (maxk(tensor, 3) * Tensor(weights)).sum()
        loss.backward()
        from repro.core import maxk_forward

        _, mask = maxk_forward(x, 3)
        np.testing.assert_allclose(tensor.grad, np.where(mask, weights, 0.0))

    @pytest.mark.usefixtures("double_precision")
    def test_maxk_full_k_equals_identity_grad(self):
        check_gradient(lambda x: (maxk(x, 6) ** 2).sum(), (3, 6), seed=3)


class TestSpmmAgg:
    def test_forward_matches_dense(self):
        graph = chain_of_cliques(3, 4)
        adjacency = graph.adjacency("sage")
        x = np.random.default_rng(5).normal(size=(graph.n_nodes, 6))
        out = spmm_agg(adjacency, Tensor(x)).numpy()
        np.testing.assert_allclose(out, adjacency.to_dense() @ x, **tolerance())

    def test_backward_is_transpose_spmm(self):
        graph = chain_of_cliques(2, 5)
        adjacency = graph.adjacency("gcn")
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(graph.n_nodes, 4)), requires_grad=True)
        weights = rng.normal(size=(graph.n_nodes, 4))
        (spmm_agg(adjacency, x) * Tensor(weights)).sum().backward()
        expected = adjacency.to_dense().T @ weights
        np.testing.assert_allclose(x.grad, expected, **tolerance())

    @pytest.mark.usefixtures("double_precision")
    def test_gradient_finite_difference(self):
        graph = chain_of_cliques(2, 3)
        adjacency = graph.adjacency("sage")
        check_gradient(
            lambda x: (spmm_agg(adjacency, x) ** 2).sum(),
            (graph.n_nodes, 3),
            seed=7,
        )

    def test_explicit_transpose_accepted(self):
        graph = chain_of_cliques(2, 3)
        adjacency = graph.adjacency("none")
        x = Tensor(np.ones((graph.n_nodes, 2)), requires_grad=True)
        out = spmm_agg(adjacency, x, adjacency.transpose())
        assert out.shape == (graph.n_nodes, 2)


class TestGradchecksAcrossBackends:
    """Finite-difference gradchecks for the ops riding the sparse backend.

    Every autograd operator whose forward/backward closures route through
    :mod:`repro.sparse.ops` — SpMM aggregation, the CBSR SpGEMM/SSpMM
    pair, MaxK selection and the row gather, whose backward is a segment
    sum — is checked against a central-difference gradient under each
    registered backend.
    """

    @pytest.mark.usefixtures("double_precision")
    def test_row_gather_gradcheck(self, backend):
        key = np.array([0, 0, 1, 4, 4, 4, -1, 2])  # repeats, a wrapped row
        weights = np.random.default_rng(34).normal(size=(len(key), 3))
        check_gradient(
            lambda x: (x[key] * x[key] * Tensor(weights)).sum(),
            (5, 3),
            seed=35,
        )

    @pytest.mark.usefixtures("double_precision")
    def test_spmm_agg_gradcheck(self, backend):
        graph = chain_of_cliques(2, 4)
        adjacency = graph.adjacency("gcn")
        check_gradient(
            lambda x: (spmm_agg(adjacency, x) ** 2).sum(),
            (graph.n_nodes, 3),
            seed=31,
        )

    @pytest.mark.usefixtures("double_precision")
    def test_spgemm_agg_gradcheck(self, backend):
        """The literal CBSR SpGEMM forward / SSpMM backward dataflow.

        MaxK's top-k selection is only piecewise-differentiable, so the
        input is spread out enough that the k-th/(k+1)-th gap never
        straddles the finite-difference step.
        """
        graph = chain_of_cliques(2, 3)
        adjacency = graph.adjacency("sage")
        rng = np.random.default_rng(32)
        base = rng.permuted(
            np.arange(graph.n_nodes * 6.0).reshape(graph.n_nodes, 6),
            axis=1,
        )
        tensor = Tensor(base.copy(), requires_grad=True)
        loss = (spgemm_agg(adjacency, tensor, k=3) ** 2).sum()
        loss.backward()
        numeric = finite_difference(
            lambda arr: (spgemm_agg(adjacency, Tensor(arr), k=3) ** 2)
            .sum()
            .item(),
            base.copy(),
        )
        np.testing.assert_allclose(tensor.grad, numeric, **fd_tolerance())

    @pytest.mark.usefixtures("double_precision")
    def test_maxk_gradcheck(self, backend):
        rng = np.random.default_rng(33)
        base = rng.permuted(np.arange(24.0).reshape(4, 6), axis=1)
        tensor = Tensor(base.copy(), requires_grad=True)
        (maxk(tensor, 2) ** 2).sum().backward()
        numeric = finite_difference(
            lambda arr: (maxk(Tensor(arr), 2) ** 2).sum().item(), base.copy()
        )
        np.testing.assert_allclose(tensor.grad, numeric, **fd_tolerance())

    def test_spgemm_agg_matches_spmm_maxk_composition(self, backend):
        graph = chain_of_cliques(3, 3)
        adjacency = graph.adjacency("sage")
        rng = np.random.default_rng(36)
        x = rng.normal(size=(graph.n_nodes, 8))
        via_cbsr = spgemm_agg(adjacency, Tensor(x), k=4).numpy()
        composed = spmm_agg(adjacency, maxk(Tensor(x), 4)).numpy()
        assert bytes_equal(via_cbsr, composed)

    @pytest.mark.parametrize("k", [3, 6])
    def test_spgemm_agg_zero_survivors_match_composition(self, backend, k):
        """Regression: the CBSR pattern is the MaxK mask itself. Re-selecting
        the sparsified rows by magnitude picked other columns wherever a
        survivor was exactly 0.0 and dropped that position's gradient."""
        graph = chain_of_cliques(3, 3)
        adjacency = graph.adjacency("sage")
        rng = np.random.default_rng(37)
        x = rng.normal(size=(graph.n_nodes, 6))
        x[0] = [-5.0, 0.0, 0.0, 0.0, -1.0, -2.0]  # every survivor is a zero
        x[1] = 0.0
        x[2] = [1.0, 0.0, 0.0, -1.0, 0.0, -3.0]
        upstream = rng.normal(size=(graph.n_nodes, 6))

        via_cbsr_x = Tensor(x.copy(), requires_grad=True)
        via_cbsr = spgemm_agg(adjacency, via_cbsr_x, k=k)
        via_cbsr.backward(upstream.copy())
        composed_x = Tensor(x.copy(), requires_grad=True)
        composed = spmm_agg(adjacency, maxk(composed_x, k))
        composed.backward(upstream.copy())

        assert via_cbsr.numpy().tobytes() == composed.numpy().tobytes()
        assert via_cbsr_x.grad.tobytes() == composed_x.grad.tobytes()
        if k == 3:  # the position the by-magnitude re-selection lost
            assert via_cbsr_x.grad[0, 3] != 0.0


class TestDropout:
    def test_identity_when_not_training(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((4, 4)))
        out = dropout(x, 0.5, training=False, rng=rng)
        assert out is x

    def test_identity_when_p_zero(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((4, 4)))
        assert dropout(x, 0.0, training=True, rng=rng) is x

    def test_inverted_scaling_preserves_expectation(self):
        rng = np.random.default_rng(1)
        x = Tensor(np.ones((2000, 10)))
        out = dropout(x, 0.3, training=True, rng=rng).numpy()
        assert out.mean() == pytest.approx(1.0, abs=0.05)
        surviving = out[out != 0]
        np.testing.assert_allclose(surviving, 1.0 / 0.7)

    def test_gradient_routes_through_kept_units(self):
        rng = np.random.default_rng(2)
        x = Tensor(np.ones((50, 4)), requires_grad=True)
        out = dropout(x, 0.5, training=True, rng=rng)
        out.sum().backward()
        kept = out.numpy() != 0
        np.testing.assert_allclose(x.grad[kept], 2.0)
        np.testing.assert_allclose(x.grad[~kept], 0.0)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            dropout(Tensor(np.ones(2)), 1.0, True, np.random.default_rng(0))


class TestFloatMasksMatchHeaviside:
    """Every float 0/1 mask is a compare cast once; these are the
    ``np.heaviside`` formulas that pass replaced, written out as the
    oracle. Masks, outputs and gradients must equal them byte for byte on
    non-NaN input however hostile, on every backend, from fresh arrays
    and from a :class:`Workspace` (where the mask slots can be read back).
    """

    @pytest.fixture(params=[False, True], ids=["fresh", "workspace"])
    def ws(self, request):
        return Workspace() if request.param else None

    @staticmethod
    def _upstream(shape):
        return np.random.default_rng(11).normal(size=shape).astype(
            ops.FLOAT_DTYPE
        )

    def test_relu(self, backend, ws):
        data = adversarial_rows()
        upstream = self._upstream(data.shape)
        mask = np.heaviside(data, 0.0)
        x = Tensor(data.copy(), requires_grad=True)
        with np.errstate(invalid="ignore"):  # inf * 0.0
            expected = data * mask + 0.0
            out = relu(x, ws, "r")
        assert bytes_equal(out.data, expected)
        out.backward(upstream)
        assert bytes_equal(x.grad, upstream * mask)
        if ws is not None:
            assert bytes_equal(ws.buffer("r.mask", data.shape, data.dtype), mask)

    @pytest.mark.parametrize("activation, k", [("relu", None), ("maxk", 3),
                                               ("maxk", 8)])
    def test_linear_act(self, backend, ws, activation, k):
        # An outer product reproduces adversarial_rows() as the
        # pre-activation (inf never meets a zero weight); the bias adds
        # signed zeros and shifts two columns.
        column = adversarial_values()[:, None]
        weight = column_weights()[None, :]
        bias = np.array(
            [0.0, -0.0, 0.0, 0.0, 1.0, -1.0, 0.0, 0.0], dtype=weight.dtype
        )
        y = np.matmul(column, weight) + bias
        upstream = self._upstream(y.shape)
        if activation == "relu":
            mask = np.heaviside(y, 0.0)
            expected = np.maximum(y, 0.0)
            grad_y = upstream * mask
        else:
            mask = heaviside_topk_mask(y, k)
            with np.errstate(invalid="ignore"):
                expected = y * mask + 0.0
            grad_y = upstream * mask + 0.0
        x = Tensor(column.copy(), requires_grad=True)
        b = Tensor(bias.copy(), requires_grad=True)
        with np.errstate(invalid="ignore"):
            out = linear_act(x, Tensor(weight.copy()), b, activation, k, ws, "l")
        assert bytes_equal(out.data, expected)
        out.backward(upstream)
        assert bytes_equal(b.grad, grad_y.sum(axis=0))
        assert bytes_equal(x.grad, grad_y @ weight.T)
        if ws is not None:
            assert bytes_equal(ws.buffer("l.mask", y.shape, y.dtype), mask)

    @pytest.mark.parametrize("k", [1, 3, 4, 8])
    def test_maxk_with_mask(self, backend, ws, k):
        data = adversarial_rows()
        # Rows of 0/±1 multiples hold their k-th value twice or more: the
        # compare over-selects and the exact tie fill must take over.
        kth = np.sort(data, axis=1)[:, -k]
        assert k == 8 or ((data >= kth[:, None]).sum(axis=1) > k).any()
        upstream = self._upstream(data.shape)
        mask = heaviside_topk_mask(data, k)
        x = Tensor(data.copy(), requires_grad=True)
        with np.errstate(invalid="ignore"):
            expected = data * mask + 0.0
            out, selected = maxk_with_mask(x, k, ws, "m")
        assert bytes_equal(selected, mask)
        assert bytes_equal(out.data, expected)
        out.backward(upstream)
        assert bytes_equal(x.grad, upstream * mask + 0.0)

    def test_dropout_keeps_a_draw_equal_to_p(self, backend, ws):
        data = adversarial_rows()
        draw = np.random.default_rng(5).random(data.shape, dtype=data.dtype)
        p = float(draw[3, 2])  # ``draw >= p``: equality keeps
        assert 0.0 < p < 1.0
        scale = 1.0 / (1.0 - p)
        keep = np.heaviside(draw - p, 1.0)
        assert keep[3, 2] == 1.0 and 0.0 < keep.mean() < 1.0
        upstream = self._upstream(data.shape)
        x = Tensor(data.copy(), requires_grad=True)
        with np.errstate(invalid="ignore"):
            expected = data * scale * keep + 0.0
            out = dropout(x, p, True, np.random.default_rng(5), ws, "d")
        assert bytes_equal(out.data, expected)
        out.backward(upstream)
        assert bytes_equal(x.grad, upstream * keep * scale)
        if ws is not None:
            assert bytes_equal(ws.buffer("d.keep", data.shape, data.dtype), keep)

    def test_stale_flags_never_leak_through_one_workspace(self, backend):
        """Shrinking then growing batches through the same slots: every
        mask is its own input's, whatever the bool scratch held before."""
        ws = Workspace()
        rng = np.random.default_rng(21)
        full = adversarial_rows()
        for n_rows, dim in [(14, 8), (5, 8), (3, 4), (14, 8), (9, 6), (14, 8)]:
            data = full[rng.permutation(14)[:n_rows], :dim] * float(
                rng.choice([1.0, -1.0])
            )
            with np.errstate(invalid="ignore"):
                relu(Tensor(data), ws, "r")
                maxk_with_mask(Tensor(data), 2, ws, "m")
                linear_act(Tensor(data[:, :1]), Tensor(np.ones((1, dim))),
                           None, "relu", None, ws, "l")
                # An input that takes a gradient: its keep mask is saved
                # state (without one it dies before dropout returns).
                dropout(Tensor(data, requires_grad=True), 0.5, True,
                        np.random.default_rng(n_rows), ws, "d")
            draw = np.random.default_rng(n_rows).random(
                data.shape, dtype=data.dtype
            )
            for slot, mask in [
                ("r.mask", np.heaviside(data, 0.0)),
                ("m.mask", heaviside_topk_mask(data, 2)),
                ("l.mask", np.heaviside(
                    data[:, :1] * np.ones((1, dim), dtype=data.dtype), 0.0
                )),
                ("d.keep", np.heaviside(draw - 0.5, 1.0)),
            ]:
                assert bytes_equal(ws.buffer(slot, data.shape, data.dtype), mask), slot


class TestLosses:
    def test_log_softmax_rows_normalise(self):
        x = Tensor(np.random.default_rng(3).normal(size=(6, 5)))
        probs = np.exp(log_softmax(x).numpy())
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, **tolerance())

    def test_log_softmax_stable_for_large_logits(self):
        x = Tensor(np.array([[1000.0, 0.0, -1000.0]]))
        out = log_softmax(x).numpy()
        assert np.isfinite(out).all()

    @pytest.mark.usefixtures("double_precision")
    def test_log_softmax_gradient(self):
        check_gradient(lambda x: (log_softmax(x) ** 2).sum(), (4, 3), seed=8)

    def test_cross_entropy_matches_manual(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(size=(8, 4))
        labels = rng.integers(0, 4, size=8)
        loss = cross_entropy(Tensor(logits), labels).item()
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        expected = -log_probs[np.arange(8), labels].mean()
        assert loss == pytest.approx(expected)

    def test_cross_entropy_mask(self):
        rng = np.random.default_rng(10)
        logits = rng.normal(size=(6, 3))
        labels = rng.integers(0, 3, size=6)
        mask = np.array([True, False, True, False, False, False])
        masked = cross_entropy(Tensor(logits), labels, mask).item()
        full_on_subset = cross_entropy(
            Tensor(logits[mask]), labels[mask]
        ).item()
        assert masked == pytest.approx(full_on_subset)

    @pytest.mark.usefixtures("double_precision")
    def test_cross_entropy_gradient(self):
        labels = np.array([0, 2, 1, 1])
        check_gradient(
            lambda x: cross_entropy(x, labels), (4, 3), seed=11
        )

    def test_bce_matches_manual(self):
        rng = np.random.default_rng(12)
        logits = rng.normal(size=(5, 4))
        targets = (rng.random((5, 4)) > 0.5).astype(float)
        loss = bce_with_logits(Tensor(logits), targets).item()
        probs = 1 / (1 + np.exp(-logits))
        expected = -(
            targets * np.log(probs) + (1 - targets) * np.log(1 - probs)
        ).mean()
        assert loss == pytest.approx(expected, rel=1e-6)

    def test_bce_stable_for_extreme_logits(self):
        logits = Tensor(np.array([[500.0, -500.0]]))
        targets = np.array([[1.0, 0.0]])
        assert bce_with_logits(logits, targets).item() == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.usefixtures("double_precision")
    def test_bce_gradient(self):
        targets = (np.random.default_rng(13).random((4, 3)) > 0.5).astype(float)
        check_gradient(
            lambda x: bce_with_logits(x, targets), (4, 3), seed=13, rtol=1e-4
        )

    def test_bce_handles_1d_logits(self):
        rng = np.random.default_rng(15)
        z = rng.normal(size=5)
        targets = rng.integers(0, 2, size=5).astype(np.float64)
        logits = Tensor(z, requires_grad=True)
        loss = bce_with_logits(logits, targets)
        stable = (np.maximum(z, 0) - z * targets
                  + np.log1p(np.exp(-np.abs(z))))
        assert loss.item() == pytest.approx(float(stable.mean()))
        loss.backward()
        assert logits.grad.shape == z.shape
        np.testing.assert_allclose(
            logits.grad, (1 / (1 + np.exp(-z)) - targets) / 5, **tolerance()
        )

    def test_cross_entropy_masked_rows_get_zero_gradient(self):
        rng = np.random.default_rng(16)
        logits = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        labels = rng.integers(0, 3, size=6)
        mask = np.array([True, True, False, True, False, True])
        cross_entropy(logits, labels, mask).backward()
        np.testing.assert_array_equal(logits.grad[~mask], 0.0)
        assert np.abs(logits.grad[mask]).sum() > 0
        # Each kept row's softmax-minus-one-hot gradient sums to zero.
        np.testing.assert_allclose(logits.grad.sum(axis=1), 0.0,
                                   **tolerance())

    def test_bce_mask(self):
        rng = np.random.default_rng(14)
        logits = rng.normal(size=(6, 2))
        targets = (rng.random((6, 2)) > 0.5).astype(float)
        mask = np.array([True, True, False, False, True, False])
        masked = bce_with_logits(Tensor(logits), targets, mask).item()
        subset = bce_with_logits(Tensor(logits[mask]), targets[mask]).item()
        assert masked == pytest.approx(subset)
