"""Tests for the workspace arena and the fused dense hot-path kernels.

Covers the zero-allocation layer end to end: the :class:`Workspace` buffer
contract, bit-identity of the ``linear_act`` / ``relu`` / ``maxk`` /
``dropout`` / ``add_into`` / ``spmm_agg`` kernels and of whole convolution
layers — with and without a workspace, on every sparse backend — against
plain-numpy oracles of the composed formulas, finite-difference gradchecks
of the fused kernels, the ``out=`` sparse primitives against the reference
oracle, the in-place Adam trajectory, and steady-state workspace allocation
behaviour of a whole training step.
"""

import numpy as np
import pytest

from repro.graphs import (
    attach_classification_task,
    attach_multilabel_task,
    batch_graphs,
    chain_of_cliques,
    sbm_graph,
)
from repro.core.maxk import maxk_forward
from repro.models import GNNConfig, MaxKGNN, make_conv
from repro.sparse import CSRMatrix, native, ops
from repro.tensor import (
    Adam,
    Tensor,
    Workspace,
    add_into,
    dropout,
    fused_ce,
    linear_act,
    relu,
    spmm_agg,
)
from repro.training import Engine, FullGraphFlow
from tests.conftest import fd_tolerance, floats
from tests.test_tensor import finite_difference


class TestWorkspace:
    def test_steady_state_reuses_storage(self):
        ws = Workspace()
        first = ws.buffer("a", (8, 4), float)
        again = ws.buffer("a", (8, 4), float)
        assert first.base is again.base
        assert ws.allocations == 1
        assert ws.requests == 2

    def test_capacity_grows_monotonically(self):
        ws = Workspace()
        ws.buffer("a", (4, 4), float)
        big = ws.buffer("a", (16, 4), float)
        assert big.shape == (16, 4)
        assert ws.allocations == 2
        # Smaller request after growth: prefix view, no new storage.
        small = ws.buffer("a", (2, 3), float)
        assert small.shape == (2, 3)
        assert ws.allocations == 2

    def test_dtypes_get_separate_slots(self):
        ws = Workspace()
        floats = ws.buffer("a", (4,), np.float64)
        bools = ws.buffer("a", (4,), bool)
        assert floats.dtype == np.float64 and bools.dtype == np.bool_
        assert ws.allocations == 2

    def test_one_slot_however_its_dtype_is_spelled(self):
        # hash(np.dtype("float64")) != hash(np.float64): a raw (name, dtype)
        # key would back one slot with two buffers.
        ws = Workspace()
        x = np.zeros(3)
        by_type = ws.buffer("x", (4, 4), np.float64)
        by_instance = ws.buffer("x", (4, 4), x.dtype)
        by_name = ws.buffer("x", (4, 4), "float64")
        assert by_type.base is by_instance.base is by_name.base
        assert ws.allocations == 1

    def test_zero_sized_and_invalid_shapes(self):
        ws = Workspace()
        assert ws.buffer("z", (0, 4), float).shape == (0, 4)
        with pytest.raises(ValueError):
            ws.buffer("n", (-1, 4), float)


# -- numpy oracles ---------------------------------------------------------
# The composed formulas the single ``out=`` bodies must reproduce bit for
# bit: generic ``x @ W + b``, ``np.where`` masking, a bool dropout compare,
# plain ``adj.matmul_dense``. Each returns ``(value, backward)``.


def _linear_oracle(x, w, b):
    def backward(grad):
        return grad @ w.T, x.T @ grad, grad.sum(axis=0)

    return x @ w + b, backward


def _activation_oracle(y, activation, k=None):
    if activation == "relu":
        mask = y > 0
        return np.where(mask, y, 0.0), lambda grad: grad * mask
    if activation == "maxk":
        out, mask = maxk_forward(y, k)
        return out, lambda grad: np.where(mask, grad, 0.0)
    return y, lambda grad: grad


def _dropout_oracle(x, p, rng):
    scale = 1.0 / (1.0 - p)
    keep = rng.random(x.shape, dtype=x.dtype) >= p
    return np.where(keep, x * scale, 0.0), lambda grad: grad * keep * scale


def _layer_oracle(layer, model_type, x, upstream):
    """Forward value of one convolution — ``A·f(XW+b)`` plus SAGE's root
    path / GIN's eps self-term — and the gradients of ``x``, ``linear``'s
    weight and bias, then ``linear_self``'s pair (SAGE) or ``eps`` (GIN).
    The CBSR kernels compute the same values, so they share this oracle."""
    w, b = layer.linear.weight.data, layer.linear.bias.data
    y, linear_back = _linear_oracle(x, w, b)
    h, act_back = _activation_oracle(y, layer.nonlinearity, layer.k)
    out = layer.adj.matmul_dense(h)
    grad_y = act_back(layer.adj_t.matmul_dense(upstream))
    extra = []
    if model_type == "gin":
        scale = layer.eps.data + 1.0
        out = out + h * scale
        grad_y = grad_y + act_back(upstream * scale)
        extra = [(upstream * h).sum(axis=0).sum(axis=0, keepdims=True)]
    grad_x, grad_w, grad_b = linear_back(grad_y)
    if model_type == "sage":
        root, root_back = _linear_oracle(
            x, layer.linear_self.weight.data, layer.linear_self.bias.data
        )
        out = out + root
        grad_root_x, *extra = root_back(upstream)
        grad_x = grad_x + grad_root_x
    return out, [grad_x, grad_w, grad_b, *extra]


class TestFusedBitIdentity:
    """The single ``out=`` bodies reproduce the composed formulas bit for
    bit, from arena slots and from fresh arrays alike."""

    @pytest.mark.parametrize("activation", ["none", "relu", "maxk"])
    @pytest.mark.parametrize("planned", [False, True])
    def test_linear_act_matches_composed(self, backend, activation, planned):
        rng = np.random.default_rng(11)
        x_data = floats(rng.normal(size=(13, 7)))
        w_data = floats(rng.normal(size=(7, 10)))
        b_data = floats(rng.normal(size=10))
        upstream = floats(rng.normal(size=(13, 10)))
        k = 3

        y, linear_back = _linear_oracle(x_data, w_data, b_data)
        expected, act_back = _activation_oracle(y, activation, k)
        grad_x, grad_w, grad_b = linear_back(act_back(upstream))

        ws = Workspace() if planned else None
        x1 = Tensor(x_data, requires_grad=True)
        w1 = Tensor(w_data.copy(), requires_grad=True)
        b1 = Tensor(b_data.copy(), requires_grad=True)
        fused = linear_act(x1, w1, b1, activation=activation, k=k,
                           workspace=ws, slot="t")
        fused.backward(upstream.copy())

        assert fused.data.tobytes() == expected.tobytes()
        assert x1.grad.tobytes() == grad_x.tobytes()
        assert w1.grad.tobytes() == grad_w.tobytes()
        assert b1.grad.tobytes() == grad_b.tobytes()

    @pytest.mark.parametrize("planned", [False, True])
    def test_dropout_matches_unplanned_stream(self, planned):
        data = floats(np.random.default_rng(1).normal(size=(9, 6)))
        upstream = floats(np.random.default_rng(2).normal(size=(9, 6)))
        expected, back = _dropout_oracle(data, 0.4, np.random.default_rng(21))

        ws = Workspace() if planned else None
        x1 = Tensor(data, requires_grad=True)
        fused = dropout(x1, 0.4, True, np.random.default_rng(21),
                        workspace=ws, slot="d")
        fused.backward(upstream.copy())
        assert fused.data.tobytes() == expected.tobytes()
        assert x1.grad.tobytes() == back(upstream).tobytes()

    def test_relu_propagates_nan_with_and_without_workspace(self, backend):
        """A NaN pre-activation must poison eval/serving (fresh buffers)
        exactly as it poisons training (arena) — never a silent zero."""
        data = floats([[np.nan, 1.0, -1.0], [2.0, np.nan, 0.0]])
        fresh = relu(Tensor(data))
        planned = relu(Tensor(data), workspace=Workspace(), slot="r")
        assert fresh.data.tobytes() == planned.data.tobytes()
        np.testing.assert_array_equal(np.isnan(fresh.data), np.isnan(data))
        np.testing.assert_array_equal(
            fresh.data[~np.isnan(data)], [1.0, 0.0, 2.0, 0.0]
        )

    def test_add_into_matches_add(self):
        rng = np.random.default_rng(3)
        a_data = floats(rng.normal(size=(5, 4)))
        b_data = floats(rng.normal(size=(5, 4)))
        upstream = floats(rng.normal(size=(5, 4)))
        a0 = Tensor(a_data, requires_grad=True)
        b0 = Tensor(b_data, requires_grad=True)
        (a0 + b0).backward(upstream)
        a1 = Tensor(a_data, requires_grad=True)
        b1 = Tensor(b_data, requires_grad=True)
        out = add_into(a1, b1, workspace=Workspace(), slot="s")
        out.backward(upstream.copy())
        assert a1.grad.tobytes() == a0.grad.tobytes()
        assert b1.grad.tobytes() == b0.grad.tobytes()

    def test_add_into_rejects_broadcasting(self):
        with pytest.raises(ValueError, match="equal shapes"):
            add_into(Tensor(np.ones((3, 2))), Tensor(np.ones(2)))

    def test_spmm_agg_workspace_matches_plain(self, backend):
        graph = chain_of_cliques(3, 4)
        adj = graph.adjacency("sage")
        adj_t = graph.adjacency_transpose("sage")
        rng = np.random.default_rng(4)
        x_data = floats(rng.normal(size=(graph.n_nodes, 5)))
        upstream = floats(rng.normal(size=(graph.n_nodes, 5)))
        expected = adj.matmul_dense(x_data)
        expected_grad = adj_t.matmul_dense(upstream)
        for workspace in (None, Workspace()):
            x1 = Tensor(x_data, requires_grad=True)
            out = spmm_agg(adj, x1, adj_t, workspace=workspace, slot="a")
            out.backward(upstream.copy())
            assert out.data.tobytes() == expected.tobytes()
            assert x1.grad.tobytes() == expected_grad.tobytes()

    def test_linear_act_validation(self):
        x, w = Tensor(np.ones((3, 2))), Tensor(np.ones((2, 4)))
        with pytest.raises(ValueError, match="activation"):
            linear_act(x, w, activation="tanh")
        with pytest.raises(ValueError, match="explicit k"):
            linear_act(x, w, activation="maxk")
        with pytest.raises(ValueError, match="k must be"):
            linear_act(x, w, activation="maxk", k=9)


class TestLayerMatchesOracle:
    """Each layer type's one ``forward`` against the numpy composition."""

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize(
        "nonlinearity, use_cbsr",
        [("relu", False), ("maxk", False), ("maxk", True)],
        ids=["relu", "maxk", "maxk-cbsr"],
    )
    @pytest.mark.parametrize("model_type", ["sage", "gcn", "gin"])
    def test_forward_and_gradients(
        self, backend, model_type, nonlinearity, use_cbsr, training
    ):
        graph = sbm_graph(40, 3, 6.0, seed=7).to_undirected()
        rng = np.random.default_rng(8)
        layer = make_conv(
            model_type, graph, 6, 10, rng, nonlinearity=nonlinearity,
            k=3 if nonlinearity == "maxk" else None,
            use_cbsr_kernels=use_cbsr,
        )
        for param in layer.parameters():  # zero-init biases / eps hide terms
            param.data += floats(rng.normal(size=param.shape))
        layer.workspace = Workspace()
        layer.train(training)
        x_data = floats(rng.normal(size=(graph.n_nodes, 6)))
        upstream = floats(rng.normal(size=(graph.n_nodes, 10)))
        expected, expected_grads = _layer_oracle(
            layer, model_type, x_data, upstream
        )

        x = Tensor(x_data, requires_grad=True)
        out = layer(x)
        out.backward(upstream.copy())

        assert out.data.tobytes() == expected.tobytes()
        tensors = [x, layer.linear.weight, layer.linear.bias]
        if model_type == "sage":
            tensors += [layer.linear_self.weight, layer.linear_self.bias]
        if model_type == "gin":
            tensors.append(layer.eps)
        assert len(tensors) == 1 + len(list(layer.parameters()))
        assert len(tensors) == len(expected_grads)
        for tensor, grad in zip(tensors, expected_grads):
            assert tensor.grad.tobytes() == grad.tobytes()
        # Only a training pass may size the arena.
        assert (layer.workspace.allocations > 0) == training

    @pytest.mark.parametrize("model_type", ["sage", "gcn", "gin"])
    def test_cbsr_layer_selects_once(self, monkeypatch, model_type):
        """One top-k per CBSR layer pass: the mask is the CBSR pattern, and
        GIN's self term shares it."""
        calls = []

        def counted(name):
            original = getattr(ops, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            return wrapper

        for name in ("topk_mask", "topk_columns"):
            monkeypatch.setattr(ops, name, counted(name))
        graph = sbm_graph(40, 3, 6.0, seed=7).to_undirected()
        rng = np.random.default_rng(9)
        layer = make_conv(model_type, graph, 6, 10, rng, nonlinearity="maxk",
                          k=3, use_cbsr_kernels=True)
        out = layer(Tensor(rng.normal(size=(graph.n_nodes, 6)), requires_grad=True))
        out.backward(np.ones_like(out.data))
        assert calls == ["topk_mask"]


@pytest.mark.usefixtures("double_precision")
class TestFusedGradchecks:
    """Central-difference gradchecks of the fused kernels per backend."""

    def test_linear_relu_gradcheck(self, backend):
        rng = np.random.default_rng(41)
        x = rng.normal(size=(6, 4))
        w = rng.normal(size=(4, 5))
        b = rng.normal(size=5)
        ws = Workspace()

        def loss_for(arr):
            out = linear_act(
                Tensor(arr), Tensor(w), Tensor(b), activation="relu",
                workspace=ws, slot="g",
            )
            return ((out * out).sum()).item()

        tensor = Tensor(x.copy(), requires_grad=True)
        out = linear_act(tensor, Tensor(w), Tensor(b), activation="relu",
                         workspace=ws, slot="g")
        # Keep the loss value before the arena is rewritten by the
        # finite-difference probes, then replay the backward.
        (out * out).sum().backward()
        numeric = finite_difference(loss_for, x.copy())
        np.testing.assert_allclose(tensor.grad, numeric, **fd_tolerance())

    def test_linear_maxk_gradcheck(self, backend):
        # Spread-out integers keep the k-th/(k+1)-th gap away from the
        # finite-difference step (MaxK is piecewise differentiable).
        rng = np.random.default_rng(42)
        x = rng.permuted(np.arange(24.0).reshape(4, 6), axis=1)
        w = np.eye(6)
        ws = Workspace()

        def loss_for(arr):
            out = linear_act(Tensor(arr), Tensor(w), None, activation="maxk",
                             k=2, workspace=ws, slot="g")
            return ((out * out).sum()).item()

        tensor = Tensor(x.copy(), requires_grad=True)
        out = linear_act(tensor, Tensor(w), None, activation="maxk", k=2,
                         workspace=ws, slot="g")
        (out * out).sum().backward()
        numeric = finite_difference(loss_for, x.copy())
        np.testing.assert_allclose(tensor.grad, numeric, **fd_tolerance())

    def test_weight_and_bias_gradcheck(self, backend):
        rng = np.random.default_rng(43)
        x = rng.normal(size=(5, 3))
        w = rng.normal(size=(3, 4))
        b = rng.normal(size=4)
        ws = Workspace()
        weight = Tensor(w.copy(), requires_grad=True)
        bias = Tensor(b.copy(), requires_grad=True)
        out = linear_act(Tensor(x), weight, bias, activation="relu",
                         workspace=ws, slot="g")
        (out * out).sum().backward()
        numeric_w = finite_difference(
            lambda arr: (
                (o := linear_act(Tensor(x), Tensor(arr), Tensor(b),
                                 activation="relu", workspace=ws, slot="g"))
                * o
            ).sum().item(),
            w.copy(),
        )
        numeric_b = finite_difference(
            lambda arr: (
                (o := linear_act(Tensor(x), Tensor(w), Tensor(arr),
                                 activation="relu", workspace=ws, slot="g"))
                * o
            ).sum().item(),
            b.copy(),
        )
        np.testing.assert_allclose(weight.grad, numeric_w, **fd_tolerance())
        np.testing.assert_allclose(bias.grad, numeric_b, **fd_tolerance())


class TestOutParamPrimitives:
    """``out=`` SpMM / segment primitives against the reference oracle."""

    def _random_csr(self, rng, n_rows=12, n_cols=10, density=0.3):
        dense = (rng.random((n_rows, n_cols)) < density) * rng.normal(
            size=(n_rows, n_cols)
        )
        return CSRMatrix.from_dense(dense)

    def test_spmm_out_matches_oracle(self, backend):
        rng = np.random.default_rng(51)
        matrix = self._random_csr(rng)
        x = floats(rng.normal(size=(10, 6)))
        with ops.use_backend("reference"):
            oracle = matrix.matmul_dense(x)
        out = np.empty((12, 6), dtype=x.dtype)
        result = matrix.matmul_dense(x, out=out)
        assert result is out
        assert out.tobytes() == oracle.tobytes()

    def test_spmm_out_vector(self, backend):
        rng = np.random.default_rng(52)
        matrix = self._random_csr(rng)
        v = floats(rng.normal(size=10))
        out = np.empty(12, dtype=v.dtype)
        assert matrix.matmul_dense(v, out=out) is out
        np.testing.assert_allclose(out, matrix.matmul_dense(v))

    def test_spmm_out_validation(self):
        rng = np.random.default_rng(53)
        matrix = self._random_csr(rng)
        x = floats(rng.normal(size=(10, 6)))
        with pytest.raises(ValueError, match="shape"):
            matrix.matmul_dense(x, out=np.empty((5, 6), dtype=x.dtype))
        with pytest.raises(ValueError, match=x.dtype.name):
            matrix.matmul_dense(x, out=np.empty((12, 6), dtype=np.float16))

    def test_segment_sum_out(self, backend):
        rng = np.random.default_rng(54)
        values = floats(rng.normal(size=(30, 4)))
        ids = rng.integers(0, 7, 30)
        with ops.use_backend("reference"):
            oracle = ops.segment_sum(values, ids, 7)
        out = np.empty((7, 4), dtype=values.dtype)
        assert ops.segment_sum(values, ids, 7, out=out) is out
        assert out.tobytes() == oracle.tobytes()

    def test_topk_out_and_workspace(self, backend):
        rng = np.random.default_rng(55)
        ws = Workspace()
        for trial in range(4):
            # Mix continuous rows with heavy-tie rows to cover both the
            # exact-count fast path and the cumulative fill.
            x = rng.normal(size=(9, 8))
            x[trial % 9] = np.repeat(rng.normal(), 8)
            x[(trial + 3) % 9, :4] = x[(trial + 3) % 9, 4:]
            for k in (1, 3, 8):
                with ops.use_backend("reference"):
                    oracle = ops.topk_mask(x, k)
                out = np.empty((9, 8), dtype=bool)
                got = ops.topk_mask(x, k, out=out, workspace=ws, slot="t")
                assert got is out
                np.testing.assert_array_equal(out, oracle)

    def test_release_hook_default_is_a_noop(self):
        assert ops.ReferenceBackend().release([object()]) == 0

    def test_pin_release_drops_only_given(self):
        if native.load() is None:
            pytest.skip("the compiled loops are not built")
        rng = np.random.default_rng(56)
        a = self._random_csr(rng)
        b = self._random_csr(rng)
        x = rng.normal(size=(10, 3))
        with ops.use_backend("vectorized"):
            backend = ops.get_backend()
            backend.clear_cache()
            a.matmul_dense(x)
            b.matmul_dense(x)
            assert backend.cache_info()["csr_entries"] == 2
            assert ops.release([a]) == 1
            assert backend.cache_info()["csr_entries"] == 1
            assert ops.release([a]) == 0
            assert ops.release([b]) == 1


class TestInPlaceAdam:
    def test_matches_textbook_trajectory_bitwise(self):
        rng = np.random.default_rng(61)
        shapes = [(7, 5), (3,), (4, 6)]
        datas = [floats(rng.normal(size=s)) for s in shapes]
        params = [Tensor(d.copy(), requires_grad=True) for d in datas]
        optimizer = Adam(params, lr=0.01, weight_decay=0.3)
        refs = [d.copy() for d in datas]
        m = [np.zeros_like(d) for d in datas]
        v = [np.zeros_like(d) for d in datas]
        for t in range(1, 25):
            grads = [floats(rng.normal(size=s)) for s in shapes]
            for p, g in zip(params, grads):
                p.grad = None
                p._accumulate(g)
            optimizer.step()
            for i, g in enumerate(grads):
                grad = g + 0.3 * refs[i]
                m[i] = 0.9 * m[i] + (1.0 - 0.9) * grad
                v[i] = 0.999 * v[i] + (1.0 - 0.999) * grad * grad
                refs[i] -= (
                    0.01 * (m[i] / (1 - 0.9 ** t))
                    / (np.sqrt(v[i] / (1 - 0.999 ** t)) + 1e-8)
                )
        for p, ref in zip(params, refs):
            assert p.data.tobytes() == ref.tobytes()

    def test_skipped_parameter_keeps_state(self):
        p1 = Tensor(np.ones(3), requires_grad=True)
        p2 = Tensor(np.ones(3), requires_grad=True)
        optimizer = Adam([p1, p2], lr=0.1)
        p1._accumulate(np.ones(3))
        optimizer.step()  # p2 has no grad: moments untouched, p2 unchanged
        np.testing.assert_array_equal(p2.data, np.ones(3))
        assert not optimizer._m[1].any()
        assert p1.data[0] != 1.0

    def test_moment_views_alias_flat_storage(self):
        p = Tensor(np.ones((2, 3)), requires_grad=True)
        optimizer = Adam([p])
        assert optimizer._m[0].base is optimizer._flat_m
        assert optimizer._v[0].base is optimizer._flat_v

    def test_grad_buffer_attached_and_adopted(self):
        p = Tensor(np.ones(4), requires_grad=True)
        Adam([p])
        assert p._grad_buffer is not None
        p._accumulate(np.arange(4.0))
        assert p.grad is p._grad_buffer


def _training_engine(use_workspace, seed=0):
    graph = sbm_graph(120, 4, 8.0, intra_fraction=0.7, seed=3).to_undirected()
    attach_classification_task(graph, n_features=8, signal=0.5, seed=3)
    config = GNNConfig(
        model_type="sage", in_features=8, hidden=16, out_features=4,
        n_layers=2, nonlinearity="maxk", k=4, dropout=0.2,
        use_workspace=use_workspace,
    )
    model = MaxKGNN(graph, config, seed=seed)
    return Engine(model, graph, FullGraphFlow(), lr=0.01), graph


class TestWorkspaceTraining:
    def test_workspace_and_composed_train_bit_identically(self):
        result_ws = _training_engine(True)[0].fit(8, eval_every=4)
        result_plain = _training_engine(False)[0].fit(8, eval_every=4)
        assert result_ws.train_losses == result_plain.train_losses
        assert result_ws.val_metrics == result_plain.val_metrics
        assert result_ws.test_metrics == result_plain.test_metrics

    def test_workspace_allocations_flat_in_steady_state(self):
        engine, _ = _training_engine(True)
        engine.fit(3, eval_every=3)
        workspace = engine.model.workspace
        settled = workspace.allocations
        engine.fit(4, eval_every=4)
        assert workspace.allocations == settled
        assert workspace.requests > 0

    def test_models_without_workspace_have_none(self):
        engine, _ = _training_engine(False)
        assert engine.model.workspace is None

    def test_gin_and_cbsr_paths_still_train(self):
        graph = sbm_graph(60, 3, 6.0, seed=5).to_undirected()
        attach_classification_task(graph, n_features=6, seed=5)
        for kwargs in (
            dict(model_type="gin", nonlinearity="relu", k=None),
            dict(model_type="sage", nonlinearity="maxk", k=2,
                 use_cbsr_kernels=True),
        ):
            config = GNNConfig(
                in_features=6, hidden=8, out_features=3, n_layers=2,
                **kwargs,
            )
            engine = Engine(MaxKGNN(graph, config, seed=0), graph, lr=0.01)
            result = engine.fit(3, eval_every=3)
            assert np.isfinite(result.train_losses).all()


#: (nonlinearity, k, use_cbsr_kernels): the three routes a conv can take.
_ROUTES = {
    "relu": ("relu", None, False),
    "maxk": ("maxk", 4, False),
    "maxk-cbsr": ("maxk", 4, True),
}


def _route_model(model_type, route, use_workspace, graph=None):
    if graph is None:
        graph = sbm_graph(90, 3, 7.0, intra_fraction=0.7, seed=4).to_undirected()
        attach_classification_task(graph, n_features=8, signal=0.5, seed=4)
    nonlinearity, k, cbsr = _ROUTES[route]
    config = GNNConfig(
        model_type=model_type, in_features=8, hidden=16, out_features=3,
        n_layers=2, nonlinearity=nonlinearity, k=k, dropout=0.2,
        use_cbsr_kernels=cbsr, use_workspace=use_workspace,
    )
    return MaxKGNN(graph, config, seed=2), graph


def _consumers(root):
    """``{id(node): how many graph nodes take it as a parent}`` over the
    graph reachable from ``root``, and the reachable nodes."""
    counts, nodes, stack, seen = {}, [], [root], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        for parent in node._parents:
            counts[id(parent)] = counts.get(id(parent), 0) + 1
            stack.append(parent)
    return counts, nodes


class TestGradientHandOver:
    """A first gradient is handed over, not copied (``Tensor._accumulate``):
    these pin what makes that safe against a reused arena."""

    @pytest.mark.parametrize("route", sorted(_ROUTES))
    @pytest.mark.parametrize("model_type", ["sage", "gcn", "gin"])
    def test_nan_poisoned_arena_trains_like_fresh_arrays(
        self, monkeypatch, model_type, route
    ):
        # Every float view the arena returns starts as NaN, so a gradient
        # handed over from a slot that is requested again before it is
        # consumed poisons the run instead of passing by accident.
        served = Workspace.buffer

        def poisoned(self, name, shape, dtype):
            view = served(self, name, shape, dtype)
            if np.issubdtype(view.dtype, np.floating):
                view.fill(np.nan)
            return view

        monkeypatch.setattr(Workspace, "buffer", poisoned)
        runs = []
        for use_workspace in (True, False):
            model, graph = _route_model(model_type, route, use_workspace)
            result = Engine(model, graph, FullGraphFlow(), lr=0.01).fit(
                4, eval_every=4
            )
            runs.append((result.train_losses,
                         [p.data.tobytes() for p in model.parameters()]))
        assert np.isfinite(runs[0][0]).all()
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("model_type", ["sage", "gcn", "gin"])
    def test_two_sweeps_over_one_forward(self, model_type):
        # The second sweep's producers rewrite the slots the first sweep
        # handed over: backward() must own those gradients before it runs.
        grads = []
        graph = None
        for use_workspace in (True, False):
            model, graph = _route_model(model_type, "maxk", use_workspace, graph)
            model.train()
            logits = model(np.asarray(graph.features, dtype=ops.FLOAT_DTYPE))
            first = np.arange(graph.n_nodes) < graph.n_nodes // 2
            losses = [
                fused_ce(logits, graph.labels, mask,
                         workspace=model.workspace, slot=slot)
                for mask, slot in ((first, "loss1"), (~first, "loss2"))
            ]
            for loss in losses:
                loss.backward()
            grads.append([p.grad.tobytes() for p in model.parameters()])
        assert grads[0] == grads[1]

    def test_single_consumers_hold_handed_over_arrays(self):
        model, graph = _route_model("sage", "maxk", True)
        model.train()
        logits = model(np.asarray(graph.features, dtype=ops.FLOAT_DTYPE))
        loss = fused_ce(logits, graph.labels, graph.train_mask,
                        workspace=model.workspace)
        loss.backward()
        counts, nodes = _consumers(loss)
        planned = [n for n in nodes
                   if n._parents and n._grad_buffer is not None]
        single = [n for n in planned if counts.get(id(n), 0) == 1]
        multi = [n for n in planned if counts.get(id(n), 0) > 1]
        # Layer 1's dropout output feeds the neighbour and the self linear.
        assert single and multi
        assert all(n.grad is not n._grad_buffer for n in single)
        assert all(n.grad is n._grad_buffer for n in multi)


class TestBatchGraphs:
    def _labelled(self, n, seed):
        graph = sbm_graph(n, 3, 6.0, seed=seed).to_undirected()
        attach_classification_task(graph, n_features=5, seed=seed)
        return graph

    def test_block_diagonal_adjacency(self):
        parts = [self._labelled(30, 1), self._labelled(20, 2)]
        merged = batch_graphs(parts)
        assert merged.n_nodes == 50
        assert merged.n_edges == parts[0].n_edges + parts[1].n_edges
        dense = merged.adjacency("none").to_dense()
        np.testing.assert_array_equal(
            dense[:30, :30], parts[0].adjacency("none").to_dense()
        )
        np.testing.assert_array_equal(
            dense[30:, 30:], parts[1].adjacency("none").to_dense()
        )
        assert not dense[:30, 30:].any() and not dense[30:, :30].any()

    def test_payloads_concatenate_in_order(self):
        parts = [self._labelled(30, 1), self._labelled(20, 2)]
        merged = batch_graphs(parts)
        np.testing.assert_array_equal(
            merged.features, np.concatenate([p.features for p in parts])
        )
        np.testing.assert_array_equal(
            merged.labels, np.concatenate([p.labels for p in parts])
        )
        np.testing.assert_array_equal(
            merged.train_mask,
            np.concatenate([p.train_mask for p in parts]),
        )

    def test_multilabel_members_stack(self):
        graphs = []
        for seed in (1, 2):
            graph = sbm_graph(25, 3, 5.0, seed=seed).to_undirected()
            attach_multilabel_task(graph, n_features=4, n_labels=3, seed=seed)
            graphs.append(graph)
        merged = batch_graphs(graphs)
        assert merged.multilabel
        assert merged.labels.shape == (50, 3)

    def test_mixed_label_kinds_rejected(self):
        single = self._labelled(20, 1)
        multi = sbm_graph(20, 3, 5.0, seed=2).to_undirected()
        attach_multilabel_task(multi, n_features=4, n_labels=3, seed=2)
        with pytest.raises(ValueError, match="multi-label"):
            batch_graphs([single, multi])

    def test_empty_and_singleton(self):
        with pytest.raises(ValueError, match="at least one"):
            batch_graphs([])
        lone = self._labelled(20, 1)
        assert batch_graphs([lone]) is lone

    def _weighted(self, n, seed):
        graph = self._labelled(n, seed)
        rng = np.random.default_rng(seed)
        mask = np.asarray(graph.train_mask, dtype=bool)
        weights = np.zeros(graph.n_nodes)
        weights[mask] = rng.random(int(mask.sum())) + 0.1
        weights[mask] /= weights[mask].sum()
        graph.loss_weights = weights
        return graph

    def test_mixed_loss_weights_fill_implicit_uniform(self):
        """Merging a weighted member with an unweighted one must fill the
        unweighted member's implicit uniform weights (1/n_labelled on its
        training rows), not drop or misalign the payload."""
        weighted, plain = self._weighted(24, 1), self._labelled(30, 2)
        merged = batch_graphs([weighted, plain])
        assert merged.loss_weights is not None
        assert merged.loss_weights.shape == (54,)
        np.testing.assert_array_equal(
            merged.loss_weights[:24], weighted.loss_weights
        )
        mask = np.asarray(plain.train_mask, dtype=bool)
        expected = np.zeros(30)
        expected[mask] = 1.0 / mask.sum()
        np.testing.assert_allclose(merged.loss_weights[24:], expected)
        # Member order must not matter for the fill.
        flipped = batch_graphs([plain, weighted])
        np.testing.assert_allclose(flipped.loss_weights[:30], expected)

    def test_mixed_loss_weights_preserve_member_estimators(self):
        """The merged weighted-sum loss (with MicroBatchedFlow's 1/K
        rescale) equals the mean of the members' own losses — the
        weighted member's weighted sum and the unweighted member's masked
        mean — so the mixed merge stays unbiased."""
        from repro.tensor import cross_entropy, weighted_cross_entropy

        weighted, plain = self._weighted(24, 3), self._labelled(30, 4)
        rng = np.random.default_rng(0)
        logits_w = rng.normal(size=(24, 3))
        logits_p = rng.normal(size=(30, 3))
        loss_w = weighted_cross_entropy(
            Tensor(logits_w), weighted.labels, weighted.loss_weights,
            weighted.train_mask,
        ).item()
        loss_p = cross_entropy(
            Tensor(logits_p), plain.labels, plain.train_mask
        ).item()
        merged = batch_graphs([weighted, plain])
        rescaled = merged.loss_weights / 2  # the 1/K micro-batch rescale
        loss_m = weighted_cross_entropy(
            Tensor(np.vstack([logits_w, logits_p])), merged.labels,
            rescaled, merged.train_mask,
        ).item()
        assert loss_m == pytest.approx((loss_w + loss_p) / 2)

    def test_all_absent_loss_weights_stay_none(self):
        merged = batch_graphs([self._labelled(20, 1), self._labelled(20, 2)])
        assert merged.loss_weights is None

    def test_all_present_loss_weights_concatenate_unchanged(self):
        a, b = self._weighted(20, 1), self._weighted(25, 2)
        merged = batch_graphs([a, b])
        np.testing.assert_array_equal(
            merged.loss_weights,
            np.concatenate([a.loss_weights, b.loss_weights]),
        )


class TestEvalKeepsArenaSmall:
    def test_full_graph_eval_does_not_grow_workspace(self):
        """Eval passes take fresh arrays: the arena (whose capacity never
        shrinks) must stay sized to the training batches, not the full
        graph."""
        from repro.training import SampledFlow

        graph = sbm_graph(400, 4, 8.0, intra_fraction=0.7, seed=3)
        graph = graph.to_undirected()
        attach_classification_task(graph, n_features=8, signal=0.5, seed=3)
        config = GNNConfig(
            model_type="sage", in_features=8, hidden=16, out_features=4,
            n_layers=2, nonlinearity="maxk", k=4, dropout=0.2,
        )
        flow = SampledFlow(sampler="node", sample_size=40, pool_size=2,
                           seed=0)
        engine = Engine(MaxKGNN(graph, config, seed=0), graph, flow, lr=0.01)
        engine.train_epoch(0)
        trained = engine.model.workspace.allocations
        assert trained > 0
        scores = engine.evaluate()  # full graph, 10x the batch rows
        assert engine.model.workspace.allocations == trained
        assert np.isfinite(list(scores.values())).all()
