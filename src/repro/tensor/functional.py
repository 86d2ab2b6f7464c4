"""Differentiable operators for GNN training.

The two operators at the heart of the paper live here:

* :func:`maxk` — the MaxK nonlinearity; backward reuses the forward mask
  (paper §3.1: "the feature gradient uses same feature sparsity pattern as
  induced in forward").
* :func:`spmm_agg` — feature aggregation ``X_out = A @ X``; its backward is
  ``dX = A^T @ dX_out`` computed through the transposed CSR buffers, mirroring
  the forward-SpGEMM / backward-SSpMM split of Fig. 5.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..sparse import CSRMatrix, ops
from .tensor import Tensor

__all__ = [
    "relu",
    "maxk",
    "spmm_agg",
    "spgemm_agg",
    "dropout",
    "log_softmax",
    "cross_entropy",
    "weighted_cross_entropy",
    "fused_ce",
    "bce_with_logits",
    "linear_act",
    "add_into",
]


#: Activations the fused linear kernels accept.
_FUSED_ACTIVATIONS = ("none", "relu", "maxk")


def _taker(workspace, slot: str, dtype):
    """Buffer factory: workspace slots when planned, fresh arrays otherwise.

    The only place that knows whether an arena exists — every op below has
    one arithmetic body and asks this for each large array it writes.
    ``dtype`` is the op's operand's: what a request that names none gets.
    """
    if workspace is None:
        return lambda name, shape, dtype=dtype: np.empty(shape, dtype=dtype)
    return lambda name, shape, dtype=dtype: workspace.buffer(
        slot + name, shape, dtype
    )


def _node(data, parents, backward, workspace, slot: str) -> Tensor:
    """Autograd node whose gradient, when planned, owns an arena slot: where
    a second arriving gradient is summed (the first is handed over)."""
    out = Tensor._make(data, parents, backward)
    if workspace is not None and out.requires_grad:
        out._grad_buffer = workspace.buffer(slot + ".grad", data.shape, data.dtype)
    return out


def linear_act(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    activation: str = "none",
    k: Optional[int] = None,
    workspace=None,
    slot: str = "linear",
) -> Tensor:
    """Fused ``activation(X @ W + b)`` forward and backward.

    One kernel folds the affine transform, the bias broadcast and the
    nonlinearity (``none`` / ``relu`` / ``maxk``) into a single pass whose
    every large intermediate — the pre-activation, the survivor mask, the
    output, and all three backward products — is written into preplanned
    buffers via ``out=``. With a :class:`~repro.tensor.workspace.Workspace`
    the steady-state step therefore performs zero fresh large allocations;
    without one, plain arrays are allocated and the arithmetic is the same.

    A NaN pre-activation is a NaN output (``np.maximum`` and ``NaN * 0.0``
    propagate it); its mask entry is 0.0 — a compare reads NaN as False —
    so the gradient at that position is 0.0, not NaN.
    """
    if activation not in _FUSED_ACTIVATIONS:
        raise ValueError(
            f"activation must be one of {_FUSED_ACTIVATIONS}, got {activation!r}"
        )
    if activation == "maxk":
        if k is None:
            raise ValueError("the maxk activation needs an explicit k")
        if not 1 <= k <= weight.shape[1]:
            raise ValueError(f"k must be in [1, {weight.shape[1]}]")
    take = _taker(workspace, slot, x.data.dtype)
    n = x.shape[0]
    d_out = weight.shape[1]

    y = take(".y", (n, d_out))
    np.matmul(x.data, weight.data, out=y)
    if bias is not None:
        y += bias.data

    # The pre-activation is not needed once the survivor mask exists (the
    # backward pass only reads the mask and the layer input), so the
    # nonlinearity is applied in place over ``y`` — one buffer, one pass.
    # Masks are 0.0/1.0 *float* arrays, not bools: multiplying by an exact
    # 0/1 float selects the same values bit for bit, while a float×bool
    # ufunc would allocate numpy's ~64 KB casting buffer on every call —
    # the last allocation source the planned hot path had left. They are
    # written by ``ops.mask_into``: a compare into a transient bool
    # scratch, one cast.
    if activation == "relu":
        mask = take(".mask", y.shape)
        ops.mask_into(np.greater, y, 0.0, take(".flags", y.shape, bool), mask)
        np.maximum(y, 0.0, out=y)
        h = y
    elif activation == "maxk":
        mask = take(".mask", y.shape)
        ops.topk_mask(y, k, out=mask, workspace=workspace, slot=slot + ".topk")
        # y * mask, then + 0.0 to normalise dropped entries to +0.0 —
        # bit-identical to ``np.where(mask, y, 0.0)``.
        np.multiply(y, mask, out=y)
        y += 0.0
        h = y
    else:
        mask = None
        h = y

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad):
        if mask is None:
            grad_y = grad
        elif activation == "relu":
            grad_y = take(".gy", grad.shape)
            np.multiply(grad, mask, out=grad_y)
        else:  # maxk routes gradient through the surviving positions only
            # grad * mask, + 0.0 to normalise dropped entries to +0.0 —
            # bit-identical to ``np.where(mask, grad, 0.0)`` and ~5x
            # faster than a masked copy.
            grad_y = take(".gy", grad.shape)
            np.multiply(grad, mask, out=grad_y)
            grad_y += 0.0
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad_y.sum(axis=0))
        if weight.requires_grad:
            grad_w = take(".gw", weight.shape)
            np.matmul(x.data.T, grad_y, out=grad_w)
            weight._accumulate(grad_w)
        if x.requires_grad:
            grad_x = take(".gx", x.shape)
            np.matmul(grad_y, weight.data.T, out=grad_x)
            x._accumulate(grad_x)

    return _node(h, parents, backward, workspace, slot)


def add_into(a: Tensor, b: Tensor, workspace=None, slot: str = "add") -> Tensor:
    """Elementwise ``a + b`` for equal shapes, written into a planned buffer.

    The backward pass hands the incoming gradient array to both parents
    without materialising temporaries, unlike the generic broadcasting
    ``Tensor.__add__``: each adopts it, and a parent that receives a second
    gradient sums into its own buffer instead of writing the shared array.
    """
    if a.shape != b.shape:
        raise ValueError("add_into requires equal shapes (no broadcasting)")
    take = _taker(workspace, slot, a.data.dtype)
    data = take(".out", a.shape)
    np.add(a.data, b.data, out=data)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad)
        if b.requires_grad:
            b._accumulate(grad)

    return _node(data, (a, b), backward, workspace, slot)


def relu(x: Tensor, workspace=None, slot: str = "relu") -> Tensor:
    """Elementwise ReLU (the paper's baseline nonlinearity).

    The survivor mask, the output and the backward product are written
    with ``out=``; ``x * mask`` then ``+ 0.0`` normalises dropped entries
    to ``+0.0``. A NaN input yields a NaN output (``NaN * 0.0``), as in
    :func:`linear_act`'s fused ReLU — never a silent zero; its mask entry,
    hence the gradient there, is 0.0.
    """
    take = _taker(workspace, slot, x.data.dtype)
    mask = take(".mask", x.data.shape)  # float 0/1 mask, see linear_act
    ops.mask_into(np.greater, x.data, 0.0, take(".flags", x.data.shape, bool), mask)
    data = take(".out", x.data.shape)
    np.multiply(x.data, mask, out=data)
    data += 0.0

    def backward(grad):
        if not x.requires_grad:
            return
        grad_x = take(".gx", x.data.shape)
        np.multiply(np.asarray(grad), mask, out=grad_x)
        x._accumulate(grad_x)

    return _node(data, (x,), backward, workspace, slot)


def maxk(x: Tensor, k: int, workspace=None, slot: str = "maxk") -> Tensor:
    """MaxK nonlinearity: keep the k largest entries of every row.

    With ``k == row width`` this is the identity. The backward pass routes
    gradient only through the surviving positions. The selection scratch,
    mask, output and backward product are written with ``out=``; the
    masked multiplies (``+ 0.0`` normalises dropped entries to ``+0.0``)
    select the same values as ``np.where(mask, ·, 0.0)`` bit for bit.
    """
    return maxk_with_mask(x, k, workspace, slot)[0]


def maxk_with_mask(x: Tensor, k: int, workspace=None, slot: str = "maxk"):
    """:func:`maxk` and its float 0/1 survivor mask, for a sibling
    :func:`spgemm_agg` over the same ``x`` to reuse the selection."""
    take = _taker(workspace, slot, x.data.dtype)
    mask = take(".mask", x.data.shape)  # float 0/1 mask, see linear_act
    ops.topk_mask(x.data, k, out=mask, workspace=workspace, slot=slot + ".topk")
    data = take(".out", x.data.shape)
    np.multiply(x.data, mask, out=data)
    data += 0.0

    def backward(grad):
        if not x.requires_grad:
            return
        grad_x = take(".gx", x.data.shape)
        np.multiply(np.asarray(grad), mask, out=grad_x)
        grad_x += 0.0
        x._accumulate(grad_x)

    return _node(data, (x,), backward, workspace, slot), mask


def spgemm_agg(
    adj: CSRMatrix,
    x: Tensor,
    k: int,
    mask: Optional[np.ndarray] = None,
    workspace=None,
    slot: str = "cbsr",
) -> Tensor:
    """MaxK + aggregation through the paper's actual kernel dataflow.

    Forward: one top-k selection over ``x`` whose survivor mask *is* the
    CBSR pattern, packed into the ``(n, k)`` block and aggregated with the
    row-wise-product **SpGEMM** kernel. Backward: the gradient at that
    pattern from the outer-product **SSpMM** kernel, unpacked into a dense
    block zero elsewhere — the Fig.-5 training dataflow. Outputs and
    gradients equal ``spmm_agg(adj, maxk(x, k))`` bit for bit, zero-valued
    survivors included. ``mask`` hands in the selection
    :func:`maxk_with_mask` already made over ``x`` (GIN's self term), so
    the layer selects once. ``workspace`` / ``slot`` route the mask, the
    block and the dense gradient into planned buffers.
    """
    n, dim = x.data.shape
    take = _taker(workspace, slot, x.data.dtype)
    if mask is None:
        mask = ops.topk_mask(x.data, k, out=take(".mask", (n, dim), bool),
                             workspace=workspace, slot=slot + ".topk")
    sp_data, sp_index = ops.cbsr_pack(
        x.data, mask, k, take(".data", (n, k)),
        take(".index", (n, k), ops.index_dtype_for(dim)),
    )
    out = ops.spgemm_cbsr(
        adj.indptr, adj.indices, adj.data, sp_data, sp_index, dim, adj.n_rows
    )

    def backward(grad):
        if not x.requires_grad:
            return
        sp_grad = ops.sspmm_cbsr(adj.indptr, adj.indices, adj.data, grad, sp_index, n)
        x._accumulate(ops.cbsr_unpack(sp_grad, sp_index, dim, take(".gx", (n, dim))))

    return Tensor._make(out, (x,), backward)


def spmm_agg(
    adj: CSRMatrix,
    x: Tensor,
    adj_t: Optional[CSRMatrix] = None,
    workspace=None,
    slot: str = "spmm",
) -> Tensor:
    """Feature aggregation ``A @ X`` with autograd.

    Parameters
    ----------
    adj:
        The (normalised) adjacency matrix in CSR.
    x:
        Node features ``(n_nodes, dim)``.
    adj_t:
        Optional pre-materialised ``A^T`` used by the backward pass. When
        omitted, it is built inside the backward pass and dropped with
        it; callers that aggregate over one adjacency repeatedly pass the
        transpose they already hold
        (:meth:`~repro.graphs.Graph.adjacency_transpose`).
    workspace / slot:
        Optional :class:`~repro.tensor.workspace.Workspace` routing the
        forward product, the backward product and the incoming gradient
        into planned ``out=`` buffers (zero fresh large allocations in
        steady state).
    """
    take = _taker(workspace, slot, x.data.dtype)
    data = adj.matmul_dense(
        x.data, out=take(".out", (adj.n_rows,) + x.data.shape[1:])
    )

    def backward(grad):
        if not x.requires_grad:
            return
        transpose = adj_t if adj_t is not None else adj.transpose()
        x._accumulate(
            transpose.matmul_dense(np.asarray(grad), out=take(".gx", x.shape))
        )

    return _node(data, (x,), backward, workspace, slot)


def dropout(
    x: Tensor,
    p: float,
    training: bool,
    rng: np.random.Generator,
    workspace=None,
    slot: str = "dropout",
) -> Tensor:
    """Inverted dropout; identity when not training or p == 0.

    The forward is :func:`ops.dropout_into`: the uniform draw (the stream
    ``rng.random(shape, dtype)`` would return), the float keep mask and
    the output, written with ``out=``. Where the vectorized backend's
    compiled draw serves (a PCG64 generator, float32, a C-contiguous
    ``x``) it generates numpy's stream itself: the same bytes, the same
    generator state. A NaN input stays NaN in the output (``NaN * 0.0``) whether
    kept or dropped; the keep mask only ever holds 0.0 / 1.0. The
    backward's product is written with ``out=`` too.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout probability must be in [0, 1)")
    if not training or p == 0.0:
        return x
    scale = 1.0 / (1.0 - p)
    take = _taker(workspace, slot, x.data.dtype)
    keep = take(".keep", x.data.shape)  # float 0/1 mask, see linear_act
    data = ops.dropout_into(rng, x.data, p, take(".draw", x.data.shape), keep,
                            take(".out", x.data.shape))

    def backward(grad):
        if not x.requires_grad:
            return
        grad_x = take(".gx", x.data.shape)
        np.multiply(np.asarray(grad), keep, out=grad_x)
        grad_x *= scale
        x._accumulate(grad_x)

    return _node(data, (x,), backward, workspace, slot)


def log_softmax(x: Tensor) -> Tensor:
    """Row-wise log-softmax with the standard max-shift stabilisation."""
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out = shifted - log_z
    softmax = np.exp(out)

    def backward(grad):
        if x.requires_grad:
            x._accumulate(grad - softmax * grad.sum(axis=1, keepdims=True))

    return Tensor._make(out, (x,), backward)


def cross_entropy(logits: Tensor, labels: np.ndarray, mask: np.ndarray = None) -> Tensor:
    """Mean negative log-likelihood over (optionally masked) nodes."""
    labels = np.asarray(labels, dtype=np.int64)
    log_probs = log_softmax(logits)
    n = logits.shape[0]
    if mask is None:
        mask = np.ones(n, dtype=bool)
    idx = np.where(mask)[0]
    picked = log_probs[(idx, labels[idx])]
    return -picked.mean()


def weighted_cross_entropy(
    logits: Tensor,
    labels: np.ndarray,
    weights: np.ndarray,
    mask: np.ndarray = None,
) -> Tensor:
    """Importance-weighted negative log-likelihood: ``sum_v w_v * nll_v``.

    The weights carry the whole normalisation (the degree-weighted samplers
    attach ``c_v / (draws * rate_v * N_labelled)``, see
    :mod:`repro.graphs.sampling`), so the weighted *sum* — not a mean — is
    the unbiased estimator of the full-graph mean training loss.
    """
    labels = np.asarray(labels, dtype=np.int64)
    weights = np.asarray(weights)
    log_probs = log_softmax(logits)
    n = logits.shape[0]
    if mask is None:
        mask = np.ones(n, dtype=bool)
    idx = np.where(mask)[0]
    picked = log_probs[(idx, labels[idx])]
    return -(picked * weights[idx]).sum()


def fused_ce(
    logits: Tensor,
    labels: np.ndarray,
    mask: np.ndarray = None,
    workspace=None,
    slot: str = "loss",
) -> Tensor:
    """Workspace-planned cross-entropy: one kernel for the whole loss stage.

    Computes log-softmax, the masked negative log-likelihood mean and the
    full backward pass in preplanned buffers, replicating the float-op
    order of the composed :func:`cross_entropy` **exactly** — max-shift,
    exp, row-sum, log, subtract, gather, sum, scale, negate forward;
    scatter, row-sum, softmax-product, subtract backward — so losses and
    gradients are bit-identical to the composed ops and training
    trajectories do not move. With a workspace the loss stage stops
    allocating its ``(n, classes)`` temporaries per step (the last unfused
    stage of the PR-3 hot path); without one, plain arrays are used and
    only the allocations differ from the composed path.
    """
    labels = np.asarray(labels, dtype=np.int64)
    z = logits.data
    take = _taker(workspace, slot, z.dtype)
    n, dim = z.shape

    shift = take(".max", (n, 1))
    np.amax(z, axis=1, keepdims=True, out=shift)
    log_probs = take(".lp", (n, dim))
    np.subtract(z, shift, out=log_probs)
    softmax = take(".sm", (n, dim))
    np.exp(log_probs, out=softmax)
    norm = take(".z", (n, 1))
    np.sum(softmax, axis=1, keepdims=True, out=norm)
    np.log(norm, out=norm)
    np.subtract(log_probs, norm, out=log_probs)
    np.exp(log_probs, out=softmax)

    if mask is None:
        idx = np.arange(n)
    else:
        idx = np.where(np.asarray(mask))[0]
    picked_labels = labels[idx]
    count = idx.size
    # sum → * (1/count) → negate: the exact op chain of -picked.mean().
    value = -(log_probs[idx, picked_labels].sum() * (1.0 / count))

    source = logits

    def backward(grad):
        if not source.requires_grad:
            return
        # Composed chain: negate the head grad, scale by 1/count, scatter
        # to the picked positions, then the log-softmax backward
        # ``g - softmax * g.sum(axis=1)`` — same ops, planned buffers.
        scalar = (-grad) * (1.0 / count)
        grad_lp = take(".gl", (n, dim))
        grad_lp[...] = 0.0
        grad_lp[idx, picked_labels] = scalar
        row_sum = take(".gs", (n, 1))
        np.sum(grad_lp, axis=1, keepdims=True, out=row_sum)
        grad_x = take(".gx", (n, dim))
        np.multiply(softmax, row_sum, out=grad_x)
        np.subtract(grad_lp, grad_x, out=grad_x)
        source._accumulate(grad_x)

    return Tensor._make(np.asarray(value), (source,), backward)


def bce_with_logits(
    logits: Tensor,
    targets: np.ndarray,
    mask: np.ndarray = None,
    weights: np.ndarray = None,
) -> Tensor:
    """Mean binary cross-entropy with logits (multi-label tasks).

    Uses the numerically stable form
    ``max(z, 0) - z*y + log(1 + exp(-|z|))`` computed via autograd-safe
    primitives. With per-node importance ``weights`` (see
    :func:`weighted_cross_entropy`), each row's class-mean loss is scaled
    by its weight and summed — the weights carry the normalisation.
    """
    targets = np.asarray(targets, dtype=logits.data.dtype)
    if weights is not None:
        weights = np.asarray(weights)
    if mask is not None:
        idx = np.where(mask)[0]
        logits = logits[idx]
        targets = targets[idx]
        if weights is not None:
            weights = weights[idx]
    z = logits.data
    stable = np.maximum(z, 0) - z * targets + np.log1p(np.exp(-np.abs(z)))
    probs = 1.0 / (1.0 + np.exp(-np.clip(z, -60, 60)))
    count = z.size

    source = logits

    def backward(grad):
        if source.requires_grad:
            source._accumulate(grad * (probs - targets))

    per_element = Tensor._make(stable, (source,), backward)
    if weights is not None:
        # Shape the per-row weights to broadcast elementwise against the
        # per-element losses: a column for (n, C) logits, flat for (n,).
        if z.ndim == 2:
            return (per_element * weights.reshape(-1, 1)).sum() * (
                1.0 / z.shape[1]
            )
        return (per_element * weights).sum()
    return per_element.sum() * (1.0 / count)
