"""GNN convolution layers with swappable ReLU / MaxK nonlinearity.

Following the MaxK-GNN dataflow (Fig. 2b / Fig. 5), the nonlinearity sits
*before* the aggregation SpMM in every layer: ``X → Linear → f → A·f(XW)``.
With ``f = MaxK`` the aggregation input is k-per-row sparse, which is what
the SpGEMM/SSpMM kernels exploit; with ``f = ReLU`` the identical topology
reproduces the baseline. Keeping the same placement for both keeps the
parameter count and the compared computation aligned.

Aggregator normalisations match Fig. 5's annotations: SAGE ``1/d``,
GCN ``1/sqrt(d_i d_j)``, GIN unit weights with a learnable-epsilon self loop.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from ..graphs import Graph
from ..sparse import CSRMatrix
from ..tensor import Tensor, add_into, linear_act, maxk, relu, release, spmm_agg
from ..tensor.functional import maxk_with_mask, spgemm_agg
from .modules import Linear, Module

__all__ = ["Block", "GraphConvLayer", "SAGEConv", "GCNConv", "GINConv", "make_conv"]


class Block(NamedTuple):
    """A layer's share of a pass that reads only some rows (DGL's block):
    ``adj``'s rows are the destination rows, its columns the layer's input
    rows; ``dst`` places the destinations among the inputs (``None``: all
    inputs are destinations and ``adj`` is the graph's own)."""

    adj: CSRMatrix
    dst: Optional[np.ndarray]


class GraphConvLayer(Module):
    """Shared machinery: linear transform, nonlinearity, aggregation."""

    #: Which adjacency normalisation this layer family uses.
    norm = "none"

    def __init__(
        self,
        graph: Graph,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        nonlinearity: str = "relu",
        k: int = None,
        use_cbsr_kernels: bool = False,
    ):
        super().__init__()
        if nonlinearity not in ("relu", "maxk", "none"):
            raise ValueError("nonlinearity must be 'relu', 'maxk' or 'none'")
        if nonlinearity == "maxk":
            if k is None:
                raise ValueError("MaxK layers need an explicit k")
            if not 1 <= k <= out_features:
                raise ValueError(f"k must be in [1, {out_features}]")
        if use_cbsr_kernels and nonlinearity != "maxk":
            raise ValueError("the CBSR kernel path requires the MaxK nonlinearity")
        self.nonlinearity = nonlinearity
        self.k = k
        self.use_cbsr_kernels = use_cbsr_kernels
        #: Workspace for the fused zero-allocation hot path; attached by the
        #: owning model (``MaxKGNN``) together with a stable slot name.
        self.workspace = None
        self.slot = f"conv@{id(self)}"
        self.bind_graph(graph)
        self.linear = Linear(in_features, out_features, rng)

    def bind_graph(self, graph: Graph) -> None:
        """Point this layer's aggregation at ``graph``'s adjacency.

        Parameters are untouched, so the training engine can move one model
        (and its optimizer state) across subgraph batches by rebinding.
        ``A`` is built here; a pass reads it, and ``A^T`` (an SpMM route's
        training backward only, built on first read), from the graph's
        caches, so eval and the CBSR route never build ``A^T`` and a delta
        applied to the graph strands no matrix here.
        """
        self.graph = graph
        graph.adjacency(self.norm)

    @property
    def adj(self) -> CSRMatrix:
        return self.graph.adjacency(self.norm)

    @property
    def adj_t(self) -> CSRMatrix:
        return self.graph.adjacency_transpose(self.norm)

    def _aggregation(self, block: Optional[Block]):
        """``(A, A^T for an SpMM training backward or None)`` of this pass
        (the CBSR route's backward SSpMM reads ``A`` itself)."""
        if block is not None:
            return block.adj, None
        spmm_backward = self.training and not self.use_cbsr_kernels
        return self.adj, self.adj_t if spmm_backward else None

    @staticmethod
    def _at_destinations(x: Tensor, block: Optional[Block]) -> Tensor:
        return x if block is None or block.dst is None else x[block.dst]

    @property
    def _buffers(self):
        """Where this pass's large arrays come from: the arena while
        training, ``None`` (fresh arrays) otherwise — evaluation passes run
        rarely and on the full graph, and the arena's capacity never
        shrinks, so sizing its slots there would pin full-graph-sized
        buffers for the rest of the process."""
        return self.workspace if self.training else None

    def _activate(self, y: Tensor, workspace=None, slot_suffix: str = "") -> Tensor:
        """The layer nonlinearity as its own autograd node (GIN hangs two
        off one pre-activation; SAGE / GCN fold it into ``linear_act``)."""
        slot = self.slot + slot_suffix
        if self.nonlinearity == "relu":
            return relu(y, workspace=workspace, slot=slot)
        if self.nonlinearity == "maxk":
            return maxk(y, self.k, workspace=workspace, slot=slot)
        return y

    def forward(self, x: Tensor, block: Optional[Block] = None) -> Tensor:
        """``A · f(X W + b)``: linear + nonlinearity + aggregation.

        With ``use_cbsr_kernels`` the MaxK sparsification, CBSR compression,
        forward SpGEMM and backward SSpMM of Fig. 5 execute literally on the
        pre-activation; otherwise the nonlinearity is folded into the linear
        pass and aggregated by the dense-operand SpMM — identical values.
        With a ``block`` the layer writes only its destination rows; each
        sums the same edges in the same order as in the full pass.
        """
        ws = self._buffers
        cbsr = self.use_cbsr_kernels
        adj, adj_t = self._aggregation(block)
        h = linear_act(
            x, self.linear.weight, self.linear.bias,
            activation="none" if cbsr else self.nonlinearity, k=self.k,
            workspace=ws, slot=self.slot + ".lin",
        )
        if cbsr:
            out = spgemm_agg(adj, h, self.k, workspace=ws, slot=self.slot + ".cbsr")
        else:
            out = spmm_agg(adj, h, adj_t, workspace=ws, slot=self.slot + ".agg")
        release(h.data)  # neither aggregation's backward reads its input
        return out


class SAGEConv(GraphConvLayer):
    """GraphSAGE with mean aggregator plus a root/self path.

    ``out = A_mean · f(X W_neigh) + X W_self`` (paper Fig. 2: Linear1 feeds
    the aggregation, Linear2 is the residual self connection, then Add).
    """

    norm = "sage"

    def __init__(self, graph, in_features, out_features, rng,
                 nonlinearity="relu", k=None, use_cbsr_kernels=False):
        super().__init__(graph, in_features, out_features, rng, nonlinearity,
                         k, use_cbsr_kernels)
        self.linear_self = Linear(in_features, out_features, rng)

    def forward(self, x: Tensor, block: Optional[Block] = None) -> Tensor:
        ws = self._buffers
        aggregated = super().forward(x, block)
        root = linear_act(
            self._at_destinations(x, block), self.linear_self.weight,
            self.linear_self.bias, activation="none", workspace=ws,
            slot=self.slot + ".self",
        )
        out = add_into(aggregated, root, workspace=ws, slot=self.slot + ".sum")
        release(aggregated.data, root.data)  # add_into's backward reads neither
        return out


class GCNConv(GraphConvLayer):
    """GCN with symmetric normalisation: ``out = Â · f(X W)``."""

    norm = "gcn"


class GINConv(GraphConvLayer):
    """GIN-style sum aggregator with learnable epsilon self-weighting.

    ``out = A_sum · f(X W) + (1 + eps) · f(X W)``.
    """

    norm = "none"

    def __init__(self, graph, in_features, out_features, rng,
                 nonlinearity="relu", k=None, use_cbsr_kernels=False):
        super().__init__(graph, in_features, out_features, rng, nonlinearity,
                         k, use_cbsr_kernels)
        self.eps = Tensor(np.zeros(1), requires_grad=True)

    def forward(self, x: Tensor, block: Optional[Block] = None) -> Tensor:
        # GIN's pre-activation feeds two consumers (aggregation + the
        # epsilon self-term), so the single-output linear_act fusion does
        # not apply: two activation nodes hang off one pre-activation, and
        # add_into's parent order fixes the order their gradients
        # accumulate into y — and with it every seeded trajectory.
        ws = self._buffers
        adj, adj_t = self._aggregation(block)
        y = linear_act(
            x, self.linear.weight, self.linear.bias, activation="none",
            workspace=ws, slot=self.slot + ".lin",
        )
        if self.use_cbsr_kernels:
            # One selection feeds both consumers of the pre-activation.
            h, mask = maxk_with_mask(y, self.k, ws, self.slot + ".act")
            aggregated = spgemm_agg(adj, y, self.k, mask=mask, workspace=ws,
                                    slot=self.slot + ".cbsr")
        else:
            h = self._activate(y, ws, ".act")
            h2 = self._activate(y, ws, ".act2")
            aggregated = spmm_agg(adj, h2, adj_t, workspace=ws,
                                  slot=self.slot + ".agg")
            if h2 is not y:
                release(h2.data)
        # No backward reads the pre-activation (the activations keep their
        # masks) or the aggregation (add_into reads neither input); ``h``
        # stays, the epsilon product's backward reads it.
        if h is not y:
            release(y.data)
        self_term = self._at_destinations(h, block) * (self.eps + 1.0)
        out = add_into(aggregated, self_term, workspace=ws, slot=self.slot + ".sum")
        release(aggregated.data)
        return out


_CONV_TYPES = {"sage": SAGEConv, "gcn": GCNConv, "gin": GINConv}


def make_conv(model_type: str, *args, **kwargs) -> GraphConvLayer:
    """Factory for ``sage`` / ``gcn`` / ``gin`` convolution layers."""
    try:
        cls = _CONV_TYPES[model_type]
    except KeyError:
        raise ValueError(
            f"unknown model type {model_type!r}; options: {sorted(_CONV_TYPES)}"
        ) from None
    return cls(*args, **kwargs)
