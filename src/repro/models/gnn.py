"""Full GNN models: stacks of convolution layers plus a classifier head.

``MaxKGNN`` is the trainable model of the system evaluation (§5.3): a
GraphSAGE / GCN / GIN stack whose nonlinearity is either ReLU (baseline) or
MaxK with a chosen ``k``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..graphs import Graph
from ..tensor import Tensor, Workspace, dropout, linear_act, release
from .layers import Block, make_conv
from .modules import Linear, Module

__all__ = ["GNNConfig", "MaxKGNN"]

#: Marks a field that selects how the model executes, never a value it
#: computes: ``config_fingerprint`` hashes it at its default, so a
#: checkpoint written on one route loads on the other.
_ROUTE = {"execution_route": True}


@dataclass(frozen=True)
class GNNConfig:
    """Architecture hyperparameters for a MaxKGNN."""

    model_type: str  # "sage" | "gcn" | "gin"
    in_features: int
    hidden: int
    out_features: int
    n_layers: int
    nonlinearity: str = "relu"  # "relu" | "maxk"
    k: Optional[int] = None
    dropout: float = 0.0
    #: Execute the literal CBSR SpGEMM/SSpMM dataflow in MaxK layers.
    use_cbsr_kernels: bool = field(default=False, metadata=_ROUTE)
    #: Serve the training step's large arrays from a reusable buffer
    #: workspace instead of fresh allocations. Selects buffers only — the
    #: ops executed, and every value, are the same either way.
    use_workspace: bool = field(default=True, metadata=_ROUTE)

    def __post_init__(self):
        if self.n_layers < 1:
            raise ValueError("need at least one layer")
        if self.nonlinearity == "maxk" and self.k is None:
            raise ValueError("MaxK models need k")


class MaxKGNN(Module):
    """A full-batch GNN with swappable nonlinearity.

    Structure: ``n_layers`` graph convolutions (dims: in → hidden → … →
    hidden) followed by a dense classifier ``hidden → out_features``.
    Dropout is applied on every convolution input while training.
    """

    def __init__(self, graph: Graph, config: GNNConfig, seed: int = 0):
        super().__init__()
        self.config = config
        self.graph = graph
        rng = np.random.default_rng(seed)
        self._dropout_rng = np.random.default_rng(seed + 1)
        #: One arena serves the whole model; each layer names its own slots,
        #: and every training forward restarts the arena's tape (reset), so
        #: a steady-state step reuses one backing array.
        self.workspace = Workspace() if config.use_workspace else None

        self.convs: List[Module] = []
        for layer in range(config.n_layers):
            in_dim = config.in_features if layer == 0 else config.hidden
            conv = make_conv(
                config.model_type,
                graph,
                in_dim,
                config.hidden,
                rng,
                nonlinearity=config.nonlinearity,
                k=config.k,
                use_cbsr_kernels=config.use_cbsr_kernels,
            )
            conv.workspace = self.workspace
            conv.slot = f"conv{layer}"
            self.convs.append(conv)
            setattr(self, f"conv{layer}", conv)
        self.classifier = Linear(config.hidden, config.out_features, rng)

    def bind_graph(self, graph: Graph) -> None:
        """Rebind every convolution to ``graph`` (features/splits included).

        Supports subgraph mini-batching: the engine trains one parameter
        set across many sampled graphs by swapping the adjacency each
        convolution aggregates over. Parameters and optimizer state are
        untouched.
        """
        self.graph = graph
        for conv in self.convs:
            conv.bind_graph(graph)

    def forward(self, x) -> Tensor:
        return self.classify(self.embed(x))

    def embed(self, x, blocks: Optional[Sequence[Block]] = None) -> Tensor:
        """The convolution stack: every node's hidden row, or with one
        :class:`~repro.models.layers.Block` per conv the last one's rows."""
        if not isinstance(x, Tensor):
            x = Tensor(x)
        # Evaluation takes fresh arrays (see GraphConvLayer._buffers): the
        # arena never shrinks, so full-graph eval must not size its slots.
        ws = self.workspace if self.training else None
        if ws is not None:
            ws.reset()
        for index, conv in enumerate(self.convs):
            dropped = dropout(
                x, self.config.dropout, self.training, self._dropout_rng,
                workspace=ws, slot=f"drop{index}",
            )
            if dropped is not x:
                release(x.data)  # the dropout's backward reads its keep mask
            x = conv(dropped, None if blocks is None else blocks[index])
        return x

    def classify(self, hidden: Tensor) -> Tensor:
        """The dense head over hidden rows (row-wise: serving hands it
        only the rows that were asked for)."""
        return linear_act(
            hidden, self.classifier.weight, self.classifier.bias,
            activation="none", slot="classifier",
            workspace=self.workspace if self.training else None,
        )
