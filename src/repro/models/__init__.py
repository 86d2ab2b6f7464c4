"""GNN models and layers with ReLU / MaxK nonlinearities."""

from .deep_mlp import (
    MaxKMLPClassifier,
    mlp_feature_traffic_cut,
    train_mlp_classifier,
)
from .gnn import GNNConfig, MaxKGNN
from .layers import GCNConv, GINConv, GraphConvLayer, SAGEConv, make_conv
from .mlp import ApproximatorMLP, approximation_error, fit_function
from .modules import Linear, Module

__all__ = [
    "Module",
    "Linear",
    "GraphConvLayer",
    "SAGEConv",
    "GCNConv",
    "GINConv",
    "make_conv",
    "GNNConfig",
    "MaxKGNN",
    "ApproximatorMLP",
    "fit_function",
    "approximation_error",
    "MaxKMLPClassifier",
    "train_mlp_classifier",
    "mlp_feature_traffic_cut",
]
