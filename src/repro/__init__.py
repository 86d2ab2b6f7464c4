"""MaxK-GNN reproduction (ASPLOS 2024).

A from-scratch Python implementation of the MaxK-GNN training system:

* :mod:`repro.core` — the MaxK nonlinearity, CBSR format, Amdahl utilities;
* :mod:`repro.sparse` — CSR storage and Edge-Group warp partitioning;
* :mod:`repro.graphs` — graph containers, generators, dataset registry;
* :mod:`repro.tensor` — a numpy autograd engine replacing PyTorch;
* :mod:`repro.gpusim` — the GPU device/cache/traffic simulator and the
  SpMM / SpGEMM / SSpMM / MaxK kernel dataflows + cost models;
* :mod:`repro.models` — GraphSAGE / GCN / GIN with ReLU or MaxK;
* :mod:`repro.training` — the full-batch trainer and epoch timing model;
* :mod:`repro.experiments` — one module per paper table/figure.
"""

from . import core, experiments, gpusim, graphs, models, sparse, tensor, training

__version__ = "1.0.0"

__all__ = [
    "core",
    "sparse",
    "graphs",
    "tensor",
    "gpusim",
    "models",
    "training",
    "experiments",
    "__version__",
]
