"""MaxK-GNN reproduction (ASPLOS 2024).

A from-scratch Python implementation of the MaxK-GNN training system:

* :mod:`repro.core` — the MaxK nonlinearity, CBSR format, Amdahl utilities;
* :mod:`repro.sparse` — CSR storage and Edge-Group warp partitioning;
* :mod:`repro.graphs` — graph containers, generators, dataset registry;
* :mod:`repro.tensor` — a numpy autograd engine replacing PyTorch;
* :mod:`repro.models` — GraphSAGE / GCN / GIN with ReLU or MaxK;
* :mod:`repro.training` — the execution engine, its data flows and
  checkpoints;
* :mod:`repro.serving` — the online inference service.

Importing :mod:`repro` loads the executed program only. The paper's A100
cost model and its artifacts are imported by name where they are used:

* :mod:`repro.gpusim` — the GPU device/cache/traffic simulator and the
  SpMM / SpGEMM / SSpMM / MaxK kernel dataflows + cost models;
* :mod:`repro.experiments` — one module per paper table/figure, and the
  epoch timing model that prices them.

``gpusim`` may import the program; the program never imports ``gpusim``
or ``experiments``.
"""

from . import core, graphs, models, sparse, tensor, training

__version__ = "1.0.0"

__all__ = [
    "core",
    "sparse",
    "graphs",
    "tensor",
    "models",
    "training",
    "__version__",
]
