"""Registry of the paper's benchmark graphs, scaled to laptop size.

Table 1 of the paper lists 24 kernel-benchmark graphs; §5.1 trains on five of
them (Flickr, Yelp, Reddit, ogbn-products, ogbn-proteins). We register every
graph with its real node/edge counts and synthesise a scaled stand-in that
preserves the two structural quantities that drive the kernel results:

* **average degree** (the paper's speedup discriminator — graphs with
  ``avg_deg > 50`` enjoy the largest SpGEMM/SSpMM speedups), and
* **degree skew** (power-law graphs produce the "evil rows" that motivate
  Edge-Group partitioning).

Scaling factors reduce node counts to at most :data:`MAX_SCALED_NODES`;
average degree is capped at :data:`MAX_SCALED_DEGREE` to bound nnz, with the
original value retained on the spec for the analytic cost models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .features import attach_classification_task, attach_multilabel_task
from .generators import rmat_graph, sbm_graph
from .graph import Graph

__all__ = [
    "GraphSpec",
    "TABLE1_GRAPHS",
    "TRAINING_DATASETS",
    "kernel_benchmark_names",
    "load_kernel_graph",
    "load_training_dataset",
    "TrainingConfig",
    "TRAINING_CONFIGS",
]

MAX_SCALED_NODES = 2048
MAX_SCALED_DEGREE = 96.0


@dataclass(frozen=True)
class GraphSpec:
    """Real-world statistics of one Table-1 graph."""

    name: str
    n_nodes: int
    n_edges: int
    #: Power-law-ness for the RMAT generator; social graphs are skewed.
    skewed: bool = True

    @property
    def avg_degree(self) -> float:
        return self.n_edges / self.n_nodes

    def scaled_sizes(self) -> tuple:
        """(n_nodes, n_edges) of the laptop-scale stand-in."""
        n_nodes = min(self.n_nodes, MAX_SCALED_NODES)
        degree = min(self.avg_degree, MAX_SCALED_DEGREE)
        n_edges = max(int(n_nodes * degree), n_nodes // 4 + 1)
        return n_nodes, n_edges


#: All 24 graphs of Table 1 with their published sizes.
TABLE1_GRAPHS: Dict[str, GraphSpec] = {
    spec.name: spec
    for spec in [
        GraphSpec("am", 881_680, 5_668_682),
        GraphSpec("amazon0505", 410_236, 4_878_874),
        GraphSpec("amazon0601", 403_394, 5_478_357),
        GraphSpec("artist", 50_515, 1_638_396),
        GraphSpec("citation", 2_927_963, 30_387_995),
        GraphSpec("collab", 235_868, 2_358_104),
        GraphSpec("com-amazon", 334_863, 1_851_744),
        GraphSpec("DD", 334_925, 1_686_092, skewed=False),
        GraphSpec("ddi", 4_267, 2_135_822),
        GraphSpec("Flickr", 89_250, 989_006),
        GraphSpec("ogbn-arxiv", 169_343, 1_166_243),
        GraphSpec("ogbn-products", 2_449_029, 123_718_280),
        GraphSpec("ogbn-proteins", 132_534, 79_122_504),
        GraphSpec("OVCAR-8H", 1_889_542, 3_946_402, skewed=False),
        GraphSpec("ppa", 576_289, 42_463_862),
        GraphSpec("PROTEINS_full", 43_466, 162_088, skewed=False),
        GraphSpec("pubmed", 19_717, 99_203),
        GraphSpec("ppi", 56_944, 818_716),
        GraphSpec("Reddit", 232_965, 114_615_891),
        GraphSpec("SW-620H", 1_888_584, 3_944_206, skewed=False),
        GraphSpec("TWITTER-Partial", 580_768, 1_435_116),
        GraphSpec("Yeast", 1_710_902, 3_636_546, skewed=False),
        GraphSpec("Yelp", 716_847, 13_954_819),
        GraphSpec("youtube", 1_138_499, 5_980_886),
    ]
}

#: The five system-evaluation datasets of §5.1.
TRAINING_DATASETS = ["Flickr", "Yelp", "Reddit", "ogbn-products", "ogbn-proteins"]


def kernel_benchmark_names() -> List[str]:
    """Names of all Table-1 graphs in registry order."""
    return list(TABLE1_GRAPHS)


def load_kernel_graph(name: str, seed: int = 0) -> Graph:
    """Generate the scaled stand-in for one Table-1 graph.

    Skewed graphs use the R-MAT generator; molecular/bio graph collections
    (DD, OVCAR-8H, ...) are near-regular and use a low-skew R-MAT setting.
    """
    if name not in TABLE1_GRAPHS:
        raise KeyError(f"unknown graph {name!r}; see kernel_benchmark_names()")
    spec = TABLE1_GRAPHS[name]
    n_nodes, n_edges = spec.scaled_sizes()
    if spec.skewed:
        graph = rmat_graph(n_nodes, n_edges, seed=seed, name=name)
    else:
        graph = rmat_graph(
            n_nodes, n_edges, seed=seed, a=0.30, b=0.25, c=0.25, name=name
        )
    return graph


@dataclass(frozen=True)
class TrainingConfig:
    """Scaled-down analogue of the paper's Table-3 per-dataset setup.

    ``paper_hidden`` / ``paper_layers`` record the original configuration;
    the ``hidden`` / ``epochs`` fields are the laptop-scale values actually
    trained. ``k_values`` are expressed as fractions of the hidden dimension
    so paper k-values map onto the scaled width.
    """

    name: str
    n_nodes: int
    avg_degree: float
    n_communities: int
    n_features: int
    layers: int
    hidden: int
    epochs: int
    lr: float
    dropout: float
    multilabel: bool
    signal: float
    #: SBM homophily: fraction of edges that stay inside a community.
    intra_fraction: float
    paper_hidden: int
    paper_layers: int
    #: Raw input feature dimension of the real dataset.
    paper_in_features: int = 256
    #: Number of target classes/labels in the real dataset.
    paper_out_features: int = 41


TRAINING_CONFIGS: Dict[str, TrainingConfig] = {
    cfg.name: cfg
    for cfg in [
        TrainingConfig(
            name="Flickr", n_nodes=600, avg_degree=8.0, n_communities=7,
            n_features=32, layers=3, hidden=64, epochs=80, lr=0.01,
            dropout=0.2, multilabel=False, signal=0.10, intra_fraction=0.50,
            paper_hidden=256, paper_layers=3, paper_in_features=500, paper_out_features=7,
        ),
        TrainingConfig(
            name="Yelp", n_nodes=600, avg_degree=12.0, n_communities=8,
            n_features=32, layers=4, hidden=96, epochs=80, lr=0.01,
            dropout=0.1, multilabel=True, signal=0.60, intra_fraction=0.55,
            paper_hidden=384, paper_layers=4, paper_in_features=300, paper_out_features=100,
        ),
        TrainingConfig(
            name="Reddit", n_nodes=800, avg_degree=24.0, n_communities=10,
            n_features=32, layers=4, hidden=64, epochs=80, lr=0.01,
            dropout=0.5, multilabel=False, signal=0.08, intra_fraction=0.45,
            paper_hidden=256, paper_layers=4, paper_in_features=602, paper_out_features=41,
        ),
        TrainingConfig(
            name="ogbn-products", n_nodes=800, avg_degree=16.0, n_communities=8,
            n_features=32, layers=3, hidden=64, epochs=80, lr=0.003,
            dropout=0.5, multilabel=False, signal=0.14, intra_fraction=0.55,
            paper_hidden=256, paper_layers=3, paper_in_features=100, paper_out_features=47,
        ),
        TrainingConfig(
            name="ogbn-proteins", n_nodes=700, avg_degree=24.0, n_communities=8,
            n_features=32, layers=3, hidden=64, epochs=80, lr=0.01,
            dropout=0.5, multilabel=True, signal=0.50, intra_fraction=0.50,
            paper_hidden=256, paper_layers=3, paper_in_features=8, paper_out_features=112,
        ),
    ]
}


def load_training_dataset(name: str, seed: int = 0) -> Graph:
    """Build the scaled training dataset (graph + features + labels + splits)."""
    if name not in TRAINING_CONFIGS:
        raise KeyError(
            f"unknown training dataset {name!r}; options: {list(TRAINING_CONFIGS)}"
        )
    cfg = TRAINING_CONFIGS[name]
    graph = sbm_graph(
        n_nodes=cfg.n_nodes,
        n_communities=cfg.n_communities,
        avg_degree=cfg.avg_degree,
        intra_fraction=cfg.intra_fraction,
        seed=seed,
        name=name,
    ).to_undirected()
    # to_undirected drops the communities reference copy; re-attach.
    if graph.communities is None:
        raise AssertionError("SBM graph lost community annotation")
    if cfg.multilabel:
        attach_multilabel_task(
            graph, cfg.n_features, n_labels=cfg.n_communities,
            signal=cfg.signal, seed=seed,
        )
    else:
        attach_classification_task(
            graph, cfg.n_features, signal=cfg.signal, seed=seed
        )
    return graph
