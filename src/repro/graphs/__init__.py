"""Graph substrate: containers, generators, and the Table-1 dataset registry."""

from .datasets import (
    TABLE1_GRAPHS,
    TRAINING_CONFIGS,
    TRAINING_DATASETS,
    GraphSpec,
    TrainingConfig,
    kernel_benchmark_names,
    load_kernel_graph,
    load_training_dataset,
)
from .features import (
    attach_classification_task,
    attach_multilabel_task,
    random_splits,
)
from .generators import chain_of_cliques, erdos_renyi_graph, rmat_graph, sbm_graph
from .graph import Graph, normalized_adjacency
from .mutation import GraphDelta, apply_delta, merge_csr_delta
from .partition import (
    Partition,
    bfs_partition,
    bns_sample,
    boundary_nodes,
    induced_subgraph,
)
from .reorder import apply_permutation, bfs_reorder
from .shm import (
    SharedGraphHandle,
    SharedGraphStore,
    StaleHandleError,
    owned_segment_count,
    shared_memory_available,
    sweep_leaked_segments,
)
from .sampling import (
    as_generator,
    edge_sampler,
    khop_neighborhood,
    node_sampler,
    random_walk_sampler,
)

__all__ = [
    "Graph",
    "normalized_adjacency",
    "GraphDelta",
    "apply_delta",
    "merge_csr_delta",
    "rmat_graph",
    "sbm_graph",
    "chain_of_cliques",
    "erdos_renyi_graph",
    "attach_classification_task",
    "attach_multilabel_task",
    "random_splits",
    "GraphSpec",
    "TrainingConfig",
    "TABLE1_GRAPHS",
    "TRAINING_DATASETS",
    "TRAINING_CONFIGS",
    "kernel_benchmark_names",
    "load_kernel_graph",
    "load_training_dataset",
    "Partition",
    "bfs_partition",
    "boundary_nodes",
    "induced_subgraph",
    "bns_sample",
    "apply_permutation",
    "bfs_reorder",
    "SharedGraphHandle",
    "SharedGraphStore",
    "StaleHandleError",
    "owned_segment_count",
    "shared_memory_available",
    "sweep_leaked_segments",
    "as_generator",
    "node_sampler",
    "edge_sampler",
    "random_walk_sampler",
    "khop_neighborhood",
]
