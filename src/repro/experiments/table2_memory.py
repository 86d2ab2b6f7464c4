"""Table 2 — memory-system profiling of SpMM vs SpGEMM vs SSpMM on Reddit.

The paper's Nsight measurements (dim_origin 256, k 32):

=====================  ======  =======  ======
metric                 SpMM    SpGEMM   SSpMM
=====================  ======  =======  ======
total traffic (GB)     138.05  13.13    14.02
L1 hit rate (%)        1.53    22.16    28.27
L2 hit rate (%)        51.75   75.44    89.43
bandwidth util (%)     60.90   33.60    48.08
=====================  ======  =======  ======

We replay the three kernels' line-granular address streams on a scaled
Reddit stand-in through the two-level cache simulator (capacities scaled by
the same factor as the graph) and report the same four rows.
"""

from __future__ import annotations

from typing import Dict

from ..gpusim import A100, DeviceModel, MemorySystemStudy, profile_memory_system
from ..graphs import TABLE1_GRAPHS, load_kernel_graph, normalized_adjacency
from .common import format_table

__all__ = ["run", "report", "PAPER_TABLE2"]

PAPER_TABLE2: Dict[str, Dict[str, float]] = {
    "spmm": {"traffic_gb": 138.05, "l1": 0.0153, "l2": 0.5175, "bw": 0.609},
    "spgemm": {"traffic_gb": 13.13, "l1": 0.2216, "l2": 0.7544, "bw": 0.336},
    "sspmm": {"traffic_gb": 14.02, "l1": 0.2827, "l2": 0.8943, "bw": 0.4808},
}


def run(
    dataset: str = "Reddit",
    dim_origin: int = 256,
    dim_k: int = 32,
    device: DeviceModel = A100,
    seed: int = 0,
) -> MemorySystemStudy:
    """Profile the three kernels' memory behaviour on the scaled graph."""
    graph = load_kernel_graph(dataset, seed=seed)
    adjacency = normalized_adjacency(graph, "none")
    spec = TABLE1_GRAPHS[dataset]
    return profile_memory_system(
        adjacency,
        dim_origin,
        dim_k,
        device,
        real_nnz=spec.n_edges,
        real_n_rows=spec.n_nodes,
    )


def report(study: MemorySystemStudy = None) -> str:
    if study is None:
        study = run()
    rows = []
    for kernel in ("spmm", "spgemm", "sspmm"):
        profile = study[kernel]
        paper = PAPER_TABLE2[kernel]
        rows.append(
            (
                kernel,
                profile.total_traffic_bytes / 1e9,
                paper["traffic_gb"],
                profile.l1_hit_rate,
                paper["l1"],
                profile.l2_hit_rate,
                paper["l2"],
                profile.bandwidth_utilization,
                paper["bw"],
            )
        )
    return format_table(
        [
            "kernel",
            "traffic_GB",
            "paper_GB",
            "L1_hit",
            "paper_L1",
            "L2_hit",
            "paper_L2",
            "bw_util",
            "paper_bw",
        ],
        rows,
    )
