"""Table 1 — the 24 benchmark graphs with node/edge counts.

Descriptive table: regenerates the dataset inventory with the published
sizes, the derived average degree, and the laptop-scale stand-in sizes this
reproduction actually materialises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..graphs import TABLE1_GRAPHS
from .common import format_table

__all__ = ["Table1Row", "run", "report"]


@dataclass(frozen=True)
class Table1Row:
    name: str
    n_nodes: int
    n_edges: int
    avg_degree: float
    scaled_nodes: int
    scaled_edges: int


def run() -> List[Table1Row]:
    rows = []
    for spec in TABLE1_GRAPHS.values():
        scaled_nodes, scaled_edges = spec.scaled_sizes()
        rows.append(
            Table1Row(
                name=spec.name,
                n_nodes=spec.n_nodes,
                n_edges=spec.n_edges,
                avg_degree=spec.avg_degree,
                scaled_nodes=scaled_nodes,
                scaled_edges=scaled_edges,
            )
        )
    return rows


def report(rows: List[Table1Row] = None) -> str:
    if rows is None:
        rows = run()
    table = format_table(
        ["graph", "nodes", "edges", "avg_deg", "scaled_nodes", "scaled_edges"],
        [
            (r.name, r.n_nodes, r.n_edges, round(r.avg_degree, 2),
             r.scaled_nodes, r.scaled_edges)
            for r in rows
        ],
    )
    high_degree = [r.name for r in rows if r.avg_degree > 50]
    return (
        f"{table}\n"
        f"high-degree set (avg > 50, the paper's big-speedup group): "
        f"{', '.join(sorted(high_degree))}"
    )
