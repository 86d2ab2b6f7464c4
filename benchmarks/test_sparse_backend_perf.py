"""Wall-clock comparison of the sparse-ops backends on the training hot path.

Times the SpMM aggregation (the operation the fig10 trainer spends ~90% of
its epoch in) on the scaled ogbn-products adjacency for the vectorized
backend's two routes — its compiled loops and its numpy SpMM
(``native.load`` patched to answer ``None``) — next to the seed
implementation's unordered ``np.add.at`` scatter, and records the table
to ``benchmarks/results/``. This is the repo's recorded perf baseline for
the backend architecture.
"""

import timeit

import numpy as np

from repro.experiments.common import format_table
from repro.graphs import load_training_dataset
from repro.sparse import ops
from tests.conftest import ARMS, without_compiled_loops

DIM = 64
REPEATS = 5


def _seed_add_at_spmm(adj, x):
    """The pre-backend implementation: gather + unordered np.add.at."""
    gathered = x[adj.indices] * adj.data[:, None]
    out = np.zeros((adj.n_rows,) + x.shape[1:], dtype=x.dtype)
    row_ids = np.repeat(np.arange(adj.n_rows), adj.row_degrees())
    np.add.at(out, row_ids, gathered)
    return out


def test_sparse_backend_spmm_speedup(record_result, monkeypatch):
    graph = load_training_dataset("ogbn-products", seed=0)
    adj = graph.adjacency("sage")
    x = np.random.default_rng(0).normal(size=(graph.n_nodes, DIM)).astype(
        ops.FLOAT_DTYPE
    )

    baseline = min(
        timeit.repeat(lambda: _seed_add_at_spmm(adj, x), number=1, repeat=REPEATS)
    )
    expected = _seed_add_at_spmm(adj, x)

    rows = [("np.add.at (seed)", baseline * 1e3, 1.0)]
    timings = {}
    for name in ARMS:
        with monkeypatch.context() as patch, ops.use_backend("vectorized"):
            if name == "numpy_fallback":
                without_compiled_loops(patch)
            # Same adds in the same (stored-edge) order: equal to the bit.
            np.testing.assert_array_equal(adj.matmul_dense(x), expected)
            timings[name] = min(
                timeit.repeat(
                    lambda: adj.matmul_dense(x), number=1, repeat=REPEATS
                )
            )
        rows.append((name, timings[name] * 1e3, baseline / timings[name]))

    table = format_table(["implementation", "ms", "speedup"], rows, precision=3)
    record_result("sparse_backend_spmm", table)

    # Either route must beat the seed's unordered scatter.
    for name, seconds in timings.items():
        assert seconds < baseline, (name, seconds, baseline)
