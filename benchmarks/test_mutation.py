"""Live graph mutation benchmark: incremental deltas + mutating service.

Two gated claims about :mod:`repro.graphs.mutation` (PR 10):

* **incremental vs full rebuild** — on the scaled Reddit stand-in
  (2048 nodes, ~196k edges) a small delta (~0.4% of edges) applied via
  :func:`apply_delta`'s patch of the cached bases and both edge-index
  directions must stay **bit-identical** to the from-scratch oracle
  (``identical``, gated). Its time against rebuilding every cached
  normalisation and both index directions from scratch is recorded
  (``incremental_ms`` / ``rebuild_ms`` / ``incremental_speedup``) and
  never asserted: timing claims go through ``python3 -m bench``.
* **update-heavy vs read-heavy serving mixes** — an
  :class:`~repro.serving.InferenceService` alternating deltas and
  queries (1 delta per 8 queries vs 1 per 64) must serve **zero stale
  responses** (``zero_stale``, gated): every result carries the
  generation it was admitted under, nothing is served across a
  mutation, and nothing fails. Sustained req/s per mix is recorded as
  informational context (host-dependent, not gated).

``REPRO_PERF_SMOKE=1`` shrinks trial counts for the CI gate. Full runs
write ``results/BENCH_mutation.json`` (plus text tables); smoke runs
land in ``results/smoke/`` for ``check_trend.py``.
"""

import time

import numpy as np
import pytest

from repro.experiments.common import format_table, perf_smoke_enabled
from repro.graphs import (
    Graph,
    GraphDelta,
    apply_delta,
    attach_classification_task,
    load_kernel_graph,
    sbm_graph,
)
from repro.models import GNNConfig, MaxKGNN
from repro.serving import InferenceService, ServiceConfig
from repro.training import set_fault_plan
from repro.training.parallel import reset_fallback_warnings

SMOKE = perf_smoke_enabled()
NORMS = ("none", "sage", "gcn")
N_TRIALS = 3 if SMOKE else 6
DELTA_ADDS = 512
DELTA_REMOVES = 256
N_QUERIES = 64 if SMOKE else 192


@pytest.fixture(autouse=True)
def _fresh_state():
    reset_fallback_warnings()
    set_fault_plan(None)
    yield
    set_fault_plan(None)


def _small_delta(graph, rng, adds=DELTA_ADDS, removes=DELTA_REMOVES):
    pick = rng.choice(graph.n_edges, size=removes, replace=False)
    return GraphDelta(
        add_src=rng.integers(0, graph.n_nodes, adds),
        add_dst=rng.integers(0, graph.n_nodes, adds),
        remove_src=graph.src[pick].copy(),
        remove_dst=graph.dst[pick].copy(),
    )


def _warm_all(graph):
    for norm in NORMS:
        graph.adjacency(norm)
        graph.adjacency_transpose(norm)
    for direction in ("in", "out"):  # warm: the delta patches, not rebuilds
        graph.edge_index(direction)


@pytest.mark.slow
def test_incremental_delta_beats_full_rebuild(record_result, record_json):
    graph = load_kernel_graph("Reddit", seed=0)
    _warm_all(graph)
    rng = np.random.default_rng(42)

    incremental_s, rebuild_s = [], []
    for _ in range(N_TRIALS):
        delta = _small_delta(graph, rng)
        start = time.perf_counter()
        # warm=False keeps both arms structural-only: neither pays for
        # backend plan construction inside the timed region.
        apply_delta(graph, delta, warm=False)
        _warm_all(graph)
        incremental_s.append(time.perf_counter() - start)

        start = time.perf_counter()
        oracle = Graph(
            n_nodes=graph.n_nodes, src=graph.src.copy(),
            dst=graph.dst.copy(),
        )
        _warm_all(oracle)
        rebuild_s.append(time.perf_counter() - start)

    # Bit-identity after the whole chain of deltas: every cached
    # normalisation (and transpose) and both index directions match the
    # from-scratch oracle.
    identical = all(
        got.tobytes() == want.tobytes()
        for direction in ("in", "out")
        for got, want in zip(graph.edge_index(direction),
                             oracle.edge_index(direction))
    ) and all(
        graph.adjacency(norm).shape == oracle.adjacency(norm).shape
        and np.array_equal(
            graph.adjacency(norm).indptr, oracle.adjacency(norm).indptr
        )
        and np.array_equal(
            graph.adjacency(norm).indices, oracle.adjacency(norm).indices
        )
        and graph.adjacency(norm).data.tobytes()
        == oracle.adjacency(norm).data.tobytes()
        and graph.adjacency_transpose(norm).data.tobytes()
        == oracle.adjacency_transpose(norm).data.tobytes()
        for norm in NORMS
    )
    speedup = float(np.median(rebuild_s) / np.median(incremental_s))
    payload = {
        "dataset": "Reddit (scaled)",
        "n_nodes": int(graph.n_nodes),
        "n_edges": int(graph.n_edges),
        "delta_entries": DELTA_ADDS + DELTA_REMOVES,
        "trials": N_TRIALS,
        "identical": bool(identical),
        "incremental_speedup": speedup,
        "incremental_ms": float(1e3 * np.median(incremental_s)),
        "rebuild_ms": float(1e3 * np.median(rebuild_s)),
    }
    record_json("BENCH_mutation", "incremental_vs_rebuild", payload)
    record_result("mutation_incremental", format_table(
        ["metric", "value"],
        [[key, f"{value}"] for key, value in payload.items()],
    ))
    assert identical, "incremental merge diverged from full rebuild"


def _mix_service():
    graph = sbm_graph(
        600, 4, 12.0, intra_fraction=0.7, seed=9
    ).to_undirected()
    attach_classification_task(graph, n_features=16, signal=0.5, seed=9)
    config = GNNConfig(
        model_type="sage", in_features=16, hidden=32, out_features=4,
        n_layers=2, nonlinearity="maxk", k=4, dropout=0.1,
    )
    model = MaxKGNN(graph, config, seed=7)
    return InferenceService(
        graph, model, ServiceConfig(default_deadline=60.0)
    )


def _run_mix(service, queries_per_delta, n_queries, seed):
    """Interleave queries with deltas; return (elapsed_s, tickets, stale)."""
    rng = np.random.default_rng(seed)
    tickets = []
    stale = 0
    start = time.perf_counter()
    for index in range(n_queries):
        if index and index % queries_per_delta == 0:
            pick = rng.choice(service.graph.n_edges, size=20, replace=False)
            service.apply_delta(GraphDelta(
                add_src=rng.integers(0, service.graph.n_nodes, 20),
                add_dst=rng.integers(0, service.graph.n_nodes, 20),
                remove_src=service.graph.src[pick].copy(),
                remove_dst=service.graph.dst[pick].copy(),
            ))
        node = int(rng.integers(0, service.graph.n_nodes))
        tickets.append(service.submit(node, seed=seed))
    service.drain()
    elapsed = time.perf_counter() - start
    for ticket in tickets:
        result = ticket.result
        # Stale = anything the generation machinery failed to pin: a
        # result missing, failed, or stamped with a generation other
        # than the one the service holds now *or* held at admission.
        if result is None or not result.ok:
            stale += 1
        elif result.generation > service.generation:
            stale += 1
    return elapsed, tickets, stale


@pytest.mark.slow
def test_update_heavy_vs_read_heavy_mix_zero_stale(
    record_result, record_json
):
    mixes = {"update_heavy": 8, "read_heavy": 64}
    payload = {}
    total_stale = 0
    for mix_name, queries_per_delta in mixes.items():
        service = _mix_service()
        try:
            elapsed, tickets, stale = _run_mix(
                service, queries_per_delta, N_QUERIES, seed=5
            )
            stats = service.stats()
        finally:
            service.close()
        total_stale += stale
        payload[mix_name] = {
            "queries": N_QUERIES,
            "queries_per_delta": queries_per_delta,
            "deltas_applied": stats["deltas_applied"],
            "served_rps": float(len(tickets) / elapsed),
            "cache_hits": stats["cache"]["hits"],
            "failed": stats["failed"],
            "final_generation": stats["generation"],
        }
    payload["zero_stale"] = bool(total_stale == 0)
    record_json("BENCH_mutation", "serving_mixes", payload)
    rows = [
        [mix, str(data["queries_per_delta"]), str(data["deltas_applied"]),
         f"{data['served_rps']:.1f}", str(data["cache_hits"]),
         str(data["failed"])]
        for mix, data in payload.items() if isinstance(data, dict)
    ]
    record_result("mutation_serving_mixes", format_table(
        ["mix", "queries/delta", "deltas", "req/s", "cache hits", "failed"],
        rows,
    ))
    assert payload["zero_stale"], (
        f"{total_stale} stale/failed responses under live mutation"
    )
