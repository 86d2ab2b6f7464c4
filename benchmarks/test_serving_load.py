"""Online serving benchmark: load generation, overload shedding, fault
recovery (PR 9).

Three gated claims about :class:`~repro.serving.InferenceService` on the
scaled Flickr stand-in:

* **closed-loop batching** — a load generator that keeps the window full
  measures batched req/s against one-request-at-a-time serving of the
  same queries; every batched response is asserted **bit-identical** to
  its single-request reference (``identical``); the per-request gain of
  the fused window is recorded (``batch_speedup``), not asserted.
* **open-loop 2× overload** — arrivals are offered at twice the measured
  service rate; the service must *shed* (explicit ``overloaded`` /
  ``deadline_exceeded`` results, every request accounted for — nothing
  silently dropped), keep the p99 latency of the requests it *does*
  serve under the configured deadline (``deadline_met``), and stay
  bit-identical on spot-checked served responses.
* **mid-run executor kill** — with a ``kill_worker`` fault injected
  into the supervised pool, every served response still matches the
  single-request reference (zero wrong responses, ``identical``) and the
  pool records the respawn.

``REPRO_FORCE_PROCS=1`` is set for the whole module so single-core CI
exercises the real executor-pool path. ``REPRO_PERF_SMOKE=1`` shrinks
request counts for the CI gate. Full runs write
``results/serving.txt`` plus ``results/BENCH_serving.json``; smoke runs
land in ``results/smoke/`` for ``check_trend.py``.
"""

import os
import time

os.environ.setdefault("REPRO_FORCE_PROCS", "1")

import numpy as np
import pytest

from repro.experiments.common import format_table, perf_smoke_enabled
from repro.graphs import (
    TRAINING_CONFIGS,
    attach_classification_task,
    load_training_dataset,
    sbm_graph,
)
from repro.models import GNNConfig, MaxKGNN
from repro.serving import (
    OK,
    OVERLOADED,
    InferenceService,
    Request,
    ServiceConfig,
    build_ego_batch,
)
from repro.training import FaultPlan, set_fault_plan
from repro.training.parallel import reset_fallback_warnings

DATASET = "Flickr"
SMOKE = perf_smoke_enabled()
MAX_BATCH = 8
DEADLINE_S = 2.0
N_CLOSED = 48 if SMOKE else 160
N_OVERLOAD = 96 if SMOKE else 320
N_FAULT = 8 if SMOKE else 24
MULTI_CORE = (len(os.sched_getaffinity(0))
              if hasattr(os, "sched_getaffinity") else os.cpu_count()) > 1
#: Size sweep (ROADMAP item 5): the same SBM generator at 1x and 10x nodes,
#: degree fixed, so a per-request cost that scans the graph shows as ~10x.
SWEEP_NODES = (3_000, 30_000)


@pytest.fixture(autouse=True)
def _fresh_state():
    reset_fallback_warnings()
    set_fault_plan(None)
    yield
    set_fault_plan(None)


def _build_service(**overrides):
    cfg = TRAINING_CONFIGS[DATASET]
    graph = load_training_dataset(DATASET, seed=0)
    config = GNNConfig(
        model_type="sage", in_features=cfg.n_features, hidden=cfg.hidden,
        out_features=graph.label_dim(), n_layers=cfg.layers,
        nonlinearity="maxk", k=max(1, cfg.hidden // 8), dropout=cfg.dropout,
    )
    model = MaxKGNN(graph, config, seed=7)
    defaults = dict(
        queue_capacity=2 * MAX_BATCH, max_batch=MAX_BATCH,
        default_deadline=DEADLINE_S,
    )
    defaults.update(overrides)
    return InferenceService(graph, model, ServiceConfig(**defaults))


def _query_nodes(service, count, seed=3):
    rng = np.random.default_rng(seed)
    return rng.integers(0, service.graph.n_nodes, size=count).tolist()


def _closed_loop(service, nodes):
    """Keep the window full: submit up to max_batch, drain, repeat."""
    tickets = []
    start = time.perf_counter()
    for base in range(0, len(nodes), MAX_BATCH):
        for node in nodes[base:base + MAX_BATCH]:
            tickets.append(service.submit(node, seed=5))
        service.drain()
    return tickets, time.perf_counter() - start


def _ego_build_us_per_req(n_nodes):
    """Median per-request cost of building full windows of 2-hop, fanout-8
    ego-nets on an ``n_nodes`` SBM graph (edge index built beforehand)."""
    graph = sbm_graph(n_nodes, 10, 16.0, seed=0).to_undirected()
    attach_classification_task(graph, n_features=32, seed=0)
    rng = np.random.default_rng(3)
    requests = [
        Request(rid=rid, node=int(node), seed=5, deadline=float("inf"),
                submitted=0.0)
        for rid, node in enumerate(rng.integers(0, n_nodes, N_CLOSED))
    ]
    windows = [requests[base:base + MAX_BATCH]
               for base in range(0, N_CLOSED, MAX_BATCH)]
    build_ego_batch(graph, windows[0], 2, 8)
    seconds = []
    for window in windows:
        start = time.perf_counter()
        build_ego_batch(graph, window, 2, 8)
        seconds.append(time.perf_counter() - start)
    return 1e6 * float(np.median(seconds)) / MAX_BATCH


@pytest.mark.slow
def test_closed_loop_batching_identity_and_speedup(
    record_result, record_json
):
    service = _build_service()
    try:
        nodes = _query_nodes(service, N_CLOSED)
        # Reference arm: the same queries one at a time (no queue, no
        # cache, no batching) — both the correctness oracle and the
        # baseline the batched arm must beat.
        start = time.perf_counter()
        reference = [service.infer_single(node, seed=5) for node in nodes]
        single_s = time.perf_counter() - start

        tickets, batched_s = _closed_loop(service, nodes)
        identical = all(
            ticket.result.status == OK
            and np.array_equal(ticket.result.logits, expected)
            for ticket, expected in zip(tickets, reference)
            if not ticket.result.cached
        )
        # Repeat queries legitimately hit the cache; their logits must
        # still match the single-request reference exactly.
        cache_consistent = all(
            np.array_equal(ticket.result.logits, expected)
            for ticket, expected in zip(tickets, reference)
            if ticket.result.cached
        )
        stats = service.stats()
    finally:
        service.close()

    speedup = single_s / batched_s
    served = [t.result.latency for t in tickets if t.result.ok]
    payload = {
        "requests": N_CLOSED,
        "identical": bool(identical and cache_consistent),
        "batch_speedup": float(speedup),
        "served_rps": float(N_CLOSED / batched_s),
        "p50_ms": float(1e3 * np.percentile(served, 50)),
        "p99_ms": float(1e3 * np.percentile(served, 99)),
        "mean_batch": float(stats.get("mean_batch", 1.0)),
        "cache_hits": stats["cache"]["hits"],
    }
    small, large = (_ego_build_us_per_req(n) for n in SWEEP_NODES)
    payload.update({
        "ego_build_us_per_req_1x": small,
        "ego_build_us_per_req_10x": large,
        # 1.0 = per-request build cost flat across the 10x size step.
        "ego_build_size_scaling": small / large,
    })
    record_json("BENCH_serving", "closed_loop", payload)
    record_result("serving_closed_loop", format_table(
        ["metric", "value"],
        [[key, f"{value}"] for key, value in payload.items()],
    ))
    assert identical, "batched responses diverged from single-request"
    assert cache_consistent, "cache served logits differing from reference"


@pytest.mark.slow
def test_open_loop_overload_sheds_explicitly(record_result, record_json):
    service = _build_service()
    try:
        # Measure the sustainable service rate first, then offer 2x.
        warm_nodes = _query_nodes(service, N_CLOSED, seed=11)
        _, warm_s = _closed_loop(service, warm_nodes)
        capacity_rps = N_CLOSED / warm_s
        service.cache.invalidate()

        interval = 1.0 / (2.0 * capacity_rps)
        nodes = _query_nodes(service, N_OVERLOAD, seed=13)
        reference = {
            node: service.infer_single(node, seed=5)
            for node in sorted(set(nodes))[:8]
        }
        tickets = []
        start = time.perf_counter()
        submitted = 0
        while submitted < N_OVERLOAD:
            # Open loop: arrivals follow the offered schedule regardless
            # of service progress — no backpressure on the generator.
            # While a window is being served the schedule keeps running,
            # so several arrivals land between pumps and the queue fills.
            now = time.perf_counter() - start
            while submitted < N_OVERLOAD and submitted * interval <= now:
                tickets.append(service.submit(nodes[submitted], seed=5))
                submitted += 1
            service.pump()
        service.drain()
        stats = service.stats()
    finally:
        service.close()

    outcomes = [ticket.result.status for ticket in tickets]
    served = [t.result for t in tickets if t.result.ok]
    shed = [s for s in outcomes if s in (OVERLOADED, "deadline_exceeded")]
    # Every request is accounted for: served, cached, shed, or failed —
    # the queue never swallows one.
    assert all(ticket.done for ticket in tickets)
    assert len(served) + len(shed) + stats["failed"] == N_OVERLOAD
    latencies = [result.latency for result in served]
    p99_s = float(np.percentile(latencies, 99)) if latencies else 0.0
    deadline_met = bool(
        all(result.completed <= result.deadline for result in served)
        and p99_s <= DEADLINE_S
    )
    spot_identical = all(
        np.array_equal(result.logits, reference[result.node])
        for result in served if result.node in reference
    )
    payload = {
        "offered_rps": float(2.0 * capacity_rps),
        "capacity_rps": float(capacity_rps),
        "requests": N_OVERLOAD,
        "served": len(served),
        "shed_fraction": float(len(shed) / N_OVERLOAD),
        "shed_overload": stats["shed_overload"],
        "shed_deadline": stats["shed_deadline"] + stats["shed_late"],
        "p50_ms": float(1e3 * np.percentile(latencies, 50)),
        "p99_ms": float(1e3 * p99_s),
        "deadline_met": deadline_met,
        "identical": bool(spot_identical),
    }
    record_json("BENCH_serving", "overload_2x", payload)
    record_result("serving_overload", format_table(
        ["metric", "value"],
        [[key, f"{value}"] for key, value in payload.items()],
    ))
    assert spot_identical, "overloaded service returned wrong logits"
    assert deadline_met, (
        f"served p99 {1e3 * p99_s:.1f} ms exceeds the "
        f"{1e3 * DEADLINE_S:.0f} ms deadline — late results must be shed"
    )
    # At 2x the measured capacity the service cannot serve everything;
    # a healthy service sheds loudly instead of queueing unboundedly.
    assert len(shed) > 0, "2x overload produced no explicit sheds"
    assert stats["max_depth"] <= service.config.queue_capacity


@pytest.mark.slow
def test_executor_kill_mid_run_serves_zero_wrong_responses(
    record_result, record_json
):
    from repro.graphs import shared_memory_available

    if not shared_memory_available():
        pytest.skip("host cannot create POSIX shared memory")
    # Kill executor 0 on its 3rd infer op — mid-run, after it has proven
    # healthy — and keep serving through the respawn.
    set_fault_plan(FaultPlan.parse("kill_worker:serving:0:3"))
    service = _build_service(executors=1)
    try:
        assert service.pool is not None, "executor pool failed to start"
        nodes = _query_nodes(service, N_FAULT, seed=17)
        reference = {
            node: service.infer_single(node, seed=5)
            for node in sorted(set(nodes))
        }
        tickets = []
        for base in range(0, len(nodes), 2):  # 2-request windows
            for node in nodes[base:base + 2]:
                tickets.append(service.submit(node, seed=5))
            service.drain()
        wrong = sum(
            1 for ticket in tickets
            if ticket.result.ok
            and not np.array_equal(
                ticket.result.logits, reference[ticket.result.node]
            )
        )
        served = sum(1 for ticket in tickets if ticket.result.ok)
        respawns = service.pool.respawns if service.pool else -1
        degraded = service.degraded
    finally:
        service.close()
        set_fault_plan(None)

    payload = {
        "requests": N_FAULT,
        "served": served,
        "wrong_responses": wrong,
        "respawns": respawns,
        "degraded": degraded,
        "identical": bool(wrong == 0 and served == N_FAULT),
    }
    record_json("BENCH_serving", "executor_kill", payload)
    record_result("serving_fault", format_table(
        ["metric", "value"],
        [[key, f"{value}"] for key, value in payload.items()],
    ))
    assert wrong == 0, f"{wrong} responses diverged after executor kill"
    assert served == N_FAULT, "killed executor lost requests"
    assert respawns >= 1, "the injected kill never triggered a respawn"
    assert not degraded
