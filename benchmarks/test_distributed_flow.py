"""Distributed-flow benchmark: data-parallel training over replicas.

The DistributedFlow shards the BNS-GCN partition schedule across ``R``
in-process replicas with a deterministic fixed-order gradient all-reduce
(one optimizer step per round) and measures what its replicas ran:
straggler skew and load balance (``flow.measured()``). This benchmark
gates the contract on the scaled Reddit stand-in:

* **R=1 identity** — the distributed engine path replays the sequential
  ``PartitionedFlow`` trajectory bit for bit; its bookkeeping (gradient
  snapshot + one-replica reduce) must stay cheap.
* **replica sweep** — R ∈ {2, 4}: per-epoch wall-clock (the replicas run
  serially in one process, so it tracks R=1), measured straggler skew and
  load balance.

``REPRO_PERF_SMOKE=1`` shrinks the protocol for CI gating. Results land in
``results/distributed_flow.txt`` plus the machine-readable
``results/BENCH_distributed.json`` (smoke runs: ``results/smoke/``) that
the CI artifact upload and trend check consume.
"""

import time

import numpy as np
import pytest

from repro.experiments.common import format_table, perf_smoke_enabled, scaled_k
from repro.graphs import TRAINING_CONFIGS, load_training_dataset
from repro.models import GNNConfig, MaxKGNN
from repro.sparse.ops import get_backend
from repro.training import DistributedFlow, Engine, PartitionedFlow

DATASET = "Reddit"
SMOKE = perf_smoke_enabled()
N_PARTS = 4
BOUNDARY_FRACTION = 0.2
REPLICA_SWEEP = (2, 4)
TIMING_ROUNDS = 20 if SMOKE else 40
#: The R=1 distributed path adds only the gradient snapshot + one-replica
#: reduce per step; it must never cost a large fraction of the epoch.
R1_OVERHEAD_CEILING = 1.35


def _epochs(cfg):
    return cfg.epochs if SMOKE else 2 * cfg.epochs


def _config(graph, cfg):
    return GNNConfig(
        model_type="sage", in_features=cfg.n_features, hidden=cfg.hidden,
        out_features=graph.label_dim(), n_layers=cfg.layers,
        nonlinearity="maxk", k=scaled_k(32, cfg), dropout=cfg.dropout,
    )


def _engine(graph, cfg, flow, seed=0):
    return Engine(
        MaxKGNN(graph, _config(graph, cfg), seed=seed), graph, flow,
        lr=cfg.lr,
    )


def _partitioned(seed=0):
    return PartitionedFlow(
        n_parts=N_PARTS, boundary_fraction=BOUNDARY_FRACTION, seed=seed
    )


def _interleave(engine_a, engine_b, rounds=TIMING_ROUNDS):
    """Median per-epoch ms of both engines, timed in alternating pairs."""
    times_a, times_b = [], []
    for index in range(rounds):
        epoch = 1000 + index
        t0 = time.perf_counter()
        engine_a.train_epoch(epoch)
        times_a.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        engine_b.train_epoch(epoch)
        times_b.append(time.perf_counter() - t0)
    times_a, times_b = 1e3 * np.array(times_a), 1e3 * np.array(times_b)
    return (
        float(np.median(times_a)),
        float(np.median(times_b)),
        float(np.median(times_b / times_a)),
    )


@pytest.mark.slow
def test_distributed_flow_identity_sweep_and_report(record_result,
                                                    record_json):
    cfg = TRAINING_CONFIGS[DATASET]
    graph = load_training_dataset(DATASET, seed=0)
    epochs = _epochs(cfg)
    backend = get_backend().name
    k = scaled_k(32, cfg)

    # -- R=1 bit-identity + bookkeeping overhead -----------------------
    sequential = _engine(graph, cfg, _partitioned())
    distributed_r1 = _engine(graph, cfg, DistributedFlow(_partitioned(), 1))
    result_seq = sequential.fit(epochs, eval_every=20)
    result_r1 = distributed_r1.fit(epochs, eval_every=20)
    identical = (
        result_seq.train_losses == result_r1.train_losses
        and result_seq.batch_losses == result_r1.batch_losses
        and result_seq.val_metrics == result_r1.val_metrics
    )
    seq_ms, r1_ms, overhead = _interleave(sequential, distributed_r1)

    # -- replica sweep: measured epoch and placement -------------------
    rows = [("partitioned (sequential)", "-", round(seq_ms, 2), "-", "-"),
            ("distributed R=1", 1, round(r1_ms, 2), "-", "-")]
    sweep = {}
    for replicas in REPLICA_SWEEP:
        flow = DistributedFlow(_partitioned(), replicas)
        engine = _engine(graph, cfg, flow)
        engine.fit(epochs, eval_every=20)
        start = time.perf_counter()
        for index in range(TIMING_ROUNDS):
            engine.train_epoch(1000 + index)
        epoch_ms = 1e3 * (time.perf_counter() - start) / TIMING_ROUNDS
        measured = flow.measured()
        sweep[replicas] = {
            "epoch_ms": round(epoch_ms, 2),
            "straggler_skew": round(measured["straggler_skew"], 3),
            "load_efficiency": round(measured["load_efficiency"], 3),
        }
        rows.append((
            f"distributed R={replicas}", replicas, round(epoch_ms, 2),
            sweep[replicas]["straggler_skew"],
            sweep[replicas]["load_efficiency"],
        ))

    payload = {
        "backend": backend,
        "protocol": (
            f"scaled {DATASET}, BNS partitioned x{N_PARTS} "
            f"(boundary {BOUNDARY_FRACTION}), maxk k={k}"
        ),
        "r1_identical": identical,
        "sequential_ms": round(seq_ms, 2),
        "r1_ms": round(r1_ms, 2),
        "r1_overhead": round(overhead, 3),
        "replica_sweep": {str(r): sweep[r] for r in sweep},
    }
    record_json("BENCH_distributed", f"distributed[{backend}]", payload)
    record_result(
        "distributed_flow",
        format_table(
            ["arm", "replicas", "ms_per_epoch", "straggler_skew",
             "load_efficiency"],
            rows,
        )
        + f"\nR=1 overhead {overhead:.2f}x on {backend}, "
        f"trajectories identical: {identical}",
    )

    # The distributed engine path is a regrouping, not a numerical change.
    assert identical
    # Snapshot + one-replica reduce must stay a bookkeeping cost.
    assert overhead <= R1_OVERHEAD_CEILING, overhead
    for replicas, stats in sweep.items():
        assert stats["straggler_skew"] >= 1.0
        assert 0.0 < stats["load_efficiency"] <= 1.0
