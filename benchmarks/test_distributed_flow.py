"""Distributed-flow benchmark: simulated multi-GPU data-parallel training.

The DistributedFlow shards the BNS-GCN partition schedule across ``R``
simulated replicas with a deterministic fixed-order gradient all-reduce
(one optimizer step per round) and reports the gpusim-modelled placement —
communication volume, straggler skew, predicted scaling — next to measured
wall-clock. This benchmark gates the contract on the scaled Reddit
stand-in:

* **R=1 identity** — the distributed engine path replays the sequential
  ``PartitionedFlow`` trajectory bit for bit; its bookkeeping (gradient
  snapshot + one-replica reduce) must stay cheap.
* **replica sweep** — R ∈ {2, 4}: per-epoch wall-clock (the replicas run
  serially on this one device, so it tracks R=1), modelled all-reduce
  volume, modelled epoch latency and predicted scaling from the gpusim
  multi-GPU model, measured straggler skew and load balance.
* **importance sampling** — the degree-weighted GraphSAINT-node flow with
  unbiased loss weights trains to within the variance band of uniform
  sampling.
* **sparse gradient exchange** — the error-feedback top-k compressed
  all-reduce (``grad_topk``) cuts the modelled CBSR wire volume at least
  3.9x while the seed-averaged accuracy stays at parity with the dense
  exchange (the ``accuracy_parity`` leaf is trend-gated symmetrically
  around 1.0).

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
from repro.training import DistributedFlow, Engine, PartitionedFlow, SampledFlow

DATASET = "Reddit"
SMOKE = perf_smoke_enabled()
N_PARTS = 4
BOUNDARY_FRACTION = 0.2
REPLICA_SWEEP = (2, 4)
TIMING_ROUNDS = 20 if SMOKE else 40
#: The R=1 distributed path adds only the gradient snapshot + one-replica
#: reduce per step; it must never cost a large fraction of the epoch.
R1_OVERHEAD_CEILING = 1.35
#: Importance sampling changes the estimator, not the task: accuracy stays
#: within the seed-variance band of the uniform sampler.
VARIANCE_BAND = 0.12
#: Per-tensor top-k of the compressed exchange; k/d = 0.125 on the 64x64
#: hidden tensors of the scaled config (biases ship dense — k clamps).
GRAD_TOPK = 512
#: Acceptance floor on the modelled all-reduce volume reduction at that k.
#: The ratio is a byte count, not a measurement: 3.9439 on this config (a
#: value + a uint16 index per kept entry against one value per dense
#: entry, biases dense), so the floor sits just under it. It was 4.0 while
#: the dense side was priced at 8 bytes and the payload at a literal 4
#: (7.9 recorded — overstated 2x).
MIN_COMM_REDUCTION = 3.9
#: Seed-averaged sparse/dense accuracy ratio must stay this close to 1.0.
PARITY_BAND = 0.1


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

    # -- replica sweep: measured epoch + modelled placement ------------
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
        report = flow.report(
            graph, hidden=cfg.hidden, n_layers=cfg.layers,
            n_params=engine.model.n_parameters(), k=k,
        )
        sweep[replicas] = {
            "epoch_ms": round(epoch_ms, 2),
            "allreduce_mb_per_epoch": report["allreduce_mb_per_epoch"],
            "allreduce_ms_per_epoch": report["allreduce_ms_per_epoch"],
            "straggler_skew": round(report["straggler_skew"], 3),
            "load_efficiency": round(report["load_efficiency"], 3),
            "predicted_scaling": report["predicted_scaling"],
            "modelled_comm_fraction": report["modelled_comm_fraction"],
        }
        rows.append((
            f"distributed R={replicas}", replicas, round(epoch_ms, 2),
            round(report["allreduce_mb_per_epoch"], 3),
            report["predicted_scaling"],
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
            ["arm", "replicas", "ms_per_epoch", "allreduce_mb",
             "predicted_scaling"],
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
        assert stats["allreduce_mb_per_epoch"] > 0
        assert stats["straggler_skew"] >= 1.0
        assert stats["predicted_scaling"] > 0


@pytest.mark.slow
def test_sparse_gradient_exchange_parity_and_volume(record_result,
                                                    record_json):
    cfg = TRAINING_CONFIGS[DATASET]
    graph = load_training_dataset(DATASET, seed=0)
    # Parity is a statement about converged accuracy, so this test keeps
    # the full convergence horizon even in smoke mode (smoke trims the
    # seed sweep instead): half-trained runs sit on the steep part of the
    # curve, where the compressed exchange's slower early progress reads
    # as a false accuracy gap.
    epochs = 2 * cfg.epochs
    backend = get_backend().name
    k = scaled_k(32, cfg)
    seeds = (0,) if SMOKE else (0, 1, 2)

    def final_acc(grad_topk, seed):
        flow = DistributedFlow(_partitioned(), 2, grad_topk=grad_topk)
        engine = _engine(graph, cfg, flow, seed=seed)
        result = engine.fit(epochs, eval_every=20)
        return flow, engine, result

    dense_accs, sparse_accs, finite = [], [], True
    report = None
    for seed in seeds:
        _, _, dense = final_acc(None, seed)
        flow, engine, sparse = final_acc(GRAD_TOPK, seed)
        dense_accs.append(dense.test_at_best_val)
        sparse_accs.append(sparse.test_at_best_val)
        finite = finite and bool(np.isfinite(sparse.train_losses).all())
        if report is None:
            report = flow.report(
                graph, hidden=cfg.hidden, n_layers=cfg.layers,
                n_params=engine.model.n_parameters(), k=k,
            )
    parity = float(np.mean(sparse_accs) / np.mean(dense_accs))

    payload = {
        "backend": backend,
        "protocol": (
            f"scaled {DATASET}, R=2 dense vs grad top-k {GRAD_TOPK}, "
            f"{len(seeds)} seed(s)"
        ),
        "grad_topk": GRAD_TOPK,
        "dense_acc": round(float(np.mean(dense_accs)), 4),
        "sparse_acc": round(float(np.mean(sparse_accs)), 4),
        "accuracy_parity": round(parity, 4),
        "comm_volume_reduction_speedup":
            report["comm_volume_reduction_speedup"],
        "allreduce_mb_per_epoch": report["allreduce_mb_per_epoch"],
        "dense_allreduce_mb_per_epoch":
            report["dense_allreduce_mb_per_epoch"],
        "finite": finite,
    }
    record_json("BENCH_distributed", f"sparse_exchange[{backend}]", payload)
    record_result(
        "distributed_sparse_exchange",
        format_table(
            ["exchange", "test_acc", "allreduce_mb"],
            [("dense", round(float(np.mean(dense_accs)), 3),
              report["dense_allreduce_mb_per_epoch"]),
             (f"top-k {GRAD_TOPK} + error feedback",
              round(float(np.mean(sparse_accs)), 3),
              report["allreduce_mb_per_epoch"])],
        )
        + f"\n{report['comm_volume_reduction_speedup']:.1f}x modelled comm "
        f"reduction, accuracy parity {parity:.3f} on {backend}",
    )

    assert finite
    assert report["comm_volume_reduction_speedup"] >= MIN_COMM_REDUCTION
    assert abs(parity - 1.0) <= PARITY_BAND, parity


@pytest.mark.slow
def test_importance_sampling_within_accuracy_band(record_result,
                                                  record_json):
    cfg = TRAINING_CONFIGS[DATASET]
    graph = load_training_dataset(DATASET, seed=0)
    epochs = _epochs(cfg)
    backend = get_backend().name

    def sampled(importance):
        return SampledFlow(
            sampler="node", batches_per_epoch=1,
            sample_size=graph.n_nodes // 2, seed=0, importance=importance,
        )

    uniform = _engine(graph, cfg, sampled(False)).fit(epochs, eval_every=20)
    weighted = _engine(graph, cfg, sampled(True)).fit(epochs, eval_every=20)

    payload = {
        "backend": backend,
        "protocol": "GraphSAINT-node n/2, uniform vs degree-weighted",
        "uniform_acc": round(uniform.test_at_best_val, 4),
        "importance_acc": round(weighted.test_at_best_val, 4),
        "finite": bool(np.isfinite(weighted.train_losses).all()),
    }
    record_json("BENCH_distributed", f"importance[{backend}]", payload)
    record_result(
        "distributed_importance",
        format_table(
            ["sampler", "test_acc"],
            [("uniform", round(uniform.test_at_best_val, 3)),
             ("degree-weighted + unbiased loss",
              round(weighted.test_at_best_val, 3))],
        )
        + f"\nbackend: {backend}",
    )

    assert np.isfinite(weighted.train_losses).all()
    assert weighted.test_at_best_val > uniform.test_at_best_val - VARIANCE_BAND
