"""True multi-core execution benchmark: process pools vs in-process (PR 7).

PR 4 pipelined batch building onto a background *thread*; PR 5/6 made the
distributed replica rounds and their gradient exchange exact. What the
GIL still serialised was the compute itself: batch induction/CSR builds
contend with training, and an R-replica round runs its forward/backwards
back to back on one core. This benchmark measures the PR-7 remedies on
the scaled Reddit stand-in:

* **process prefetch** — the unpooled sampled protocol (a fresh
  half-graph batch every epoch) sequential vs ``PrefetchFlow`` backed by
  a spawn process pool over the shared-memory graph store. Trajectories
  are asserted bit-identical; the measured ratio is recorded, not gated
  (``python -m bench`` is the timing authority — a wall-clock floor here
  made tier-1 depend on the host's core count and load).
* **replica process rounds** — ``DistributedFlow`` R=2 over BNS
  partitions, the in-process serial replica executor vs one OS process
  per replica (persistent model mirrors, flat-parameter broadcast,
  fixed-order gradient deposit). R=1 process execution is asserted
  bit-identical to in-process; the R=2 ratio is recorded like the above.

``REPRO_FORCE_PROCS=1`` is set for the whole module so single-core CI
still exercises the spawn path end to end. ``REPRO_PERF_SMOKE=1``
shrinks the protocol for CI gating. Full runs write
``results/multicore.txt`` plus ``results/BENCH_multicore.json``.
"""

import os
import time

os.environ.setdefault("REPRO_FORCE_PROCS", "1")

import numpy as np
import pytest

from repro.experiments.common import format_table, perf_smoke_enabled
from repro.graphs import TRAINING_CONFIGS, load_training_dataset
from repro.models import GNNConfig, MaxKGNN
from repro.sparse.ops import get_backend
from repro.training import Engine, make_flow

DATASET = "Reddit"
SMOKE = perf_smoke_enabled()
PREFETCH_DEPTH = 2
PREFETCH_WORKERS = 2
REPLICAS = 2
#: Interleaved timing rounds (both arms timed in alternating pairs; the
#: median pairwise ratio is the reported speedup — see test_pipeline).
TIMING_ROUNDS = 10 if SMOKE else 24
MULTI_CORE = (len(os.sched_getaffinity(0))
              if hasattr(os, "sched_getaffinity") else os.cpu_count()) > 1


def _config(graph, cfg):
    from repro.experiments.common import scaled_k

    return GNNConfig(
        model_type="sage", in_features=cfg.n_features, hidden=cfg.hidden,
        out_features=graph.label_dim(), n_layers=cfg.layers,
        nonlinearity="maxk", k=scaled_k(32, cfg), dropout=cfg.dropout,
    )


def _engine(graph, cfg, flow, seed=0):
    return Engine(MaxKGNN(graph, _config(graph, cfg), seed=seed), graph,
                  flow, lr=cfg.lr)


def _interleave(engine_a, engine_b, start=1000):
    times_a, times_b = [], []
    for index in range(TIMING_ROUNDS):
        epoch = start + index
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
        float(np.median(times_a / times_b)),
    )


def _trajectory(engine, epochs, start=0):
    losses = [engine.train_epoch(epoch=start + e) for e in range(epochs)]
    params = [p.data.copy() for p in engine.optimizer.parameters]
    return losses, params


def _same(a, b):
    return a[0] == b[0] and all(
        np.array_equal(x, y) for x, y in zip(a[1], b[1])
    )


@pytest.mark.slow
def test_process_prefetch_identity_and_scaling(record_result, record_json):
    cfg = TRAINING_CONFIGS[DATASET]
    graph = load_training_dataset(DATASET, seed=0)
    epochs = 4 if SMOKE else 8

    def unpooled(prefetch, workers):
        return make_flow(
            "sampled", sampler="node", batches_per_epoch=1,
            sample_size=graph.n_nodes // 2, seed=0, prefetch=prefetch,
            prefetch_workers=workers,
        )

    sequential = _engine(graph, cfg, unpooled(0, "thread"))
    procs = _engine(graph, cfg, unpooled(PREFETCH_DEPTH, PREFETCH_WORKERS))
    try:
        # Identity first — it doubles as the pools' warm-up, keeping the
        # one-off spawn cost out of the timed region.
        identical = _same(
            _trajectory(sequential, epochs), _trajectory(procs, epochs)
        )
        seq_ms, proc_ms, ratio = _interleave(sequential, procs)
        built = procs.flow.built
    finally:
        sequential.close()
        procs.close()

    backend = get_backend().name
    payload = {
        "backend": backend,
        "protocol": "unpooled node n/2, 1 batch/epoch",
        "workers": PREFETCH_WORKERS, "prefetch_depth": PREFETCH_DEPTH,
        "multi_core": MULTI_CORE,
        "sequential_ms": round(seq_ms, 2), "process_ms": round(proc_ms, 2),
        "process_scaling": round(ratio, 3), "identical": identical,
        "worker_batches_built": built,
    }
    record_json("BENCH_multicore", f"prefetch[{backend}]", payload)
    record_result(
        "multicore",
        format_table(
            ["arm", "ms_per_epoch"],
            [("sequential (sample+train)", round(seq_ms, 1)),
             (f"process prefetch x{PREFETCH_WORKERS}", round(proc_ms, 1))],
        )
        + f"\nprocess prefetch {ratio:.2f}x on {backend} "
        f"({'multi' if MULTI_CORE else 'single'}-core host), "
        f"trajectories identical: {identical}",
    )

    # Moving the builders across a process boundary must not change a bit.
    assert identical
    assert built >= epochs
    assert np.isfinite(ratio) and ratio > 0


@pytest.mark.slow
def test_replica_process_rounds_identity_and_scaling(record_result,
                                                     record_json):
    cfg = TRAINING_CONFIGS[DATASET]
    graph = load_training_dataset(DATASET, seed=0)
    epochs = 2 if SMOKE else 4

    def distributed(replicas, processes):
        return make_flow(
            "distributed", inner="partitioned", replicas=replicas,
            processes=processes, n_parts=4, boundary_fraction=0.2, seed=0,
        )

    # R=1 correctness gate: one process replica replays in-process
    # execution bit for bit (dropout included — replica 0 inherits the
    # parent's RNG stream verbatim).
    r1_in = _engine(graph, cfg, distributed(1, False))
    r1_proc = _engine(graph, cfg, distributed(1, True))
    try:
        r1_identical = _same(
            _trajectory(r1_in, epochs), _trajectory(r1_proc, epochs)
        )
    finally:
        r1_in.close()
        r1_proc.close()

    inproc = _engine(graph, cfg, distributed(REPLICAS, False))
    procs = _engine(graph, cfg, distributed(REPLICAS, True))
    try:
        # Warm both arms (spawns the pool, binds the partitions).
        inproc.train_epoch(epoch=0)
        procs.train_epoch(epoch=0)
        in_ms, proc_ms, ratio = _interleave(inproc, procs)
    finally:
        inproc.close()
        procs.close()

    backend = get_backend().name
    payload = {
        "backend": backend,
        "protocol": f"BNS partitioned x4, R={REPLICAS} rounds",
        "replicas": REPLICAS, "multi_core": MULTI_CORE,
        "inprocess_ms": round(in_ms, 2), "process_ms": round(proc_ms, 2),
        "replica_scaling": round(ratio, 3), "r1_identical": r1_identical,
    }
    record_json("BENCH_multicore", f"replicas[{backend}]", payload)
    record_result(
        "multicore_replicas",
        format_table(
            ["arm", "ms_per_epoch"],
            [(f"in-process R={REPLICAS}", round(in_ms, 1)),
             (f"process-per-replica R={REPLICAS}", round(proc_ms, 1))],
        )
        + f"\nreplica rounds {ratio:.2f}x on {backend} "
        f"({'multi' if MULTI_CORE else 'single'}-core host), "
        f"R=1 identical: {r1_identical}",
    )

    assert r1_identical
    assert np.isfinite(ratio) and ratio > 0
