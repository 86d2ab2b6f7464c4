"""Pipelined sampled-training benchmark: prefetch, blocked SpMM.

PR 3 drove the *per-kernel* dense work to near-zero allocation; what was
left on the sampled flow's wall-clock was the sampler/induction/CSR-build
work sitting on the critical path of fresh batches and the vectorized
backend's gather-dominated SpMM. This benchmark measures the PR-4
remedies on the scaled Reddit stand-in (the fused loss, measured here at
1.005× / 1.01× until PR 13, is now the engine's only training loss):

* **prefetch** — the unpooled sampled protocol (a fresh half-graph batch
  every epoch, so sampling *is* on the critical path) with and without
  ``PrefetchFlow`` building the next batches on a background thread.
  Trajectories are asserted bit-identical; the measured ratio is
  recorded, not gated (thread overlap needs a second, idle core, which
  tier-1 cannot assume; ``python -m bench`` is the timing authority).
* **blocked SpMM** — the vectorized backend's degree-bucketed
  gather–accumulate (its SpMM where the compiled loops do not build, run
  here with ``native.load`` patched to answer ``None``), asserted
  bit-identical to the ``reference`` loop on
  the scaled Reddit adjacency; its time is recorded, not gated.

``REPRO_PERF_SMOKE=1`` shrinks the protocol for CI gating. Full runs write
``results/pipeline.txt`` plus the machine-readable
``results/BENCH_pipeline.json``.
"""

import os
import time

import numpy as np
import pytest

from repro.experiments.common import format_table, perf_smoke_enabled, scaled_k
from repro.graphs import TRAINING_CONFIGS, load_training_dataset
from repro.models import GNNConfig, MaxKGNN
from repro.sparse import ops
from repro.sparse.ops import get_backend
from repro.training import Engine, PrefetchFlow, SampledFlow
from tests.conftest import without_compiled_loops

DATASET = "Reddit"
SMOKE = perf_smoke_enabled()
#: Batches the worker may run ahead (the CLI's ``--prefetch`` value).
PREFETCH_DEPTH = 2
#: Interleaved timing rounds (see test_dense_hotpath: this container's
#: clock is bimodal, so both arms are timed in alternating pairs and the
#: median pairwise ratio is the reported speedup).
TIMING_ROUNDS = 30 if SMOKE else 60
#: Overlap needs a second core; recorded next to the ratio it explains.
MULTI_CORE = (len(os.sched_getaffinity(0))
              if hasattr(os, "sched_getaffinity") else os.cpu_count()) > 1


def _config(graph, cfg):
    return GNNConfig(
        model_type="sage", in_features=cfg.n_features, hidden=cfg.hidden,
        out_features=graph.label_dim(), n_layers=cfg.layers,
        nonlinearity="maxk", k=scaled_k(32, cfg), dropout=cfg.dropout,
    )


def _engine(graph, cfg, flow, seed):
    return Engine(
        MaxKGNN(graph, _config(graph, cfg), seed=seed), graph, flow,
        lr=cfg.lr,
    )


def _unpooled_flow(graph, seed, prefetch):
    flow = SampledFlow(
        sampler="node", batches_per_epoch=1,
        sample_size=graph.n_nodes // 2, seed=seed,
    )
    return PrefetchFlow(flow, prefetch) if prefetch else flow


def _interleave(engine_a, engine_b, start=1000):
    """Median per-epoch ms of both engines, timed in alternating pairs."""
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


@pytest.mark.slow
def test_prefetch_pipeline_bit_identity_and_overlap(record_result, record_json):
    cfg = TRAINING_CONFIGS[DATASET]
    graph = load_training_dataset(DATASET, seed=0)
    epochs = cfg.epochs if SMOKE else 2 * cfg.epochs

    sequential = _engine(graph, cfg, _unpooled_flow(graph, 0, 0), 0)
    prefetched = _engine(graph, cfg,
                         _unpooled_flow(graph, 0, PREFETCH_DEPTH), 0)
    result_seq = sequential.fit(epochs, eval_every=20)
    result_pre = prefetched.fit(epochs, eval_every=20)
    identical = (
        result_seq.train_losses == result_pre.train_losses
        and result_seq.val_metrics == result_pre.val_metrics
    )
    seq_ms, pre_ms, ratio = _interleave(sequential, prefetched)
    built = prefetched.flow.built
    prefetched.flow.close()

    backend = get_backend().name
    payload = {
        "backend": backend, "protocol": "unpooled node n/2, 1 batch/epoch",
        "prefetch_depth": PREFETCH_DEPTH, "multi_core": MULTI_CORE,
        "sequential_ms": round(seq_ms, 2), "prefetch_ms": round(pre_ms, 2),
        "speedup": round(ratio, 3), "identical": identical,
        "worker_batches_built": built,
    }
    record_json("BENCH_pipeline", f"prefetch[{backend}]", payload)
    record_result(
        "pipeline",
        format_table(
            ["arm", "ms_per_epoch"],
            [("sequential (sample+train)", round(seq_ms, 1)),
             (f"prefetch {PREFETCH_DEPTH}", round(pre_ms, 1))],
        )
        + f"\nspeedup {ratio:.2f}x on {backend} "
        f"({'multi' if MULTI_CORE else 'single'}-core host), "
        f"trajectories identical: {identical}",
    )

    # Prefetch moves work, never changes it: exact same trajectory.
    assert identical
    # The worker actually built the stream (schedule order preserved).
    assert built >= epochs
    assert np.isfinite(ratio) and ratio > 0


@pytest.mark.slow
def test_blocked_spmm_matches_reference(record_result, record_json, monkeypatch):
    """The vectorized backend's numpy SpMM gate: the compiled loops are
    switched off, so every host exercises the same body."""
    without_compiled_loops(monkeypatch)
    graph = load_training_dataset(DATASET, seed=0)
    adjacency = graph.adjacency("sage")
    rng = np.random.default_rng(0)
    cfg = TRAINING_CONFIGS[DATASET]
    x = rng.normal(size=(graph.n_nodes, cfg.hidden))
    out = np.empty((graph.n_nodes, cfg.hidden))
    rounds = TIMING_ROUNDS

    args = (adjacency.indptr, adjacency.indices, adjacency.data, x,
            graph.n_nodes)
    with ops.use_backend("reference"):
        reference_result = get_backend().spmm_csr(*args)
    with ops.use_backend("vectorized"):
        backend = get_backend()
        identical = (
            backend.spmm_csr(*args).tobytes() == reference_result.tobytes()
        )
        times_blocked = []
        for _ in range(rounds):
            t0 = time.perf_counter()
            backend.spmm_csr(*args, out=out)
            times_blocked.append(time.perf_counter() - t0)
    blocked_ms = float(np.median(1e3 * np.array(times_blocked)))

    payload = {
        "graph": f"scaled {DATASET} ({graph.n_nodes} nodes, "
                 f"{adjacency.nnz} nnz, dim {cfg.hidden})",
        "blocked_ms": round(blocked_ms, 2), "identical": identical,
    }
    record_json("BENCH_pipeline", "blocked_spmm[vectorized]", payload)
    record_result(
        "pipeline_blocked_spmm",
        format_table(
            ["implementation", "ms"],
            [("blocked gather-scatter", round(blocked_ms, 2))],
        )
        + f"\nbitwise identical to the reference loop: {identical}",
    )

    assert identical
