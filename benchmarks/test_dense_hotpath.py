"""Dense hot-path benchmark: workspace-planned step + micro-batching.

The PR-2 engine benchmark left the sampled flow dominated by per-step dense
work (linear/bias/activation temporaries, dropout masks, Adam moment
chains). The remedy — ``out=`` kernels writing into a
:class:`~repro.tensor.workspace.Workspace` arena — measured 1.81x (scipy) /
1.21x (vectorized) over the allocating composed ops, which were retired on
that evidence (``benchmarks/PERF.md``, *Dense hot path*): every op now has
the one ``out=`` body and ``use_workspace`` only picks arena slots or fresh
arrays. What this benchmark still measures on the scaled Reddit stand-in,
under the active sparse backend:

* **planned** — the sampled-flow protocol's epoch time, with the
  optimisation trajectory asserted *bit-identical* between arena and
  fresh-array buffers.
* **micro** — a many-small-batches flow (8 pooled GraphSAINT-node
  subgraphs of ``n/16`` per epoch) with and without
  :class:`~repro.training.dataflow.MicroBatchedFlow` stacking the group's
  dense transforms into one fused pass over the concatenated rows. The
  ratio is recorded, not asserted (``python -m bench`` is the timing
  authority).
* **allocation regression** — a steady-state step must not perform large
  fresh allocations: tracemalloc peak growth stays under one layer buffer
  and the workspace allocation counter stays flat.

``REPRO_PERF_SMOKE=1`` shrinks seeds/epochs so CI can run this as an
assert-only hot-path regression gate on every backend. Numbers land in
``benchmarks/results/full/dense_hotpath.txt`` and the machine-readable
``BENCH_dense_hotpath.json`` beside it (smoke: ``results/smoke/``).
"""

import gc
import time
import tracemalloc

import numpy as np
import pytest

from repro.experiments.common import format_table, perf_smoke_enabled, scaled_k
from repro.graphs import TRAINING_CONFIGS, load_training_dataset
from repro.models import GNNConfig, MaxKGNN
from repro.sparse.ops import get_backend
from repro.training import Engine, MicroBatchedFlow, SampledFlow

DATASET = "Reddit"
SMOKE = perf_smoke_enabled()
N_SEEDS = 1 if SMOKE else 3
#: PR-2 sampled-flow protocol: half-graph node batches, one per epoch at
#: twice the epochs, pool of 8 (see benchmarks/test_engine_flows.py).
SAMPLE_FRACTION = 2
POOL_SIZE = 8
#: Accuracy band of the seed-variance study (same as the engine benchmark).
VARIANCE_BAND = 0.12
#: Members per merged micro-step.
MICRO_SIZE = 8
#: Timing rounds per seed (one epoch of every timed engine per round).
TIMING_ROUNDS = 30 if SMOKE else 60


def _epochs(cfg):
    scale = 1 if SMOKE else 2
    return scale * cfg.epochs


def _config(graph, cfg, use_workspace, nonlinearity="maxk"):
    return GNNConfig(
        model_type="sage", in_features=cfg.n_features, hidden=cfg.hidden,
        out_features=graph.label_dim(), n_layers=cfg.layers,
        nonlinearity=nonlinearity, k=scaled_k(32, cfg), dropout=cfg.dropout,
        use_workspace=use_workspace,
    )


def _node_flow(graph, seed):
    return SampledFlow(
        sampler="node", batches_per_epoch=1,
        sample_size=graph.n_nodes // SAMPLE_FRACTION,
        pool_size=POOL_SIZE, seed=seed,
    )


def _many_small_flow(graph, seed):
    return SampledFlow(
        sampler="node", batches_per_epoch=MICRO_SIZE,
        sample_size=graph.n_nodes // (2 * MICRO_SIZE),
        pool_size=POOL_SIZE, seed=seed,
    )


def _engine(graph, cfg, flow, use_workspace, seed):
    return Engine(
        MaxKGNN(graph, _config(graph, cfg, use_workspace), seed=seed),
        graph, flow, lr=cfg.lr,
    )


def _interleave(*engines):
    """Per-epoch ms samples, one row per engine, timed in alternating turns.

    This container's clock is bimodal; alternating single epochs means a
    mode flip hits every arm equally, so per-round ratios (and the medians
    reported from them) stay meaningful where back-to-back full runs do
    not.
    """
    times = [[] for _ in engines]
    for index in range(TIMING_ROUNDS):
        epoch = 1000 + index  # past the fitted range; pooled slots repeat
        for samples, engine in zip(times, engines):
            start = time.perf_counter()
            engine.train_epoch(epoch)
            samples.append(time.perf_counter() - start)
    return 1e3 * np.array(times)


def run():
    cfg = TRAINING_CONFIGS[DATASET]
    epochs = _epochs(cfg)
    rows = []
    stats = {
        "fused_ms": [], "fused_acc": [],
        "plain_ms": [], "micro_ms": [], "plain_acc": [], "micro_acc": [],
        "micro_speedup": [], "identical": True,
    }
    for seed in range(N_SEEDS):
        graph = load_training_dataset(DATASET, seed=seed)
        fresh = _engine(graph, cfg, _node_flow(graph, seed), False, seed)
        fused = _engine(graph, cfg, _node_flow(graph, seed), True, seed)
        fresh_result = fresh.fit(epochs, eval_every=20)
        fused_result = fused.fit(epochs, eval_every=20)
        stats["identical"] &= (
            fresh_result.train_losses == fused_result.train_losses
            and fresh_result.val_metrics == fused_result.val_metrics
            and fresh_result.test_metrics == fused_result.test_metrics
        )
        fused_ms = float(np.median(_interleave(fused)))

        plain = _engine(graph, cfg, _many_small_flow(graph, seed), True, seed)
        micro = _engine(
            graph, cfg,
            MicroBatchedFlow(_many_small_flow(graph, seed), MICRO_SIZE),
            True, seed,
        )
        plain_result = plain.fit(epochs // 2, eval_every=20)
        micro_result = micro.fit(epochs // 2, eval_every=20)
        plain_times, micro_times = _interleave(plain, micro)
        plain_ms = float(np.median(plain_times))
        micro_ms = float(np.median(micro_times))

        stats["fused_ms"].append(fused_ms)
        stats["fused_acc"].append(fused_result.test_at_best_val)
        stats["plain_ms"].append(plain_ms)
        stats["micro_ms"].append(micro_ms)
        stats["micro_speedup"].append(
            float(np.median(plain_times / micro_times))
        )
        stats["plain_acc"].append(plain_result.test_at_best_val)
        stats["micro_acc"].append(micro_result.test_at_best_val)
        rows.append((seed, round(fused_ms, 1),
                     round(fused_result.test_at_best_val, 3),
                     round(plain_ms, 1), round(micro_ms, 1),
                     round(micro_result.test_at_best_val, 3)))
    summary = {key: float(np.mean(val)) for key, val in stats.items()
               if key != "identical"}
    # A mean of per-seed medians stays noise-robust; the ratio uses the
    # median of the pairwise interleaved samples per seed.
    summary["micro_speedup"] = float(np.median(stats["micro_speedup"]))
    summary["identical"] = stats["identical"]
    summary["rows"] = rows
    return summary


@pytest.mark.slow
def test_fused_hotpath_speedup_and_bit_identity(benchmark, record_result,
                                                record_json):
    data = benchmark.pedantic(run, rounds=1, iterations=1)
    backend = get_backend().name
    micro_speedup = data["micro_speedup"]
    record_json(
        "BENCH_dense_hotpath", f"hotpath[{backend}]",
        {
            "backend": backend,
            "protocol": f"scaled {DATASET}, pooled node n/2 + micro x8",
            "fused_ms": round(data["fused_ms"], 2),
            "unmerged_ms": round(data["plain_ms"], 2),
            "micro_ms": round(data["micro_ms"], 2),
            "micro_speedup": round(micro_speedup, 3),
            "identical": bool(data["identical"]),
        },
    )
    record_result(
        "dense_hotpath",
        format_table(
            ["seed", "fused_ms", "acc", "unmerged_ms", "micro_ms",
             "micro_acc"],
            data["rows"] + [(
                f"mean[{backend}]",
                round(data["fused_ms"], 1), round(data["fused_acc"], 3),
                round(data["plain_ms"], 1), round(data["micro_ms"], 1),
                round(data["micro_acc"], 3),
            )],
        )
        + f"\nmicro speedup {micro_speedup:.2f}x (median of interleaved "
        f"per-epoch pairs), arena and fresh-array trajectories identical: "
        f"{data['identical']}",
    )

    # The workspace only says where the buffers come from: the whole
    # sampled-flow trajectory must agree bit for bit with fresh arrays.
    assert data["identical"]
    # Merging must stay within the variance band of its own unmerged flow
    # (its ~2.3x epoch ratio is recorded above, not asserted).
    assert data["micro_acc"] > data["plain_acc"] - VARIANCE_BAND


#: Hard ceiling on a steady-state fused step's tracemalloc peak growth,
#: with the whole step covered — including the loss stage, fused since
#: PR 4 (fused_ce). Measured ~53 KB on scipy / ~62 KB on vectorized (the
#: blocked SpMM made the scipy-less path allocation-disciplined too);
#: the dominant leftovers are numpy's per-call broadcast buffers, shrunk
#: via np.setbufsize in repro.tensor.workspace.
ALLOC_CEILING_BYTES = 64 * 1024


def _steady_state_peak(graph, cfg, nonlinearity):
    """tracemalloc peak growth (bytes) of one warmed-up planned step."""
    engine = Engine(
        MaxKGNN(graph, _config(graph, cfg, True, nonlinearity), seed=0),
        graph, _node_flow(graph, 0), lr=cfg.lr,
    )
    engine.fit(12, eval_every=100)  # warm pool, caches and arenas
    workspace = engine.model.workspace
    settled = workspace.allocations
    gc.collect()
    tracemalloc.start()
    engine.train_epoch(20)  # let tracemalloc's own state settle
    deltas = []
    for epoch in range(21, 26):
        gc.collect()
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        engine.train_epoch(epoch)
        _, peak = tracemalloc.get_traced_memory()
        deltas.append(peak - before)
    tracemalloc.stop()
    assert workspace.allocations == settled, f"{nonlinearity}: workspace grew"
    return min(deltas)


@pytest.mark.slow
def test_steady_state_step_allocates_nothing_large(record_result):
    """Allocation-regression probe for the workspace-planned step.

    After warm-up, one sampled-flow training step through the fused hot
    path — dense kernels, aggregation *and the loss stage* — must keep
    tracemalloc peak growth under :data:`ALLOC_CEILING_BYTES` (the same
    step on fresh arrays churns through megabytes), and the workspace must
    report zero fresh backing allocations. Since PR 4 this holds scipy-less as
    well: the blocked gather–scatter SpMM aggregates through backend-owned
    scratch instead of bincount's per-call accumulators. Both float-mask
    paths sit under the one ceiling: the MaxK selection and the ReLU
    compare (one test over both configurations, so its id is stable).
    """
    if get_backend().name == "reference":
        pytest.skip("the per-row Python oracle is not an allocation target")
    cfg = TRAINING_CONFIGS[DATASET]
    graph = load_training_dataset(DATASET, seed=0)
    peaks = {
        nonlinearity: _steady_state_peak(graph, cfg, nonlinearity)
        for nonlinearity in ("maxk", "relu")
    }

    rows = graph.n_nodes // SAMPLE_FRACTION
    layer_bytes = rows * cfg.hidden * 8
    record_result(
        "dense_hotpath_alloc",
        format_table(
            ["path", "steady-state peak growth (KB)"],
            [(f"fused {name} (incl. fused_ce loss)", round(peak / 1024, 1))
             for name, peak in peaks.items()]
            + [("gate", round(ALLOC_CEILING_BYTES / 1024, 1)),
               ("one layer buffer", round(layer_bytes / 1024, 1))],
        )
        + f"\nbackend: {get_backend().name}",
    )
    # The whole step (loss included) stays under the ceiling.
    for name, peak in peaks.items():
        assert peak <= ALLOC_CEILING_BYTES, (name, peak)
