"""One workload, one pass: end-to-end (tracing off) or per-layer (tracing on)."""

from __future__ import annotations

import gc
import resource
import time

import numpy as np

from repro.serving.service import InferenceService
from repro.sparse.ops import get_backend, use_backend
from repro.tensor import Adam
from repro.training.engine import Engine

from . import workloads as wl
from .hostspeed import HostIndex, HostProbe
from .phases import ServeDriver, check, timed_epochs
from .trace import (
    Tracer,
    eval_forward,
    install_tracing_backend,
    staged_epoch,
)

LEARNING_RATE = 0.01
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Share of the untraced counts the traced pass runs.
TRACED_EPOCHS = 0.4
TRACED_SERVING = 1 / 3


def ms(seconds) -> float:
    return float(seconds) * 1e3


def start_training(workload: wl.Workload, seed: int, host: HostIndex):
    """Graph, model, engine, and the warm-up epochs that build the CSR
    caches and size the workspace."""
    graph = wl.build_graph(workload, seed)
    host.read()
    model = wl.build_model(workload, graph, seed)
    engine = Engine(model, graph, wl.build_flow(workload, seed), lr=LEARNING_RATE)
    _, losses, failed = timed_epochs(engine, 0, wl.WARMUP_EPOCHS, host)
    return graph, model, engine, losses, failed


def deploy(graph, model, seed: int, tracer, host: HostIndex, warmup: int):
    """Stand the service up and let lazy set-up finish: the first inference
    builds the sampler's neighbour table, the warm-up windows size the
    eval-mode buffers and fill the batcher's service-time estimate."""
    service = InferenceService(
        graph, model, wl.service_config(), clock=time.perf_counter
    )
    driver = ServeDriver(service, wl.Traffic(graph.n_nodes, seed), tracer, host)
    service.infer_single(int(driver.traffic.hot[0]))
    host.read()
    for _ in range(warmup):
        driver.window("warmup")
    return service, driver


def rehearse_setup(workload: wl.Workload, seed: int, tracer, host: HostIndex):
    """The two spans of one complete set-up whose products are thrown away."""
    start = time.perf_counter()
    graph, model, engine, _, _ = start_training(workload, seed, host)
    engine.close()
    middle = time.perf_counter()
    service, _ = deploy(graph, model, seed, tracer, host, workload.capacity_warmup)
    service.close()
    get_backend().clear_cache()
    end = time.perf_counter()
    host.read()
    return [(start, middle), (middle, end)]


def check_cbsr_twin(workload, graph, seed: int, warm_losses) -> None:
    """The CBSR kernels must reproduce dense-after-MaxK bit for bit."""
    twin = Engine(
        wl.build_model(workload, graph, seed, cbsr=False), graph,
        wl.build_flow(workload, seed), lr=LEARNING_RATE,
    )
    try:
        _, twin_losses, _ = timed_epochs(
            twin, 0, len(warm_losses), HostIndex(None)
        )
    finally:
        twin.close()
    check(
        twin_losses == warm_losses,
        f"CBSR warm-up losses {warm_losses} differ from the dense-after-MaxK "
        f"twin's {twin_losses}",
    )


def measure_end_to_end(workload: wl.Workload, seed: int, started: float):
    """Returns ``(metrics, info, attempted, failed)``; tracing is off.

    Every timing is in reference-host units: divided by the host-speed index
    read next to it (``hostspeed.py``). ``info["raw"]`` has the same
    quantities as the clock gave them.

    ``setup_s`` is interpreter start-up and imports (paid once) plus the
    median of ``SETUPS`` set-ups: the one the run keeps, whose two halves
    sit before training and before serving, then the rehearsals.
    """
    tracer = Tracer(enabled=False)
    startup = (started, time.perf_counter())
    host = HostIndex(HostProbe())
    host.read()
    mark = time.perf_counter()
    graph, model, engine, warm_losses, warm_failed = start_training(
        workload, seed, host
    )
    setups = [[(mark, time.perf_counter())]]
    n_edges = graph.n_edges
    try:
        epochs, losses, failed = timed_epochs(
            engine, wl.WARMUP_EPOCHS, workload.epochs, host
        )
        test_acc = engine.evaluate()["test"]
    finally:
        engine.close()
    check(warm_failed + failed == 0, f"non-finite loss: {warm_losses + losses}")
    if workload.cbsr:
        check_cbsr_twin(workload, graph, seed, warm_losses)

    host.read()
    mark = time.perf_counter()
    service, driver = deploy(
        graph, model, seed, tracer, host, workload.capacity_warmup
    )
    setups[0].append((mark, time.perf_counter()))
    try:
        capacity = driver.capacity(workload.capacity_windows)
        latencies, late, on_time, steady_sent = driver.steady(
            workload.steady_rate, workload.steady_seconds
        )
        cycles, applies = driver.live(workload.live_cycles, workload.live_windows)
        counts = driver.tally()
    finally:
        service.close()
    bad_answers = counts["stale"] + driver.mismatched
    check(bad_answers == 0, f"{bad_answers} stale or wrong answers")
    attempted = len(epochs) + counts["sent"] + driver.deltas
    failed += counts["failed"] + driver.deltas_failed
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checked, not_bit_equal = driver.checked, driver.not_bit_equal

    # Rehearsed after everything timed: a set-up thrown away leaves the heap
    # fragmented, which slowed the epochs that followed it by about 5 %.
    del graph, model, engine, service, driver
    gc.collect()
    host.read()
    setups += [
        rehearse_setup(workload, seed, tracer, host) for _ in range(SETUPS - 1)
    ]

    def timings(normalise):
        """Every timed metric, from reference-host or raw seconds."""
        epoch_s, window_s, latency_s = (
            normalise(spans) for spans in (epochs, capacity, latencies)
        )
        # The first cycle also pays one-off costs of the first delta.
        cycle_s, apply_s = normalise(cycles[1:]), normalise(applies[1:])
        setup_s = [sum(normalise(halves)) for halves in setups]
        return {
            "setup_s": normalise([startup])[0] + np.median(setup_s),
            "epoch_ms_p50": ms(np.median(epoch_s)),
            "epoch_ms_p80": ms(np.quantile(epoch_s, 0.8)),
            "capacity_rps": wl.WINDOW / np.median(window_s),
            "latency_ms_p50": ms(np.median(latency_s)),
            "latency_ms_p75": ms(np.quantile(latency_s, 0.75)),
            "live_rps": wl.WINDOW * workload.live_windows / np.median(cycle_s),
            "delta_apply_ms_p50": ms(np.median(apply_s)),
        }

    def raw(spans):
        return [end - start for start, end in spans]

    metrics = {
        **timings(host.normalise),
        "final_loss": losses[-1],
        "test_acc": test_acc,
        "peak_rss_mb": peak_rss_mb,
        "ok_share": 1 - failed / attempted,
        "on_time_share": on_time / steady_sent,
        "fresh_share": 1 - bad_answers / counts["ok"],
    }
    info = {
        "nodes": workload.nodes, "edges": n_edges,
        "n_epochs": len(epochs), "n_windows": len(capacity),
        "n_steady": steady_sent, "n_cycles": len(cycles) - 1,
        "n_checked": checked, "n_not_bit_equal": not_bit_equal,
        "host": host.summary(),
        "raw": {name: float(value) for name, value in timings(raw).items()},
        # Printed, not gated: too few samples beyond them to repeat.
        "latency_ms_tail": {
            f"p{q}": ms(np.quantile(host.normalise(latencies), q / 100))
            for q in (80, 90, 95, 99)
        },
        "loadgen_late_ms_p99": ms(np.quantile(late, 0.99)),
        "requests": counts,
        "warmup_losses": warm_losses,
    }
    return metrics, info, attempted, failed


def measure_layers(workload: wl.Workload, seed: int, spans_path):
    """Returns ``(metrics, info, attempted, failed)`` of the traced pass and
    writes every span to ``spans_path``."""
    tracer = Tracer(enabled=True)
    # Readings at the untraced pass's cadence; the per-layer times stay as
    # the clock gave them and ``host.index_p50`` says how fast the host was.
    host = HostIndex(HostProbe())
    tracer.op_id = "setup"
    with tracer.span("graphs.build"):
        graph = wl.build_graph(workload, seed)

    # Reference twin: the untraced program on the untraced backend, one epoch
    # before each staged epoch, so that host drift hits both alike. It gives
    # the tracing overhead and the losses the staged replay has to reproduce.
    backend = install_tracing_backend(tracer)
    reference = Engine(
        wl.build_model(workload, graph, seed), graph,
        wl.build_flow(workload, seed), lr=LEARNING_RATE,
    )
    model = wl.build_model(workload, graph, seed)
    flow = wl.build_flow(workload, seed)
    optimizer = Adam(model.parameters(), lr=LEARNING_RATE)
    n_epochs = max(1, round(workload.epochs * TRACED_EPOCHS))
    reference_times, reference_losses = [], []
    losses, nodes, edges = [], [], []
    try:
        for epoch in range(wl.WARMUP_EPOCHS + n_epochs):
            if epoch == wl.WARMUP_EPOCHS:
                backend.counts.clear()
            with use_backend(backend.inner.name):
                spans, twin_losses, _ = timed_epochs(
                    reference, epoch, 1, HostIndex(None)
                )
            loss, batch_nodes, batch_edges = staged_epoch(
                tracer, graph, model, flow, optimizer, epoch,
                "warmup" if epoch < wl.WARMUP_EPOCHS else "train",
            )
            reference_losses += twin_losses
            losses.append(loss)
            host.read()
            if epoch >= wl.WARMUP_EPOCHS:
                reference_times += [end - start for start, end in spans]
                nodes += batch_nodes
                edges += batch_edges
    finally:
        reference.close()
    train_counts = dict(backend.counts)
    cache_entries = sum(
        size for key, size in get_backend().cache_info().items()
        if key != "cache_limit"
    )
    check(bool(np.all(np.isfinite(losses))), f"non-finite loss: {losses}")
    replay_match = losses == reference_losses
    check(replay_match, "the staged replay's losses differ from train_epoch's")
    epoch_cover = tracer.child_coverage("epoch", "train/")
    check(epoch_cover >= 0.9, f"stages cover {epoch_cover:.2f} of an epoch span")
    eval_forward(tracer, graph, model)

    service, driver = deploy(
        graph, model, seed, tracer, host,
        max(1, round(workload.capacity_warmup * TRACED_SERVING)),
    )
    try:
        driver.capacity(max(1, round(workload.capacity_windows * TRACED_SERVING)))
        _, late, _, _ = driver.steady(
            workload.steady_rate, workload.steady_seconds * TRACED_SERVING
        )
        driver.live(
            max(2, round(workload.live_cycles * TRACED_SERVING)),
            workload.live_windows,
        )
        counts = driver.tally()
        stats = service.stats()
    finally:
        service.close()
    bad_answers = counts["stale"] + driver.mismatched
    check(bad_answers == 0, f"{bad_answers} stale or wrong answers")
    window_cover = tracer.child_coverage("replay.window")
    check(window_cover >= 0.9, f"stages cover {window_cover:.2f} of a window span")
    tracer.write(spans_path)

    def total_ms(name, op="", under=""):
        return ms(tracer.total(name, op, under))

    def median_ms(name, op=""):
        return ms(np.median(tracer.select(name, op)))

    steps = len(tracer.select("forward", "train/"))
    epoch_ms = total_ms("epoch", "train/")
    forward_ms = total_ms("forward", "train/")
    backward_ms = total_ms("backward", "train/")
    data_ms = sum(total_ms(s, "train/") for s in ("sample", "adjacency", "warm"))
    spmm_calls = len(tracer.select("sparse.spmm_csr", "train/"))
    if workload.cbsr:
        check(spmm_calls == 0, f"{spmm_calls} spmm_csr calls on the CBSR path")
    full_windows = len(tracer.select("replay.window", "replay/capacity"))
    requests = len(tracer.select("replay.induce"))
    induce_ms = total_ms("replay.induce")
    cache = stats["cache"]
    submitted = counts["sent"]
    traced_epoch_p50 = np.median(tracer.select("epoch", "train/"))
    reference_p50 = np.median(reference_times)

    def per_epoch(op):
        return total_ms("sparse." + op, "train/") / n_epochs

    def per_window(stage):
        return total_ms("replay." + stage, "replay/capacity") / full_windows

    metrics = {
        "sparse.spmm_csr.ms_per_epoch": per_epoch("spmm_csr"),
        "sparse.spmm_csr.calls_per_epoch": spmm_calls / n_epochs,
        "sparse.spgemm_cbsr.ms_per_epoch": per_epoch("spgemm_cbsr"),
        "sparse.sspmm_cbsr.ms_per_epoch": per_epoch("sspmm_cbsr"),
        "sparse.topk_mask.ms_per_epoch": per_epoch("topk_mask"),
        "sparse.topk_columns.ms_per_epoch": per_epoch("topk_columns"),
        "sparse.segment_sum.ms_per_epoch": per_epoch("segment_sum"),
        "sparse.warm.ms_per_batch": total_ms("sparse.warm", "train/") / steps,
        "sparse.agg_flops_per_epoch": train_counts.get("agg_flops", 0) / n_epochs,
        "sparse.agg_bytes_per_epoch": train_counts.get("agg_bytes", 0) / n_epochs,
        "sparse.cache_entries": cache_entries,
        "tensor.forward_self_ms_per_step":
            (forward_ms - total_ms("sparse.*", "train/", "forward")) / steps,
        "tensor.backward_ms_per_step": backward_ms / steps,
        "tensor.backward_self_ms_per_step":
            (backward_ms - total_ms("sparse.*", "train/", "backward")) / steps,
        "tensor.optimizer_ms_per_step":
            (total_ms("zero_grad", "train/") + total_ms("optim", "train/")) / steps,
        "models.forward_ms_per_step": forward_ms / steps,
        "models.bind_graph_us_per_step": total_ms("bind", "train/") * 1e3 / steps,
        "models.eval_forward_ms": total_ms("eval_forward"),
        "graphs.sample_ms_per_batch": total_ms("sample", "train/") / steps,
        "graphs.adjacency_ms_per_batch": total_ms("adjacency", "train/") / steps,
        "graphs.batch_nodes_mean": float(np.mean(nodes)),
        "graphs.batch_edges_mean": float(np.mean(edges)),
        "graphs.khop_ms_per_req":
            (total_ms("replay.khop_and_induce") - induce_ms) / requests,
        "graphs.induce_ms_per_req": induce_ms / requests,
        "graphs.neighbour_rebuild_ms":
            median_ms("khop_after_delta") - median_ms("khop_steady"),
        "graphs.build_s": tracer.total("graphs.build"),
        "training.loss_ms_per_step": total_ms("loss", "train/") / steps,
        "training.step_ms_per_batch": epoch_ms / steps,
        "training.steps_per_epoch": steps / n_epochs,
        "training.data_wait_share": data_ms / epoch_ms,
        "training.replay_loss_match": int(replay_match),
        "serving.submit_us_per_req":
            total_ms("serving.submit") * 1e3 / submitted,
        "serving.pump_ms_per_window": median_ms("serving.pump", "capacity/"),
        "serving.ego_build_ms_per_window": per_window("ego_build"),
        "serving.warm_ms_per_window": per_window("warm"),
        "serving.forward_ms_per_window": per_window("forward"),
        "serving.release_ms_per_window": per_window("release"),
        "serving.mean_batch": stats.get("mean_batch", 0.0),
        "serving.cache_hit_share":
            cache["hits"] / max(1, cache["hits"] + cache["misses"]),
        "serving.queue_wait_ms_mean": ms(stats.get("mean_wait_s", 0.0)),
        "serving.max_depth": stats["max_depth"],
        "serving.shed_share": stats["shed_total"] / submitted,
        "serving.delta_drain_ms": median_ms("serving.delta_drain"),
        "serving.delta_apply_idle_ms": median_ms("serving.apply_delta"),
        "loadgen.late_ms_p99": ms(np.quantile(late, 0.99)),
        "trace.overhead_share": float(traced_epoch_p50 / reference_p50 - 1),
        "host.index_p50": host.at(float("-inf"), float("inf")),
    }
    info = {
        "nodes": graph.n_nodes, "n_epochs": n_epochs, "n_steps": steps,
        "n_full_windows": full_windows,
        "n_replayed_requests": requests, "n_spans": len(tracer.spans),
        "epoch_coverage": epoch_cover, "window_coverage": window_cover,
        "replay_vs_pump": per_window("window") / metrics["serving.pump_ms_per_window"],
        "host": host.summary(),
        "calls_per_epoch": {
            key: value / n_epochs for key, value in sorted(train_counts.items())
        },
        "requests": counts,
    }
    attempted = wl.WARMUP_EPOCHS + n_epochs + counts["sent"] + driver.deltas
    failed = counts["failed"] + driver.deltas_failed
    return metrics, info, attempted, failed
