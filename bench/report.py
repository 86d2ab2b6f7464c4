"""Result records, the printed tables, and ``python -m bench compare``."""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
#: Deterministic for a (commit, seed, seconds, scale, backend): compared
#: exactly with the previous run of the same configuration.
EXACT_END_TO_END = ("final_loss",)
EXACT_PER_LAYER = (
    "graphs.batch_nodes_mean", "graphs.batch_edges_mean",
    "sparse.spmm_csr.calls_per_epoch", "sparse.agg_flops_per_epoch",
    "sparse.agg_bytes_per_epoch", "training.steps_per_epoch",
)


def load_spec() -> dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def fingerprint(seed: int, seconds: float, scale: str) -> dict:
    """Where and how a number was measured; stored next to every result."""
    import numpy
    from repro.sparse.ops import get_backend

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    commit = "unknown"
    # Only in a git checkout: elsewhere git would search the parent
    # directories and report some other repository's commit.
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "backend": get_backend().name,
        "blas_threads": os.environ.get("OMP_NUM_THREADS"),
        "commit": commit,
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
    }


def exact_repeat(record: dict, previous: dict, names) -> str:
    """Whether the deterministic values repeat the previous run's exactly."""
    keys = ("commit", "seed", "seconds", "scale", "backend", "numpy", "scipy")
    if previous is None or any(
        previous["fingerprint"][key] != record["fingerprint"][key]
        for key in keys
    ):
        return "no previous run"
    if previous["info"].get("calls_per_epoch") != record["info"].get(
        "calls_per_epoch"
    ):
        return "differs"
    same = all(
        previous["metrics"][name]["value"] == record["metrics"][name]["value"]
        for name in names
    )
    return "bit-equal" if same else "differs"


def print_record(record: dict) -> None:
    info = record["info"]
    print(f"== {record['workload']}  seed {record['fingerprint']['seed']}  "
          f"trace {record['trace']}  "
          f"{'correct' if record['correct'] else 'INCORRECT'}  "
          f"attempted {record['attempted']}  failed {record['failed']}")
    for name, metric in record["metrics"].items():
        print(f"  {name:36s} {metric['value']:>14.6g} {metric['unit']}")
    for key, value in info.items():
        print(f"  . {key}: {value}")


def quartile_spread(values) -> float:
    """Distance between first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / abs(statistics.median(values))


def gather(path) -> dict:
    """``{(workload, metric): [values]}`` of a results file's untraced runs."""
    with open(path) as handle:
        runs = json.load(handle)["runs"]
    values = {}
    for run in runs:
        if run["trace"]:
            continue
        for name, metric in run["metrics"].items():
            values.setdefault((run["workload"], name), []).append(metric["value"])
    return values


def compare(path_a, path_b) -> int:
    """One row per (workload, end-to-end metric): both medians, the ratio
    B / A, and the verdict under the metric's direction and bound. Returns
    the number of regressed rows."""
    spec = {metric["name"]: metric for metric in load_spec()["end_to_end"]}
    a, b = gather(path_a), gather(path_b)
    regressed = 0
    print(f"A = {path_a}\nB = {path_b}")
    print(f"{'workload':14s} {'metric':20s} {'A median':>12s} {'B median':>12s} "
          f"{'B/A':>7s} {'spread':>7s} {'bound':>6s}  verdict")
    for (workload, name), values_a in a.items():
        values_b = b.get((workload, name))
        if values_b is None or name not in spec:
            continue
        lower_is_better = spec[name]["better"] == "lower"
        bound = spec[name]["bound"]
        median_a = statistics.median(values_a)
        median_b = statistics.median(values_b)
        change = (median_b - median_a) / abs(median_a)
        worse_by = change if lower_is_better else -change
        spread = max(quartile_spread(values_a), quartile_spread(values_b))
        all_better = (
            max(values_b) < min(values_a) if lower_is_better
            else min(values_b) > max(values_a)
        )
        if worse_by > bound:
            verdict = "regressed"
            regressed += 1
        elif spread > bound and not all_better:
            verdict = "unresolved"
        else:
            verdict = "ok"
        print(f"{workload:14s} {name:20s} {median_a:12.5g} {median_b:12.5g} "
              f"{median_b / median_a:7.3f} {spread:7.3f} {bound:6.3f}  {verdict}"
              f"  [{spec[name]['unit']}, base A, n={len(values_a)}/{len(values_b)}]")
    return regressed
