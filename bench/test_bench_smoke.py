"""Smoke test of ``python -m bench``: every workload at ``--scale tiny``,
untraced and traced, into a temporary directory. Checks names, units and
the benchmark's own correctness checks — never a wall-clock value."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_bench(out, *extra):
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--scale", "tiny", "--out", str(out),
         *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


def test_tiny_run_prints_every_declared_metric(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert "setup_s" in declared[0]

    stdout = run_bench(tmp_path, "--trace")
    assert "speedup_vs_relu" in stdout
    runs = json.loads((tmp_path / "results-seed0-tiny.json").read_text())["runs"]
    assert [(run["workload"], run["trace"]) for run in runs] == [
        (workload["name"], trace)
        for workload in spec["workloads"] for trace in (0, 1)
    ]
    for run in runs:
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
        units = {name: m["unit"] for name, m in run["metrics"].items()}
        assert units == declared[run["trace"]]
        assert {"nproc", "backend", "numpy", "commit", "seed", "scale"} <= set(
            run["fingerprint"]
        )
        if run["trace"]:
            assert (tmp_path / f"{run['workload']}-seed0-tiny.spans.jsonl").exists()
    cbsr = next(r for r in runs if r["workload"] == "full_cbsr" and r["trace"])
    assert cbsr["metrics"]["sparse.spmm_csr.calls_per_epoch"]["value"] == 0

    # Same seed again: the deterministic values must repeat exactly.
    for trace in ("0", "1"):
        run_bench(tmp_path, "--workload", "sampled_fresh", "--trace", trace)
        again = json.loads(
            (tmp_path / f"sampled_fresh-seed0-tiny-trace{trace}.json").read_text()
        )
        assert again["info"]["repeats_previous_run"] == "bit-equal"

    results = str(tmp_path / "results-seed0-tiny.json")
    compared = subprocess.run(
        [sys.executable, "-m", "bench", "compare", results, results],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert compared.returncode == 0, compared.stdout + compared.stderr
    assert "regressed" not in compared.stdout
