"""``python -m bench``: the one benchmark command (see ``bench/README.md``).

* ``python -m bench [--seed S] [--trace] [--runs N] [--out DIR]`` runs every
  workload, each pass in a fresh process, and prints every metric by name;
* ``python -m bench --workload W --seed S --seconds N --trace 0|1`` runs one
  pass in this process and prints one JSON object as its last line;
* ``python -m bench compare A.json B.json`` judges B against A.
"""

import os
import sys
import time

_STARTED = time.perf_counter()
# Before numpy is imported: one thread generates all load. A second BLAS
# thread buys nothing at these matrix sizes and is one more source of
# run-to-run variation on a two-core host.
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"bench: no program to measure: {ROOT / 'src' / 'repro'} is missing")
sys.path.insert(0, str(ROOT / "src"))

from bench import report  # noqa: E402


def run_pass(args, spec) -> int:
    """One workload, one pass, in this process."""
    from bench import workloads as wl
    from bench.phases import CheckFailed
    from bench.run import measure_end_to_end, measure_layers

    workload = wl.sized(wl.WORKLOADS[args.workload], args.seconds, args.scale)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-{args.scale}"
    declared = spec["per_layer" if args.trace else "end_to_end"]
    try:
        if args.trace:
            values, info, attempted, failed = measure_layers(
                workload, args.seed, out / f"{stem}.spans.jsonl"
            )
        else:
            values, info, attempted, failed = measure_end_to_end(
                workload, args.seed, _STARTED
            )
        if set(values) != {metric["name"] for metric in declared}:
            raise CheckFailed("measured metrics differ from BENCHMARK.json")
        correct = True
    except CheckFailed as error:
        print(f"bench: check failed on {workload.name}: {error}", file=sys.stderr)
        values, info, attempted, failed, correct = {}, {"error": str(error)}, 1, 0, False

    record = {
        "workload": workload.name,
        "trace": int(args.trace),
        "fingerprint": report.fingerprint(args.seed, args.seconds, args.scale),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric["name"]: {"value": float(values[metric["name"]]),
                             "unit": metric["unit"]}
            for metric in declared if metric["name"] in values
        },
        "info": info,
    }
    path = out / f"{stem}-trace{int(args.trace)}.json"
    previous = json.loads(path.read_text()) if path.exists() else None
    if correct:
        exact = report.EXACT_PER_LAYER if args.trace else report.EXACT_END_TO_END
        if previous is not None and not previous["correct"]:
            previous = None
        info["repeats_previous_run"] = report.exact_repeat(record, previous, exact)
        if args.trace and info["repeats_previous_run"] == "differs":
            print("bench: counts differ from the previous run of this seed",
                  file=sys.stderr)
            record["correct"] = False
    path.write_text(json.dumps(record, indent=1))
    report.print_record(record)
    print(json.dumps({
        key: record[key] for key in ("correct", "attempted", "failed", "metrics")
    }))
    return 0 if record["correct"] else 1


def run_all(args, spec) -> int:
    """Every workload, each pass in a fresh process; one results file."""
    out = Path(args.out)
    runs, status = [], 0
    for workload in spec["workloads"]:
        passes = [(args.seed + index, 0) for index in range(args.runs)]
        if args.trace:
            passes.append((args.seed, 1))
        for seed, trace in passes:
            command = [
                sys.executable, "-m", "bench", "--workload", workload["name"],
                "--seed", str(seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--scale", args.scale, "--out", str(out),
            ]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            sys.stderr.write(done.stderr)
            status |= done.returncode
            if lines:
                stem = f"{workload['name']}-seed{seed}-{args.scale}-trace{trace}"
                runs.append(json.loads((out / f"{stem}.json").read_text()))
    relu, cbsr = (
        [run["metrics"]["epoch_ms_p50"]["value"] for run in runs
         if run["workload"] == name and not run["trace"] and run["correct"]]
        for name in ("full_relu", "full_cbsr")
    )
    if relu and cbsr:
        relu, cbsr = statistics.median(relu), statistics.median(cbsr)
        print(f"speedup_vs_relu = epoch_ms_p50[full_relu] / epoch_ms_p50[full_cbsr]"
              f" = {relu:.1f} / {cbsr:.1f} = {relu / cbsr:.3f}  (not gated)")
    results = out / f"results-seed{args.seed}-{args.scale}.json"
    results.write_text(json.dumps({"runs": runs}, indent=1))
    print(f"results: {results}")
    return status


def main() -> int:
    spec = report.load_spec()
    if sys.argv[1:2] == ["compare"]:
        if len(sys.argv) != 4:
            sys.exit("usage: python -m bench compare A.json B.json")
        return 1 if report.compare(sys.argv[2], sys.argv[3]) else 0
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload, on consecutive seeds")
    parser.add_argument("--out", default=str(ROOT / "bench" / "out"))
    args = parser.parse_args()
    if args.workload:
        return run_pass(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
