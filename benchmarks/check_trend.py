"""Benchmark trend check: fail CI on regressions vs the committed baselines.

Compares every ``BENCH_*.json`` a perf-smoke run produced (default:
``benchmarks/results/smoke/``) against the committed full-protocol
baselines (``benchmarks/results/``). Payloads are nested dictionaries;
matching numeric leaves are compared by key semantics:

* dimensionless quality ratios — keys named/suffixed ``speedup``,
  ``scaling``, ``efficiency`` — are *higher is better* and fail when the
  current value drops more than ``--tolerance`` (default 20%) below the
  baseline. ``speedup`` / ``scaling`` baselines already inside the noise
  band (below ``--noise-floor``, default 1.15 — e.g. a path a benchmark
  only asserts "does not regress" on) are reported but not gated: a
  1-seed smoke run on a different host class can legitimately wobble a
  ~1.0× ratio past any fixed tolerance, and those paths keep their own
  backend-aware floors inside the benchmarks themselves. An
  ``efficiency`` is at most 1.0 by definition, so the floor would exempt
  every one of them: they are always gated. ``--gate-all`` restores
  strict gating for same-host trend tracking;
* boolean correctness flags — ``identical``, ``finite``, ``r1_identical``
  — fail whenever the baseline held and the current run does not;
* absolute timings (``*_ms``, ``*_s``) depend on the host, so they are
  reported but only gated with ``--include-times`` (for same-host trend
  tracking);
* keys present only on one side are reported, never fatal — protocols
  grow and benchmarks may be backend-specific. A *gated-kind* key the
  current run emits but the baseline lacks (the first run of a brand-new
  benchmark) is announced as ``new benchmark, baseline bootstrapped`` so
  the gap is visible instead of silently passing until the baseline is
  committed. One the baseline holds but the current run no longer emits
  (a benchmark or backend that was removed) is announced as ``gone`` so
  the stale baseline entry is seen and deleted.

Usage (the CI perf-smoke job)::

    python benchmarks/check_trend.py \
        --baseline benchmarks/results --current benchmarks/results/smoke
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path
from typing import Iterator, List, Tuple

RATIO_SUFFIXES = ("speedup", "scaling", "efficiency")
#: The ratios the noise floor exempts; an efficiency (<= 1.0) never is.
FLOORED_SUFFIXES = ("speedup", "scaling")
BOOL_KEYS = ("identical", "finite", "r1_identical", "deadline_met",
             "zero_stale")
TIME_SUFFIXES = ("_ms", "_s")


def _leaves(payload, prefix="") -> Iterator[Tuple[str, object]]:
    if isinstance(payload, dict):
        for key, value in sorted(payload.items()):
            yield from _leaves(value, f"{prefix}{key}.")
    else:
        yield prefix.rstrip("."), payload


def _flat(payload) -> dict:
    flat = {}
    for path, value in _leaves(payload):
        flat[path] = value
    return flat


def _named(leaf: str, suffixes) -> bool:
    return any(leaf == s or leaf.endswith("_" + s) for s in suffixes)


def _kind(path: str) -> str:
    leaf = path.rsplit(".", 1)[-1]
    if leaf in BOOL_KEYS:
        return "bool"
    if _named(leaf, RATIO_SUFFIXES):
        return "ratio"
    if any(leaf.endswith(s) for s in TIME_SUFFIXES):
        return "time"
    return "other"


def compare_file(baseline: dict, current: dict, tolerance: float,
                 include_times: bool, noise_floor: float = 0.0):
    """Yield ``(path, kind, base, cur, ok)`` for every comparable leaf.

    ``speedup`` / ``scaling`` leaves whose baseline sits below
    ``noise_floor`` are yielded with kind ``"ratio-info"`` and always
    ``ok`` — visible in the report, never fatal; ``efficiency`` leaves are
    gated whatever their baseline. Gated-kind leaves the current run
    emits but the baseline lacks are yielded with kind ``"new"``,
    ``base=None`` and always ``ok`` — the caller announces the bootstrap
    instead of failing (the baseline does not exist yet) or silently
    passing (the gap would otherwise be invisible until someone commits
    the baseline). Gated-kind leaves the baseline holds but the current
    run lacks are yielded with kind ``"gone"``, ``cur=None`` and always
    ``ok``: nothing gates them any more, and the report says so.
    """
    base_flat, cur_flat = _flat(baseline), _flat(current)

    def gated(path):
        kind = _kind(path)
        return kind in ("bool", "ratio") or (kind == "time" and include_times)

    for path in sorted(set(cur_flat) - set(base_flat)):
        if gated(path):
            yield path, "new", None, cur_flat[path], True
    for path in sorted(set(base_flat) - set(cur_flat)):
        if gated(path):
            yield path, "gone", base_flat[path], None, True
    for path in sorted(set(base_flat) & set(cur_flat)):
        base, cur = base_flat[path], cur_flat[path]
        kind = _kind(path)
        if kind == "bool":
            yield path, kind, base, cur, not (bool(base) and not bool(cur))
        elif kind == "ratio" and isinstance(base, (int, float)) and isinstance(
            cur, (int, float)
        ):
            if base < noise_floor and _named(path.rsplit(".", 1)[-1],
                                             FLOORED_SUFFIXES):
                yield path, "ratio-info", base, cur, True
            else:
                floor = base * (1.0 - tolerance)
                yield path, kind, base, cur, cur >= floor
        elif kind == "time" and include_times and isinstance(
            base, (int, float)
        ) and isinstance(cur, (int, float)):
            ceiling = base * (1.0 + tolerance)
            yield path, kind, base, cur, cur <= ceiling


def _write_step_summary(rows: List[Tuple], compared: int, failures: int,
                        tolerance: float) -> None:
    """Append a markdown gate table to ``$GITHUB_STEP_SUMMARY`` when set.

    GitHub renders the file after the job, so the per-key verdicts
    (pass / FAIL / bootstrapped) are readable from the run page without
    digging through the log. Appending (not truncating) keeps earlier
    steps' sections intact; outside CI the variable is unset and this is
    a no-op.
    """
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not summary_path:
        return
    verdict = "failed" if failures else "passed"
    lines = [
        "## Benchmark trend gate",
        "",
        f"**{verdict}** — {compared} leaves compared, {failures} "
        f"regression(s), tolerance {tolerance:.0%}",
        "",
        "| benchmark | key | kind | baseline | current | status |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    for name, path, kind, base, cur, ok in rows:
        if kind == "new":
            status = "bootstrapped"
        elif kind == "gone":
            status = "gone"
        elif ok:
            status = "pass"
        else:
            status = "**FAIL**"
        base_text = "—" if base is None else str(base)
        cur_text = "—" if cur is None else str(cur)
        lines.append(
            f"| {name} | {path} | {kind} | {base_text} | {cur_text} "
            f"| {status} |"
        )
    if not rows:
        lines.append("| — | — | — | — | — | no comparable leaves |")
    with open(summary_path, "a", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Gate perf-smoke BENCH_*.json against committed baselines"
    )
    parser.add_argument("--baseline", type=Path,
                        default=Path("benchmarks/results"))
    parser.add_argument("--current", type=Path,
                        default=Path("benchmarks/results/smoke"))
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional regression (default 0.20)")
    parser.add_argument("--include-times", action="store_true",
                        help="also gate absolute *_ms/*_s values (only "
                             "meaningful when baseline and current ran on "
                             "the same host class)")
    parser.add_argument("--noise-floor", type=float, default=1.15,
                        help="speedups and scalings whose baseline is "
                             "below this are reported but not gated "
                             "(default 1.15); efficiencies are always gated")
    parser.add_argument("--gate-all", action="store_true",
                        help="gate every ratio regardless of the noise "
                             "floor (same-host trend tracking)")
    args = parser.parse_args(argv)

    current_files = sorted(args.current.glob("BENCH_*.json"))
    if not current_files:
        print(f"no BENCH_*.json under {args.current} — nothing to check")
        return 1

    failures = 0
    compared = 0
    summary_rows: List[Tuple] = []
    for current_path in current_files:
        baseline_path = args.baseline / current_path.name
        if not baseline_path.exists():
            print(f"[new]  {current_path.name}: new benchmark, baseline "
                  "bootstrapped (no committed baseline yet — commit one "
                  "from a full-protocol run to start gating it)")
            summary_rows.append(
                (current_path.name, "*", "new", None, None, True)
            )
            continue
        try:
            baseline = json.loads(baseline_path.read_text())
        except ValueError as exc:
            print(f"[FAIL] {baseline_path}: corrupt or partially-written "
                  f"JSON ({exc}); re-generate the committed baseline")
            failures += 1
            summary_rows.append(
                (current_path.name, "*", "corrupt-baseline", None, None,
                 False)
            )
            continue
        try:
            current = json.loads(current_path.read_text())
        except ValueError as exc:
            print(f"[FAIL] {current_path}: corrupt or partially-written "
                  f"JSON ({exc}); the benchmark run that wrote it was "
                  f"interrupted — re-run it")
            failures += 1
            summary_rows.append(
                (current_path.name, "*", "corrupt-current", None, None,
                 False)
            )
            continue
        noise_floor = 0.0 if args.gate_all else args.noise_floor
        for path, kind, base, cur, ok in compare_file(
            baseline, current, args.tolerance, args.include_times,
            noise_floor,
        ):
            summary_rows.append(
                (current_path.name, path, kind, base, cur, ok)
            )
            if kind == "new":
                print(f"[new]  {current_path.name}:{path} "
                      f"current={cur} — new benchmark, baseline "
                      "bootstrapped")
                continue
            if kind == "gone":
                print(f"[gone] {current_path.name}:{path} "
                      f"baseline={base} — no longer emitted; delete it "
                      "from the committed baseline")
                continue
            compared += 1
            status = "ok  " if ok else "FAIL"
            if not ok:
                failures += 1
            print(f"[{status}] {current_path.name}:{path} "
                  f"({kind}) baseline={base} current={cur}")

    print(f"\n{compared} leaves compared, {failures} regression(s), "
          f"tolerance {args.tolerance:.0%}")
    if compared == 0:
        print("warning: no overlapping gated leaves found")
    _write_step_summary(summary_rows, compared, failures, args.tolerance)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
