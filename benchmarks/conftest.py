"""Shared helpers for the benchmark harness.

Every benchmark regenerates one paper table/figure, times the regeneration
via pytest-benchmark, asserts the paper's qualitative claims, and writes the
rendered table to ``<artifact>.txt`` so the output survives pytest's
capture. Machine-readable results additionally land in JSON files via
:func:`record_json` (e.g. ``BENCH_pipeline.json``).

A run never writes to a tracked file: full-protocol output goes to the
git-ignored ``benchmarks/results/full/`` and ``REPRO_PERF_SMOKE=1`` output
to ``benchmarks/results/smoke/``, under the same file names as the
committed baselines in ``benchmarks/results/`` that ``check_trend.py``
reads. A baseline moves only when someone copies a run's file over it.
"""

import json
import os
from pathlib import Path

import pytest

from repro.experiments.common import perf_smoke_enabled

RESULTS_DIR = Path(__file__).parent / "results"


def _atomic_write_text(path: Path, text: str) -> None:
    """Write via a temporary sibling + ``os.replace`` so a benchmark run
    killed mid-write can never leave a torn artifact for the trend check
    to choke on."""
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Where this run's artifacts go (created on demand, never tracked)."""
    directory = RESULTS_DIR / ("smoke" if perf_smoke_enabled() else "full")
    directory.mkdir(parents=True, exist_ok=True)
    return directory


@pytest.fixture
def record_result(results_dir):
    """Write one artifact's rendered report to the run's results directory.

    Assert-only smoke runs (``REPRO_PERF_SMOKE=1`` — the CI perf gate)
    still print the table but do not write: a shrunken protocol's table
    is not comparable to the committed one.
    """
    smoke = perf_smoke_enabled()

    def _record(name: str, text: str) -> None:
        if not smoke:
            path = results_dir / f"{name}.txt"
            _atomic_write_text(path, text + "\n")
        # Also echo to stdout for -s runs.
        print(f"\n=== {name} ===\n{text}")

    return _record


@pytest.fixture(scope="session")
def _json_written() -> set:
    """The JSON artifacts this pytest session has already written."""
    return set()


@pytest.fixture
def record_json(results_dir, _json_written):
    """Record one benchmark's machine-readable payload in a JSON artifact.

    ``record_json(file_stem, key, payload)`` writes ``<stem>.json`` in the
    run's results directory under ``key``. A stem's first write in a
    pytest session replaces the file, so a key whose test is gone does not
    outlive it; later writes in the session merge (read–update–write), so
    independent tests compose. CI uploads the smoke directory as workflow
    artifacts and feeds it to the trend check
    (``benchmarks/check_trend.py``) against the committed baselines.
    """

    def _record(stem: str, key: str, payload) -> None:
        print(f"\n=== {stem}:{key} ===\n{json.dumps(payload, indent=2)}")
        path = results_dir / f"{stem}.json"
        merged = {}
        if path in _json_written:
            merged = json.loads(path.read_text())
        merged[key] = payload
        _atomic_write_text(
            path, json.dumps(merged, indent=2, sort_keys=True) + "\n"
        )
        _json_written.add(path)

    return _record
