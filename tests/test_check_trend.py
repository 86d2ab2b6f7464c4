"""Tests for the benchmark trend checker gating the perf-smoke CI job."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "check_trend",
    Path(__file__).parent.parent / "benchmarks" / "check_trend.py",
)
check_trend = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_trend)


def _verdicts(baseline, current, tolerance=0.2, include_times=False):
    return {
        path: ok
        for path, _, _, _, ok in check_trend.compare_file(
            baseline, current, tolerance, include_times
        )
    }


class TestCompareFile:
    def test_speedup_regression_beyond_tolerance_fails(self):
        verdicts = _verdicts({"a": {"speedup": 2.0}}, {"a": {"speedup": 1.5}})
        assert verdicts == {"a.speedup": False}

    def test_speedup_within_tolerance_passes(self):
        verdicts = _verdicts({"a": {"speedup": 2.0}}, {"a": {"speedup": 1.7}})
        assert verdicts == {"a.speedup": True}

    def test_improvement_always_passes(self):
        verdicts = _verdicts({"a": {"speedup": 2.0}}, {"a": {"speedup": 9.0}})
        assert verdicts == {"a.speedup": True}

    def test_scaling_and_efficiency_are_gated_ratios(self):
        baseline = {"predicted_scaling": 1.0, "load_efficiency": 0.99}
        current = {"predicted_scaling": 0.5, "load_efficiency": 0.99}
        verdicts = _verdicts(baseline, current)
        assert verdicts["predicted_scaling"] is False
        assert verdicts["load_efficiency"] is True

    def test_boolean_flags_must_not_flip_false(self):
        verdicts = _verdicts(
            {"x": {"identical": True, "finite": True}},
            {"x": {"identical": False, "finite": True}},
        )
        assert verdicts == {"x.identical": False, "x.finite": True}

    def test_zero_stale_is_a_gated_boolean(self):
        # The mutation benchmark's staleness claim (every served logit
        # matches its admission-time generation) gates like the bitwise
        # identity flags.
        verdicts = _verdicts(
            {"mix": {"zero_stale": True}},
            {"mix": {"zero_stale": False}},
        )
        assert verdicts == {"mix.zero_stale": False}

    def test_deadline_met_is_a_gated_boolean(self):
        # The serving benchmark's p99-under-deadline claim gates like
        # the bitwise-identity booleans: flipping False is a regression.
        verdicts = _verdicts(
            {"serve": {"deadline_met": True}},
            {"serve": {"deadline_met": False}},
        )
        assert verdicts == {"serve.deadline_met": False}

    def test_false_baseline_boolean_is_not_gating(self):
        verdicts = _verdicts({"x": {"identical": False}},
                             {"x": {"identical": True}})
        assert verdicts == {"x.identical": True}

    def test_times_skipped_unless_requested(self):
        baseline = {"epoch_ms": 10.0}
        current = {"epoch_ms": 100.0}
        assert _verdicts(baseline, current) == {}
        verdicts = _verdicts(baseline, current, include_times=True)
        assert verdicts == {"epoch_ms": False}

    def test_baseline_only_gated_key_is_reported_gone_not_failed(self):
        """A gated-kind key the current run no longer emits (its benchmark
        or backend was removed) surfaces as a non-fatal 'gone' row, so the
        stale baseline entry is seen instead of silently never compared."""
        rows = list(check_trend.compare_file(
            {"only_base": {"speedup": 2.0, "identical": True}}, {"other": 1},
            0.2, False,
        ))
        assert rows == [
            ("only_base.identical", "gone", True, None, True),
            ("only_base.speedup", "gone", 2.0, None, True),
        ]

    def test_baseline_only_ungated_keys_stay_silent(self):
        rows = list(check_trend.compare_file(
            {"req_count": 100, "epoch_ms": 3.0}, {}, 0.2, False,
        ))
        assert rows == []
        rows = list(check_trend.compare_file(
            {"epoch_ms": 3.0}, {}, 0.2, True,
        ))
        assert rows == [("epoch_ms", "gone", 3.0, None, True)]

    def test_current_only_gated_key_is_announced_not_failed(self):
        """A gated-kind key the baseline lacks (first run of a brand-new
        benchmark) must surface as a non-fatal 'new' row — neither a
        failure (there is nothing to compare against) nor silence (the
        un-gated gap would be invisible until a baseline is committed)."""
        rows = list(check_trend.compare_file(
            {"other": 1}, {"only_cur": {"speedup": 1.5, "identical": True}},
            0.2, False,
        ))
        assert rows == [
            ("only_cur.identical", "new", None, True, True),
            ("only_cur.speedup", "new", None, 1.5, True),
        ]

    def test_current_only_ungated_keys_stay_silent(self):
        # Non-gated kinds (plain counters, times without --include-times)
        # are protocol growth, not missing baselines.
        rows = list(check_trend.compare_file(
            {}, {"req_count": 100, "epoch_ms": 3.0}, 0.2, False,
        ))
        assert rows == []
        rows = list(check_trend.compare_file(
            {}, {"epoch_ms": 3.0}, 0.2, True,
        ))
        assert rows == [("epoch_ms", "new", None, 3.0, True)]

    def test_nested_backend_sections_compare_leaf_by_leaf(self):
        baseline = {"prefetch[scipy]": {"speedup": 1.0},
                    "blocked[vectorized]": {"speedup": 4.0}}
        current = {"prefetch[scipy]": {"speedup": 1.02}}
        verdicts = _verdicts(baseline, current)
        assert verdicts == {"prefetch[scipy].speedup": True,
                            "blocked[vectorized].speedup": True}  # gone

    def test_committed_baselines_carry_no_ungated_parity_leaf(self):
        """No kind gates parity: a committed ``*_parity`` leaf would read
        as ``other`` and go unchecked while looking guarded."""
        assert check_trend._kind("accuracy_parity") == "other"
        results = Path(__file__).parent.parent / "benchmarks" / "results"
        baselines = sorted(results.glob("BENCH_*.json"))
        assert baselines
        for path in baselines:
            for leaf in check_trend._flat(json.loads(path.read_text())):
                assert not leaf.endswith("parity"), (path.name, leaf)

    def test_noise_floor_reports_but_never_gates_small_ratios(self):
        """A ~1.0x baseline (a path only asserted 'does not regress') must
        not flake CI when a smoke run on another host wobbles below the
        tolerance; it keeps its own in-benchmark floor instead."""
        rows = list(check_trend.compare_file(
            {"speedup": 1.05}, {"speedup": 0.5}, 0.2, False,
            noise_floor=1.15,
        ))
        assert rows == [("speedup", "ratio-info", 1.05, 0.5, True)]
        # Above the floor, gating is strict again.
        rows = list(check_trend.compare_file(
            {"speedup": 1.5}, {"speedup": 0.5}, 0.2, False,
            noise_floor=1.15,
        ))
        assert rows == [("speedup", "ratio", 1.5, 0.5, False)]

    def test_noise_floor_never_exempts_an_efficiency(self):
        """An efficiency is at most 1.0, so a floor above 1.0 would leave
        every one ungated: a 0.99 -> 0.5 drop fails at the default floor,
        while a 1.05 speedup beside it still only reads ratio-info."""
        rows = list(check_trend.compare_file(
            {"load_efficiency": 0.99, "speedup": 1.05},
            {"load_efficiency": 0.5, "speedup": 1.05}, 0.2, False,
            noise_floor=1.15,
        ))
        assert rows == [
            ("load_efficiency", "ratio", 0.99, 0.5, False),
            ("speedup", "ratio-info", 1.05, 1.05, True),
        ]


class TestMain:
    def _write(self, directory, name, payload):
        directory.mkdir(parents=True, exist_ok=True)
        (directory / name).write_text(json.dumps(payload))

    def test_exit_zero_when_clean(self, tmp_path):
        self._write(tmp_path / "base", "BENCH_x.json", {"speedup": 2.0})
        self._write(tmp_path / "cur", "BENCH_x.json", {"speedup": 2.1})
        assert check_trend.main([
            "--baseline", str(tmp_path / "base"),
            "--current", str(tmp_path / "cur"),
        ]) == 0

    def test_exit_one_on_regression(self, tmp_path):
        self._write(tmp_path / "base", "BENCH_x.json", {"speedup": 2.0})
        self._write(tmp_path / "cur", "BENCH_x.json", {"speedup": 1.0})
        assert check_trend.main([
            "--baseline", str(tmp_path / "base"),
            "--current", str(tmp_path / "cur"),
        ]) == 1

    def test_missing_current_results_fail(self, tmp_path):
        (tmp_path / "cur").mkdir()
        assert check_trend.main([
            "--baseline", str(tmp_path),
            "--current", str(tmp_path / "cur"),
        ]) == 1

    def test_new_benchmark_without_baseline_passes(self, tmp_path, capsys):
        self._write(tmp_path / "cur", "BENCH_new.json", {"speedup": 1.0})
        (tmp_path / "base").mkdir()
        assert check_trend.main([
            "--baseline", str(tmp_path / "base"),
            "--current", str(tmp_path / "cur"),
        ]) == 0
        out = capsys.readouterr().out
        assert "new benchmark, baseline bootstrapped" in out

    def test_new_gated_key_in_existing_benchmark_is_announced(
        self, tmp_path, capsys
    ):
        self._write(tmp_path / "base", "BENCH_x.json", {"speedup": 2.0})
        self._write(tmp_path / "cur", "BENCH_x.json",
                    {"speedup": 2.1, "serve": {"identical": True}})
        assert check_trend.main([
            "--baseline", str(tmp_path / "base"),
            "--current", str(tmp_path / "cur"),
        ]) == 0
        out = capsys.readouterr().out
        assert "serve.identical" in out
        assert "new benchmark, baseline bootstrapped" in out

    def test_baseline_leaf_the_run_no_longer_emits_is_reported(
        self, tmp_path, capsys, monkeypatch
    ):
        self._write(tmp_path / "base", "BENCH_x.json",
                    {"replicas[gone]": {"replica_scaling": 0.7},
                     "replicas[kept]": {"replica_scaling": 0.75}})
        self._write(tmp_path / "cur", "BENCH_x.json",
                    {"replicas[kept]": {"replica_scaling": 0.8}})
        summary = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        assert check_trend.main([
            "--baseline", str(tmp_path / "base"),
            "--current", str(tmp_path / "cur"),
        ]) == 0
        out = capsys.readouterr().out
        assert "[gone] BENCH_x.json:replicas[gone].replica_scaling" in out
        assert "1 leaves compared, 0 regression(s)" in out
        assert ("| BENCH_x.json | replicas[gone].replica_scaling | gone "
                "| 0.7 | — | gone |") in summary.read_text()

    def test_tolerance_flag_widens_the_floor(self, tmp_path):
        self._write(tmp_path / "base", "BENCH_x.json", {"speedup": 2.0})
        self._write(tmp_path / "cur", "BENCH_x.json", {"speedup": 1.5})
        args = ["--baseline", str(tmp_path / "base"),
                "--current", str(tmp_path / "cur")]
        assert check_trend.main(args) == 1
        assert check_trend.main(args + ["--tolerance", "0.30"]) == 0

    def test_corrupt_current_json_fails_with_clear_message(
        self, tmp_path, capsys
    ):
        self._write(tmp_path / "base", "BENCH_x.json", {"speedup": 2.0})
        (tmp_path / "cur").mkdir()
        # A benchmark run killed mid-write leaves a torn file; the gate
        # must fail it by name instead of crashing with a traceback.
        (tmp_path / "cur" / "BENCH_x.json").write_text('{"speedup": 2.')
        assert check_trend.main([
            "--baseline", str(tmp_path / "base"),
            "--current", str(tmp_path / "cur"),
        ]) == 1
        out = capsys.readouterr().out
        assert "BENCH_x.json" in out
        assert "corrupt or partially-written" in out

    def test_corrupt_baseline_json_fails_with_clear_message(
        self, tmp_path, capsys
    ):
        (tmp_path / "base").mkdir()
        (tmp_path / "base" / "BENCH_x.json").write_text("not json at all")
        self._write(tmp_path / "cur", "BENCH_x.json", {"speedup": 2.0})
        assert check_trend.main([
            "--baseline", str(tmp_path / "base"),
            "--current", str(tmp_path / "cur"),
        ]) == 1
        out = capsys.readouterr().out
        assert "re-generate the committed baseline" in out

    def test_step_summary_written_when_env_set(
        self, tmp_path, monkeypatch
    ):
        """CI runs (GITHUB_STEP_SUMMARY set) get a markdown gate table
        with one row per compared key: pass, FAIL, and bootstrapped rows
        all present."""
        self._write(tmp_path / "base", "BENCH_x.json",
                    {"speedup": 2.0, "identical": True})
        self._write(tmp_path / "cur", "BENCH_x.json",
                    {"speedup": 1.0, "identical": True,
                     "fresh": {"zero_stale": True}})
        summary = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        assert check_trend.main([
            "--baseline", str(tmp_path / "base"),
            "--current", str(tmp_path / "cur"),
        ]) == 1
        text = summary.read_text()
        assert "## Benchmark trend gate" in text
        assert "| benchmark | key | kind | baseline | current | status |" \
            in text
        assert "**FAIL**" in text          # speedup 2.0 -> 1.0
        assert "| pass |" in text          # identical held
        assert "bootstrapped" in text      # fresh.zero_stale has no baseline
        assert "1 regression(s)" in text

    def test_step_summary_appends_instead_of_clobbering(
        self, tmp_path, monkeypatch
    ):
        self._write(tmp_path / "base", "BENCH_x.json", {"speedup": 2.0})
        self._write(tmp_path / "cur", "BENCH_x.json", {"speedup": 2.1})
        summary = tmp_path / "summary.md"
        summary.write_text("## Earlier step\n")
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        assert check_trend.main([
            "--baseline", str(tmp_path / "base"),
            "--current", str(tmp_path / "cur"),
        ]) == 0
        text = summary.read_text()
        assert text.startswith("## Earlier step\n")
        assert "## Benchmark trend gate" in text
        assert "**passed**" in text

    def test_step_summary_not_written_outside_ci(
        self, tmp_path, monkeypatch
    ):
        self._write(tmp_path / "base", "BENCH_x.json", {"speedup": 2.0})
        self._write(tmp_path / "cur", "BENCH_x.json", {"speedup": 2.1})
        monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
        assert check_trend.main([
            "--baseline", str(tmp_path / "base"),
            "--current", str(tmp_path / "cur"),
        ]) == 0
        assert not (tmp_path / "summary.md").exists()

    def test_step_summary_names_corrupt_files(self, tmp_path, monkeypatch):
        self._write(tmp_path / "base", "BENCH_x.json", {"speedup": 2.0})
        (tmp_path / "cur").mkdir()
        (tmp_path / "cur" / "BENCH_x.json").write_text('{"speedup": 2.')
        summary = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        assert check_trend.main([
            "--baseline", str(tmp_path / "base"),
            "--current", str(tmp_path / "cur"),
        ]) == 1
        text = summary.read_text()
        assert "corrupt-current" in text
        assert "BENCH_x.json" in text

    def test_gate_all_overrides_the_noise_floor(self, tmp_path):
        self._write(tmp_path / "base", "BENCH_x.json", {"speedup": 1.05})
        self._write(tmp_path / "cur", "BENCH_x.json", {"speedup": 0.5})
        args = ["--baseline", str(tmp_path / "base"),
                "--current", str(tmp_path / "cur")]
        assert check_trend.main(args) == 0  # inside the noise floor
        assert check_trend.main(args + ["--gate-all"]) == 1

    def test_default_floor_gates_an_efficiency_drop(self, tmp_path):
        self._write(tmp_path / "base", "BENCH_x.json",
                    {"r2": {"load_efficiency": 0.99}})
        self._write(tmp_path / "cur", "BENCH_x.json",
                    {"r2": {"load_efficiency": 0.5}})
        assert check_trend.main(["--baseline", str(tmp_path / "base"),
                                 "--current", str(tmp_path / "cur")]) == 1
