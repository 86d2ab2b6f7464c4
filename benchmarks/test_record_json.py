"""The ``record_json`` fixture: what a session's JSON artifact holds."""

import json

import pytest


@pytest.fixture
def results_dir(tmp_path):
    return tmp_path


def test_a_sessions_first_write_replaces_the_file(results_dir, record_json):
    # A block a deleted test wrote in an earlier run must not live on.
    path = results_dir / "BENCH_demo.json"
    path.write_text(json.dumps({"deleted_test": {"ratio": 1.0}}))
    record_json("BENCH_demo", "first", {"ratio": 2.0})
    assert json.loads(path.read_text()) == {"first": {"ratio": 2.0}}
    # Later writes in the same session merge.
    record_json("BENCH_demo", "second", {"ratio": 3.0})
    assert json.loads(path.read_text()) == {
        "first": {"ratio": 2.0}, "second": {"ratio": 3.0},
    }
