"""Each of these things lives in exactly one place.

The "one body per path" refactors (CHANGES.md PRs 12, 13, 15, 17, 18, 19, 20) are only
worth their diff while nobody grows the second copy back. These are the
grep checks those PRs quoted in prose, as assertions over ``src/repro``.
"""

from pathlib import Path

import repro

SRC = Path(repro.__file__).parent


def _occurrences(needle, under=""):
    """``{relative path: count}`` of ``needle`` in the sources under
    ``src/repro/<under>`` (a directory or one file)."""
    root = SRC / under
    files = [root] if root.is_file() else sorted(root.rglob("*.py"))
    counts = {
        str(path.relative_to(SRC)): path.read_text().count(needle)
        for path in files
    }
    return {path: count for path, count in counts.items() if count}


def test_only_the_supervised_pool_spawns_processes():
    for needle in (".Process(", "get_context("):
        assert set(_occurrences(needle)) == {"training/supervision.py"}


def test_one_place_knows_whether_a_workspace_exists():
    assert _occurrences("workspace is None", "tensor") == {
        "tensor/functional.py": 1
    }


def test_one_training_step():
    assert _occurrences("loss.backward()", "training") == {
        "training/engine.py": 1
    }


def test_a_flow_is_enumerated_in_one_place():
    dataflow = "training/dataflow.py"
    # DataFlow's loop over plan(), and PrefetchFlow's over a builder.
    assert _occurrences("def batches", dataflow) == {dataflow: 2}
    for gone in ("Optional[List[BatchPlan]]", "import queue",
                 "import threading", "_PrefetchJob", "_offer",
                 "_POLL_SECONDS"):
        assert _occurrences(gone, dataflow) == {}


def test_replica_gradients_are_selected_in_one_place():
    assert _occurrences("preselected") == {}
    assert _occurrences("topk_mask(", "training") == {"training/engine.py": 1}


def test_only_the_graph_module_knows_what_a_graph_holds():
    # The node columns (val_mask stands for the list: features.py assigns
    # the splits, the engine scores on them) and the adjacency cache
    # (mutation.py rebuilds it in place).
    assert set(_occurrences("val_mask")) == {
        "graphs/graph.py", "graphs/features.py", "training/engine.py"
    }
    assert set(_occurrences("_adj_cache")) == {
        "graphs/graph.py", "graphs/mutation.py"
    }
    assert _occurrences("_ARRAY_FIELDS") == {}
    # The edge index: graph.py builds it, mutation.py patches it (new
    # arrays under the new generation, never a drop-and-rebuild).
    assert set(_occurrences("_edge_index")) == {
        "graphs/graph.py", "graphs/mutation.py"
    }
    assert _occurrences("_edge_index.clear()", "graphs/mutation.py") == {}


def test_a_float_mask_is_written_in_one_place():
    # ops.mask_into is the compare -> cast pair; the fused and the plain
    # ReLU, dropout and the float top-k selection call it, nothing else
    # writes a 0/1 float mask (np.heaviside measured 9-13x slower).
    assert _occurrences("heaviside") == {}
    assert _occurrences("def mask_into(") == {"sparse/ops.py": 1}
    assert _occurrences("mask_into(np.") == {
        "tensor/functional.py": 3, "sparse/ops.py": 1
    }
    assert _occurrences("np.copyto(out, flags)") == {"sparse/ops.py": 1}
    assert _occurrences('".diff"') == {}


def test_deleted_knobs_and_aliases_stay_deleted():
    for gone in ("_SSPMM_DENSE_LIMIT", "cache_limit.setter", "kill_executor",
                 "hang_executor", "corrupt_result", "_removed_edge_mask",
                 "_sorted_member_mask"):
        assert _occurrences(gone) == {}
