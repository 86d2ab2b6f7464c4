"""Each of these things lives in exactly one place.

The "one body per path" refactors (CHANGES.md PRs 12, 13, 15, 17-21) are only
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


def test_the_float_width_is_named_in_one_place():
    # gpusim prices fp32 by formula and experiments/ reports; neither runs
    # under the executed program's width.
    def executed(needle):
        return {
            path: count for path, count in _occurrences(needle).items()
            if not path.startswith(("gpusim/", "experiments/"))
        }

    for spelling in ("np.float64", "np.float32"):
        found = executed(spelling)
        assert set(found) <= {"sparse/ops.py"}, (spelling, found)
    assert executed("np.float32") == {"sparse/ops.py": 1}
    assert executed("np.float64") == {}
    # The other width is named once more, as what it is: the width of
    # checkpoint files written before the width was recorded.
    assert executed('"float64"') == {"training/checkpoint.py": 1}
    # Read where a float is born or crosses in from outside ...
    readers = executed("FLOAT_DTYPE")
    assert len(readers) <= 12, readers
    assert readers["training/engine.py"] == 1  # the one feature cast
    # ... and nowhere downstream: these follow the arrays they are handed.
    for follower in ("tensor/functional.py", "tensor/optim.py",
                     "tensor/workspace.py", "models", "serving",
                     "training/parallel.py", "graphs/mutation.py",
                     "graphs/batching.py"):
        assert _occurrences("FLOAT_DTYPE", follower) == {}, follower


def test_the_modelled_and_the_executed_program_agree_in_width():
    import numpy as np

    from repro.gpusim.memory import FLOAT_BYTES
    from repro.sparse import ops

    assert np.dtype(ops.FLOAT_DTYPE).itemsize == FLOAT_BYTES


def test_the_compiled_tier_lives_in_one_module():
    from repro.sparse import native

    assert _occurrences("import ctypes") == {"sparse/native.py": 1}
    assert _occurrences("from ctypes") == {}
    # Bit-identity with the reference loops, and an object that runs on
    # any CPU sharing the cache directory.
    assert "-ffp-contract=off" in native.FLAGS
    assert not {"-ffast-math", "-march=native"} & set(native.FLAGS)
    # One place decides the CBSR index width; the scratch csr_matmat route
    # and scipy's private csr_matvecs SpMM the loops replaced stay gone.
    assert _occurrences("def index_dtype_for") == {"sparse/ops.py": 1}
    for gone in ("csr_matmat", "csr_todense", '"spgemm.', "_sparsetools",
                 "csr_matvecs"):
        assert _occurrences(gone) == {}
    # One core count: the loops' threads and the process pools' guard.
    assert _occurrences("sched_getaffinity") == {"sparse/native.py": 1}
    assert _occurrences("def available_cores") == {"sparse/native.py": 1}


def test_the_executed_program_does_not_import_the_simulator():
    assert _occurrences("gpusim", "tensor") == {}


def test_deleted_knobs_and_aliases_stay_deleted():
    for gone in ("_SSPMM_DENSE_LIMIT", "cache_limit.setter", "kill_executor",
                 "hang_executor", "corrupt_result", "_removed_edge_mask",
                 "_sorted_member_mask", "_spmm_bincount"):
        assert _occurrences(gone) == {}
