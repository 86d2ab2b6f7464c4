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


def test_the_tape_alone_hands_gradients_over():
    # The adopt / copy-on-write rule lives in Tensor; ops never touch a
    # gradient buffer. optim.py plans the parameters' and functional.py's
    # _node the planned intermediates'.
    occurrences = _occurrences("_grad_buffer", "tensor")
    assert set(occurrences) == {
        "tensor/tensor.py", "tensor/optim.py", "tensor/functional.py"
    }
    assert occurrences["tensor/functional.py"] == 1


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
    # ReLU, dropout's numpy lines and the float top-k selection call it,
    # nothing else in Python writes a 0/1 float mask (np.heaviside
    # measured 9-13x slower). The compiled select and dropout write theirs
    # in C, byte-equal to these.
    assert _occurrences("heaviside") == {}
    assert _occurrences("def mask_into(") == {"sparse/ops.py": 1}
    assert _occurrences("mask_into(np.") == {
        "tensor/functional.py": 2, "sparse/ops.py": 2
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
    # One fast backend: the loops, or numpy where they do not build. No
    # library route behind them and no backend named after one.
    for gone in ("import scipy", "from scipy", "ScipyBackend"):
        assert _occurrences(gone) == {}, gone


def test_the_tensor_layer_packs_cbsr_blocks_without_a_cbsr_matrix():
    # spgemm_agg packs the selected block into planned buffers through
    # ops.cbsr_pack; the dispatch bounds sp_index where the kernels read it.
    assert _occurrences("CBSRMatrix", "tensor") == {}
    assert _occurrences("cbsr_pack(", "tensor") == {"tensor/functional.py": 1}


def test_the_executed_program_does_not_import_the_simulator():
    assert _occurrences("gpusim", "tensor") == {}


def test_one_stable_order_behind_every_csr_and_edge_index():
    import ast

    assert _occurrences("lexsort") == {}
    assert _occurrences("def stable_order(") == {"sparse/csr.py": 1}

    def argsorts(node):
        return [
            call for call in ast.walk(node) if isinstance(call, ast.Call)
            and getattr(call.func, "attr", None) == "argsort"
        ]

    inside = {}
    for module in ("sparse/csr.py", "graphs/graph.py"):
        tree = ast.parse((SRC / module).read_text())
        inside[module] = [
            call for function in ast.walk(tree)
            if getattr(function, "name", None) == "stable_order"
            for call in argsorts(function)
        ]
        assert len(argsorts(tree)) == len(inside[module]), module
    assert inside["sparse/csr.py"] and not inside["graphs/graph.py"]
    # Its three callers: coo_to_csr, CSRMatrix.transpose and
    # Graph.edge_index.
    assert _occurrences("stable_order(((") == {
        "sparse/csr.py": 2, "graphs/graph.py": 1
    }


def _functions(module):
    """``{name: source}`` of every function defined in ``module``."""
    import ast

    text = (SRC / module).read_text()
    return {
        node.name: ast.get_source_segment(text, node)
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.FunctionDef)
    }


def test_one_khop_expansion_and_one_induction():
    # The k-hop draw is counter-keyed in one vectorised expansion; a served
    # window expands and induces once, never per request.
    sampling = _functions("graphs/sampling.py")
    for name in ("khop_neighborhood", "khop_keys"):
        assert ".choice(" not in sampling[name], name
    batcher = _functions("serving/batcher.py")
    ego = batcher["build_ego_batch"]
    assert ego.count("khop_keys(") == 1 and "induced_union(" not in ego
    # Its edges come from the window op alone, one call per norm in
    # EgoBatch.adjacency; the merged graph is built only where something
    # reads EgoBatch.merged (tests' oracle, the bench's staged replay).
    assert _occurrences("induced_rows(", "serving") == {"serving/batcher.py": 1}
    assert "induced_rows(" in batcher["adjacency"]
    assert _occurrences("induced_union(", "serving") == {"serving/batcher.py": 1}
    assert "induced_union(" in batcher["merged"]
    for gone in ("batch_graphs(", "khop_neighborhood(", "coo_to_csr(",
                 "from_edges("):
        assert _occurrences(gone, "serving") == {}, gone
    # partition.py walks the in-edge index in exactly one function.
    walkers = [name for name, body in _functions("graphs/partition.py").items()
               if 'edge_index("in")' in body]
    assert walkers == ["induced_union"]


def test_a_khop_training_batch_is_cut_from_the_csr_rows():
    # The k-hop batch is the graph's structural rows under its nodes, not
    # an induced edge list sorted back into CSR; its A^T is one radix pass.
    sample = _functions("training/dataflow.py")["_sample"]
    assert sample.count("induced_rows(") == 1
    for gone in ("khop_neighborhood(", "induced_union(", "coo_to_csr("):
        assert gone not in sample, gone
    assert "coo_to_csr(" not in _functions("sparse/csr.py")["transpose"]


def test_only_the_graph_writes_its_structural_bases():
    # Graph's own methods (the batch constructor among them) and
    # apply_delta's merge; nothing else installs or drops a base.
    import ast

    mutators = {"clear", "update", "pop", "popitem", "setdefault"}

    def writes(node):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            node = node.value
        elif isinstance(node, ast.Call) and getattr(
                node.func, "attr", None) in mutators:
            node = node.func.value
        elif not (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Store)):
            return False
        return getattr(node, "attr", None) == "_structure_cache"

    writers = set()
    for path in sorted(SRC.rglob("*.py")):
        for function in ast.walk(ast.parse(path.read_text())):
            if isinstance(function, ast.FunctionDef) and any(
                    writes(node) for node in ast.walk(function)):
                writers.add((str(path.relative_to(SRC)), function.name))
    assert writers == {
        ("graphs/graph.py", "_fresh_caches"),
        ("graphs/graph.py", "structural_adjacency"),
        ("graphs/graph.py", "from_structure"),
        ("graphs/mutation.py", "apply_delta"),
    }


def test_the_normalisations_are_computed_in_one_place():
    # A graph's adjacency and a served window's scale their structural
    # bases by the same expressions: byte-identity by construction.
    graph = _functions("graphs/graph.py")
    assert [name for name, body in graph.items()
            if ".scale_rows(" in body or "np.sqrt(" in body] == [
        "scaled_adjacency"]
    assert _occurrences(".scale_rows(") == {"graphs/graph.py": 2}
    assert _occurrences(".scale_cols(") == {"graphs/graph.py": 1}
    assert _occurrences("scaled_adjacency(") == {
        "graphs/graph.py": 2, "serving/batcher.py": 1
    }


def test_deleted_knobs_and_aliases_stay_deleted():
    for gone in ("_SSPMM_DENSE_LIMIT", "cache_limit.setter", "kill_executor",
                 "hang_executor", "corrupt_result", "_removed_edge_mask",
                 "_sorted_member_mask", "_spmm_bincount", "GATConv",
                 "segment_softmax", "gather_scale", "leaky_relu",
                 "simulate_spgemm_schedule", "gnnadvisor_execute", "StepLR",
                 "CosineLR", "CSCMatrix", "transpose_view", "shard_stats",
                 "pack_stats", "spgemm_execute_edge_groups",
                 "sspmm_execute_prefetch", "maxout",
                 # "SGD" alone also names the error-feedback algorithm in a
                 # docstring; the class and its calls are "SGD(".
                 "SGD(", "kaiming_uniform", "degree_sort_reorder",
                 "community_sort_reorder", "locality_score", "maxk_backward",
                 "sspmm_read_reduction"):
        assert _occurrences(gone) == {}, gone


def test_a_window_computes_destination_rows_in_one_place():
    # layer_blocks walks the window adjacency back from the query rows;
    # nothing else builds a Block or a destination set.
    batcher = _functions("serving/batcher.py")
    assert [name for name, body in batcher.items()
            if "Block(" in body] == ["layer_blocks"]
    assert _occurrences("Block(") == {
        "models/layers.py": 1, "serving/batcher.py": 2
    }
    assert _occurrences("layer_blocks(") == {"serving/batcher.py": 2}
    # The window adjacency reaches the layers through the blocks: serving
    # never rebinds a model, so an engine sharing it keeps its graph.
    assert "bind_graph" not in batcher["forward_rows"]
    assert _occurrences("bind_graph(", "serving") == {}
    # Eval never builds A^T: the layer resolves it lazily for a backward,
    # and a window registers only the adjacencies it aggregates over.
    assert "adjacency_transpose" not in _functions(
        "models/layers.py")["bind_graph"]
    for builder in ("warm_batch", "build_adjacencies"):
        assert builder not in batcher["warm"], builder


def test_ids_are_deduped_one_way():
    # partition.sorted_unique is np.unique's bytes for an id array without
    # numpy 2's hash table; np.unique stays where its extra outputs are
    # read. gpusim prices the modelled kernels and runs none of the program.
    import ast

    calls = {}
    for path in sorted(SRC.rglob("*.py")):
        module = str(path.relative_to(SRC))
        if module.startswith("gpusim/"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(
                node.func, "attr", None
            ) == "unique":
                calls.setdefault(module, []).append(
                    sorted(keyword.arg for keyword in node.keywords)
                )
    assert calls == {
        "graphs/generators.py": [["return_index"]],
        "training/metrics.py": [["return_counts", "return_inverse"]],
    }
    assert _occurrences("def sorted_unique(") == {"graphs/partition.py": 1}
