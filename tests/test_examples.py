"""Validate the example applications (compile + structure + fast paths)."""

import importlib.util
import py_compile
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))


def load_example(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_at_least_six_examples_ship(self):
        assert len(EXAMPLE_FILES) >= 6

    @pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.stem)
    def test_example_compiles(self, path):
        py_compile.compile(str(path), doraise=True)

    @pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.stem)
    def test_example_has_main_and_docstring(self, path):
        module = load_example(path)
        assert callable(getattr(module, "main", None)), path.stem
        assert module.__doc__ and "Run:" in module.__doc__

    def test_quickstart_helpers_work_small(self):
        """Exercise the quickstart's training helper at reduced size."""
        quickstart = load_example(EXAMPLES_DIR / "quickstart.py")
        from repro.graphs import TRAINING_CONFIGS, load_training_dataset
        import dataclasses

        cfg = dataclasses.replace(TRAINING_CONFIGS["Flickr"], epochs=5)
        graph = load_training_dataset("Flickr")
        result = quickstart.train_variant(graph, cfg, "maxk", k=8)
        assert 0.0 <= result.test_at_best_val <= 1.0

    def test_ascii_plot_shape(self, capsys):
        approximator = load_example(EXAMPLES_DIR / "universal_approximator.py")
        import numpy as np

        xs = np.linspace(-1, 1, 30)
        approximator.ascii_plot(xs, xs ** 2, xs ** 2, height=5)
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 7  # title + 5 rows + axis
