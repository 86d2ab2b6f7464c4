"""Every module imports and every ``__all__`` name resolves.

A stdlib stand-in for the undefined-name half (F82x) of the ``ruff`` lint
job, which the build container cannot install: a removed class, function
or parameter that a manifest or a module-level import still names fails
here instead of in CI.
"""

import importlib
import pkgutil

import repro


def test_every_module_imports_and_every_manifest_resolves():
    names = [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        # Importing a __main__ runs the command line.
        if not info.name.endswith("__main__")
    ]
    assert "repro.training.dataflow" in names
    missing = []
    for name in names:
        module = importlib.import_module(name)
        missing.extend(
            f"{name}.{exported}"
            for exported in getattr(module, "__all__", ())
            if not hasattr(module, exported)
        )
    assert missing == []
