"""Setup shim for the legacy editable-install path.

The repository carries no ``pyproject.toml`` or ``setup.cfg``, so this bare
``setup()`` declares no name, version or packages; it only lets
``pip install -e . --no-use-pep517`` run on offline machines where PEP-660
editable installs are unavailable. Tests, the CLI and the benchmarks all
run from source with ``PYTHONPATH=src`` (ROADMAP.md, *Tier-1 verify*).
"""

from setuptools import setup

setup()
