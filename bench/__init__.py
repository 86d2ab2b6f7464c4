"""End-to-end benchmark of the MaxK-GNN reproduction (see ``bench/README.md``).

Run as ``python -m bench`` from the repository root. The package drives
``src/repro`` through its public API only and records every span from out
here; nothing under ``src/`` knows it is being measured.
"""
