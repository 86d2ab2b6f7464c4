"""Fixtures shared by the process-pool suites."""

import pytest

from repro.training import set_fault_plan
from repro.training.parallel import reset_fallback_warnings


@pytest.fixture(autouse=True)
def _fresh_state():
    # The degradation warning is cached per (reason, label) process-wide
    # and the fault plan is process-global; each test must observe its own
    # first warning and must not inherit (or leak) a plan.
    reset_fallback_warnings()
    set_fault_plan(None)
    yield
    set_fault_plan(None)


@pytest.fixture
def force_procs(monkeypatch):
    monkeypatch.setenv("REPRO_FORCE_PROCS", "1")


@pytest.fixture
def quick_retries(monkeypatch):
    monkeypatch.setenv("REPRO_WORKER_RETRIES", "1")
