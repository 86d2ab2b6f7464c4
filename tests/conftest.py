"""Fixtures shared by the process-pool suites, the one switch onto the
vectorized backend's numpy bodies, the backends every suite case runs
on, and the one place the suite's float tolerances come from:
``ops.FLOAT_DTYPE``'s round-off."""

import numpy as np
import pytest

from repro.sparse import native, ops
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


def without_compiled_loops(patch) -> None:
    """Through ``patch`` (a ``MonkeyPatch``), make ``native.load`` answer
    ``None``, as on a host without a C compiler: every op of the
    vectorized backend runs its numpy body."""
    patch.setattr(native, "load", lambda: None)


@pytest.fixture
def numpy_fallback(monkeypatch):
    """Run the test on the vectorized backend's numpy bodies."""
    without_compiled_loops(monkeypatch)


#: The vectorized backend's two arms, as fixture parameters: its compiled
#: loops (where they build) and its numpy bodies.
ARMS = ("compiled", "numpy_fallback")


def arm_backend(request) -> str:
    """The backend a parameter of ``["reference", *ARMS]`` names, with the
    numpy arm switched on for the requesting test."""
    if request.param == "numpy_fallback":
        request.getfixturevalue("numpy_fallback")
    return "reference" if request.param == "reference" else "vectorized"


#: Every backend a suite case runs on: the oracle, then the vectorized
#: backend's two arms.
BACKENDS = ("reference", *ARMS)


@pytest.fixture(params=BACKENDS)
def backend(request):
    """Run the test with each of ``BACKENDS`` active; the value is the
    backend's name. Workers a test spawns import ``native`` afresh and so
    run the compiled loops on the ``numpy_fallback`` arm too: there the
    case checks that the numpy bodies in this process and the loops in
    the workers agree bit for bit."""
    name = arm_backend(request)
    with ops.use_backend(name):
        yield name


def floats(array) -> np.ndarray:
    """``array`` at the program's width: test inputs are born like any
    other float, so oracles written in plain numpy compute at that width."""
    return np.asarray(array, dtype=ops.FLOAT_DTYPE)


def tolerance() -> dict:
    """``assert_allclose`` keywords for two computations of one quantity
    that round in a different order (a sparse kernel against its dense
    product, a fused op against its composition): 1024 units of round-off
    at the width in force. Where the contract is identity, tests compare
    bytes instead."""
    bound = 1024 * float(np.finfo(ops.FLOAT_DTYPE).eps)
    return {"rtol": bound, "atol": bound}


def fd_tolerance() -> dict:
    """``assert_allclose`` keywords for an analytic gradient against a
    central difference: truncation plus cancellation leave about a third
    of the mantissa, so it means something only under
    :func:`double_precision` (9.1e-6 / 8.9e-8 there — just inside the
    ``1e-5`` / ``1e-7`` literals it replaced; a check that held a tighter
    literal keeps it)."""
    eps = float(np.finfo(ops.FLOAT_DTYPE).eps)
    return {"rtol": 1.5 * eps ** (1 / 3), "atol": 6 * eps ** 0.5}


@pytest.fixture
def double_precision(monkeypatch):
    """Run the test with the program's one float width set to double —
    what a finite-difference check needs (its step sits far below float32
    round-off), and all it takes because nothing else names a width."""
    monkeypatch.setattr(ops, "FLOAT_DTYPE", np.float64)
