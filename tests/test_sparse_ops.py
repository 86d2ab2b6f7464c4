"""Backend-equivalence fuzz tests for the pluggable sparse-ops layer.

The ``reference`` backend (naive sequential loops) is the oracle; the
``vectorized`` backend must reproduce it on both arms — its compiled loops
and its numpy bodies (``numpy_fallback``) — on randomized inputs spanning
the shapes the training hot path produces: varying sizes, densities,
empty rows/segments, unsorted segment ids, and the full k range.

Tolerance: the backends are designed to accumulate in identical order, so
most checks are exact; where the oracle is a dense product,
``tests/conftest.py::tolerance`` — a multiple of the round-off of the width
in force — is enforced.
"""

import ctypes
import itertools
import os
import re
import time

import numpy as np
import pytest

from repro.core.cbsr import CBSRMatrix
from repro.core.maxk import maxk_forward
from repro.gpusim.kernels.spgemm import spgemm_execute
from repro.gpusim.kernels.sspmm import sspmm_execute
from repro.sparse import CSRMatrix, coo_to_csr, native, ops
from repro.tensor import Tensor, Workspace
from repro.tensor.functional import spmm_agg
from tests.conftest import (
    ARMS, BACKENDS, arm_backend, tolerance, without_compiled_loops,
)

SEEDS = [0, 1, 2, 3, 4]


def random_csr(rng, n_rows=None, n_cols=None, nnz=None):
    """Random CSR matrix with duplicate edges and (often) empty rows."""
    n_rows = n_rows or int(rng.integers(1, 40))
    n_cols = n_cols or int(rng.integers(1, 40))
    nnz = int(rng.integers(0, 4 * n_rows + 1)) if nnz is None else nnz
    rows = rng.integers(0, n_rows, nnz)
    cols = rng.integers(0, n_cols, nnz)
    data = rng.normal(size=nnz)
    return coo_to_csr(rows, cols, data, (n_rows, n_cols))


def random_segments(rng, sorted_ids=False):
    """(values, ids, n_segments) with empty segments and optional sorting."""
    n = int(rng.integers(0, 60))
    n_segments = int(rng.integers(1, 20))
    ids = rng.integers(0, n_segments, n)
    if sorted_ids:
        ids = np.sort(ids)
    trailing = () if rng.random() < 0.5 else (int(rng.integers(1, 8)),)
    values = rng.normal(size=(n,) + trailing)
    return values, ids, n_segments


@pytest.fixture(params=ARMS)
def backend(request):
    return arm_backend(request)


@pytest.fixture(params=BACKENDS)
def backend_name(request):
    """Each backend's name, the vectorized one on both arms."""
    return arm_backend(request)


class TestSegmentPrimitiveEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("sorted_ids", [False, True])
    def test_segment_sum(self, backend, seed, sorted_ids):
        rng = np.random.default_rng(seed)
        values, ids, n_segments = random_segments(rng, sorted_ids)
        with ops.use_backend("reference"):
            expected = ops.segment_sum(values, ids, n_segments)
        with ops.use_backend(backend):
            actual = ops.segment_sum(values, ids, n_segments)
        assert bytes_equal(actual, expected)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("trailing", [(), (5,), (2, 3)])
    def test_segment_sum_is_the_reference_loop_at_any_width(
        self, backend, dtype, trailing
    ):
        """Repeated ids round once per add, in input order, at the
        operand's width — not once per output in double, which is what a
        ``bincount`` scatter did below double."""
        rng = np.random.default_rng(40)
        ids = rng.integers(0, 6, 400)  # ~67 adds per segment
        values = (rng.normal(size=(400,) + trailing) * 1e3).astype(dtype)
        reference, kernel = ops._REGISTRY["reference"], ops._REGISTRY[backend]
        expected = reference.segment_sum(values, ids, 7)
        assert bytes_equal(kernel.segment_sum(values, ids, 7), expected)
        out = np.full((7,) + trailing, np.nan, dtype=dtype)
        assert kernel.segment_sum(values, ids, 7, out=out) is out
        assert bytes_equal(out, expected)
        strided = np.full((7,) + trailing + (2,), np.nan, dtype=dtype)[..., 0]
        kernel.segment_sum(values, ids, 7, out=strided)
        assert bytes_equal(np.ascontiguousarray(strided), expected)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("sorted_ids", [False, True])
    def test_segment_sum_into_out(self, backend, seed, sorted_ids):
        """Into a buffer holding garbage, every segment — the empty ones
        too — is written with the oracle's bytes."""
        rng = np.random.default_rng(100 + seed)
        values, ids, n_segments = random_segments(rng, sorted_ids)
        with ops.use_backend("reference"):
            expected = ops.segment_sum(values, ids, n_segments)
        out = np.full(expected.shape, np.nan, dtype=expected.dtype)
        with ops.use_backend(backend):
            assert ops.segment_sum(values, ids, n_segments, out=out) is out
        assert bytes_equal(out, expected)
        assert not out[np.bincount(ids, minlength=n_segments) == 0].any()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_spmm_csr(self, backend, seed):
        rng = np.random.default_rng(400 + seed)
        matrix = random_csr(rng)
        x = rng.normal(size=(matrix.n_cols, int(rng.integers(1, 10))))
        with ops.use_backend("reference"):
            expected = matrix.matmul_dense(x)
        with ops.use_backend(backend):
            actual = matrix.matmul_dense(x)
        assert bytes_equal(actual, expected)
        np.testing.assert_allclose(actual, matrix.to_dense() @ x, **tolerance())

    @pytest.mark.parametrize("seed", SEEDS)
    def test_spmm_csr_vector(self, backend, seed):
        rng = np.random.default_rng(500 + seed)
        matrix = random_csr(rng)
        x = rng.normal(size=matrix.n_cols)
        with ops.use_backend("reference"):
            expected = matrix.matmul_dense(x)
        with ops.use_backend(backend):
            actual = matrix.matmul_dense(x)
        assert actual.shape == (matrix.n_rows,)
        assert bytes_equal(actual, expected)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_topk_mask(self, backend, seed):
        rng = np.random.default_rng(600 + seed)
        n_rows, dim = int(rng.integers(1, 20)), int(rng.integers(1, 24))
        # Quantised values force exact ties; both backends must resolve
        # them toward the lower column index.
        x = np.round(rng.normal(size=(n_rows, dim)) * 2) / 2
        for k in {1, dim, int(rng.integers(1, dim + 1))}:
            with ops.use_backend("reference"):
                expected = ops.topk_mask(x, k)
            with ops.use_backend(backend):
                actual = ops.topk_mask(x, k)
            np.testing.assert_array_equal(actual, expected)
            assert (actual.sum(axis=1) == k).all()

    def test_topk_nan_rows_stay_exactly_k(self, backend):
        """Regression: NaNs sort as largest; selection stays exactly-k and
        backend-identical instead of under-filling or crashing."""
        x = np.array([[1.0, np.nan, 3.0, 2.0], [np.nan] * 4])
        with ops.use_backend("reference"):
            expected_mask = ops.topk_mask(x, 2)
            expected_cols = ops.topk_columns(x, 2)
        with ops.use_backend(backend):
            mask = ops.topk_mask(x, 2)
            cols = ops.topk_columns(x, 2)
        assert (mask.sum(axis=1) == 2).all()
        np.testing.assert_array_equal(mask, expected_mask)
        np.testing.assert_array_equal(cols, expected_cols)
        np.testing.assert_array_equal(mask[0], [False, True, True, False])

    def test_topk_ties_at_large_magnitude(self, backend):
        """Exact ties among huge values must still resolve to lower columns.

        Regression: an epsilon-bias tie-break is absorbed by float
        rounding at large magnitudes, silently de-synchronising the backends.
        """
        x = np.full((2, 8), 1e8)
        x[1] *= -1
        with ops.use_backend(backend):
            np.testing.assert_array_equal(
                np.where(ops.topk_mask(x, 3)[0])[0], [0, 1, 2]
            )
            np.testing.assert_array_equal(
                ops.topk_columns(x, 3), [[0, 1, 2], [0, 1, 2]]
            )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_topk_columns(self, backend, seed):
        rng = np.random.default_rng(700 + seed)
        n_rows, dim = int(rng.integers(1, 20)), int(rng.integers(1, 24))
        x = np.round(rng.normal(size=(n_rows, dim)) * 2) / 2
        for k in {1, dim, int(rng.integers(1, dim + 1))}:
            with ops.use_backend("reference"):
                expected = ops.topk_columns(x, k)
            with ops.use_backend(backend):
                actual = ops.topk_columns(x, k)
            np.testing.assert_array_equal(actual, expected)


def adversarial_values():
    """Non-NaN values a 0/1 mask formula can get wrong, at the width in
    force: signed zeros, denormals, infinities, huge and ordinary
    magnitudes."""
    info = np.finfo(ops.FLOAT_DTYPE)
    denormal, normal, huge = info.smallest_subnormal, info.tiny, info.max / 8
    return np.array([
        0.0, -0.0, denormal, -denormal, normal, -normal / 64,
        np.inf, -np.inf, 1.0, -1.0, huge, -huge, 1.5, 3.0,
    ], dtype=ops.FLOAT_DTYPE)


def column_weights():
    """Column scales; the repeated 1.0 duplicates values within every row."""
    return np.array(
        [1.0, 1.0, -1.0, 0.5, 2.0, -2.0, 1.0, 4.0], dtype=ops.FLOAT_DTYPE
    )


def adversarial_rows(dim=8):
    """``(14, dim)`` rows the float-mask formulas must agree on byte for
    byte — for most ``k`` with a duplicated k-th value."""
    return adversarial_values()[:, None] * column_weights()[None, :dim]


def with_specials(rng, a):
    """``a`` with ≈ 5 % of its entries ±0, ±inf or the NaN this CPU makes
    of ``inf - inf``: the one NaN pattern, so every NaN in a sum has it."""
    special = rng.random(a.shape) < 0.05
    with np.errstate(invalid="ignore"):
        nan = a.dtype.type(np.inf) - a.dtype.type(np.inf)
    a[special] = rng.choice(
        np.array([0.0, -0.0, np.inf, -np.inf, nan], a.dtype), special.sum()
    )
    return a


def bytes_equal(actual, expected):
    """Same dtype, shape and bytes: signed zeros and all."""
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    return actual.tobytes() == expected.tobytes()


def heaviside_topk_mask(x, k):
    """The float survivor mask as it was written before the compare → cast
    helper: ``heaviside(x - kth, 1.0)`` when that keeps exactly ``k`` per
    row, the stable lowest-column fill otherwise (``inf - inf`` is NaN and
    lands there too). The oracle for ``topk_mask(out=<float>)``."""
    dim = x.shape[1]
    if k == dim:
        return np.ones(x.shape, dtype=x.dtype)
    kth = np.partition(x, dim - k, axis=1)[:, dim - k : dim - k + 1]
    with np.errstate(invalid="ignore"):
        mask = np.heaviside(x - kth, 1.0)
    if (mask.sum(axis=1) == k).all():
        return mask
    mask = np.zeros(x.shape, dtype=x.dtype)
    for i, row in enumerate(x):
        mask[i, np.argsort(-row, kind="stable")[:k]] = 1.0
    return mask


class TestFloatTopkMaskMatchesHeaviside:
    """``topk_mask(out=<float>)`` writes the bytes ``np.heaviside`` wrote."""

    @pytest.fixture(params=["reference", *ARMS])
    def any_backend(self, request):
        with ops.use_backend(arm_backend(request)) as active:
            yield active.name

    @pytest.fixture(params=[False, True], ids=["fresh", "arena"])
    def arena(self, request):
        # A smaller request is a prefix view of a larger earlier one, so
        # it sees that one's stale bytes.
        return Workspace() if request.param else None

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 7, 8])
    def test_adversarial_rows(self, any_backend, arena, k):
        x = adversarial_rows()
        out = np.full_like(x, np.nan)
        result = ops.topk_mask(x, k, out=out, workspace=arena)
        assert result is out
        assert bytes_equal(out, heaviside_topk_mask(x, k))
        bools = ops.topk_mask(x, k)
        assert bools.dtype == np.bool_
        assert bytes_equal(out, bools.astype(x.dtype))

    def test_duplicated_kth_value_takes_the_tie_path(
        self, backend, arena, monkeypatch
    ):
        """``>=`` over-selects on a duplicated k-th value: the float branch
        must notice on its flags and redo the row-exact stable fill. (The
        numpy select's branch: the compiled select is switched off.)"""
        monkeypatch.setattr(native, "topk", lambda *args: False)
        calls = []
        exact = ops.VectorizedBackend._stable_topk_mask

        def spy(keys, k):
            calls.append(k)
            return exact(keys, k)

        monkeypatch.setattr(
            ops.VectorizedBackend, "_stable_topk_mask", staticmethod(spy)
        )
        x = np.array(
            [[3.0, 1.0, 2.0, 0.0], [5.0, 7.0, 5.0, 5.0]], dtype=ops.FLOAT_DTYPE
        )
        with ops.use_backend(backend):
            unique = ops.topk_mask(
                x[:1], 2, out=np.empty_like(x[:1]), workspace=arena
            )
            assert calls == []  # the fast path: no second selection
            tied = ops.topk_mask(x, 2, out=np.empty_like(x), workspace=arena)
        assert calls == [2]
        np.testing.assert_array_equal(unique, [[1.0, 0.0, 1.0, 0.0]])
        np.testing.assert_array_equal(
            tied, [[1.0, 0.0, 1.0, 0.0], [1.0, 1.0, 0.0, 0.0]]
        )
        assert bytes_equal(tied, heaviside_topk_mask(x, 2))

    def test_stale_flags_never_leak_through_a_reused_arena(self, any_backend):
        """Shrinking then growing shapes through one arena: each mask is
        its own input's, whatever the scratch held before."""
        arena = Workspace()
        rng = np.random.default_rng(77)
        full = adversarial_rows()
        for n_rows, dim, k in [(14, 8, 3), (5, 8, 7), (3, 4, 1), (14, 8, 8),
                               (9, 6, 2), (14, 8, 3)]:
            x = full[rng.permutation(14)[:n_rows], :dim] * float(
                rng.choice([1.0, -1.0])
            )
            out = np.full_like(x, np.nan)
            ops.topk_mask(x, k, out=out, workspace=arena)
            assert bytes_equal(out, heaviside_topk_mask(x, k))

    def test_empty_and_nan_inputs_pass_the_nan_probe(self, any_backend):
        """The probe is one reduction (``min`` propagates NaN): an empty
        matrix has no minimum and no NaN; a NaN anywhere is found."""
        assert ops.topk_mask(np.empty((0, 4)), 2).shape == (0, 4)
        x = np.ones((3, 4), dtype=ops.FLOAT_DTYPE)
        x[2, 3] = np.nan
        mask = ops.topk_mask(x, 1, out=np.empty_like(x))
        np.testing.assert_array_equal(mask[2], [0.0, 0.0, 0.0, 1.0])
        np.testing.assert_array_equal(mask[:2], [[1.0, 0, 0, 0]] * 2)


class TestKernelEquivalence:
    """End-to-end numeric kernels agree across backends on CBSR inputs."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_maxk_and_cbsr_roundtrip(self, backend, seed):
        rng = np.random.default_rng(800 + seed)
        n_rows, dim = int(rng.integers(1, 30)), int(rng.integers(2, 32))
        k = int(rng.integers(1, dim + 1))
        x = rng.normal(size=(n_rows, dim))
        with ops.use_backend("reference"):
            expected_out, expected_mask = maxk_forward(x, k)
            expected_cbsr = CBSRMatrix.from_dense_rows(expected_out, k)
        with ops.use_backend(backend):
            out, mask = maxk_forward(x, k)
            cbsr = CBSRMatrix.from_dense_rows(out, k)
        np.testing.assert_array_equal(mask, expected_mask)
        np.testing.assert_array_equal(out, expected_out)
        np.testing.assert_array_equal(cbsr.sp_index, expected_cbsr.sp_index)
        np.testing.assert_array_equal(cbsr.sp_data, expected_cbsr.sp_data)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_spgemm_sspmm_execute(self, backend, seed):
        rng = np.random.default_rng(900 + seed)
        n_out = int(rng.integers(1, 25))
        n_src = int(rng.integers(1, 25))
        dim = int(rng.integers(2, 24))
        k = int(rng.integers(1, dim + 1))
        adj = random_csr(rng, n_rows=n_out, n_cols=n_src)
        features = CBSRMatrix.from_dense_rows(
            maxk_forward(rng.normal(size=(n_src, dim)), k)[0], k
        )
        grad_out = rng.normal(size=(n_out, dim))
        with ops.use_backend("reference"):
            expected_fwd = spgemm_execute(adj, features)
            expected_bwd = sspmm_execute(adj, grad_out, features)
        with ops.use_backend(backend):
            actual_fwd = spgemm_execute(adj, features)
            actual_bwd = sspmm_execute(adj, grad_out, features)
        assert bytes_equal(actual_fwd, expected_fwd)
        assert bytes_equal(actual_bwd.sp_data, expected_bwd.sp_data)


def cbsr_case(rng, n_rows, n_src, dim, k, empty_rows=False, nnz=None):
    """(adjacency, sp_data, sp_index, grad_out) with sorted distinct columns."""
    adj = random_csr(rng, n_rows=n_rows, n_cols=n_src, nnz=nnz)
    if empty_rows:  # first and last row empty, plus whatever random_csr left
        dense = adj.to_dense()
        dense[[0, -1]] = 0.0
        adj = CSRMatrix.from_dense(dense)
    sp_index = np.sort(
        np.argsort(rng.random((n_src, dim)), axis=1)[:, :k], axis=1
    )
    width = adj.data.dtype
    return (adj, rng.normal(size=(n_src, k)).astype(width), sp_index,
            rng.normal(size=(n_rows, dim)).astype(width))


def run_cbsr_pair(name, case):
    adj, sp_data, sp_index, grad_out = case
    csr = (adj.indptr, adj.indices, adj.data)
    with ops.use_backend(name):
        return (
            ops.spgemm_cbsr(*csr, sp_data, sp_index, grad_out.shape[1], adj.n_rows),
            ops.sspmm_cbsr(*csr, grad_out, sp_index, adj.n_cols),
        )


def assert_same_bits(actual, expected):
    for got, want in zip(actual, expected):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


#: (n_rows, n_src, dim, k, empty_rows)
CBSR_SHAPES = {
    "empty-rows": (9, 9, 12, 4, True),
    "rectangular": (7, 19, 10, 3, False),
    "k-one": (11, 11, 8, 1, False),
    "k-full": (6, 8, 5, 5, False),
    "uint16-index": (5, 6, 300, 7, False),
}


class TestCbsrKernelBitIdentity:
    """SpGEMM / SSpMM agree with the reference loops to the last bit: every
    backend accumulates a row's stored edges in order."""

    @pytest.mark.parametrize("shape", CBSR_SHAPES.values(), ids=CBSR_SHAPES.keys())
    def test_matches_reference(self, backend, shape):
        case = cbsr_case(np.random.default_rng(1000), *shape)
        assert_same_bits(run_cbsr_pair(backend, case), run_cbsr_pair("reference", case))

    def test_scratch_reuse_leaks_nothing(self, backend):
        """Shrinking then growing shapes through one backend's scratch."""
        rng = np.random.default_rng(1001)
        for shape in [(20, 30, 12, 5), (3, 4, 5, 2), (25, 35, 16, 3), (3, 4, 5, 2)]:
            case = cbsr_case(rng, *shape)
            assert_same_bits(
                run_cbsr_pair(backend, case), run_cbsr_pair("reference", case)
            )

    def test_the_numpy_spmm_writes_the_loops_bytes(self, monkeypatch):
        """Without the compiled loops the blocked numpy SpMM serves — 2-D,
        through the ``(n, -1)`` view and into a strided ``out`` — with the
        compiled loop's bytes."""
        adj = cbsr_case(np.random.default_rng(1002), 9, 14, 11, 4, True)[0]
        rng = np.random.default_rng(1003)
        inputs = [rng.normal(size=(adj.n_cols,) + trailing).astype(adj.data.dtype)
                  for trailing in [(3,), (2, 5), ()]]

        def products():
            with ops.use_backend("vectorized"):
                for x in inputs:
                    yield adj.matmul_dense(x)
                    out = np.full((adj.n_rows, 2) + x.shape[1:], np.nan,
                                  dtype=x.dtype)[:, 0]
                    yield adj.matmul_dense(x, out=out).copy()

        direct = list(products())
        without_compiled_loops(monkeypatch)
        assert_same_bits(list(products()), direct)
        with ops.use_backend("reference"):
            expected = [adj.matmul_dense(x) for x in inputs for _ in "ab"]
        assert_same_bits(direct, expected)

    def test_the_spmm_is_the_compiled_loop(self, monkeypatch):
        """The vectorized backend's SpMM calls the native loop whenever it
        is built — for wider feature maps too (no numpy fallback)."""
        if native.load() is None:
            pytest.skip("the compiled loops are not built")
        adj = cbsr_case(np.random.default_rng(1004), 9, 14, 11, 4, True)[0]
        calls, real = [], native.spmm
        monkeypatch.setattr(
            native, "spmm", lambda *args: calls.append(args[2].shape) or real(*args)
        )
        monkeypatch.setattr(ops.VectorizedBackend, "_spmm_blocked", None)
        with ops.use_backend("vectorized"):
            for shape in [(adj.n_cols, 3), (adj.n_cols, 2, 4), (adj.n_cols,)]:
                adj.matmul_dense(np.ones(shape, dtype=adj.data.dtype))
        assert calls == [(adj.n_cols, 3), (adj.n_cols, 2, 4), (adj.n_cols, 1)]

    def test_threads_do_not_share_scratch(self, backend):
        """The prefetch warm thread and the trainer may both be inside a
        kernel; differently shaped calls must not see each other's scratch."""
        import sys
        import threading

        rng = np.random.default_rng(1003)
        cases = [cbsr_case(rng, 12, 15, 9, 3), cbsr_case(rng, 31, 27, 20, 6)]
        expected = [run_cbsr_pair("reference", case) for case in cases]
        implementation = ops._REGISTRY[backend]
        start = threading.Barrier(len(cases), timeout=30)
        wrong = []

        def work(case, want):
            adj, sp_data, sp_index, grad_out = case
            csr = (adj.indptr, adj.indices, adj.data)
            start.wait()
            for _ in range(200):
                got = (
                    implementation.spgemm_cbsr(
                        *csr, sp_data, sp_index, grad_out.shape[1], adj.n_rows
                    ),
                    implementation.sspmm_cbsr(*csr, grad_out, sp_index, adj.n_cols),
                )
                if any(g.tobytes() != w.tobytes() for g, w in zip(got, want)):
                    wrong.append(got)

        threads = [
            threading.Thread(target=work, args=pair) for pair in zip(cases, expected)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong

    @pytest.mark.parametrize(
        "field, where, value",
        [
            ("sp_index", (0, -1), 5),  # == dim_origin
            ("sp_index", (0, 0), -1),
            ("indices", 0, 7),  # == n_src
            ("indices", 0, -1),
            ("indptr", None, None),  # one offset short
            ("indptr", -1, "overrun"),  # walks past indices / data
            ("indptr", 0, 1),  # does not start at 0
            ("indptr", 2, "descend"),  # a row ends before it starts
        ],
        ids=["sp_index-high", "sp_index-negative", "column-high",
             "column-negative", "indptr-short", "indptr-overrun",
             "indptr-offset", "indptr-descending"],
    )
    def test_out_of_range_arguments_rejected(self, backend, field, where, value):
        """Checked in the dispatch, before any compiled accumulator is indexed."""
        adj, sp_data, sp_index, grad_out = cbsr_case(
            np.random.default_rng(1004), 6, 7, 5, 2
        )
        assert adj.nnz > 0
        raw = {"indptr": adj.indptr.copy(), "indices": adj.indices.copy(),
               "sp_index": sp_index.astype(np.int64)}
        if where is None:
            raw["indptr"] = raw["indptr"][:-1]
        elif value == "overrun":
            raw["indptr"][-1] += 4
        elif value == "descend":
            raw["indptr"][where] = raw["indptr"][where + 1] + 1
        else:
            raw[field][where] = value
        csr = (raw["indptr"], raw["indices"], adj.data)
        with ops.use_backend(backend):
            with pytest.raises(ValueError):
                ops.spgemm_cbsr(*csr, sp_data, raw["sp_index"], 5, 6)
            with pytest.raises(ValueError):
                ops.sspmm_cbsr(*csr, grad_out, raw["sp_index"], 7)


#: CBSR_SHAPES plus a matrix without stored entries and a uint8 index
#: holding every column (k == dim == 256).
LOOP_SHAPES = {
    **CBSR_SHAPES,
    "no-edges": (2, 6, 9, 3, True),
    "uint8-k-256": (4, 5, 256, 256, False),
}


def wide_case(rng, work):
    """A CBSR case whose SpMM / SpGEMM / SSpMM all do at least ``work``
    multiply-adds (``nnz * k``), so the loops take their threaded branch
    (twice the edges: duplicates merge)."""
    return cbsr_case(rng, 500, 500, 128, 64, nnz=2 * work // 64)


class TestNativeCbsrLoops:
    """The compiled SpMM / SpGEMM / SSpMM (``sparse/native.py``) against
    the ``reference`` loops, byte for byte: both float widths, both narrow
    index widths, one thread and several, below and above
    ``MIN_PARALLEL_WORK``."""

    @pytest.fixture
    def library(self):
        library = native.load()
        if library is None:
            pytest.skip("no C compiler: the compiled loops are not built")
        return library

    @pytest.fixture(autouse=True)
    def unzeroed_outputs(self, monkeypatch):
        """Every fresh array the compiled tier allocates holds NaN: the
        loops zero the output rows they own, so a row left unwritten fails
        the byte checks."""

        class StaleNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def empty(shape, dtype=float):
                return np.full(shape, np.nan, dtype)

        monkeypatch.setattr(native, "np", StaleNumpy())

    @pytest.fixture
    def paths(self, library):
        """``paths()`` sets the loops' ``wide`` level to the chosen one
        (2 on a CPU with AVX-512, 1 with AVX2), then to every level below
        it down to 0 (the portable loops and numpy's select), yielding
        each; the chosen one is restored after the test."""
        switch = ctypes.c_int.in_dll(library, "wide")
        chosen = switch.value

        def each():
            for wide in range(chosen, -1, -1):
                switch.value = wide
                yield wide

        yield each
        switch.value = chosen

    @staticmethod
    def threshold(library):
        return ctypes.c_int64.in_dll(library, "min_parallel_work").value

    @staticmethod
    def all_three(library, csr, x, sp_data, index, grad_out, n_src):
        n_rows, dim = grad_out.shape
        reference = ops._REGISTRY["reference"]
        expected = (
            reference.spmm_csr(*csr, x, n_rows),
            reference.spgemm_cbsr(*csr, sp_data, index, dim, n_rows),
            reference.sspmm_cbsr(*csr, grad_out, index, n_src),
        )
        pinned = native.pin(*csr)
        got = (
            native.spmm(library, pinned, x),
            native.run(library, "spgemm", pinned, sp_data, index, dim, (n_rows, dim)),
            native.run(library, "sspmm", pinned, grad_out, index, dim, index.shape),
        )
        return got, expected

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", LOOP_SHAPES.values(), ids=LOOP_SHAPES.keys())
    def test_loops_are_the_reference_loops(
        self, library, dtype, shape, threads, monkeypatch
    ):
        monkeypatch.setattr(library, "threads", lambda: threads)
        rng = np.random.default_rng(1005)
        adj, sp_data, sp_index, grad_out = cbsr_case(rng, *shape)
        index = sp_index.astype(ops.index_dtype_for(shape[2]))
        csr = (adj.indptr, adj.indices, adj.data.astype(dtype))
        x = rng.normal(size=(adj.n_cols, 3, 2)).astype(dtype)  # the (n, -1) view
        got, expected = self.all_three(
            library, csr, x, sp_data.astype(dtype), index, grad_out.astype(dtype),
            adj.n_cols,
        )
        assert expected[0].dtype == expected[1].dtype == dtype
        assert_same_bits(got, expected)

    @pytest.mark.parametrize("threads", [1, 2, 3])  # 3 does not divide n_src
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_threaded_loops_are_the_reference_loops(
        self, library, dtype, threads, monkeypatch
    ):
        """Above ``MIN_PARALLEL_WORK`` the rows split over the threads: the
        SpMM and SpGEMM by output row, the SSpMM by the owner's block of
        source rows, each element still summed in stored-edge order."""
        monkeypatch.setattr(library, "threads", lambda: threads)
        rng = np.random.default_rng(1009)
        adj, sp_data, sp_index, grad_out = wide_case(rng, self.threshold(library))
        assert adj.nnz * sp_index.shape[1] >= self.threshold(library)
        assert adj.n_cols % 3
        csr = (adj.indptr, adj.indices, adj.data.astype(dtype))
        x = rng.normal(size=(adj.n_cols, 4, 16)).astype(dtype)
        got, expected = self.all_three(
            library, csr, x, sp_data.astype(dtype), sp_index.astype(np.uint8),
            grad_out.astype(dtype), adj.n_cols,
        )
        assert_same_bits(got, expected)

    @pytest.fixture(scope="class", params=[np.float32, np.float64],
                    ids=["float32", "float64"])
    def spmm_case(self, request):
        """``(csr, x, reference A @ x)`` at width 264, its edges enough for
        two threads to split every width from 6 up. Each output column is
        its own sums, so the first ``w`` columns of ``A @ x`` are ``A`` at
        ``x[:, :w]``. ``x`` holds ±0, ±inf and the NaN this CPU makes of
        ``inf - inf``, so every NaN in a sum has one bit pattern."""
        library = native.load()
        if library is None:
            pytest.skip("no C compiler: the compiled loops are not built")
        dtype, rng = request.param, np.random.default_rng(1012)
        degrees = rng.integers(0, 2 * self.threshold(library) // (5 * 64), 64)
        degrees[[0, 9]] = 0
        nnz = int(degrees.sum())
        csr = (np.concatenate(([0], np.cumsum(degrees))),
               rng.integers(0, 80, nnz), rng.normal(size=nnz).astype(dtype))
        x = with_specials(rng, rng.normal(size=(80, 264)).astype(dtype))
        with np.errstate(invalid="ignore"):  # inf - inf
            expected = ops._REGISTRY["reference"].spmm_csr(*csr, x, 64)
        return csr, x, expected

    @pytest.mark.parametrize("dim", [
        1, 3, 4, 6, 7, 8, 9, 15, 16, 17, 24, 31, 32, 33, 40, 48, 63, 64, 65,
        72, 100, 127, 128, 129, 200, 256, 264,
    ])
    def test_the_spmm_at_every_width_and_path_is_the_reference_loop(
        self, library, paths, spmm_case, dim, monkeypatch
    ):
        """Widths around the eight-register strips (64 float, 32 double
        columns) and their vectors (8 and 4 lanes): whole strips, a
        narrower strip alone, a masked tail alone, each with the others.
        Each on the path this CPU takes (the AVX2 strips where it has
        them) and forced onto the portable loop, on one thread and on
        two."""
        csr, x, expected = spmm_case
        x, expected = np.ascontiguousarray(x[:, :dim]), expected[:, :dim]
        pinned = native.pin(*csr)
        for wide in paths():
            for threads in (1, 2):
                monkeypatch.setattr(library, "threads", lambda: threads)
                got = native.spmm(library, pinned, x)
                assert bytes_equal(got, expected), (threads, wide)
        assert dim < 6 or len(csr[1]) * dim >= self.threshold(library)

    def test_the_spmm_into_a_workspace_view_is_the_reference_loop(
        self, library, paths, spmm_case
    ):
        """``spmm_agg``'s forward through a model's arena: the product is
        written into the planned view, which lies past another live one
        and so off the backing array's start, with the reference loop's
        bytes on each path."""
        csr, x, _ = spmm_case
        x = np.ascontiguousarray(x[:, :72])
        adjacency = CSRMatrix(*csr, shape=(64, len(x)))
        with ops.use_backend("reference"), np.errstate(invalid="ignore"):
            expected = adjacency.matmul_dense(x)
        arena = Workspace()
        arena.buffer("before", (3, 5), x.dtype)
        with ops.use_backend("vectorized"):
            for wide in paths():
                out = spmm_agg(adjacency, Tensor(x), workspace=arena,
                               slot="agg").data
                assert arena.holders(out) == 1, wide
                assert bytes_equal(out, expected), wide

    @staticmethod
    def select_rows(dim):
        """``adversarial_rows``' values over ``dim`` columns (±0,
        denormals, ±inf, duplicated k-th values), normal rows, and two of
        them with NaNs (selected as ``+inf``)."""
        weights = np.resize(column_weights(), dim)
        normal = np.random.default_rng(dim).normal(size=(6, dim)).astype(
            ops.FLOAT_DTYPE
        )
        nan = normal[:2].copy()
        nan[0, ::3] = nan[1, -1] = np.nan
        return np.concatenate(
            [adversarial_values()[:, None] * weights[None, :], normal, nan]
        )

    @pytest.mark.parametrize("dim", [1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 100])
    def test_the_select_at_every_width_and_path_is_the_reference_select(
        self, library, paths, dim
    ):
        """Widths around the eight-lane chunk, ``k`` up to the register's
        8 and past it (numpy's select), into fresh, bool, float and
        reused masks, with and without an arena: on the path this CPU
        takes and forced onto numpy's, the reference's bytes."""
        x = self.select_rows(dim)
        ks = [k for k in (1, 2, 7, 8, 9) if k <= dim]
        with ops.use_backend("reference"):
            expected = {k: ops.topk_mask(x, k) for k in ks}
        arena = Workspace()
        outs = (None, np.empty(x.shape, bool), np.full_like(x, np.nan))
        with ops.use_backend("vectorized"):
            for wide in paths():
                for k, out, workspace in itertools.product(ks, outs, (None, arena)):
                    got = ops.topk_mask(x, k, out=out, workspace=workspace)
                    want = expected[k].astype(got.dtype)
                    assert bytes_equal(got, want), (wide, k, got.dtype)
                    served = native.topk(library, np.nan_to_num(x, nan=np.inf), k,
                                         np.empty(x.shape, bool))
                    assert served == bool(wide and k <= 8), (wide, k)

    @pytest.mark.parametrize("dim, k", [
        (dim, k) for dim in (1, 8, 15, 16, 17, 40, 63, 64, 65, 100)
        for k in (1, 7, 8, 9, 15, 16, 17) if k <= dim
    ])
    def test_the_pair_at_every_survivor_count_and_path_is_the_reference_pair(
        self, library, paths, dim, k, monkeypatch
    ):
        """Survivor counts around the eight-lane AVX2 bodies and the
        16-lane AVX-512 ones (a tail alone, whole vectors, both, k == dim),
        at widths around the AVX-512 bodies' four 16-column registers and
        past them, at every index width, on one thread and two, on every
        path down from the one this CPU takes. The values hold ±0, ±inf
        and one NaN pattern, the weights negatives and ±0, and the first
        and last rows are empty. From k = 16 the case passes
        ``MIN_PARALLEL_WORK``, so two threads split it."""
        rng = np.random.default_rng(1014)
        nnz = 2 * self.threshold(library) // 16 if k >= 16 else 900
        adj, sp_data, sp_index, grad_out = cbsr_case(
            rng, 300, 300, dim, k, empty_rows=True, nnz=nnz
        )
        assert k < 16 or adj.nnz * k >= self.threshold(library)
        assert adj.nnz >= 2 * adj.n_cols  # the AVX-512 SpGEMM's edges per source row
        assert adj.indptr[1] == 0 and adj.indptr[-2] == adj.nnz
        adj.data[::7], adj.data[3::11] = 0.0, -0.0
        sp_data, grad_out = with_specials(rng, sp_data), with_specials(rng, grad_out)
        csr = (adj.indptr, adj.indices, adj.data)
        reference = ops._REGISTRY["reference"]
        with np.errstate(invalid="ignore"):  # inf - inf, 0 * inf
            expected = (
                reference.spgemm_cbsr(*csr, sp_data, sp_index, dim, adj.n_rows),
                reference.sspmm_cbsr(*csr, grad_out, sp_index, adj.n_cols),
            )
        pinned = native.pin(*csr)
        for wide in paths():
            for threads, width in itertools.product(
                (1, 2), (np.uint8, np.uint16, np.uint32)
            ):
                monkeypatch.setattr(library, "threads", lambda: threads)
                index = sp_index.astype(width)
                got = (
                    native.run(library, "spgemm", pinned, sp_data, index, dim,
                               (adj.n_rows, dim)),
                    native.run(library, "sspmm", pinned, grad_out, index, dim,
                               index.shape),
                )
                assert_same_bits(got, expected)

    @pytest.mark.parametrize("dim, k", [(4, 8), (16, 8), (64, 16)])
    def test_a_repeated_column_adds_every_product_on_every_path(
        self, library, paths, dim, k, monkeypatch
    ):
        """A block row that names a column twice (outside CBSR, which
        holds distinct columns; always so at k > dim) gets every product
        added, in order, on every path: the AVX-512 SpGEMM, whose rank
        table holds one survivor per column, leaves such a call to the
        AVX2 body."""
        rng = np.random.default_rng(1016)
        adj, sp_data, _, grad_out = cbsr_case(rng, 40, 12, dim, k, nnz=120)
        assert adj.nnz >= 2 * adj.n_cols  # the AVX-512 SpGEMM's edges per source row
        sp_index = rng.integers(0, dim, size=(adj.n_cols, k))
        sp_index[:, -1] = sp_index[:, 0]
        expected = np.zeros((adj.n_rows, dim), sp_data.dtype)
        for i in range(adj.n_rows):
            for e in range(adj.indptr[i], adj.indptr[i + 1]):
                j = adj.indices[e]
                for t in range(k):
                    expected[i, sp_index[j, t]] += adj.data[e] * sp_data[j, t]
        csr = (adj.indptr, adj.indices, adj.data)
        expected = (expected, ops._REGISTRY["reference"].sspmm_cbsr(
            *csr, grad_out, sp_index, adj.n_cols))
        pinned = native.pin(*csr)
        for wide in paths():
            for threads, width in itertools.product(
                (1, 2), (np.uint8, np.uint16, np.uint32)
            ):
                monkeypatch.setattr(library, "threads", lambda: threads)
                index = sp_index.astype(width)
                got = (
                    native.run(library, "spgemm", pinned, sp_data, index, dim,
                               (adj.n_rows, dim)),
                    native.run(library, "sspmm", pinned, grad_out, index, dim,
                               index.shape),
                )
                assert_same_bits(got, expected)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pack_and_unpack_are_the_numpy_lines(self, library, dtype):
        """The compiled pack copies each row's survivors and their columns,
        the unpack scatters a block back over zeros: the bytes of
        ``flatnonzero`` / ``take`` / ``%`` and of ``zeros`` / ``put``,
        ±0, infinities and NaN payloads included, at both float widths
        and every index width."""
        rng = np.random.default_rng(1015)
        for dim, k in [(9, 3), (64, 8), (300, 7), (70000, 2)]:
            x = rng.normal(size=(5, dim)).astype(dtype)
            x.flat[rng.choice(x.size, 20)] = np.array(
                [0.0, -0.0, np.inf, -np.inf, np.nan], dtype
            ).repeat(4)
            mask = np.zeros(x.shape, bool)
            for row in mask:
                row[rng.choice(dim, k, replace=False)] = True
            survivors = np.flatnonzero(mask)
            width = ops.index_dtype_for(dim)
            data, index = np.empty((5, k), dtype), np.empty((5, k), width)
            native.pack(library, x, mask, k, data, index)
            assert bytes_equal(data, np.take(x, survivors).reshape(5, k))
            assert bytes_equal(index, (survivors % dim).astype(width).reshape(5, k))
            out = np.full(x.shape, np.nan, dtype)
            native.unpack(library, data, index, out)
            expected = np.zeros(x.shape, dtype)
            np.put(expected, survivors, data)
            assert bytes_equal(out, expected)

    def test_the_pack_refuses_a_row_without_k_survivors(
        self, library, monkeypatch
    ):
        """On either body, a mask row holding one survivor too many or
        too few is refused, the compiled one before it writes past the
        row: the memory after the block keeps its bytes."""
        x = np.arange(12, dtype=ops.FLOAT_DTYPE).reshape(3, 4)
        for row, survivors in [(1, 3), (2, 1), (2, 3)]:
            mask = np.zeros(x.shape, bool)
            mask[:, :2] = True
            mask[row] = np.arange(4) < survivors
            for arm in ARMS:
                with monkeypatch.context() as patch, ops.use_backend("vectorized"):
                    if arm == "numpy_fallback":
                        without_compiled_loops(patch)
                    with pytest.raises(ValueError, match="survivors"):
                        ops.cbsr_pack(x, mask, 2)
            data, index = np.full((4, 2), -1.0, x.dtype), np.zeros((4, 2), np.uint8)
            with pytest.raises(ValueError, match=f"row {row}"):
                native.pack(library, x, mask, 2, data[:3], index[:3])
            assert (data[3] == -1.0).all() and (index[3] == 0).all()

    def test_two_nans_meeting_may_differ_only_in_sign(self, library, paths):
        """IEEE 754 leaves open which NaN an add of two NaNs returns, and
        the loops order an add's operands as the compiler chose: with x's
        NaN positive and ``inf - inf``'s negative (x86), either path agrees
        with the reference in every other byte and in where the NaNs are."""
        rng = np.random.default_rng(1013)
        adj = random_csr(rng, n_rows=40, n_cols=30, nnz=400)
        x = rng.normal(size=(30, 40)).astype(ops.FLOAT_DTYPE)
        special = rng.random(x.shape) < 0.1
        x[special] = rng.choice(
            np.array([np.nan, np.inf, -np.inf], x.dtype), special.sum()
        )
        with np.errstate(invalid="ignore"):
            expected = ops._REGISTRY["reference"].spmm_csr(
                adj.indptr, adj.indices, adj.data.astype(x.dtype), x, adj.n_rows
            )
        pinned = native.pin(adj.indptr, adj.indices, adj.data.astype(x.dtype))
        for _ in paths():
            got = native.spmm(library, pinned, x)
            nan = np.isnan(expected)
            assert nan.any() and np.array_equal(np.isnan(got), nan)
            assert bytes_equal(np.where(nan, 0, got), np.where(nan, 0, expected))

    def test_strided_operands_are_made_contiguous(self, library):
        adj, sp_data, sp_index, grad_out = cbsr_case(
            np.random.default_rng(1006), 8, 10, 16, 4
        )

        def strided(array):  # same values, every other element of a copy
            return np.repeat(array, 2, axis=-1)[..., ::2]

        csr = (strided(adj.indptr), strided(adj.indices), strided(adj.data))
        got, expected = self.all_three(
            library, csr, np.asfortranarray(np.tile(sp_data, 2)),
            strided(sp_data), strided(sp_index.astype(np.uint8)),
            np.asfortranarray(grad_out), adj.n_cols,
        )
        assert not csr[2].flags.c_contiguous
        assert_same_bits(got, expected)

    def test_without_a_compiler_the_numpy_bodies_serve(self, monkeypatch):
        case = cbsr_case(np.random.default_rng(1007), 9, 14, 11, 4, True)
        expected = run_cbsr_pair("reference", case)
        assert_same_bits(run_cbsr_pair("vectorized", case), expected)
        without_compiled_loops(monkeypatch)
        assert ops._REGISTRY["vectorized"].cache_info()["native"] == 0
        assert_same_bits(run_cbsr_pair("vectorized", case), expected)

    def test_the_cache_is_private_atomic_and_built_once(self, tmp_path, monkeypatch):
        """Built once into a ``0700`` per-user directory; a fresh process
        loads the cached object without compiling; a leftover temporary
        file is never what gets loaded, nor removed; a build removes the
        objects of other sources that nothing has used for a day, while a
        recently used one stays; a directory others can read or write is
        refused."""
        import json
        import shutil
        import subprocess
        import sys

        if shutil.which("cc") is None:
            pytest.skip("no C compiler")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert native._build() is not None
        directory = native.cache_dir()
        assert directory.parent == tmp_path
        assert directory.stat().st_mode & 0o777 == 0o700
        (built,) = directory.glob("*.so")
        leftover = directory / "interrupted.tmp"
        leftover.write_bytes(b"not an object file")

        probe = (
            "import json, subprocess\n"
            "calls, real = [], subprocess.run\n"
            "def spy(args, **kwargs):\n"
            "    calls.append([str(arg) for arg in args])\n"
            "    return real(args, **kwargs)\n"
            "subprocess.run = spy\n"
            "from repro.sparse import native\n"
            "library = native.load()\n"
            "print(json.dumps([library and library._name, calls]))\n"
        )
        src = str(native.SOURCE.parents[2])
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            timeout=300, check=True,
            env=dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=src),
        )
        loaded, calls = json.loads(result.stdout)
        assert loaded == str(built)
        assert calls and not any(str(native.SOURCE) in call for call in calls)

        built.unlink()  # a lost object is rebuilt; the leftover is not it
        stale = directory / "cbsr-0000.so"  # another source's, unused
        stale.write_bytes(b"an older object")
        old = time.time() - 2 * 24 * 3600
        os.utime(stale, (old, old))
        in_use = directory / "cbsr-1111.so"  # another checkout's, loaded now
        in_use.write_bytes(b"an object in use")
        assert native._build()._name == str(built) and built.exists()
        assert leftover.read_bytes() == b"not an object file"
        assert not stale.exists()
        assert sorted(directory.iterdir()) == [in_use, built, leftover]

        directory.chmod(0o755)
        assert native._build() is None

    def test_an_object_swept_before_its_load_is_rebuilt_with_openmp(
        self, library, tmp_path, monkeypatch
    ):
        """Another build's sweep may remove the object between the check
        that it exists and its load: the same flags build it again, never
        the next variant's one-thread loops."""
        if library.threads() != native.available_cores():
            pytest.skip("the compiler has no OpenMP")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert native._build() is not None
        (built,) = native.cache_dir().glob("*.so")
        real, opened = native._open, []

        def swept_first(target):
            opened.append(target)
            if len(opened) == 1:  # gone after the exists() check
                target.unlink()
                raise OSError(f"{target}: cannot open shared object file")
            return real(target)

        monkeypatch.setattr(native, "_open", swept_first)
        rebuilt = native._build()
        assert opened == [built, built] and built.exists()
        assert rebuilt._name == str(built)
        assert rebuilt.threads() == native.available_cores()

    def test_a_compiler_without_openmp_builds_the_same_loops(
        self, library, tmp_path, monkeypatch
    ):
        """The same file builds without ``-fopenmp`` (and a failing first
        flag set falls through to it): one-thread loops, the same bytes,
        while the core count the program answers is unchanged."""
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        plain = native._build(
            variants=(native.FLAGS + ("-fno-such-flag",), native.FLAGS)
        )
        assert plain is not None and plain.threads() == 1
        assert native.available_cores() == len(os.sched_getaffinity(0))
        rng = np.random.default_rng(1010)
        adj, sp_data, sp_index, grad_out = wide_case(rng, self.threshold(library))
        x = rng.normal(size=(adj.n_cols, 8)).astype(adj.data.dtype)
        csr = (adj.indptr, adj.indices, adj.data)
        index = sp_index.astype(np.uint8)
        got, expected = self.all_three(
            plain, csr, x, sp_data, index, grad_out, adj.n_cols
        )
        assert_same_bits(got, expected)

    def test_the_thread_count_is_the_main_process_affinity(self, library):
        """The one core count: the affinity mask in the main thread of the
        main process, 1 in a spawned pool worker and in any other thread,
        and what ``cache_info()["native"]`` reports for the loops."""
        import threading
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        cores = len(os.sched_getaffinity(0))
        assert native.available_cores() == cores
        native_threads = ops._REGISTRY["vectorized"].cache_info()["native"]
        assert native_threads == library.threads() in (1, cores)
        seen = []
        thread = threading.Thread(target=lambda: seen.append(native.available_cores()))
        thread.start()
        thread.join(timeout=60)
        assert seen == [1]
        with ProcessPoolExecutor(1, mp_context=get_context("spawn")) as pool:
            assert pool.submit(native.available_cores).result(timeout=120) == 1

    def test_a_forked_child_runs_the_loops_on_one_thread(self, library, monkeypatch):
        """libgomp's pool does not survive ``fork``: after the parent ran a
        threaded region, a forked child must still finish its loops."""
        from multiprocessing import get_context

        rng = np.random.default_rng(1011)
        adj = wide_case(rng, self.threshold(library))[0]
        x = rng.normal(size=(adj.n_cols, 64)).astype(adj.data.dtype)
        with ops.use_backend("reference"):
            expected = adj.matmul_dense(x)
        with monkeypatch.context() as patch:
            patch.setattr(library, "threads", lambda: max(2, native.available_cores()))
            assert native.spmm(library, native.pin(adj.indptr, adj.indices, adj.data),
                               x).tobytes() == expected.tobytes()

        def child():
            got = native.spmm(library, native.pin(adj.indptr, adj.indices, adj.data), x)
            os._exit(0 if native.available_cores() == 1
                     and got.tobytes() == expected.tobytes() else 1)

        process = get_context("fork").Process(target=child)
        process.start()
        process.join(timeout=60)
        if process.is_alive():
            process.kill()
            process.join()
            pytest.fail("the forked child hung inside the loops")
        assert process.exitcode == 0


def numpy_dropout(x, p, rng):
    """Dropout's forward as numpy computes it: ``(draw, keep, out)``."""
    draw = rng.random(x.shape, dtype=x.dtype)
    keep = (draw >= p).astype(x.dtype)
    with np.errstate(invalid="ignore"):  # inf * 0
        out = x * (1.0 / (1.0 - p)) * keep + 0.0
    return draw, keep, out


def dropout_rows():
    """``adversarial_rows`` (±0, denormals, ±inf, huge) and two NaN rows."""
    nan = np.ones((2, 8), ops.FLOAT_DTYPE)
    nan[0, ::3] = nan[1, -1] = np.nan
    return np.concatenate([adversarial_rows(), nan])


class TestCompiledDropout:
    """The compiled draw (``native.dropout``) against numpy's
    ``Generator.random`` and dropout lines: the same draws, masks and
    outputs byte for byte, and the same generator state dict after every
    call, at sizes around the four lanes and both halves of a word."""

    SIZES = [0, 1, 2, 3, 7, 8, 9, 10, 11, 17, 138_880, 320_000, 320_001]

    @pytest.fixture
    def library(self):
        library = native.load()
        if library is None or not hasattr(library, "dropout_f"):
            pytest.skip("the compiled draw is not built here")
        return library

    @staticmethod
    def compiled(library, x, p, rng):
        buffers = tuple(np.full_like(x, np.nan) for _ in range(3))
        assert native.dropout(library, rng, x, p, *buffers)
        return buffers

    def test_the_draw_is_numpys_stream_and_state(self, library):
        """Chained calls on one stream, each size at each ``p``: odd sizes
        leave a half buffered, so the next call starts from it."""
        ours, numpys = np.random.default_rng(1016), np.random.default_rng(1016)
        buffered = 0
        for n, p in itertools.product(self.SIZES, (0.1, 0.3, 0.5, 0.9)):
            x = np.random.default_rng(n).normal(size=n).astype(ops.FLOAT_DTYPE)
            buffered += ours.bit_generator.state["has_uint32"]
            got = self.compiled(library, x, p, ours)
            expected = numpy_dropout(x, p, numpys)
            assert all(map(bytes_equal, got, expected)), (n, p)
            assert ours.bit_generator.state == numpys.bit_generator.state, (n, p)
        assert buffered >= 8

    def test_a_draw_equal_to_p_keeps_and_special_values_pass(self, library):
        """``draw >= p`` at a ``p`` drawn exactly; ±0, denormals, ±inf and
        NaN inputs through the multiplies (a dropped entry +0.0)."""
        x = dropout_rows()
        p = float(np.random.default_rng(5).random(x.shape, dtype=x.dtype)[3, 2])
        got = self.compiled(library, x, p, np.random.default_rng(5))
        expected = numpy_dropout(x, p, np.random.default_rng(5))
        assert got[1][3, 2] == 1.0 and 0.0 < got[1].mean() < 1.0
        assert all(map(bytes_equal, got, expected))
        assert np.isnan(got[2][-2:]).sum() == np.isnan(x[-2:]).sum()

    @pytest.mark.parametrize("generator", ["PCG64", "MT19937", "Philox",
                                           "PCG64DXSM"])
    @pytest.mark.parametrize("wide", [False, True])
    def test_every_backend_and_generator_is_numpys(self, backend_name, generator,
                                                    wide):
        """``ops.dropout_into`` on every backend, every bit generator and
        both widths (a strided ``x`` too): numpy's bytes and state. Only
        PCG64 at float32 reaches the compiled draw; the rest keep numpy's
        lines."""
        x = dropout_rows().astype(np.float64 if wide else ops.FLOAT_DTYPE)
        bit_generator = getattr(np.random, generator)

        def stream():
            return np.random.Generator(bit_generator(1017))

        ours, numpys = stream(), stream()
        with ops.use_backend(backend_name), np.errstate(invalid="ignore"):
            for rows in (x, x[:, ::2]):
                got = tuple(np.empty_like(rows, order="C") for _ in range(3))
                assert ops.dropout_into(ours, rows, 0.3, *got) is got[2]
                assert all(map(bytes_equal, got, numpy_dropout(rows, 0.3, numpys)))
                # MT19937's state holds an array: compared field by field.
                np.testing.assert_equal(ours.bit_generator.state,
                                        numpys.bit_generator.state)

    def test_where_it_does_not_serve_nothing_moves(self, library):
        """False, with the buffers unwritten and the generator's state
        unchanged: another bit generator, float64, a strided ``x``."""
        x = dropout_rows()
        cases = [
            (x, np.random.Generator(np.random.MT19937(0))),
            (x, np.random.Generator(np.random.PCG64DXSM(0))),
            (x.astype(np.float64), np.random.default_rng(0)),
            (x[:, ::2], np.random.default_rng(0)),
        ]
        for rows, rng in cases:
            before = rng.bit_generator.state
            buffers = tuple(np.full(rows.shape, 7.0, rows.dtype) for _ in range(3))
            assert not native.dropout(library, rng, rows, 0.5, *buffers)
            np.testing.assert_equal(rng.bit_generator.state, before)
            assert all((buffer == 7.0).all() for buffer in buffers)

    def test_the_arguments_are_checked(self):
        x, rng = dropout_rows(), np.random.default_rng(0)
        fine = [np.empty_like(x) for _ in range(3)]
        for p in (-0.1, 1.0):
            with pytest.raises(ValueError, match="probability"):
                ops.dropout_into(rng, x, p, *fine)
        for bad in (None, np.empty(x.shape[::-1], x.dtype),
                    np.empty(x.shape, np.float64), np.empty_like(x, order="F")):
            with pytest.raises(ValueError):
                ops.dropout_into(rng, x, 0.5, fine[0], bad, fine[2])


def test_a_wrapping_backend_reaches_the_compiled_bodies(monkeypatch):
    """A backend that subclasses ``SparseOpsBackend`` and forwards what it
    does not define through ``__getattr__`` (as a tracing wrapper does)
    reaches the vectorized backend's compiled pack, unpack and dropout, not
    a numpy body inherited from the base class."""
    if native.load() is None:
        pytest.skip("the compiled tier is not built here")

    class Forwarding(ops.SparseOpsBackend):
        name = "forwarding"

        def __init__(self, inner):
            self.inner = inner

        def __getattr__(self, attribute):
            return getattr(self.inner, attribute)

    reached = []
    for name in ("pack", "unpack", "dropout"):
        def spy(*args, _body=getattr(native, name), _name=name):
            reached.append(_name)
            return _body(*args)

        monkeypatch.setattr(native, name, spy)
    monkeypatch.setitem(ops._REGISTRY, "forwarding",
                        Forwarding(ops._REGISTRY["vectorized"]))
    x = dropout_rows()[:4]
    mask = ops.topk_mask(x, 2)
    with ops.use_backend("forwarding"), np.errstate(invalid="ignore"):
        data, index = ops.cbsr_pack(x, mask, 2)
        ops.cbsr_unpack(data, index, x.shape[1])
        ops.dropout_into(np.random.default_rng(0), x, 0.5,
                         *(np.empty_like(x) for _ in range(3)))
    assert reached == ["pack", "unpack", "dropout"]


def test_the_kernels_read_the_cbsr_index_block_itself(backend_name, monkeypatch):
    """The ``uint8`` block a ``CBSRMatrix`` stores reaches the backend as
    that very array; a wider index handed in arrives narrowed to it."""
    adj, sp_data, sp_index, grad_out = cbsr_case(
        np.random.default_rng(1008), 6, 7, 10, 3
    )
    cbsr = CBSRMatrix(sp_data, sp_index, 10)
    implementation, seen = ops._REGISTRY[backend_name], []
    for kernel in ("spgemm_cbsr", "sspmm_cbsr"):
        def spy(*args, real=getattr(implementation, kernel)):
            seen.append(args[4])  # sp_index, in both signatures
            return real(*args)

        monkeypatch.setattr(implementation, kernel, spy)
    csr = (adj.indptr, adj.indices, adj.data)
    with ops.use_backend(backend_name):
        for index in (cbsr.sp_index, sp_index.astype(np.int64)):
            ops.spgemm_cbsr(*csr, cbsr.sp_data, index, 10, adj.n_rows)
            ops.sspmm_cbsr(*csr, grad_out, index, adj.n_cols)
    assert seen[0] is cbsr.sp_index and seen[1] is cbsr.sp_index
    assert [s.dtype for s in seen] == [np.dtype(np.uint8)] * 4
    assert bytes_equal(seen[2], cbsr.sp_index)


def test_an_out_that_overlaps_x_is_refused(backend_name):
    """``spmm_csr(..., x, out=x)`` would read rows it already overwrote (the
    compiled loop's ``restrict`` makes it undefined): every backend refuses
    an ``out`` sharing memory with ``x``, whole or in part."""
    adj = cbsr_case(np.random.default_rng(1012), 7, 7, 4, 2)[0]
    buffer = np.ones((adj.n_cols + 1, 3), dtype=adj.data.dtype)
    x, column = buffer[:-1], buffer[:-1, 0]
    with ops.use_backend(backend_name):
        for operand, out in [(x, x), (x, buffer[1:]), (x, x[::-1]),
                             (column, column)]:
            with pytest.raises(ValueError, match="overlap"):
                ops.spmm_csr(adj.indptr, adj.indices, adj.data, operand,
                             adj.n_rows, out=out)
        out = np.empty_like(x)  # a disjoint out still works
        assert ops.spmm_csr(adj.indptr, adj.indices, adj.data, x, adj.n_rows,
                            out=out) is out


def test_cbsr_kernels_write_the_same_bytes_into_out(backend_name):
    """``spgemm_cbsr`` / ``sspmm_cbsr`` with ``out`` return that array,
    holding the fresh call's bytes whatever it held before (each thread
    zeroes the rows it owns; the numpy bodies copy over)."""
    for seed, empty_rows in [(1020, False), (1021, True)]:
        case = cbsr_case(np.random.default_rng(seed), 9, 11, 12, 3,
                         empty_rows=empty_rows)
        adj, sp_data, sp_index, grad_out = case
        csr = (adj.indptr, adj.indices, adj.data)
        fresh = run_cbsr_pair(backend_name, case)
        outs = [np.full(fresh[0].shape, np.nan, dtype=fresh[0].dtype),
                np.full(fresh[1].shape, np.nan, dtype=fresh[1].dtype)]
        with ops.use_backend(backend_name):
            got = (
                ops.spgemm_cbsr(*csr, sp_data, sp_index, grad_out.shape[1],
                                adj.n_rows, out=outs[0]),
                ops.sspmm_cbsr(*csr, grad_out, sp_index, adj.n_cols,
                               out=outs[1]),
            )
        assert got[0] is outs[0] and got[1] is outs[1]
        assert bytes_equal(got[0], fresh[0]) and bytes_equal(got[1], fresh[1])


def test_a_cbsr_out_of_the_wrong_form_is_refused(backend_name):
    adj, sp_data, sp_index, grad_out = cbsr_case(
        np.random.default_rng(1022), 6, 6, 8, 2
    )
    csr = (adj.indptr, adj.indices, adj.data)
    shape, width = (adj.n_rows, 8), adj.data.dtype
    other = np.float64 if width == np.float32 else np.float32
    with ops.use_backend(backend_name):
        for out, match in [
            (np.empty((adj.n_rows + 1, 8), dtype=width), "shape"),
            (np.empty(shape, dtype=other), "dtype"),
            (np.empty((8, adj.n_rows), dtype=width).T, "C-contiguous"),
        ]:
            with pytest.raises(ValueError, match=match):
                ops.spgemm_cbsr(*csr, sp_data, sp_index, 8, adj.n_rows, out=out)
        with pytest.raises(ValueError, match="overlap"):
            ops.sspmm_cbsr(*csr, grad_out, sp_index, adj.n_cols,
                           out=grad_out.reshape(-1)[:adj.n_cols * 2]
                           .reshape(adj.n_cols, 2))


def test_bounds_are_validated_once_per_read_only_adjacency(monkeypatch):
    """Where the loops build, the vectorized backend keeps an adjacency's
    O(nnz) bounds per read-only buffer triple (a warmed ``CSRMatrix``
    brings the check it was built with); a writable one — or a read-only
    view of writable bytes — is re-validated on every call, so an in-place
    edit is caught."""
    if native.load() is None:
        pytest.skip("the compiled loops are not built")
    adj = cbsr_case(np.random.default_rng(1013), 12, 12, 4, 2)[0]
    checks, real = [], ops._check_adjacency
    monkeypatch.setattr(
        ops, "_check_adjacency", lambda *args: checks.append(1) or real(*args)
    )
    x = np.ones((adj.n_cols, 3), dtype=adj.data.dtype)
    assert not adj.indptr.flags.writeable and not adj.indices.flags.writeable
    backend = ops._REGISTRY["vectorized"]
    backend.release([adj])
    with ops.use_backend("vectorized"):
        for _ in range(3):
            first = adj.matmul_dense(x)
        assert len(checks) == 1
        np.multiply(adj.data, 2, out=adj.data)  # the weights stay live
        assert bytes_equal(adj.matmul_dense(x), first * 2)
        backend.release([adj])
        adj.matmul_dense(x)
        assert len(checks) == 2
        backend.release([adj])
        ops.warm([adj])  # a CSRMatrix was checked as it was built
        adj.matmul_dense(x)
        assert len(checks) == 2

        indptr, indices = adj.indptr.copy(), adj.indices.copy()
        view = indices.view()
        view.flags.writeable = False
        for columns in (indices, view):
            del checks[:]
            for _ in range(3):
                ops.spmm_csr(indptr, columns, adj.data, x, adj.n_rows)
            assert len(checks) == 3
        indices[0] = adj.n_cols  # edited in place, past the last column
        with pytest.raises(ValueError, match="out of range"):
            ops.spmm_csr(indptr, indices, adj.data, x, adj.n_rows)
        with pytest.raises(ValueError, match="out of range"):
            ops.spmm_csr(indptr, view, adj.data, x, adj.n_rows)


class TestRegistry:
    def test_reference_and_vectorized_are_the_backends(self):
        assert ops.available_backends() == ["reference", "vectorized"]
        assert not hasattr(ops, "ScipyBackend")

    @pytest.mark.parametrize("name", ["reference", "vectorized"])
    def test_the_env_var_selects_a_backend(self, name, monkeypatch):
        monkeypatch.setenv("REPRO_SPARSE_BACKEND", name)
        assert ops._default_backend_name() == name
        monkeypatch.delenv("REPRO_SPARSE_BACKEND")
        assert ops._default_backend_name() == "vectorized"

    def test_the_env_var_refuses_a_backend_that_is_not_there(self, monkeypatch):
        """An explicit failure, not a silent fallback to the default."""
        monkeypatch.setenv("REPRO_SPARSE_BACKEND", "scipy")
        with pytest.raises(
            ValueError, match=re.escape("options: ['reference', 'vectorized']")
        ):
            ops._default_backend_name()

    def test_set_backend_returns_previous(self):
        current = ops.get_backend()
        previous = ops.set_backend("reference")
        try:
            assert previous is current
            assert ops.get_backend().name == "reference"
        finally:
            ops.set_backend(current.name)

    def test_set_backend_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown sparse backend"):
            ops.set_backend("cuda")

    def test_use_backend_restores_on_exit(self):
        before = ops.get_backend().name
        with ops.use_backend("reference") as active:
            assert active.name == "reference"
        assert ops.get_backend().name == before

    def test_use_backend_restores_on_error(self):
        before = ops.get_backend().name
        with pytest.raises(RuntimeError):
            with ops.use_backend("reference"):
                raise RuntimeError("boom")
        assert ops.get_backend().name == before

    def test_register_backend_rejects_abstract(self):
        with pytest.raises(ValueError):
            ops.register_backend(ops.SparseOpsBackend())

    def test_validation_shared_across_backends(self):
        with pytest.raises(ValueError):
            ops.segment_sum(np.ones((3, 2)), np.array([0, 1]), 2)
        with pytest.raises(ValueError):
            ops.segment_sum(np.ones(2), np.array([0, 3]), 2)
        with pytest.raises(ValueError):
            ops.topk_mask(np.ones((2, 4)), 5)


class TestTensorGatherBackward:
    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_negative_indices_backward(self, backend, seed):
        """Regression: the segment-sum fast path must wrap negative rows
        like np.add.at did."""
        from repro.tensor import Tensor

        rng = np.random.default_rng(1200 + seed)
        data = rng.normal(size=(5, 3))
        key = np.array([-1, 0, 2, -5, -1])
        with ops.use_backend(backend):
            tensor = Tensor(data.copy(), requires_grad=True)
            tensor[key].sum().backward()
        expected = np.zeros_like(data)
        np.add.at(expected, key, 1.0)
        np.testing.assert_array_equal(tensor.grad, expected)

    def test_zero_row_tensor_backward(self, backend):
        """Regression: an empty gather on a 0-row tensor must stay a no-op."""
        from repro.tensor import Tensor

        with ops.use_backend(backend):
            tensor = Tensor(np.zeros((0, 3)), requires_grad=True)
            picked = tensor[np.array([], dtype=np.int64)]
            (picked.sum() + 1.0).backward()
        np.testing.assert_array_equal(tensor.grad, np.zeros((0, 3)))

    def test_compiled_sspmm_matches_the_numpy_scatter(self, monkeypatch):
        """The compiled row-order walk agrees with the k-sampled numpy
        scatter that serves where no compiler builds it."""
        backend = ops._REGISTRY["vectorized"]
        rng = np.random.default_rng(7)
        matrix = random_csr(rng, n_rows=6, n_cols=8)
        grad_out = rng.normal(size=(6, 4))
        sp_index = np.sort(
            np.argsort(rng.random((8, 4)), axis=1)[:, :2], axis=1
        ).astype(np.int64)
        args = (matrix.indptr, matrix.indices, matrix.data, grad_out, sp_index, 8)
        compiled_route = backend.sspmm_cbsr(*args)
        without_compiled_loops(monkeypatch)
        assert bytes_equal(backend.sspmm_cbsr(*args), compiled_route)


class TestSegmentSum:
    """``ops.segment_sum`` on hand-worked cases, and the row gather whose
    backward it is."""

    def test_forward_values(self):
        values = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        out = ops.segment_sum(values, np.array([0, 1, 0]), 2)
        np.testing.assert_array_equal(out, [[6.0, 8.0], [3.0, 4.0]])

    def test_empty_segments_are_zero(self):
        out = ops.segment_sum(np.ones((2, 3)), np.array([2, 2]), 4)
        assert (out[[0, 1, 3]] == 0).all() and (out[2] == 2).all()

    def test_1d_values(self):
        out = ops.segment_sum(np.array([1.0, 2.0, 3.0]), np.array([1, 1, 0]), 2)
        np.testing.assert_array_equal(out, [3.0, 3.0])

    def test_backward_routes_to_rows(self):
        from repro.tensor import Tensor

        x = Tensor(np.ones((2, 2)), requires_grad=True)
        weights = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [70.0, 80.0]])
        (x[np.array([0, 1, 1, 0])] * Tensor(weights)).sum().backward()
        np.testing.assert_array_equal(x.grad, [[71.0, 82.0], [8.0, 10.0]])

    @pytest.mark.usefixtures("double_precision")
    def test_gradient_finite_difference(self):
        from tests.test_tensor import check_gradient

        ids = np.array([0, 2, 1, 2, 0, -1])
        check_gradient(lambda x: (x[ids] * x[ids]).sum(), (3, 3), seed=21)

    def test_validation(self):
        values = np.ones((3, 2))
        for ids, n_segments in (([0, 1], 2), ([0, 1, 5], 2), ([0, -1, 1], 2),
                                ([0, 0, 0], 0)):
            with pytest.raises(ValueError):
                ops.segment_sum(values, np.array(ids), n_segments)
        ids = np.array([0, 1, 1])
        with pytest.raises(ValueError, match="shape"):
            ops.segment_sum(values, ids, 2, out=np.zeros((3, 2), ops.FLOAT_DTYPE))
        with pytest.raises(ValueError, match="dtype"):
            ops.segment_sum(values, ids, 2, out=np.zeros((2, 2), np.int32))


class TestAutogradSegmentOpsAcrossBackends:
    """The Tensor-level row gather, whose backward is ``ops.segment_sum``,
    agrees with the oracle backend."""

    @pytest.mark.parametrize("seed", SEEDS[:3])
    @pytest.mark.parametrize("trailing", [(), (4,)])
    def test_row_gather_forward_backward(self, backend, seed, trailing):
        from repro.tensor import Tensor

        rng = np.random.default_rng(1000 + seed)
        n = 7
        key = rng.integers(-n, n, 30)  # repeated and wrapped rows
        x = rng.normal(size=(n,) + trailing)
        weights = rng.normal(size=(len(key),) + trailing)

        results = {}
        for name in ("reference", backend):
            with ops.use_backend(name):
                tensor = Tensor(x.copy(), requires_grad=True)
                out = tensor[key]
                (out * Tensor(weights)).sum().backward()
                results[name] = (out.numpy(), tensor.grad)
        assert bytes_equal(results[backend][0], results["reference"][0])
        assert bytes_equal(results[backend][1], results["reference"][1])


def induced_rows_loop(base, keys):
    """``ops.induced_rows``'s contract, one base entry at a time."""
    n = base.shape[0]
    position = {int(key): i for i, key in enumerate(keys)}
    indptr, indices, data = [0], [], []
    for key in keys:
        member, node = divmod(int(key), n)
        for edge in range(int(base.indptr[node]), int(base.indptr[node + 1])):
            column = position.get(member * n + int(base.indices[edge]))
            if column is not None:
                indices.append(column)
                data.append(base.data[edge])
        indptr.append(len(indices))
    return indptr, indices, np.array(data, dtype=base.data.dtype)


class TestInducedRows:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n_members", [1, 3])
    def test_induced_rows_is_the_row_loop(self, backend_name, seed, n_members):
        rng = np.random.default_rng(1300 + seed)
        n = int(rng.integers(1, 30))
        base = random_csr(rng, n_rows=n, n_cols=n)
        size = int(rng.integers(0, n_members * n + 1))
        keys = np.sort(rng.choice(n_members * n, size=size, replace=False))
        with ops.use_backend(backend_name):
            window = ops.induced_rows(base, keys, n_members)
        indptr, indices, data = induced_rows_loop(base, keys)
        assert window.shape == (size, size)
        np.testing.assert_array_equal(window.indptr, indptr)
        np.testing.assert_array_equal(window.indices, indices)
        assert bytes_equal(window.data, data)
