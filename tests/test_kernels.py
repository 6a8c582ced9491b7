"""The batched sensitivity kernels equal their plain references bit for bit."""

from __future__ import annotations

from functools import cache

import numpy as np
import pytest

from lvdyn import (
    ContinuousParams,
    ParamBounds,
    bounds_from_baseline,
    discrete_to_continuous,
    evaluate_equilibria,
    fit_details,
    fixture_path,
    load_series,
    regression_to_discrete,
    saltelli_sample,
    sobol_indices,
)
from lvdyn.dynamics import interior_equilibria
from lvdyn.sensitivity import BLOCK

import reference_kernels as ref
from conftest import FIXTURES, PUBLISHED

SEEDS = (0, 1, 7, 1024, 31337, 2**31)


@cache
def params_for(case: str) -> ContinuousParams:
    """Published or fitted continuous coefficients of a fixture subsystem."""
    source, key = case.split(":")
    if source == "published":
        return ContinuousParams(**PUBLISHED[key]["continuous"])
    fname, y_col = FIXTURES[key]
    ts = load_series(fixture_path(fname), {"year": "year", "x": "ai_capital", "y": y_col})
    return discrete_to_continuous(regression_to_discrete(fit_details(ts).coeffs))


CASES = [f"{source}:{key}" for source in ("published", "fitted") for key in FIXTURES]


def assert_same(got: np.ndarray, want: np.ndarray) -> None:
    """Same shape and values, NaN where NaN, and the same sign on every zero."""
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    nan = np.isnan(want)
    assert np.array_equal(np.signbit(got)[~nan], np.signbit(want)[~nan])


def assert_kernels_match(bounds: ParamBounds, n_base: int, seed: int) -> int:
    """Run design, evaluation and indices against the references; return retained."""
    design = saltelli_sample(bounds, n_base, seed)
    want_matrix = ref.saltelli_matrix(bounds, n_base, seed)
    assert design.matrix.flags.f_contiguous
    assert_same(design.matrix, want_matrix)

    outputs, valid = evaluate_equilibria(design.matrix)
    want_out, want_valid = ref.evaluate_equilibria(want_matrix)
    assert_same(outputs, want_out)
    assert np.array_equal(valid, want_valid)

    res = sobol_indices(design, outputs, valid)
    first, total, variance, retained = ref.sobol_indices(n_base, want_out, want_valid)
    assert_same(res.first_order, first)
    assert_same(res.total_order, total)
    assert_same(res.total_variance, variance)
    assert res.retained_triples == retained
    assert res.accepted_count == np.count_nonzero(want_valid)
    return retained


@pytest.mark.parametrize("fraction", [0.1, 0.5])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", CASES)
def test_kernels_match_references(case, seed, fraction):
    retained = assert_kernels_match(bounds_from_baseline(params_for(case), fraction), 1024, seed)
    # The wide box rejects whole blocks, so the gather is exercised too.
    assert (retained < 1024) == (fraction == 0.5)


@pytest.mark.parametrize("case,fraction", [("published:ai_physical", 0.1),
                                           ("fitted:ai_labor", 0.5)])
def test_kernels_match_references_large_n(case, fraction):
    assert_kernels_match(bounds_from_baseline(params_for(case), fraction), 2**16, 3)


@pytest.mark.parametrize("f", [
    lambda m: m[:, 0] - 2.0,                  # negative; five inert inputs
    lambda m: np.sin(m[:, 0]) + 7.0 * np.sin(m[:, 1]) ** 2 - m[:, 5],
], ids=["negative-one-input", "ishigami-like"])
def test_indices_match_reference_on_test_functions(f):
    design = saltelli_sample(ParamBounds(lower=np.zeros(6), upper=np.ones(6)), 256, 5)
    vals = f(np.ascontiguousarray(design.matrix))
    outputs = np.column_stack([vals, -vals])
    valid = np.ones(len(vals), dtype=bool)
    valid[[3, 40, 41, 999]] = False
    res = sobol_indices(design, outputs, valid)
    first, total, variance, _ = ref.sobol_indices(256, outputs, valid)
    assert_same(res.first_order, first)
    assert_same(res.total_order, total)
    assert_same(res.total_variance, variance)


def test_equilibria_match_masked_reference_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    special = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1e200, -1e200,
                               1e-200, 5e-324, 1.0, -1.0])
    entry = st.one_of(st.floats(allow_nan=True, allow_infinity=True), special)
    plain = st.lists(entry, min_size=6, max_size=6)
    # b12*b21 == b11*b22 exactly (power-of-two ratio s), and rows whose
    # coefficient products overflow.
    parallel = st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.floats(-1e3, 1e3),
                         st.floats(-1e3, 1e3), st.sampled_from([0.25, -2.0, 8.0])).map(
        lambda t: [t[0], t[1], t[1] * t[4], t[2], t[3], t[3] * t[4]])
    overflow = st.tuples(st.floats(-1e3, 1e3), st.floats(1e160, 1e300),
                         st.floats(-1e300, 1e300)).map(
        lambda t: [t[0], -t[1], t[2], t[0], t[2], -t[1]])
    rows = st.lists(st.one_of(plain, parallel, overflow), min_size=1, max_size=24)

    @hyp.settings(max_examples=300, deadline=None)
    @hyp.given(rows=rows)
    def check(rows):
        theta = np.array(rows, dtype=float)
        points, ok = interior_equilibria(theta)
        want_points, want_ok = ref.interior_equilibria(theta)
        assert np.array_equal(ok, want_ok)
        assert_same(points, want_points)
        out, valid = evaluate_equilibria(theta)
        want_out, want_valid = ref.evaluate_equilibria(theta)
        assert np.array_equal(valid, want_valid)
        assert_same(out, want_out)

    check()


def test_indices_match_reference_property():
    hyp = pytest.importorskip("hypothesis")
    hnp = pytest.importorskip("hypothesis.extra.numpy")
    st = hyp.strategies
    n = 64
    design = saltelli_sample(ParamBounds(lower=np.zeros(6), upper=np.ones(6)), n, 1)
    values = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 1.0]))

    @hyp.settings(max_examples=100, deadline=None)
    @hyp.given(outputs=hnp.arrays(float, (n * BLOCK, 2), elements=values),
               invalid=st.lists(st.integers(0, n * BLOCK - 1), max_size=24))
    def check(outputs, invalid):
        valid = np.ones(n * BLOCK, dtype=bool)
        valid[invalid] = False
        with np.errstate(all="ignore"):
            first, total, variance, _ = ref.sobol_indices(n, outputs, valid)
        hyp.assume(np.all(variance > 0))
        res = sobol_indices(design, outputs, valid)
        assert_same(res.first_order, first)
        assert_same(res.total_order, total)
        assert_same(res.total_variance, variance)

    check()
