"""The batched sensitivity kernels equal their plain references bit for bit."""

from __future__ import annotations

import itertools
import json
import os
import re
import signal
import sys
import threading
import time
import warnings
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from lvdyn import (
    ContinuousParams,
    NumericalError,
    analyze_sensitivity,
    discrete_to_continuous,
    fit_details,
    fixture_path,
    interior_equilibrium,
    load_series,
    regression_to_discrete,
)
from lvdyn import sensitivity
from lvdyn.errors import DegenerateVariance, LvdynError, TooManyRejections
from lvdyn.dynamics import nullclines_cross
from lvdyn.sensitivity import (BLOCK, ParamBounds, SaltelliDesign, bounds_from_baseline,
                               evaluate_equilibria, saltelli_sample, sobol_indices)

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
    """Run design, evaluation and indices against the references; return retained.

    The references run on the row-major design; their rows are compared in
    the package's block-major order.
    """
    design = saltelli_sample(bounds, n_base, seed)
    want_matrix = ref.saltelli_matrix(bounds, n_base, seed)
    assert design.a.flags.c_contiguous and design.b.flags.c_contiguous
    assert_same(np.moveaxis(ref.design_rows(design), -1, 0),
                ref.block_major(want_matrix, n_base))

    outputs, valid = evaluate_equilibria(design)
    want_out, want_valid = ref.evaluate_equilibria(want_matrix)
    assert_same(outputs, ref.block_major(want_out, n_base))
    assert np.array_equal(valid, ref.block_major(want_valid, n_base))

    res = sobol_indices(design, outputs, valid)
    first, total, variance, retained = ref.sobol_indices(n_base, want_out, want_valid)
    assert_same(res.first_order, first)
    assert_same(res.total_order, total)
    assert_same(res.total_variance, variance)
    assert res.retained_triples == retained
    assert res.accepted_count == np.count_nonzero(want_valid)
    assert res.rejected_count == np.count_nonzero(~want_valid)
    return retained


@pytest.mark.parametrize("fraction", [0.1, 0.5])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", CASES)
def test_kernels_match_references(case, seed, fraction):
    retained = assert_kernels_match(bounds_from_baseline(params_for(case), fraction), 1024, seed)
    # The wide box rejects whole blocks, so the compress is exercised too.
    assert (retained < 1024) == (fraction == 0.5)


@pytest.mark.parametrize("case,fraction", [("published:ai_physical", 0.1),
                                           ("fitted:ai_labor", 0.5)])
def test_kernels_match_references_large_n(case, fraction):
    assert_kernels_match(bounds_from_baseline(params_for(case), fraction), 2**16, 3)


def assert_chain_matches(cp: ContinuousParams, fraction: float, n_base: int, seed: int):
    """analyze_sensitivity against the row-major reference chain, every field."""
    res = analyze_sensitivity(cp, fraction, n_base, seed)
    bounds = bounds_from_baseline(cp, fraction)
    want_out, want_valid = ref.evaluate_equilibria(ref.saltelli_matrix(bounds, n_base, seed))
    first, total, variance, retained = ref.sobol_indices(n_base, want_out, want_valid)
    assert_same(res.first_order, first)
    assert_same(res.total_order, total)
    assert_same(res.total_variance, variance)
    assert (res.accepted_count, res.rejected_count, res.retained_triples) == (
        np.count_nonzero(want_valid), np.count_nonzero(~want_valid), retained)
    assert (res.n_base, res.seed) == (n_base, seed)
    return res


@pytest.mark.parametrize("fraction", [0.1, 0.2, 0.5])
@pytest.mark.parametrize("seed", [1, 1024, 31337])
@pytest.mark.parametrize("case", CASES)
def test_analyze_sensitivity_matches_reference_chain(case, seed, fraction):
    assert_chain_matches(params_for(case), fraction, 1024, seed)


def test_analyze_sensitivity_matches_reference_chain_large_n():
    res = assert_chain_matches(params_for("fitted:ai_physical"), 0.5, 2**16, 42)
    assert res.retained_triples < 2**16
    # At 0.18 the box is not proved valid, yet this sample rejects no row:
    # every row takes the elementwise tests and keeps every point.
    cp = params_for("fitted:ai_physical")
    assert not sensitivity._box_proves_valid(*sensitivity._sample_box(
        bounds_from_baseline(cp, 0.18)))
    res = assert_chain_matches(cp, 0.18, 2**16, 42)
    assert res.rejected_count == 0 and res.retained_triples == 2**16


@pytest.mark.parametrize("fraction", [0.1, 0.5])
def test_indices_do_not_depend_on_the_output_layout(fraction):
    # Rejections at 0.5 drop base indices; the sums must still run pairwise
    # along contiguous rows, as they do for C-ordered outputs.
    design = saltelli_sample(bounds_from_baseline(params_for("fitted:ai_labor"), fraction),
                             1024, 7)
    outputs, valid = evaluate_equilibria(design)
    want = sobol_indices(design, outputs, valid)
    got = sobol_indices(design, np.asfortranarray(outputs), valid)
    assert (want.retained_triples < 1024) == (fraction == 0.5)
    assert_same(got.first_order, want.first_order)
    assert_same(got.total_order, want.total_order)
    assert_same(got.total_variance, want.total_variance)


#: The Sobol' results the benchmark gate compares against, to 9 digits.
RECORDED_SOBOL = json.loads(
    (Path(__file__).resolve().parents[1] / "benchmarks" / "expected.json")
    .read_text(encoding="utf-8"))["sobol"]


@pytest.mark.parametrize("key", sorted(RECORDED_SOBOL))
def test_indices_match_recorded_benchmark_results(key):
    # The benchmark's sobol_large_n draws one of these per op: N = 2^16,
    # fraction 0.1.  A rounding flip in the 9th digit fails here every time.
    subsystem, source, seed = key.split("/")
    res = analyze_sensitivity(params_for(f"{source}:{subsystem}"), 0.1, 2**16, int(seed))

    def g(values):
        return [f"{float(v):.9g}" for v in values]
    assert {"first_order": [g(row) for row in res.first_order],
            "total_order": [g(row) for row in res.total_order],
            "total_variance": g(res.total_variance),
            "retained_triples": res.retained_triples} == RECORDED_SOBOL[key]


@pytest.mark.parametrize("reject", [False, True], ids=["all-kept", "some-dropped"])
def test_indices_leave_their_arguments_unmodified(reject):
    design = saltelli_sample(bounds_from_baseline(params_for("published:ai_labor"), 0.1),
                             256, 3)
    outputs, valid = evaluate_equilibria(design)
    if reject:
        valid[3, :20] = False
    want_out, want_valid = outputs.copy(), valid.copy()
    res = sobol_indices(design, outputs, valid)
    assert res.retained_triples == 256 - 20 * reject
    assert_same(outputs, want_out)
    assert np.array_equal(valid, want_valid)


@pytest.mark.parametrize("f", [
    lambda m: m[:, 0] - 2.0,                  # negative; five inert inputs
    lambda m: np.sin(m[:, 0]) + 7.0 * np.sin(m[:, 1]) ** 2 - m[:, 5],
], ids=["negative-one-input", "ishigami-like"])
def test_indices_match_reference_on_test_functions(f):
    bounds = ParamBounds(lower=np.zeros(6), upper=np.ones(6))
    design = saltelli_sample(bounds, 256, 5)
    vals = f(ref.saltelli_matrix(bounds, 256, 5))
    outputs = np.column_stack([vals, -vals])
    valid = np.ones(len(vals), dtype=bool)
    valid[[3, 40, 41, 999]] = False
    res = sobol_indices(design, ref.block_major(outputs, 256), ref.block_major(valid, 256))
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
        # A finite row is a ContinuousParams: one point, or None, or a typed
        # error where the reference's point is not finite.
        for row, want_point, want_ok in zip(theta, *ref.interior_equilibria(theta)):
            if not np.isfinite(row).all():
                continue
            cp = ContinuousParams(*row.tolist())
            if not want_ok:
                assert interior_equilibrium(cp) is None
            elif np.isfinite(want_point).all():
                assert_same(np.array(interior_equilibrium(cp)), want_point)
            else:
                with pytest.raises(NumericalError, match="interior equilibrium is not finite"):
                    interior_equilibrium(cp)
        out, valid = ref.evaluate_rows(theta)
        want_out, want_valid = ref.evaluate_equilibria(theta)
        assert np.array_equal(valid, want_valid)
        assert_same(out, want_out)
        # On a box of one point the box proof clears valid points only, and
        # each of them but where a quotient rounds to zero.
        proved = np.array([sensitivity._box_proves_valid(row, row) for row in theta.tolist()])
        assert np.array_equal(proved, want_valid & (proved | ~(want_out == 0).any(axis=1)))

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
        if not (np.all(variance > 0) and np.all(np.isfinite(first))
                and np.all(np.isfinite(total))):
            with pytest.raises(DegenerateVariance):
                sobol_indices(design, ref.block_major(outputs, n), ref.block_major(valid, n))
            return
        res = sobol_indices(design, ref.block_major(outputs, n), ref.block_major(valid, n))
        assert_same(res.first_order, first)
        assert_same(res.total_order, total)
        assert_same(res.total_variance, variance)

    check()


def test_pooled_variance_is_np_var_bit_for_bit_property(monkeypatch):
    # The estimators take np.var's steps on each output's pooled A|B outputs,
    # split along the pairwise-sum tree into 1 to 4 parts; rows scaled up to
    # 1e300 include sums and squares that overflow, under the error state
    # sobol_indices sets.  Every A_B^i row equals the A row, so every index
    # is 0 wherever the variance is finite and positive.
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    row = st.tuples(st.floats(-300, 300), st.floats(0, 20), st.booleans())

    @hyp.settings(max_examples=200, deadline=None)
    @hyp.given(r=st.integers(1, 4096), rows=st.lists(row, min_size=2, max_size=2),
               seed=st.integers(0, 2**32 - 1), parts=st.integers(1, 4))
    @hyp.example(r=1, rows=[(300.0, 0.0, False), (-300.0, 0.0, True)], seed=0, parts=1)
    @hyp.example(r=1001, rows=[(300.0, 20.0, False), (5.0, 10.0, False)], seed=3, parts=2)
    def check(r, rows, seed, parts):
        rng = np.random.default_rng(seed)
        pool = np.empty((len(rows), 2 * r))
        for values, (top, span, constant) in zip(pool, rows):
            exponents = rng.uniform(max(-300.0, top - span), top, values.shape)
            values[:] = rng.choice([-1.0, 1.0], values.shape) * 10.0 ** exponents
            if constant:
                values[:] = values[0]
        outputs = np.repeat(pool[:, None, :r], BLOCK, axis=1)
        outputs[:, -1] = pool[:, r:]
        design = SaltelliDesign(a=np.zeros((6, r)), b=np.zeros((6, r)), n_base=r, seed=0)
        monkeypatch.setattr(sensitivity, "_usable_cpus", lambda: parts)
        monkeypatch.setattr(sensitivity, "MIN_PART", 1)
        with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
            warnings.simplefilter("error")
            want = pool.var(axis=-1)
            if not np.all((want > 0) & (want < np.inf)):
                # A float's repr reads back to its bits: the message holds np.var's values.
                with pytest.raises(DegenerateVariance,
                                   match=re.escape(f"pooled output variance is {want.tolist()};")):
                    sobol_indices(design, outputs, np.ones((BLOCK, r), dtype=bool))
                return
            got = sobol_indices(design, outputs, np.ones((BLOCK, r), dtype=bool))
        assert np.array_equal(got.total_variance.view(np.uint64), want.view(np.uint64))
        assert not got.first_order.any() and not got.total_order.any()

    check()


def test_pairwise_leaves_add_up_to_np_sum_property():
    # The estimators' parts each sum some leaves of numpy's pairwise-sum tree;
    # added in the tree's order, the leaf sums are np.add.reduce bit for bit.
    # This pins the numpy behaviour the split relies on: a node of more than
    # 128 elements splits at half its length, rounded down to a multiple of 8.
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=300, deadline=None)
    @hyp.given(n=st.integers(1, 5000), depth=st.integers(0, 3), spread=st.floats(0, 300),
               seed=st.integers(0, 2**32 - 1))
    @hyp.example(n=128, depth=1, spread=5.0, seed=0)
    @hyp.example(n=129, depth=1, spread=5.0, seed=0)
    @hyp.example(n=136, depth=3, spread=5.0, seed=0)
    @hyp.example(n=2 * 1001, depth=3, spread=5.0, seed=0)   # 2r with r % 8 == 1
    @hyp.example(n=2 * 59735, depth=2, spread=5.0, seed=0)  # past numpy's 8192-element buffer
    def check(n, depth, spread, seed):
        rng = np.random.default_rng(seed)
        row = rng.standard_normal(n) * 10.0 ** rng.uniform(-spread, spread, n)
        leaves = sensitivity._pairwise(0, n, depth)
        assert leaves[0][0] == 0 and leaves[-1][1] == n and len(leaves) <= 2**depth
        assert all(stop == start for (_, stop), (start, _) in zip(leaves, leaves[1:]))
        assert all(hi > lo for lo, hi in leaves)
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.add.reduce(row)
            got = sensitivity._pairwise(0, n, depth, lambda lo, hi: np.add.reduce(row[lo:hi]))
        assert np.float64(got).view(np.uint64) == want.view(np.uint64)

    check()


def test_indices_overflowing_on_a_tiny_variance_raise():
    # y* is 1e-153 on one A-row and 0 elsewhere, so its pooled variance is
    # positive but near 1e-308; one A_B^1 row of 43 then makes the squared
    # difference over 2V overflow to an infinite total-order index.
    n = 64
    design = saltelli_sample(ParamBounds(lower=np.zeros(6), upper=np.ones(6)), n, 1)
    outputs = np.zeros((n * BLOCK, 2))
    outputs[0] = (1.0, 1e-153)
    outputs[1] = (0.0, 43.0)
    valid = np.ones(n * BLOCK, dtype=bool)
    with np.errstate(all="ignore"):
        _, total, variance, _ = ref.sobol_indices(n, outputs, valid)
    assert np.all(variance > 0) and np.isinf(total[1, 0])
    with pytest.raises(DegenerateVariance, match="not finite"):
        sobol_indices(design, ref.block_major(outputs, n), ref.block_major(valid, n))


# ---------------------------------------------------------------------------
# Large designs split into parts, one helper thread each beyond the first
# ---------------------------------------------------------------------------

@pytest.fixture
def started_threads(monkeypatch):
    """Record every thread the kernels start, from no helper thread."""
    started = []
    monkeypatch.setattr(sensitivity, "_HELPERS", [])

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(sensitivity.threading, "Thread", Recorded)
    return started


def force_parts(monkeypatch, parts: int) -> None:
    """Split every design of at least 64 * parts base indices into ``parts`` parts."""
    monkeypatch.setattr(sensitivity, "_usable_cpus", lambda: parts)
    monkeypatch.setattr(sensitivity, "MIN_PART", 64)


def test_part_count_follows_usable_cpus_and_min_part(monkeypatch):
    monkeypatch.setattr(sensitivity, "_usable_cpus", lambda: 3)
    min_part = sensitivity.MIN_PART
    assert [sensitivity._part_count(n) for n in
            (64, 1024, 2 * min_part - 1, 2 * min_part, 3 * min_part, 2**30)] == [1, 1, 1, 2, 3, 3]
    monkeypatch.setattr(sensitivity, "_usable_cpus", lambda: 1)
    assert sensitivity._part_count(2**30) == 1


def test_cli_default_size_starts_no_thread(monkeypatch, started_threads):
    # N = 1024, the CLI default, stays in the calling thread however many
    # CPUs there are.  On two CPUs the first N = 2^16 call starts one daemon
    # helper thread, which stays alive and serves every later call.
    monkeypatch.setattr(sensitivity, "_usable_cpus", lambda: 64)
    analyze_sensitivity(params_for("published:ai_physical"), 0.1, 1024, 1)
    assert started_threads == []
    monkeypatch.setattr(sensitivity, "_usable_cpus", lambda: 2)
    for seed in range(5):
        analyze_sensitivity(params_for("published:ai_physical"), 0.1, 2**16, seed)
        assert len(started_threads) == 1
        assert started_threads[0].daemon and started_threads[0].is_alive()


def split_run(monkeypatch, parts: int, bounds: ParamBounds, n_base: int, seed: int):
    force_parts(monkeypatch, parts)
    design = saltelli_sample(bounds, n_base, seed)
    outputs, valid = evaluate_equilibria(design)
    return design, outputs, valid, sobol_indices(design, outputs, valid)


#: Triples that the split cases which reject whole triples retain.  583 and
#: 59735 are not multiples of 8, so a leaf of the pooled rows straddles f(A)|f(B).
SPLIT_RETAINED = {("fitted:ai_labor", 0.5, 1024): 583, ("fitted:ai_labor", 0.5, 2**16): 37092,
                  ("fitted:ai_physical", 0.3, 2**16): 59735}


@pytest.mark.parametrize("case,fraction,n_base", [
    ("published:ai_physical", 0.1, 256),
    ("fitted:ai_labor", 0.5, 1024),
    ("fitted:ai_physical", 0.1, 2**15),
    ("fitted:ai_labor", 0.5, 2**16),
    ("fitted:ai_physical", 0.3, 2**16),
])
def test_split_kernels_are_bit_identical_to_one_part(monkeypatch, started_threads, case,
                                                      fraction, n_base):
    bounds = bounds_from_baseline(params_for(case), fraction)
    one = split_run(monkeypatch, 1, bounds, n_base, 5)
    assert started_threads == []
    assert one[3].retained_triples == SPLIT_RETAINED.get((case, fraction, n_base), n_base)
    for parts in (2, 3, 4):
        design, outputs, valid, res = split_run(monkeypatch, parts, bounds, n_base, 5)
        # Each call starts only the helpers that no earlier call started.
        assert len(started_threads) == parts - 1
        assert all(t.is_alive() for t in started_threads)
        assert_same(design.a, one[0].a)
        assert_same(design.b, one[0].b)
        assert_same(outputs, one[1])
        assert np.array_equal(valid, one[2])
        want = one[3]
        assert_same(res.first_order, want.first_order)
        assert_same(res.total_order, want.total_order)
        assert_same(res.total_variance, want.total_variance)
        assert (res.accepted_count, res.rejected_count, res.retained_triples) == (
            want.accepted_count, want.rejected_count, want.retained_triples)


def test_many_parts_with_fast_thread_switches_lose_no_write(monkeypatch):
    # More parts than cores, switching threads every microsecond: a write
    # lost between parts would change a result.
    bounds = bounds_from_baseline(params_for("fitted:ai_labor"), 0.5)
    want = split_run(monkeypatch, 1, bounds, 1024, 9)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            got = split_run(monkeypatch, 8, bounds, 1024, 9)
            assert_same(np.concatenate([got[0].a, got[0].b]),
                        np.concatenate([want[0].a, want[0].b]))
            assert_same(got[1], want[1])
            assert np.array_equal(got[2], want[2])
            assert_same(got[3].first_order, want[3].first_order)
            assert_same(got[3].total_order, want[3].total_order)
    finally:
        sys.setswitchinterval(interval)


def test_error_in_a_helper_thread_keeps_its_class(monkeypatch, started_threads):
    # The second range of base indices is evaluated in a helper thread; its
    # typed error reaches the caller unchanged, once every part has run.
    # The box of fraction 0.5 is not proved valid, so the evaluation tests
    # its denominators.  The helper survives and serves the next call.
    def failing(*args):
        if threading.current_thread() is not threading.main_thread():
            raise TooManyRejections("raised in a helper thread")
        return nullclines_cross(*args)

    want = outcome("published:ai_physical", 0.5, 256, 1)
    monkeypatch.setattr(sensitivity, "nullclines_cross", failing)
    force_parts(monkeypatch, 2)
    with pytest.raises(TooManyRejections, match="raised in a helper thread"):
        analyze_sensitivity(params_for("published:ai_physical"), 0.5, 256, 1)
    assert len(started_threads) == 1 and started_threads[0].is_alive()
    monkeypatch.setattr(sensitivity, "nullclines_cross", nullclines_cross)
    assert_same_outcome(outcome("published:ai_physical", 0.5, 256, 1), want)
    assert len(started_threads) == 1


def test_a_helper_taken_goes_back_when_the_next_cannot_start(monkeypatch, started_threads):
    # A 3-part call takes the idle helper, hands it a part and then fails to
    # start a second one: the error reaches the caller once the part has run,
    # and the helper is idle again for the next call.
    bounds = bounds_from_baseline(params_for("fitted:ai_labor"), 0.5)
    want = split_run(monkeypatch, 2, bounds, 1024, 3)
    helpers = list(sensitivity._HELPERS)
    assert len(helpers) == 1

    def cannot_start(self):
        raise RuntimeError("can't start new thread")

    with monkeypatch.context() as m:
        m.setattr(sensitivity.threading.Thread, "start", cannot_start)
        with pytest.raises(RuntimeError, match="can't start new thread"):
            split_run(monkeypatch, 3, bounds, 1024, 3)
    assert sensitivity._HELPERS == helpers and helpers[0].done.locked()
    got = split_run(monkeypatch, 2, bounds, 1024, 3)
    assert len(started_threads) == 1 and sensitivity._HELPERS == helpers
    assert_same(got[1], want[1])
    assert_same(got[3].first_order, want[3].first_order)
    assert_same(got[3].total_order, want[3].total_order)


def test_run_parts_raises_the_first_failing_part():
    done = []

    def work(lo, hi):
        if lo:
            raise KeyError(lo)
        done.append((lo, hi))

    with pytest.raises(KeyError) as err:
        sensitivity._run_parts(work, 9, 3)
    assert err.value.args == (3,)
    assert done == [(0, 3)]


def test_parts_keep_the_callers_error_state():
    def overflow(lo, hi):
        np.float64(1e308) * np.float64(10.0)

    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            sensitivity._run_parts(overflow, 2, 2)
    with np.errstate(over="ignore"):
        sensitivity._run_parts(overflow, 2, 2)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_starts_its_own_helper(monkeypatch):
    # A child made by os.fork runs none of its parent's threads.  Handing a
    # part to the parent's helper would wait for ever, so the child must
    # start a helper of its own and finish with the parent's result.
    force_parts(monkeypatch, 2)
    args = (params_for("fitted:ai_labor"), 0.5, 1024, 3)
    want = analyze_sensitivity(*args)
    assert sensitivity._HELPERS
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)   # fork of a threaded process
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            got = analyze_sensitivity(*args)
            code = 0 if all(np.array_equal(g.view(np.uint64), w.view(np.uint64)) for g, w in (
                (got.first_order, want.first_order), (got.total_order, want.total_order),
                (got.total_variance, want.total_variance))) else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done[0] == pid, "the child did not finish within 60 s"
    assert os.waitstatus_to_exitcode(done[1]) == 0


@pytest.mark.parametrize("parts", [2, 3])
def test_overflow_in_a_helper_thread_emits_no_warning(monkeypatch, parts):
    # y* is 1e160 everywhere but on the B-row and the A_B^1 row of base
    # index 0, so its pooled variance is finite (near 1e297) while f(B) *
    # (f(A_B^1) - f(A)) overflows.  The estimators of y* run in a helper
    # thread, where pytest's error::RuntimeWarning would turn an overflow
    # warning into an error.  The evaluation of a box whose
    # coefficient products overflow runs in helper threads too.
    force_parts(monkeypatch, parts)
    n = 256
    design = saltelli_sample(ParamBounds(lower=np.zeros(6), upper=np.ones(6)), n, 1)
    outputs = np.full((n * BLOCK, 2), 1e160)
    outputs[:, 0] = np.arange(n * BLOCK)
    outputs[1, 1] += 1e151                  # A_B^1 row of base index 0
    outputs[BLOCK - 1, 1] += 1e150          # its B-row
    valid = np.ones(n * BLOCK, dtype=bool)
    with pytest.raises(DegenerateVariance, match="not finite"):
        sobol_indices(design, ref.block_major(outputs, n), ref.block_major(valid, n))
    huge = ParamBounds(lower=np.full(6, 1e200), upper=np.full(6, 2e200))
    _, valid = evaluate_equilibria(saltelli_sample(huge, n, 1))
    assert not valid.any()


# ---------------------------------------------------------------------------
# The elementwise tests of a design whose box is not proved valid
# ---------------------------------------------------------------------------

@pytest.fixture
def denominator_calls(monkeypatch):
    """How many points every nullclines_cross call of the evaluation tested."""
    calls = []

    def recorded(cross, *args):
        calls.append(len(cross))
        nullclines_cross(cross, *args)

    monkeypatch.setattr(sensitivity, "nullclines_cross", recorded)
    return calls


def uniform(rng, lo, hi, n: int) -> np.ndarray:
    """(6, n) columns, parameter i uniform in [lo[i], hi[i])."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    return lo[:, None] + rng.random((6, n)) * (hi - lo)[:, None]


#: Base indices of the near-parallel A rows of the "denominator" design.
NEAR_PARALLEL = np.array([i for i in range(0, 2**16, 89) if i % 97])


def slow_path_design(case: str) -> SaltelliDesign:
    """A design of N = 2^16 built directly from A and B that fails one elementwise test."""
    rng, n = np.random.default_rng(11), 2**16
    if case == "denominator":
        # b12*b21 - b11*b22 changes sign, and every 97th A row is exactly
        # parallel.
        lo, hi = [0.5] * 6, [1.5] * 6
        a, b = uniform(rng, lo, hi, n), uniform(rng, lo, hi, n)
        a[2, ::97], a[5, ::97] = 2.0 * a[1, ::97], 2.0 * a[4, ::97]
        # Near-parallel A rows with x* = y* = 0.5, which A_B^1 and A_B^4
        # repeat: den = -e for e of 4 (not ok) or 6 units of 2^-52 against a
        # threshold of 1e-15.
        near = NEAR_PARALLEL
        e = (4 + 2 * (near % 2)) * 2.0**-52
        a[:, near] = 1.0
        a[0, near], a[3, near], a[5, near] = -1.0, -(1.0 + e / 2), 1.0 + e
        b[0, near], b[3, near] = a[0, near], a[3, near]
    elif case == "negative":
        # The denominator is near -1 everywhere; a1 and a2 change sign.
        lo, hi = [-0.2, -1.5, -0.1, -0.2, -0.1, -1.5], [1.0, -0.5, 0.1, 1.0, 0.1, -0.5]
        a, b = uniform(rng, lo, hi, n), uniform(rng, lo, hi, n)
    else:
        # The denominator is near -1e-20, so x* = a1 * 1e10 overflows for
        # a1 past 1.8e298.
        lo = [1e280, -1.5e-10, -1e-12, 1e280, -1e-12, -1.5e-10]
        hi = [1e300, -0.5e-10, 1e-12, 1e300, 1e-12, -0.5e-10]
        a, b = uniform(rng, lo, hi, n), uniform(rng, lo, hi, n)
    return SaltelliDesign(a=a, b=b, n_base=n, seed=0)


class Prefilled:
    """numpy as a module sees it, except that every np.empty array starts full of ``fill``."""

    def __init__(self, fill) -> None:
        self.fill = fill

    def __getattr__(self, name: str):
        return getattr(np, name)

    def empty(self, *args, **kwargs) -> np.ndarray:
        array = np.empty(*args, **kwargs)
        array[...] = self.fill
        return array


@pytest.mark.parametrize("parts", [1, 2])
@pytest.mark.parametrize("case", ["denominator", "negative", "overflow"])
def test_slow_paths_match_reference_large_n(monkeypatch, denominator_calls, case, parts):
    force_parts(monkeypatch, parts)
    design = slow_path_design(case)
    want_out, want_valid = ref.design_equilibria(design)
    # The outputs and their validity start all valid (1.0), then all invalid
    # (0.0), so an output or a validity the evaluation does not write shows.
    for fill in (True, False):
        with monkeypatch.context() as patched:
            patched.setattr(sensitivity, "np", Prefilled(fill))
            outputs, valid = evaluate_equilibria(design)
        assert_same(outputs, want_out)
        assert np.array_equal(valid, want_valid)
    # Six denominators per part and call, each tested at every point of its
    # part; every case rejects some rows.
    assert len(denominator_calls) == 2 * 6 * parts
    assert sum(denominator_calls) == 2 * 6 * design.n_base
    assert not valid.all()
    points, ok = ref.interior_equilibria(ref.design_rows(design).reshape(-1, 6))
    if case == "denominator":
        assert not ok.all() and ok.any()
        # A_B^1 and A_B^4 take the A row's nullcline rule.
        assert not valid[[0, 1, 4], ::97].any()
        assert np.array_equal(valid[[0, 1, 4]][:, NEAR_PARALLEL],
                              np.tile(NEAR_PARALLEL % 2 == 1, (3, 1)))
    else:
        assert ok.all()
        if case == "negative":
            assert (points < 0).any() and np.isfinite(points).all()
        else:
            assert np.isinf(points).any()


def test_clean_design_without_a_box_tests_every_point(monkeypatch, denominator_calls):
    # Every point is valid, but a direct call passes no box to prove it.
    force_parts(monkeypatch, 2)
    design = saltelli_sample(bounds_from_baseline(params_for("published:ai_physical"), 0.1),
                             2**16, 3)
    outputs, valid = evaluate_equilibria(design)
    want_out, want_valid = ref.design_equilibria(design)
    assert_same(outputs, want_out)
    assert np.array_equal(valid, want_valid)
    assert denominator_calls == [2**15] * 12
    assert valid.all()


@pytest.mark.parametrize("n", [1, 2, 3, 5, 64])
def test_small_direct_designs_in_parts_match_reference(monkeypatch, n):
    # Every base index may be its own part: no range of a part is empty.
    monkeypatch.setattr(sensitivity, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(sensitivity, "MIN_PART", 1)
    for case in ("denominator", "negative", "overflow"):
        full = slow_path_design(case)
        design = SaltelliDesign(a=full.a[:, :n].copy(), b=full.b[:, :n].copy(), n_base=n, seed=0)
        outputs, valid = evaluate_equilibria(design)
        want_out, want_valid = ref.design_equilibria(design)
        assert_same(outputs, want_out)
        assert np.array_equal(valid, want_valid)
        out, row_valid = ref.evaluate_rows(design.a.T)
        want_out, want_valid = ref.evaluate_equilibria(design.a.T)
        assert_same(out, want_out)
        assert np.array_equal(row_valid, want_valid)


def test_denominator_test_is_exact_at_the_threshold():
    # |den| of 9 units of 2^-53 is just under 1e-15 * max(|cross|, |own|):
    # one such row among ok rows must be not ok.  Both signs of the
    # products: the largest magnitude may be a minimum.
    k = np.array([10.0, 9.0, 12.0, 10.0])
    den, ok, spare = np.empty(4), np.empty(4, dtype=bool), np.empty((2, 4))
    for sign in (1.0, -1.0):
        cross, own = sign * np.ones(4), sign * (1.0 - k * 2.0**-53)
        ok.fill(False)
        nullclines_cross(cross, own, den, ok, spare)
        assert ok.tolist() == [True, False, True, True]
        assert np.array_equal(den, cross - own)
        nullclines_cross(cross[[0, 2]], own[[0, 2]], den[:2], ok[:2], spare[:, :2])
        assert ok[:2].all()
    nullclines_cross(np.array([1.0, np.nan]), np.array([0.5, 0.5]), den[:2], ok[:2],
                     spare[:, :2])
    assert ok[:2].tolist() == [True, False]
    # No elements: nothing to write.
    nullclines_cross(den[:0], den[:0], den[:0], ok[:0], spare[:, :0])
    # The box proof draws the same line on a box of one point, at x* = y* = 0.
    for k, proved in ((9, False), (10, True)):
        for sign in (1.0, -1.0):
            point = [0.0, sign * (1.0 - k * 2.0**-53), 1.0, 0.0, sign, 1.0]
            assert sensitivity._box_proves_valid(point, point) == proved


# ---------------------------------------------------------------------------
# The box proof, which replaces every per-point test of a design
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("widths", ["subnormal", "tiny", "huge"])
def test_every_sample_lies_in_the_sample_box(monkeypatch, widths):
    # Subnormal widths are where width * 2**-30 is not exact, so the sampler
    # scales in two steps there; each design still equals the reference.  The
    # box's ends are the values of digits 0 and 2**30 - 1.
    lower = np.array([1e-310, -3e-310, 0.0, 1.0, -1e-300, 1e300])
    upper = {"subnormal": lower + np.array([4e-320, 1e-312, 5e-324, 0, 3e-316, 0]),
             "tiny": np.nextafter(lower, np.inf),
             "huge": lower + np.array([1e300, 1e308, 8e307, 1e307, 1e299, 5e307])}[widths]
    upper[upper == lower] = np.nextafter(lower, np.inf)[upper == lower]
    bounds = ParamBounds(lower=lower, upper=upper)
    box_lo, box_hi = (np.array(end)[:, None] for end in sensitivity._sample_box(bounds))
    assert np.array_equal(box_lo[:, 0], lower) and np.all(box_hi[:, 0] <= upper)
    for seed in SEEDS:
        design = saltelli_sample(bounds, 1024, seed)
        for m in (design.a, design.b):
            assert np.all((box_lo <= m) & (m <= box_hi))
        assert_same(np.moveaxis(ref.design_rows(design), -1, 0),
                    ref.block_major(ref.saltelli_matrix(bounds, 1024, seed), 1024))
    for digit, end in ((0, box_lo), (2**30 - 1, box_hi)):
        monkeypatch.setattr(sensitivity, "_scramble", lambda seed: (
            np.full(12, digit, np.uint32), np.zeros((12, 30), np.uint32)))
        design = saltelli_sample(bounds, 64, 0)
        assert_same(np.concatenate([design.a, design.b]), np.tile(end, (2, 64)))


def assert_proof_is_sound(bounds: ParamBounds, seed: int) -> bool:
    """Whether the proof clears the sample box of bounds; where it does, every
    row of a design sampled in bounds, and of one whose A rows are the box's 64
    corners, is valid, and the proved evaluation is the unproved one bit for bit."""
    box = sensitivity._sample_box(bounds)
    if not sensitivity._box_proves_valid(*box):
        return False
    design = saltelli_sample(bounds, 64, seed)
    corners = np.array(list(itertools.product(*zip(*box)))).T
    for d in (design, SaltelliDesign(a=corners, b=design.b, n_base=64, seed=0)):
        want_out, want_valid = ref.design_equilibria(d)
        assert want_valid.all()
        for outputs, valid in (evaluate_equilibria(d), evaluate_equilibria(d, _box=box)):
            assert valid.all()
            assert np.array_equal(outputs.view(np.uint64), want_out.view(np.uint64))
    return True


def test_box_proof_is_sound_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    # Coefficients of both signs, with the growth rates and the interaction
    # terms each at a common scale out to 1e+-300, half of them with growth
    # rates that put the equilibrium in the first quadrant; boxes of relative
    # width or of a few ulps, which are subnormal at 1e-300; and centres whose
    # denominator or a numerator is zero or within a few ulps of it.
    coeff = st.builds(lambda sign, m: sign * m, st.sampled_from([-1.0, 1.0]), st.floats(0.1, 10))
    scale = st.sampled_from([1.0, 1e-8, 1e8, 1e-150, 1e150, 1e-300, 1e300, 1e-305])
    tie = st.sampled_from([None, "den", "num_x", "num_y"])
    delta = st.sampled_from([0.0, 2.0**-52, -2.0**-52, 1e-15, -1e-15, 1e-9, -1e-3, 0.5])
    width = st.one_of(st.floats(-16, -0.3).map(lambda e: ("relative", 10.0 ** e)),
                      st.integers(1, 2**40).map(lambda k: ("ulps", k)))

    @hyp.settings(max_examples=500, deadline=None)
    @hyp.given(c=st.lists(coeff, min_size=6, max_size=6), sa=scale, sb=scale,
               point=st.booleans(), tie=tie, delta=delta, width=width,
               seed=st.integers(0, 2**32 - 1))
    def check(c, sa, sb, point, tie, delta, width, seed):
        a1, b11, b12, a2, b21, b22 = (v * (sa if i in (0, 3) else sb) for i, v in enumerate(c))
        if point:
            x, y = abs(a1) / sb, abs(a2) / sb
            a1, a2 = -(b11 * x + b12 * y), -(b21 * x + b22 * y)
        if tie == "den":
            b21 = b11 * b22 / b12 * (1 + delta)
        elif tie == "num_x":
            a2 = a1 * b22 / b12 * (1 + delta)
        elif tie == "num_y":
            a1 = b11 * a2 / b21 * (1 + delta)
        theta = np.array([a1, b11, b12, a2, b21, b22])
        hyp.assume(np.isfinite(theta).all())
        kind, w = width
        half = np.abs(theta) * w if kind == "relative" else w * np.spacing(np.abs(theta))
        with np.errstate(over="ignore"):
            lower, upper = theta - half, theta + half
        hyp.assume(np.isfinite(upper - lower).all() and np.all(lower < upper))
        hyp.event(f"proved: {assert_proof_is_sound(ParamBounds(lower, upper), seed)}")

    check()


@pytest.mark.parametrize("case", CASES)
def test_box_proof_clears_the_tenth_boxes(monkeypatch, denominator_calls, case):
    # The benchmark's +-10% boxes are proved valid, so analyze_sensitivity
    # tests no denominator; the +-20% and +-50% boxes are not, whether or not
    # they reject a row.  Either way the result is the reference chain's.
    for fraction, proved in ((0.1, True), (0.2, False), (0.5, False)):
        bounds = bounds_from_baseline(params_for(case), fraction)
        assert assert_proof_is_sound(bounds, 3) == proved
        denominator_calls.clear()
        assert_chain_matches(params_for(case), fraction, 1024, 3)
        assert (denominator_calls == []) == proved


# ---------------------------------------------------------------------------
# The per-thread scratch that every kernel reuses
# ---------------------------------------------------------------------------

def outcome(case: str, fraction: float, n_base: int, seed: int):
    """analyze_sensitivity's result, or the class and message of its typed error."""
    try:
        return analyze_sensitivity(params_for(case), fraction, n_base, seed)
    except LvdynError as exc:
        return type(exc), str(exc)


def in_fresh_thread(fn, *args):
    """fn(*args) in a new thread, whose scratch no earlier call has used."""
    result = []
    thread = threading.Thread(target=lambda: result.append(fn(*args)))
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    return result[0]


def assert_same_outcome(got, want) -> None:
    if isinstance(want, tuple):
        assert got == want
        return
    assert_same(got.first_order, want.first_order)
    assert_same(got.total_order, want.total_order)
    assert_same(got.total_variance, want.total_variance)
    assert (got.accepted_count, got.rejected_count, got.retained_triples, got.n_base,
            got.seed) == (want.accepted_count, want.rejected_count, want.retained_triples,
                          want.n_base, want.seed)


def test_public_kernel_results_are_never_written_by_a_later_call():
    bounds = bounds_from_baseline(params_for("published:ai_physical"), 0.1)
    design = saltelli_sample(bounds, 1024, 3)
    outputs, valid = evaluate_equilibria(design)
    res = analyze_sensitivity(params_for("published:ai_physical"), 0.1, 1024, 3)
    kept = [design.a, design.b, outputs, valid, res.first_order, res.total_order,
            res.total_variance]
    want = [a.copy() for a in kept]
    # Same size, so the scratch is reused; every returned array is allocated anew.
    analyze_sensitivity(params_for("fitted:ai_labor"), 0.5, 1024, 4)
    other = saltelli_sample(bounds_from_baseline(params_for("fitted:ai_labor"), 0.5), 1024, 4)
    sobol_indices(other, *evaluate_equilibria(other))
    for got, expected in zip(kept, want):
        if got.dtype == bool:
            assert np.array_equal(got, expected)
        else:
            assert_same(got, expected)
    assert not any(np.shares_memory(got, sensitivity._scratch(1024)) for got in kept)


def test_a_prefilled_scratch_changes_no_result(monkeypatch):
    # Before each kernel call the thread's scratch is filled with 7.0, then
    # with NaN, so a temporary a kernel reads before it writes shows.
    cp = params_for("fitted:ai_physical")
    bounds = bounds_from_baseline(cp, 0.5)
    for n_base, parts in ((256, 1), (2**16, 2)):
        force_parts(monkeypatch, parts)
        want_design = saltelli_sample(bounds, n_base, 8)
        want_out, want_valid = evaluate_equilibria(want_design)
        want = sobol_indices(want_design, want_out, want_valid)
        scratch = sensitivity._scratch(n_base)
        for fill in (7.0, np.nan):
            scratch[...] = fill
            design = saltelli_sample(bounds, n_base, 8)
            assert_same(np.concatenate([design.a, design.b]),
                        np.concatenate([want_design.a, want_design.b]))
            scratch[...] = fill
            outputs, valid = evaluate_equilibria(design)
            assert_same(outputs, want_out)
            assert np.array_equal(valid, want_valid)
            scratch[...] = fill
            assert_same_outcome(sobol_indices(design, outputs, valid), want)
            scratch[...] = fill
            assert_same_outcome(analyze_sensitivity(cp, 0.5, n_base, 8), want)
        assert sensitivity._scratch(n_base) is scratch


#: N changes at every call, so the scratch is sized anew each time.
CALL_SEQUENCE = [("published:ai_physical", 0.1, 64, 1), ("fitted:ai_labor", 0.5, 2**16, 2),
                 ("fitted:ai_physical", 0.5, 1024, 3), ("published:ai_labor", 0.1, 2**16, 4),
                 ("published:ai_labor", 0.1, 2**16, 5), ("fitted:ai_labor", 0.9, 2**16, 5)]


def test_a_call_sequence_equals_each_call_in_a_fresh_thread():
    serial = [outcome(*call) for call in CALL_SEQUENCE]
    assert serial[-1][0] is TooManyRejections
    for call, got in zip(CALL_SEQUENCE, serial):
        assert_same_outcome(got, in_fresh_thread(outcome, *call))


@pytest.mark.parametrize("n_base", [1024, 2**16])
def test_a_rejected_call_leaves_the_next_call_intact(n_base):
    want = in_fresh_thread(outcome, "fitted:ai_physical", 0.5, n_base, 7)
    # Every triple is rejected at 0.9, after the design and outputs were written.
    with pytest.raises(TooManyRejections):
        analyze_sensitivity(params_for("fitted:ai_physical"), 0.9, n_base, 7)
    assert_same_outcome(outcome("fitted:ai_physical", 0.5, n_base, 7), want)


def test_threads_at_once_equal_their_serial_results():
    # More threads than cores, switching often: a scratch shared between
    # threads would mix the designs or outputs of their calls.
    calls = [("published:ai_physical", 0.1, 2**16, 5), ("fitted:ai_labor", 0.5, 2**16, 6),
             ("fitted:ai_physical", 0.5, 1024, 7)]
    want = [outcome(*call) for call in calls]
    barrier = threading.Barrier(len(calls))
    got = [[] for _ in calls]

    def run(i: int) -> None:
        barrier.wait()
        for _ in range(3):
            got[i].append(outcome(*calls[i]))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(calls))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for results, expected in zip(got, want):
        assert len(results) == 3
        for res in results:
            assert_same_outcome(res, expected)
    # Each call took its own idle helpers and put each back once.
    assert len(set(map(id, sensitivity._HELPERS))) == len(sensitivity._HELPERS)
