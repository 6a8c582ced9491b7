"""Sampling design, equilibrium evaluation and Sobol' index estimators."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from lvdyn import (
    ContinuousParams,
    NumericalError,
    ValidationError,
    analyze_sensitivity,
    fixture_path,
    interior_equilibrium,
)
from lvdyn import sensitivity
from lvdyn.errors import DegenerateVariance, InvalidN, TooManyRejections, ZeroBaseline
from lvdyn.params import PARAM_NAMES
from lvdyn.sensitivity import (BLOCK, ParamBounds, bounds_from_baseline, evaluate_equilibria,
                               saltelli_sample, sobol_indices)

import reference_kernels as ref
from conftest import PUBLISHED


def cp_for(key: str) -> ContinuousParams:
    return ContinuousParams(**PUBLISHED[key]["continuous"])


def unit_bounds() -> ParamBounds:
    return ParamBounds(lower=np.zeros(6), upper=np.ones(6))


def indices_for(f, bounds: ParamBounds, n_base=1024, seed=99):
    """Run the estimator on a scalar test function (same output both slots)."""
    design = saltelli_sample(bounds, n_base, seed)
    vals = ref.block_values(f, design)
    outputs = np.stack([vals, vals])
    valid = np.ones(vals.shape, dtype=bool)
    return sobol_indices(design, outputs, valid)


# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------

def test_bounds_from_baseline_arithmetic():
    cp = ContinuousParams(a1=3.8526, b11=-1, b12=-1, a2=1, b21=1, b22=-1)
    bounds = bounds_from_baseline(cp, 0.1)
    assert bounds.lower[0] == pytest.approx(3.46734, abs=1e-9)
    assert bounds.upper[0] == pytest.approx(4.23786, abs=1e-9)


def test_bounds_preserve_sign_for_negatives():
    cp = ContinuousParams(a1=1, b11=-0.000126, b12=-1, a2=1, b21=1, b22=-1)
    bounds = bounds_from_baseline(cp, 0.1)
    assert bounds.lower[1] == pytest.approx(-0.0001386, abs=1e-12)
    assert bounds.upper[1] == pytest.approx(-0.0001134, abs=1e-12)
    assert bounds.upper[1] < 0


@pytest.mark.parametrize("fraction", [0.0, 1.0, -0.1, 1.5])
def test_bounds_reject_bad_fraction(fraction):
    with pytest.raises(ValidationError):
        bounds_from_baseline(cp_for("ai_physical"), fraction)


def test_bounds_reject_zero_baseline():
    cp = ContinuousParams(a1=1, b11=-1, b12=0.0, a2=1, b21=1, b22=-1)
    with pytest.raises(ZeroBaseline):
        bounds_from_baseline(cp, 0.1)


def test_param_bounds_validation():
    with pytest.raises(ValidationError):
        ParamBounds(lower=np.ones(6), upper=np.zeros(6))
    with pytest.raises(ValidationError):
        ParamBounds(lower=np.zeros(5), upper=np.ones(5))


@pytest.mark.filterwarnings("error")
def test_param_bounds_reject_a_width_that_overflows():
    # upper - lower overflowed with a RuntimeWarning, and the sampler then
    # drew infinite values.
    lower = np.array([-1e308, 0.0, 0.0, 0.0, -1e308, 0.0])
    with pytest.raises(ValidationError, match=r"upper - lower must be finite for every "
                                              r"parameter: \['a1', 'b21'\]"):
        ParamBounds(lower=lower, upper=np.abs(lower) + 1.0)


# ---------------------------------------------------------------------------
# Saltelli design
# ---------------------------------------------------------------------------

def test_design_row_counts():
    bounds = unit_bounds()
    for n, rows in ((64, 512), (1024, 8192)):
        design = saltelli_sample(bounds, n, 1)
        assert design.a.shape == design.b.shape == (6, n)
        assert ref.design_rows(design).reshape(-1, 6).shape == (rows, 6)
        outputs, valid = evaluate_equilibria(design)
        assert outputs.shape == (2, BLOCK, n) and valid.size == rows


def test_design_within_bounds():
    cp = cp_for("ai_physical")
    bounds = bounds_from_baseline(cp, 0.1)
    rows = ref.design_rows(saltelli_sample(bounds, 128, 5))
    assert np.all(rows >= bounds.lower)
    assert np.all(rows <= bounds.upper)


def test_design_block_structure():
    design = saltelli_sample(unit_bounds(), 64, 3)
    blocks = ref.design_rows(design)                # (BLOCK, 64, 6)
    a, b = blocks[0], blocks[-1]
    assert np.array_equal(a, design.a.T) and np.array_equal(b, design.b.T)
    for i in range(6):
        ab = blocks[1 + i]
        other = [j for j in range(6) if j != i]
        assert np.array_equal(ab[:, other], a[:, other])
        assert np.array_equal(ab[:, i], b[:, i])


def test_design_deterministic_in_seed():
    one = saltelli_sample(unit_bounds(), 128, 42)
    two = saltelli_sample(unit_bounds(), 128, 42)
    other = saltelli_sample(unit_bounds(), 128, 43)
    assert np.array_equal(one.a, two.a) and np.array_equal(one.b, two.b)
    assert not np.array_equal(one.a, other.a)
    assert not np.array_equal(one.b, other.b)


@pytest.mark.parametrize("n", [0, -4, 32, 100, 1000])
def test_design_rejects_bad_n(n):
    with pytest.raises(InvalidN):
        saltelli_sample(unit_bounds(), n, 1)


@pytest.mark.parametrize("a,n_base", [(np.empty((6, 0)), 0), (np.empty((6, 3)), 5),
                                      (np.empty(6), 1), (np.empty((6, 2)).tolist(), 2),
                                      (np.empty((6, 1)), 10**5000)],
                         ids=["empty", "3-columns-for-5", "1-D", "list", "int-too-long-for-str"])
def test_design_built_directly_must_match_its_shape(a, n_base):
    # The first two raised a bare ZeroDivisionError and ValueError in the evaluation.
    with pytest.raises(ValidationError, match=r"shape \(6, n_base\) with n_base >= 1"):
        evaluate_equilibria(sensitivity.SaltelliDesign(a=a, b=a, n_base=n_base, seed=0))


# ---------------------------------------------------------------------------
# Scrambled Sobol' generator
# ---------------------------------------------------------------------------

def scipy_sobol(n: int, seed: int) -> np.ndarray:
    qmc = pytest.importorskip("scipy.stats").qmc
    return qmc.Sobol(d=12, scramble=True, seed=seed).random(n)


@pytest.mark.parametrize("seed", [0, 3, 7, 1024, 123456, 2**40])
@pytest.mark.parametrize("n", [1, 64, 1024, 8192, 65536])
def test_sobol_unit_matches_scipy(seed, n):
    assert np.array_equal(ref.sobol_unit(n, seed), scipy_sobol(n, seed))


def test_sobol_unit_matches_scipy_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=40, deadline=None)
    @hyp.given(seed=st.integers(0, 2**32 - 1), m=st.integers(6, 12))
    def check(seed, m):
        assert np.array_equal(ref.sobol_unit(2**m, seed), scipy_sobol(2**m, seed))

    check()


def test_sobol_unit_pinned_digest():
    # Holds without scipy; equals the digest of scipy 1.17.1's sample.
    digest = hashlib.sha256(ref.sobol_unit(1024, 1024).tobytes()).hexdigest()
    assert digest == "43a24d5b84fbd673ef480d02a8545655f3ae345456988f244fbd2cc0573d9ea4"


def test_analyze_never_imports_scipy(tmp_path):
    src = str(Path(sensitivity.__file__).resolve().parents[1])
    fixture = str(fixture_path("cn_ai_physical.csv"))
    code = (
        "import sys, lvdyn, lvdyn.cli\n"
        f"assert lvdyn.cli.main(['analyze', '--input', {fixture!r}, "
        f"'--out', {str(tmp_path)!r}]) == 0\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "report.json").is_file()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a1,fraction", [(1e308, 0.9), (1.0, 1e-300)],
                         ids=["overflow", "collapse"])
def test_box_that_overflows_or_collapses_fails_numerical(a1, fraction):
    # theta + half overflowed with a RuntimeWarning and then a ValidationError;
    # a half width below the rounding of theta collapsed the box, the same.
    with pytest.raises(NumericalError, match="overflows or collapses"):
        bounds_from_baseline(ContinuousParams(a1, -1.0, 1.0, 1.0, 1.0, -1.0), fraction)


# ---------------------------------------------------------------------------
# Equilibrium evaluation
# ---------------------------------------------------------------------------

def test_evaluate_baseline_row():
    theta = np.array([astuple(cp_for("ai_physical"))])
    out, valid = ref.evaluate_rows(theta)
    assert valid[0]
    assert out[0, 0] == pytest.approx(198.18, abs=0.5)
    assert out[0, 1] == pytest.approx(51506.42, abs=0.5)

    # Seeded rows that scale each baseline coefficient by -0.5 to 2.5 (some
    # leave the first quadrant), plus one row with exactly parallel
    # nullclines: the batch must equal the scalar closed form bit for bit.
    rng = np.random.default_rng(5)
    base = np.array([astuple(cp_for(k)) for k in ("ai_physical", "ai_labor")])
    theta = np.vstack([
        base[rng.integers(0, 2, 200)] * rng.uniform(-0.5, 2.5, (200, 6)),
        [1.0, 2.0, -2.0, 1.0, 3.0, -3.0],
    ])
    out, valid = ref.evaluate_rows(theta)
    assert 0 < valid.sum() < len(theta) - 1
    for row, point, ok in zip(theta, out, valid):
        scalar = interior_equilibrium(ContinuousParams(*row))
        if ok:
            assert tuple(point) == scalar
        else:
            assert np.all(np.isnan(point))
    assert interior_equilibrium(ContinuousParams(*theta[-1])) is None
    assert not valid[-1]


def test_evaluate_singular_denominator_row():
    # b12*b21 == b11*b22 exactly.
    theta = np.array([[1.0, 2.0, -2.0, 1.0, 3.0, -3.0]])
    out, valid = ref.evaluate_rows(theta)
    assert not valid[0]
    assert np.all(np.isnan(out[0]))


def test_evaluate_negative_equilibrium_rejected():
    theta = np.array([[-1.0, -1.0, 0.5, -1.0, 0.5, -1.0]])
    out, valid = ref.evaluate_rows(theta)
    assert not valid[0]


def test_evaluate_fixture_box_has_no_rejections():
    for key in ("ai_physical", "ai_labor"):
        bounds = bounds_from_baseline(cp_for(key), 0.1)
        design = saltelli_sample(bounds, 256, 7)
        _, valid = evaluate_equilibria(design)
        assert np.all(valid)


# ---------------------------------------------------------------------------
# Index estimation
# ---------------------------------------------------------------------------

def test_single_variable_function():
    res = indices_for(lambda m: m[:, 0], unit_bounds())
    assert res.first_order[0, 0] == pytest.approx(1.0, abs=0.02)
    for i in range(1, 6):
        assert abs(res.first_order[0, i]) <= 0.02
        assert abs(res.total_order[0, i]) <= 0.02


def test_additive_function_equal_shares():
    res = indices_for(lambda m: m.sum(axis=1), unit_bounds())
    assert res.first_order[0].sum() == pytest.approx(1.0, abs=0.03)
    for i in range(6):
        assert res.first_order[0, i] == pytest.approx(1 / 6, abs=0.03)
        assert res.total_order[0, i] == pytest.approx(1 / 6, abs=0.03)


def test_additive_function_variance_shares():
    # f = x1 + x2 with width-2 and width-1 boxes: shares 4/5 and 1/5.
    lower = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    upper = np.array([2.0, 1.0, 1e-9, 1e-9, 1e-9, 1e-9])
    res = indices_for(lambda m: m[:, 0] + m[:, 1],
                      ParamBounds(lower=lower, upper=upper))
    assert res.first_order[0, 0] == pytest.approx(0.8, abs=0.02)
    assert res.first_order[0, 1] == pytest.approx(0.2, abs=0.02)


def test_ishigami_reference_values():
    # Nonlinear benchmark with known analytic indices; inputs 4..6 are inert.
    a, b = 7.0, 0.1
    bounds = ParamBounds(lower=-np.pi * np.ones(6), upper=np.pi * np.ones(6))

    def ishigami(m):
        return (np.sin(m[:, 0]) + a * np.sin(m[:, 1]) ** 2
                + b * m[:, 2] ** 4 * np.sin(m[:, 0]))

    res = indices_for(ishigami, bounds, n_base=2048, seed=5)
    assert res.first_order[0, 0] == pytest.approx(0.3139, abs=0.03)
    assert res.first_order[0, 1] == pytest.approx(0.4424, abs=0.03)
    assert abs(res.first_order[0, 2]) <= 0.03
    assert res.total_order[0, 0] == pytest.approx(0.5574, abs=0.03)
    assert res.total_order[0, 1] == pytest.approx(0.4424, abs=0.03)
    assert res.total_order[0, 2] == pytest.approx(0.2437, abs=0.03)


@pytest.mark.parametrize("key", ["ai_physical", "ai_labor"])
def test_fixture_indices_match_linearized_shares(key):
    # Over a +/-10% box the equilibrium is near-linear in the parameters, so
    # first-order indices must agree with the gradient-based variance shares
    # g_i^2 * w_i^2 / 3 computed by central differences -- an oracle fully
    # independent of the sampling design.
    cp = cp_for(key)
    theta = np.array(astuple(cp))
    res = analyze_sensitivity(cp, 0.1, 1024, seed=1024)
    for oi in (0, 1):
        contrib = np.empty(6)
        for i in range(6):
            h = 1e-7 * abs(theta[i])
            up, dn = theta.copy(), theta.copy()
            up[i] += h
            dn[i] -= h
            grad = (ref.evaluate_rows(up[None, :])[0][0, oi]
                    - ref.evaluate_rows(dn[None, :])[0][0, oi]) / (2 * h)
            contrib[i] = grad**2 * (0.1 * abs(theta[i])) ** 2 / 3.0
        shares = contrib / contrib.sum()
        assert np.allclose(res.first_order[oi], shares, atol=0.01)


@pytest.mark.parametrize("key", ["ai_physical", "ai_labor"])
def test_fixture_indices_near_additive_and_banded(key):
    res = analyze_sensitivity(cp_for(key), 0.1, 1024, seed=1024)
    for oi in (0, 1):
        assert 0.94 <= res.first_order[oi].sum() <= 1.04
        for i in range(6):
            assert res.total_order[oi, i] >= res.first_order[oi, i] - 0.05
    assert res.rejected_count == 0
    assert res.retained_triples == 1024


def test_result_determinism():
    one = analyze_sensitivity(cp_for("ai_physical"), 0.1, 256, seed=11)
    two = analyze_sensitivity(cp_for("ai_physical"), 0.1, 256, seed=11)
    assert np.array_equal(one.first_order, two.first_order)
    assert np.array_equal(one.total_order, two.total_order)
    assert np.array_equal(one.total_variance, two.total_variance)


def test_too_many_rejections():
    # Positive b11/b22 here force both equilibrium components negative, so
    # every sampled row is rejected.
    bounds = ParamBounds(lower=np.array([0.9, 0.9, -0.1, 0.9, -0.1, 0.9]),
                         upper=np.array([1.1, 1.1, 0.1, 1.1, 0.1, 1.1]))
    design = saltelli_sample(bounds, 64, 1)
    outputs, valid = evaluate_equilibria(design)
    with pytest.raises(TooManyRejections):
        sobol_indices(design, outputs, valid)


def test_partial_rejection_drops_whole_triples():
    design = saltelli_sample(unit_bounds(), 128, 9)
    vals = ref.block_values(lambda m: m.sum(axis=1), design)
    outputs = np.stack([vals, vals])
    valid = np.ones((BLOCK, 128), dtype=bool)

    # Invalidate the A-row of the first 30 base blocks: those triples drop.
    valid[0, :30] = False
    res = sobol_indices(design, outputs, valid)
    assert res.retained_triples == 98
    assert res.rejected_count == 30
    assert res.first_order[0].sum() == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize("f", [
    lambda m: np.full(len(m), 3.0),           # zero variance
    lambda m: 1e200 * m[:, 0],                # variance overflows to inf
], ids=["constant", "overflow"])
def test_degenerate_variance_is_a_typed_error(f):
    # Indices would be 0/0 or x/inf; NaN must never reach the report.
    with pytest.raises(DegenerateVariance) as err:
        indices_for(f, unit_bounds(), n_base=64)
    assert err.value.exit_code == 3


def test_indices_reject_mismatched_shapes():
    design = saltelli_sample(unit_bounds(), 64, 1)
    with pytest.raises(ValidationError):
        sobol_indices(design, np.zeros((10, 2)), np.ones(10, dtype=bool))
    # The row-major layout of the same rows is not the block layout.
    with pytest.raises(ValidationError):
        sobol_indices(design, np.zeros((64 * BLOCK, 2)), np.ones(64 * BLOCK, dtype=bool))


def large_n_peak(calls_before: int) -> int:
    """tracemalloc peak of an N = 2^16 analyze_sensitivity call in a new
    thread, after ``calls_before`` untraced calls of the same size there."""
    cp = cp_for("ai_physical")
    peaks = []

    def run() -> None:
        for _ in range(calls_before):
            analyze_sensitivity(cp, 0.1, 2**16, 7)
        tracemalloc.start()
        try:
            analyze_sensitivity(cp, 0.1, 2**16, 7)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    return peaks[0]


def test_large_n_peak_memory():
    # The first call of a thread allocates its workspace.  No design matrix
    # is built: the N*(D+2)x6 matrix alone would be 25 MB at N = 2^16, and a
    # chain that builds it peaks near 50 MB.  The workspace (A|B, outputs,
    # valid and one scratch buffer, about 18.4 MB) is nearly all of the
    # peak, about 19.3 MB: the variance is taken in the scratch buffer, with
    # no (2, 2N) temporary of its own.
    assert large_n_peak(calls_before=0) < 20.5e6


def test_large_n_steady_state_peak_memory():
    # A later call of the same size reuses the thread's workspace and
    # allocates no array of N values or more: the peak is about 0.16 MB.
    assert large_n_peak(calls_before=1) < 1e6


def test_param_names_order_matches_result_columns():
    assert PARAM_NAMES == ("a1", "b11", "b12", "a2", "b21", "b22")
