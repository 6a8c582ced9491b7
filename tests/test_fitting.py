"""Ratio regression, fitted trajectories and MAPE."""

from __future__ import annotations

import numpy as np
import pytest

from lvdyn import (
    DiscreteParams,
    NumericalError,
    TimeSeries,
    ValidationError,
    fit_details,
    free_run,
    load_series,
    mape,
    fixture_path,
    regression_to_discrete,
)
from lvdyn.errors import (DenominatorNearZero, IllConditioned, InsufficientData, LengthMismatch,
                          NonPositiveValue, SingularDesign, TrajectoryOverflow, ZeroObserved)
from lvdyn.fitting import (MAX_MAP_STEPS, FitMode, build_ratio_rows, fitted_trajectories,
                           one_step_predictions)

from conftest import PUBLISHED


def series(xs, ys, start=2000):
    n = len(xs)
    return TimeSeries(label_x="x", label_y="y", unit="u",
                      years=tuple(range(start, start + n)),
                      xs=tuple(xs), ys=tuple(ys))


@pytest.fixture(scope="module")
def physical_series():
    return load_series(fixture_path("cn_ai_physical.csv"))


@pytest.fixture(scope="module")
def labor_series():
    return load_series(fixture_path("cn_ai_labor.csv"), {"y": "labor"})


# ---------------------------------------------------------------------------
# TimeSeries validation
# ---------------------------------------------------------------------------

def test_time_series_needs_four_points():
    with pytest.raises(InsufficientData):
        series([1, 2, 3], [1, 2, 3])


def test_time_series_rejects_year_gap():
    with pytest.raises(ValidationError):
        TimeSeries(label_x="x", label_y="y", unit="u",
                   years=(2000, 2001, 2003, 2004),
                   xs=(1, 2, 3, 4), ys=(1, 2, 3, 4))


def test_time_series_rejects_non_positive():
    with pytest.raises(NonPositiveValue):
        series([1, 0, 3, 4], [1, 2, 3, 4])
    with pytest.raises(NonPositiveValue):
        series([1, 2, 3, 4], [1, 2, -3, 4])


def test_time_series_rejects_length_mismatch():
    with pytest.raises(LengthMismatch):
        TimeSeries(label_x="x", label_y="y", unit="u",
                   years=(2000, 2001, 2002, 2003),
                   xs=(1, 2, 3, 4), ys=(1, 2, 3))


# ---------------------------------------------------------------------------
# Ratio rows
# ---------------------------------------------------------------------------

def test_ratio_rows_from_fixture(physical_series):
    regressors, response_x, response_y = build_ratio_rows(physical_series)
    assert regressors.shape == (7, 2)
    assert response_x[0] == pytest.approx(15.40 / 31.80, abs=1e-12)
    assert tuple(regressors[0]) == (15.40, 37202.10)
    assert response_y[-1] == pytest.approx(49596.60 / 50970.80, abs=1e-12)


def test_ratio_rows_constant_series():
    _, response_x, response_y = build_ratio_rows(series([5, 5, 5, 5, 5], [9, 9, 9, 9, 9]))
    assert np.all(response_x == 1.0)
    assert np.all(response_y == 1.0)


# ---------------------------------------------------------------------------
# Zero-intercept fit
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("key,fixture_name", [
    ("ai_physical", "physical_series"), ("ai_labor", "labor_series")])
def test_fit_reproduces_published_coefficients(key, fixture_name, request):
    ts = request.getfixturevalue(fixture_name)
    diag = fit_details(ts)
    rc = diag.coeffs
    pub = PUBLISHED[key]["regression"]
    for name in ("self_slope1", "cross_slope1", "self_slope2", "cross_slope2"):
        assert getattr(rc, name) == pytest.approx(pub[name], rel=0.05), name
    for name in ("intercept1", "intercept2"):
        assert getattr(rc, name) == pytest.approx(pub[name], rel=0.10), name
    adj_r2_1, adj_r2_2 = diag.eq_x.adj_r2_origin, diag.eq_y.adj_r2_origin
    assert adj_r2_1 >= 0.98
    assert adj_r2_2 >= 0.98
    assert adj_r2_1 == pytest.approx(pub["adj_r2_1"], abs=0.005)
    assert adj_r2_2 == pytest.approx(pub["adj_r2_2"], abs=0.005)


def test_exact_recovery_on_intercept_free_map_data():
    # Orbit of x(k+1) = x(k) / (s*x(k) + c*y(k)): the ratio rows satisfy the
    # slope-only model exactly, so the fit must recover it to round-off.
    s1, c1 = 0.02, 0.001
    s2, c2 = 0.004, 0.015
    xs, ys = [30.0], [40.0]
    for _ in range(7):
        x, y = xs[-1], ys[-1]
        xs.append(x / (s1 * x + c1 * y))
        ys.append(y / (c2 * x + s2 * y))
    ts = series(xs, ys)
    rc = fit_details(ts).coeffs
    assert rc.self_slope1 == pytest.approx(s1, rel=1e-8)
    assert rc.cross_slope1 == pytest.approx(c1, rel=1e-8)
    assert rc.self_slope2 == pytest.approx(s2, rel=1e-8)
    assert rc.cross_slope2 == pytest.approx(c2, rel=1e-8)
    assert abs(rc.intercept1) <= 1e-6
    assert abs(rc.intercept2) <= 1e-6


def test_approximate_recovery_on_full_map_data():
    # With a nonzero map intercept the constant term leaks into the
    # through-origin slopes; on realistic magnitudes the leak stays small.
    dp = DiscreteParams(**PUBLISHED["ai_physical"]["discrete"])
    traj = free_run(dp, (15.4, 37202.1), 7)
    ts = series(traj[:, 0], traj[:, 1])
    rc = fit_details(ts).coeffs
    assert rc.self_slope1 == pytest.approx(-dp.self1 / dp.alpha1, rel=0.05)
    assert rc.cross_slope1 == pytest.approx(-dp.cross1 / dp.alpha1, rel=0.05)
    assert rc.self_slope2 == pytest.approx(-dp.self2 / dp.alpha2, rel=0.05)
    assert rc.cross_slope2 == pytest.approx(-dp.cross2 / dp.alpha2, rel=0.05)


def test_mean_residual_diagnostic_centers_residuals(physical_series):
    diag = fit_details(physical_series)
    for eq in (diag.eq_x, diag.eq_y):
        assert abs(float(np.mean(eq.residuals)) - eq.mean_residual) <= 1e-15
        assert abs(float(np.mean(eq.residuals - eq.mean_residual))) <= 1e-12


def test_singular_design_on_identical_rows():
    with pytest.raises(SingularDesign):
        fit_details(series([5, 5, 5, 5, 5], [9, 9, 9, 9, 9])).coeffs


def test_singular_design_on_exact_geometric_series():
    # Constant growth ratios leave the centered total sum of squares at zero.
    with pytest.raises(SingularDesign, match="geometric series"):
        fit_details(series([1, 2, 4, 8, 16], [10, 30, 90, 270, 810]))


def test_fit_needs_five_points():
    # Four points make a valid series but leave the centered adjusted R^2
    # of the three-term model with no residual degree of freedom.
    ts = series([1, 3, 4, 9], [10, 20, 50, 70])
    with pytest.raises(InsufficientData, match="5 annual observations"):
        fit_details(ts)


#: Rescalings of the physical fixture (x by cx, y by cy) whose raw design
#: failed or warned: x*1e-8, y*1e8 raised SingularDesign ("collinear"), and
#: the next two warned IllConditioned (raw cond^2 3.4e13 and 4.1e19).  With
#: the columns scaled by powers of two, cond^2 is about 19 for all three.
#: The raw normal equations of the rest overflowed (1e160) or had a sum of
#: squares that underflowed to a subnormal or to zero, a SingularDesign.
UNIT_RESCALINGS = {
    "1e-8,1e8": (1e-8, 1e8),
    "1e6,1e-3": (1e6, 1e-3),
    "2^20,2^-20": (2.0**20, 2.0**-20),
    "1e160,1e160": (1e160, 1e160),
    "1e-160,1e-160": (1e-160, 1e-160),
    "1e-300,1e-300": (1e-300, 1e-300),
    "1e-170,1": (1e-170, 1.0),
    "1e-155,1": (1e-155, 1.0),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cx,cy", UNIT_RESCALINGS.values(), ids=UNIT_RESCALINGS.keys())
def test_rescaled_units_fit_the_rescaled_coefficients(physical_series, cx, cy):
    # The ratios do not change; a slope rescales by 1 / the scale of its
    # regressor, and the intercepts and adjusted R^2 stay.
    base = fit_details(physical_series)
    diag = fit_details(series([x * cx for x in physical_series.xs],
                              [y * cy for y in physical_series.ys]))
    scale = {"intercept1": 1.0, "self_slope1": cx, "cross_slope1": cy,
             "intercept2": 1.0, "self_slope2": cy, "cross_slope2": cx}
    for name, c in scale.items():
        assert getattr(diag.coeffs, name) == pytest.approx(
            getattr(base.coeffs, name) / c, rel=1e-14, abs=0), name
    for eq, want in ((diag.eq_x, base.eq_x), (diag.eq_y, base.eq_y)):
        assert eq.adj_r2_origin == pytest.approx(want.adj_r2_origin, rel=1e-14, abs=0)


def test_ill_conditioned_warning():
    xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    ys = [x * 2.0 * (1 + 1e-10 * i) for i, x in enumerate(xs)]
    with pytest.warns(IllConditioned):
        fit_details(series(xs, ys)).coeffs


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

def _plain(alpha1=2.0, self1=0.0, cross1=0.0, alpha2=2.0, self2=0.0, cross2=0.0):
    return DiscreteParams(alpha1=alpha1, self1=self1, cross1=cross1,
                          alpha2=alpha2, self2=self2, cross2=cross2)


def test_one_step_geometric_limit():
    eps = 0.25
    ts = series([1, 2, 4, 8], [1, 1, 1, 1])
    fx, fy = one_step_predictions(_plain(alpha1=1 + eps, alpha2=1.0 + 1e-9), ts)
    assert fx[0] == 1.0
    assert np.allclose(fx[1:], (1 + eps) * np.array([1, 2, 4]))


def test_one_step_matches_published_error_band(physical_series):
    dp = DiscreteParams(**PUBLISHED["ai_physical"]["discrete"])
    fx, _ = one_step_predictions(dp, physical_series)
    # Error of the first predicted point sits inside the aggregate band.
    assert abs(fx[1] - 31.80) / 31.80 < (6.15 + 1.5) / 100.0


def test_one_step_denominator_near_zero():
    dp = _plain(self1=0.5)  # state x=2 makes the denominator exactly zero
    ts = series([2, 2, 2, 2], [1, 1, 1, 1])
    with pytest.raises(DenominatorNearZero):
        one_step_predictions(dp, ts)


def test_free_run_geometric():
    traj = free_run(_plain(), (1.0, 1.0), 3)
    assert np.allclose(traj[:, 0], [1, 2, 4, 8])


def test_free_run_zero_steps_is_identity():
    traj = free_run(_plain(), (3.0, 4.0), 0)
    assert traj.shape == (1, 2)
    assert tuple(traj[0]) == (3.0, 4.0)


def test_free_run_approaches_published_equilibrium():
    dp = DiscreteParams(**PUBLISHED["ai_labor"]["discrete"])
    traj = free_run(dp, (15.40, 22770.0), 7)
    x7, y7 = traj[-1]
    assert x7 == pytest.approx(186.78, rel=0.02)
    assert y7 == pytest.approx(44021.09, rel=0.02)


def test_free_run_overflow_guard():
    with pytest.raises(TrajectoryOverflow):
        free_run(_plain(alpha1=1e200), (1.0, 1.0), 3)


def test_free_run_rejects_negative_steps():
    with pytest.raises(ValidationError):
        free_run(_plain(), (1.0, 1.0), -1)


@pytest.mark.parametrize("steps", [np.int64(-1), 2.5, 3.0, True, "3", None])
def test_free_run_rejects_steps_that_are_not_a_non_negative_integer(steps):
    # 2.5 and "3" used to end in a bare TypeError from np.empty or range,
    # and True ran one step.
    with pytest.raises(ValidationError, match="steps must be a non-negative integer"):
        free_run(_plain(), (1.0, 1.0), steps)


def test_free_run_takes_numpy_integer_steps():
    assert np.array_equal(free_run(_plain(), (1.0, 1.0), np.int64(3)),
                          free_run(_plain(), (1.0, 1.0), 3))


def test_one_step_and_free_run_agree_on_first_step(physical_series):
    dp = DiscreteParams(**PUBLISHED["ai_physical"]["discrete"])
    fx, fy = one_step_predictions(dp, physical_series)
    traj = free_run(dp, (physical_series.xs[0], physical_series.ys[0]), 1)
    assert traj[1, 0] == pytest.approx(fx[1], rel=1e-15)
    assert traj[1, 1] == pytest.approx(fy[1], rel=1e-15)


# ---------------------------------------------------------------------------
# MAPE
# ---------------------------------------------------------------------------

def test_mape_perfect_fit_is_zero():
    assert mape([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0


def test_mape_hand_computed():
    assert mape([100.0, 200.0], [90.0, 220.0]) == pytest.approx(10.0, abs=1e-12)


def test_mape_scale_invariant():
    rng = np.random.default_rng(3)
    obs = rng.uniform(1, 10, 20)
    fit = obs * rng.uniform(0.8, 1.2, 20)
    base = mape(obs, fit)
    for _ in range(20):
        c = float(rng.uniform(1e-6, 1e6))
        assert mape(obs * c, fit * c) == pytest.approx(base, rel=1e-9)


def test_mape_errors():
    with pytest.raises(LengthMismatch):
        mape([1.0, 2.0], [1.0])
    with pytest.raises(ZeroObserved):
        mape([1.0, 0.0], [1.0, 1.0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("observed,fitted", [([], []), ([[]], [[]])])
def test_mape_of_empty_series_is_a_validation_error(observed, fitted):
    # The mean of an empty slice warned and returned NaN.
    with pytest.raises(ValidationError, match="observed and fitted are empty"):
        mape(observed, fitted)


def test_fitted_trajectory_modes(physical_series):
    dp = regression_to_discrete(fit_details(physical_series).coeffs)
    one = fitted_trajectories(dp, physical_series, FitMode.ONE_STEP_AHEAD)
    free = fitted_trajectories(dp, physical_series, FitMode.FREE_RUNNING)
    obs_x = np.asarray(physical_series.xs)
    obs_y = np.asarray(physical_series.ys)
    for fx, fy in (one, free):
        assert fx[0] == physical_series.xs[0]
        assert fy[0] == physical_series.ys[0]
        assert len(fx) == physical_series.n
        assert mape(obs_x[1:], fx[1:]) >= 0 and mape(obs_y[1:], fy[1:]) >= 0
    # First predicted step is mode independent.
    assert one[0][1] == pytest.approx(free[0][1], rel=1e-15)


# ---------------------------------------------------------------------------
# Non-finite values stop where they are made
# ---------------------------------------------------------------------------

def test_ratio_that_overflows_is_a_singular_design():
    # 1e308 / 1e-5 overflowed to inf with a RuntimeWarning.
    ts = series([3.14, 13.6, 1e-160, 11.5, 12.97], [418.0, 1e308, 1e-5, 828.0, 1e308])
    with pytest.raises(SingularDesign, match="growth ratio overflows"):
        build_ratio_rows(ts)


def test_sums_of_squares_that_overflow_are_a_singular_design():
    # The ratios are finite, but their squares overflow: the adjusted R^2
    # came out NaN, and NaN reached report.json.
    ts = series([3.14, 13.6, 1e-160, 11.5, 12.97], [418.0, 1e-5, 1e-5, 828.0, 1e308])
    with pytest.raises(SingularDesign, match="sums of squares"):
        fit_details(ts)


def test_one_step_prediction_that_overflows_is_a_typed_error():
    # The map of the observed 1e308 is inf; free_run had the guard, this did not.
    dp = DiscreteParams(**PUBLISHED["ai_physical"]["discrete"])
    ts = series([3.0, 1e308, 3.0, 3.0], [3.0, 3.0, 3.0, 3.0])
    with pytest.raises(TrajectoryOverflow, match="exceeded 1e\\+300 at step 2"):
        one_step_predictions(dp, ts)


def test_map_state_that_is_nan_is_a_typed_error():
    # 1 - inf + inf is a NaN denominator, which passed both guards, so the
    # map returned NaN states.
    dp = _plain(self1=1e300, cross1=-1e300)
    with pytest.raises(TrajectoryOverflow):
        free_run(dp, (1e10, 1e10), 3)
    with pytest.raises(TrajectoryOverflow):
        one_step_predictions(dp, series([1e10] * 4, [1e10] * 4))


def test_mape_that_overflows_is_a_typed_error():
    with pytest.raises(NumericalError, match="overflows"):
        mape([1.0, 1e-300], [1.0, 1e300])


@pytest.mark.parametrize("observed,fitted", [
    ([1.0, 2.0], [1.0, "a"]), ([1.0, 2.0], [1.0, np.nan]), ([1.0, np.inf], [1.0, 2.0]),
    ([1.0, 2.0], [1.0, 10**400]), ([[1.0], [1.0, 2.0]], [1.0, 2.0]), ([1.0, None], [1.0, 2.0]),
])
def test_mape_rejects_values_that_are_not_finite_numbers(observed, fitted):
    # "a" raised a bare ValueError from np.asarray, and NaN gave a NaN MAPE.
    with pytest.raises(ValidationError, match="must be"):
        mape(observed, fitted)


@pytest.mark.parametrize("steps", [MAX_MAP_STEPS + 1, 2**62, 10**30])
def test_free_run_rejects_steps_beyond_its_cap(steps):
    # 10**30 raised a bare ValueError from np.empty, 2**62 another; a count
    # that fits an index but not memory allocated its array first.
    with pytest.raises(ValidationError, match="steps must be a non-negative integer up to"):
        free_run(_plain(), (1.0, 1.0), steps)
