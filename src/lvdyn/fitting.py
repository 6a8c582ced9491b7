"""Estimation of the discrete-map coefficients from annual paired series.

The ratio x(k)/x(k+1) is linear in the current states, so each species'
equation reduces to a two-regressor least-squares problem.  Slopes come from
a through-origin fit; the intercept of the ratio equation is recovered
post hoc as half the mean absolute gap between the slope-only fitted ratios
and the empirical ones.  Fitted trajectories are produced either one step
ahead (empirical states on the right-hand side) or free-running (the map
feeds on its own output), and accuracy is summarised by MAPE.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    _ANY_INTEGER,
    FINITE,
    FINITE_POSITIVE,
    DenominatorNearZero,
    IllConditioned,
    InsufficientData,
    LengthMismatch,
    LvdynError,
    NumericalError,
    SingularDesign,
    TrajectoryOverflow,
    ValidationError,
    ZeroObserved,
    _shown,
    check,
    check_start,
)
from .params import DiscreteParams, RegressionCoeffs

#: Condition-number threshold above which the normal equations trigger an
#: IllConditioned warning.
COND_WARN_THRESHOLD = 1e12

#: Discrete-map denominators smaller than this in magnitude abort evaluation.
DENOM_EPS = 1e-12

#: Iterated states larger than this abort a free run.
OVERFLOW_LIMIT = 1e300

#: Most steps free_run takes (its states then hold 16 MB).
MAX_MAP_STEPS = 10**6
_STEPS = (("a non-negative integer", (int, np.integer)), lambda n: 0 <= n <= MAX_MAP_STEPS,
          f"a non-negative integer up to {MAX_MAP_STEPS:.0e}", ValidationError)


@dataclass(frozen=True)
class TimeSeries:
    """Paired annual observations of two interacting factors.

    Years must be consecutive integers, observations strictly positive, and
    at least four points are required, enough to analyse injected
    parameters.  Fitting the ratio regression needs five.  ``source_sha256``
    is the digest of the file bytes the series was parsed from, if any.
    """

    label_x: str
    label_y: str
    unit: str
    years: tuple[int, ...]
    xs: tuple[float, ...]
    ys: tuple[float, ...]
    source_sha256: str | None = field(default=None, compare=False)

    def __post_init__(self):
        n = len(self.years)
        if len(self.xs) != n or len(self.ys) != n:
            raise LengthMismatch(
                f"years/xs/ys lengths differ: {n}/{len(self.xs)}/{len(self.ys)}")
        if n < 4:
            raise InsufficientData(f"need at least 4 annual observations, got {n}")
        for i, year in enumerate(self.years):
            check("year", year, _ANY_INTEGER)
            if i and year != self.years[i - 1] + 1:
                raise ValidationError(f"years must be consecutive: "
                                      f"{_shown(self.years[i - 1])} -> {_shown(year)}")
        for name, vals in (("x", self.xs), ("y", self.ys)):
            for year, v in zip(self.years, vals):
                check(f"{name} observation in {_shown(year)}", v, FINITE_POSITIVE)

    @property
    def n(self) -> int:
        return len(self.years)


@np.errstate(over="ignore")
def build_ratio_rows(ts: TimeSeries) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The two ratio-regression problems as (regressors, response_x, response_y).

    Row k pairs the states x(k), y(k) with the ratios x(k)/x(k+1), y(k)/y(k+1);
    there is no row for the final year.
    """
    xs = np.asarray(ts.xs, dtype=float)
    ys = np.asarray(ts.ys, dtype=float)
    ratios = xs[:-1] / xs[1:], ys[:-1] / ys[1:]
    if not np.isfinite(ratios).all():
        raise SingularDesign("a growth ratio overflows")
    return np.column_stack([xs[:-1], ys[:-1]]), *ratios


def _ill_conditioned(cond: float) -> str:
    """The IllConditioned message of a condition number past COND_WARN_THRESHOLD."""
    return f"normal equations condition number {cond:.3e} exceeds {COND_WARN_THRESHOLD:.0e}"


def _solve_through_origin(X: np.ndarray, resp: np.ndarray, conds: list[float]) -> np.ndarray:
    """Two-slope least squares without intercept via the normal equations.

    Every step reads X with each column scaled by the power of two that brings
    its largest entry into [0.5, 1), a near-optimal equilibration (van der
    Sluis 1969), so a power-of-two change of units changes no bit of the
    slopes.  Raises SingularDesign on a rank-deficient or singular design or
    a slope that is not a finite normal float; warns when ill conditioned.
    Appends the condition number of the normal equations to conds as soon as
    the design has full rank, and returns the slopes.
    """
    exps = np.frexp(np.abs(X).max(axis=0))[1]
    xs = np.ldexp(X, -exps)
    svals = np.linalg.svd(xs, compute_uv=False)
    if svals[-1] <= svals[0] * np.finfo(float).eps * max(X.shape):
        raise SingularDesign("regressor columns are collinear")
    conds.append(float((svals[0] / svals[-1]) ** 2))
    if conds[-1] > COND_WARN_THRESHOLD:
        warnings.warn(_ill_conditioned(conds[-1]), IllConditioned, stacklevel=3)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            slopes = np.ldexp(np.linalg.solve(xs.T @ xs, xs.T @ resp), -exps)
    except np.linalg.LinAlgError as exc:
        raise SingularDesign(f"normal equations are singular: {exc}") from exc
    if not all(np.finfo(float).tiny <= abs(s) < np.inf for s in slopes):
        raise SingularDesign(f"a slope is not a finite normal float: {slopes.tolist()}")
    return slopes


@dataclass(frozen=True, eq=False)
class EquationFit:
    """Per-equation estimates and diagnostics."""

    self_slope: float
    cross_slope: float
    intercept: float            # half the mean absolute slope-only residual
    mean_residual: float        # mean slope-only residual (alternative intercept)
    adj_r2_origin: float        # no-intercept convention, slope-only fit
    adj_r2_full: float          # centered convention, intercept included
    residuals: np.ndarray       # slope-only residuals, one per ratio row
    cond: float                 # condition number of the normal equations


def _fit_equation(X: np.ndarray, resp: np.ndarray, self_col: int,
                  conds: list[float]) -> EquationFit:
    n = len(resp)
    if n < 4:   # the centered adjusted R^2 below divides by n - 3
        raise InsufficientData(
            f"fitting needs at least 5 annual observations (4 ratio rows), got {n + 1}")
    slopes = _solve_through_origin(X, resp, conds)
    with np.errstate(all="ignore"):
        residuals = resp - X @ slopes
        p = 2

        intercept = float(np.mean(np.abs(residuals)) / 2.0)
        mean_residual = float(np.mean(residuals))

        # Through-origin convention: uncentered total SS, df_total = n.
        r2_origin = 1.0 - float(np.sum(residuals**2) / np.sum(resp**2))
        adj_origin = 1.0 - (1.0 - r2_origin) * n / (n - p)

        # Centered convention for the full three-term model.
        full_res = residuals - intercept
        ss_tot = float(np.sum((resp - resp.mean()) ** 2))
        if ss_tot == 0:
            raise SingularDesign(
                "growth ratio is constant (exact geometric series); "
                "the centered R^2 is undefined")
        r2_full = 1.0 - float(np.sum(full_res**2)) / ss_tot
        adj_full = 1.0 - (1.0 - r2_full) * (n - 1) / (n - 3)
        if not np.isfinite([intercept, mean_residual, adj_origin, adj_full]).all():
            raise SingularDesign("the residuals or sums of squares overflow or vanish")

    return EquationFit(
        self_slope=float(slopes[self_col]),
        cross_slope=float(slopes[1 - self_col]),
        intercept=intercept,
        mean_residual=mean_residual,
        adj_r2_origin=float(adj_origin),
        adj_r2_full=float(adj_full),
        residuals=residuals,
        cond=conds[-1],
    )


@dataclass(frozen=True)
class FitDiagnostics:
    """Both equations' fits plus the assembled coefficient object."""

    eq_x: EquationFit
    eq_y: EquationFit
    coeffs: RegressionCoeffs


def fit_details(ts: TimeSeries) -> FitDiagnostics:
    """Fit both ratio equations and keep per-equation diagnostics.

    An LvdynError of the fit carries ``conds``, the condition numbers of the
    equations it reached, eq_x's first, so that a caller can still name the
    ones it warned about before it failed.
    """
    conds: list[float] = []
    try:
        regressors, response_x, response_y = build_ratio_rows(ts)
        eq_x = _fit_equation(regressors, response_x, self_col=0, conds=conds)
        eq_y = _fit_equation(regressors, response_y, self_col=1, conds=conds)
        coeffs = RegressionCoeffs(
            intercept1=eq_x.intercept,
            self_slope1=eq_x.self_slope,
            cross_slope1=eq_x.cross_slope,
            intercept2=eq_y.intercept,
            self_slope2=eq_y.self_slope,
            cross_slope2=eq_y.cross_slope,
        )
    except LvdynError as exc:
        exc.conds = conds
        raise
    return FitDiagnostics(eq_x=eq_x, eq_y=eq_y, coeffs=coeffs)


def _map_step(dp: DiscreteParams, x: float, y: float, step: int) -> tuple[float, float]:
    d1 = 1.0 - dp.self1 * x - dp.cross1 * y
    d2 = 1.0 - dp.self2 * y - dp.cross2 * x
    if abs(d1) < DENOM_EPS or abs(d2) < DENOM_EPS:
        raise DenominatorNearZero(
            f"map denominator vanished at state ({x:g}, {y:g})")
    x, y = dp.alpha1 * x / d1, dp.alpha2 * y / d2
    if not (abs(x) <= OVERFLOW_LIMIT and abs(y) <= OVERFLOW_LIMIT):
        raise TrajectoryOverflow(f"state exceeded {OVERFLOW_LIMIT:g} at step {step}")
    return x, y


@np.errstate(over="ignore", invalid="ignore")
def one_step_predictions(dp: DiscreteParams, ts: TimeSeries) -> tuple[np.ndarray, np.ndarray]:
    """Fitted trajectories driven by the empirical states.

    Entry 0 of each trajectory equals the first observation; entry k+1 is the
    map applied to the OBSERVED state at year k.
    """
    n = ts.n
    fx = np.empty(n)
    fy = np.empty(n)
    fx[0], fy[0] = ts.xs[0], ts.ys[0]
    for k in range(n - 1):
        fx[k + 1], fy[k + 1] = _map_step(dp, ts.xs[k], ts.ys[k], k + 1)
    return fx, fy


@np.errstate(over="ignore", invalid="ignore")
def free_run(dp: DiscreteParams, x0: tuple[float, float], steps: int) -> np.ndarray:
    """Iterate the map from x0, feeding each output back in.

    Returns an array of shape (steps+1, 2) whose first row is x0, which
    obeys :func:`~lvdyn.errors.check_start`; steps ends at MAX_MAP_STEPS.
    """
    check("steps", steps, _STEPS)
    x, y = check_start(x0)
    traj = np.empty((steps + 1, 2))
    traj[0] = x, y
    for k in range(steps):
        x, y = _map_step(dp, x, y, k + 1)
        traj[k + 1] = (x, y)
    return traj


@np.errstate(over="ignore")
def mape(observed, fitted) -> float:
    """Mean absolute percentage error, in percent, of series of finite reals."""
    for name, series in (("observed", observed), ("fitted", fitted)):
        for v in np.asarray(series, dtype=object).ravel():
            check(name, v, FINITE)
    obs = np.asarray(observed, dtype=float)
    fit = np.asarray(fitted, dtype=float)
    if obs.shape != fit.shape:
        raise LengthMismatch(f"series lengths differ: {obs.shape} vs {fit.shape}")
    if not obs.size:
        raise ValidationError("observed and fitted are empty; mape needs at least one value")
    if np.any(obs == 0):
        raise ZeroObserved("observed series contains zero; relative error undefined")
    value = float(np.mean(np.abs((obs - fit) / obs)) * 100.0)
    if not value < np.inf:
        raise NumericalError(f"the relative error overflows: mape is {value}")
    return value


class FitMode(Enum):
    ONE_STEP_AHEAD = "one_step_ahead"
    FREE_RUNNING = "free_running"


def fitted_trajectories(
    dp: DiscreteParams, ts: TimeSeries, mode: FitMode
) -> tuple[np.ndarray, np.ndarray]:
    """Fitted x and y trajectories of length n in the given mode.

    Entry 0 is pinned to the first observation, so MAPE is taken over the
    predicted entries 1..n-1 to avoid a trivially exact first point.
    """
    if mode is FitMode.ONE_STEP_AHEAD:
        return one_step_predictions(dp, ts)
    traj = free_run(dp, (ts.xs[0], ts.ys[0]), ts.n - 1)
    return traj[:, 0].copy(), traj[:, 1].copy()
