"""Equilibria, linear stability and phase-plane geometry of the ODE system.

The vector field is

    f1(x, y) = a1*x + b11*x^2 + b12*x*y
    f2(x, y) = a2*y + b21*y*x + b22*y^2

Setting each factor in x*(a1 + b11 x + b12 y) and y*(a2 + b21 x + b22 y) to
zero gives the axis equilibria and, where the two interior nullclines meet,
the interior equilibrium in closed form.  Stability at a point follows from
the eigenvalues of the Jacobian.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields
from enum import Enum

import numpy as np

from .errors import (_ANY_REAL, FINITE, FINITE_NON_NEGATIVE, REAL, InvalidBBox, NegativeState,
                     NumericalError, StepTooLarge, TrajectoryOverflow, ValidationError, _shown,
                     check, check_start, finite)
from .params import ContinuousParams

#: Relative threshold below which the interior-equilibrium denominator is
#: treated as zero (no interior point).
INTERIOR_DENOM_EPS = 1e-15

#: Per-step relative error tolerance of the step-doubling estimate.
RK4_ERROR_TOL = 1e-3

#: States below this are considered to have left the meaningful domain.
NEGATIVE_STATE_TOL = -1e-9

#: Most RK4 steps integrate_ode takes: its path holds about 0.2 GB of
#: states and takes seconds to step at this length.
MAX_RK4_STEPS = 10**6


def vector_field(cp: ContinuousParams, x: float | np.ndarray,
                 y: float | np.ndarray) -> tuple:
    """Evaluate (dx/dt, dy/dt) at a point, or elementwise on arrays x and y."""
    f1 = cp.a1 * x + cp.b11 * x * x + cp.b12 * x * y
    f2 = cp.a2 * y + cp.b21 * y * x + cp.b22 * y * y
    return f1, f2


def nullclines_cross(cross, own, den, ok, spare) -> None:
    """den = b12*b21 - b11*b22 = cross - own; ok where |den| >= INTERIOR_DENOM_EPS
    * max(|cross|, |own|, 1e-300) and den is finite, elementwise; the pair
    ``spare`` is spent."""
    np.subtract(cross, own, out=den)
    scale, abs_den = spare
    np.maximum(np.abs(cross, out=scale), np.abs(own, out=abs_den), out=scale)
    np.maximum(scale, 1e-300, out=scale)
    np.multiply(scale, INTERIOR_DENOM_EPS, out=scale)
    # A finite den implies finite products, hence a finite scale.
    np.abs(den, out=abs_den)
    np.logical_and(abs_den >= scale, abs_den < np.inf, out=ok)


def _finite_point(name: str, point: tuple[float, float] | None) -> tuple[float, float] | None:
    if point is not None and not np.isfinite(point).all():
        raise NumericalError(f"the {name} equilibrium is not finite: {point}")
    return point


@np.errstate(all="ignore")
def interior_equilibrium(cp: ContinuousParams) -> tuple[float, float] | None:
    """Closed-form intersection of the two interior nullclines: None when they
    are (numerically) parallel by :func:`nullclines_cross`, NumericalError
    when the point is not finite."""
    a1, b11, b12, a2, b21, b22 = map(float, astuple(cp))
    den, ok = np.empty(1), np.empty(1, dtype=bool)
    nullclines_cross(np.array([b12 * b21]), np.array([b11 * b22]), den, ok, np.empty((2, 1)))
    if not ok[0]:
        return None
    den = float(den[0])
    return _finite_point("interior", ((a1 * b22 - b12 * a2) / den, (b11 * a2 - a1 * b21) / den))


@dataclass(frozen=True)
class EquilibriumSet:
    """All equilibria of the system; axis entries are None when undefined."""

    origin: tuple[float, float]
    axial_x: tuple[float, float] | None
    axial_y: tuple[float, float] | None
    interior: tuple[float, float] | None


def equilibrium_set(cp: ContinuousParams) -> EquilibriumSet:
    """Every equilibrium of cp; NumericalError when one of them overflows."""
    axial_x = _finite_point("axial_x", (-cp.a1 / cp.b11, 0.0) if cp.b11 != 0 else None)
    axial_y = _finite_point("axial_y", (0.0, -cp.a2 / cp.b22) if cp.b22 != 0 else None)
    return EquilibriumSet(origin=(0.0, 0.0), axial_x=axial_x, axial_y=axial_y,
                          interior=interior_equilibrium(cp))


@np.errstate(over="ignore", invalid="ignore")
def jacobian_at(cp: ContinuousParams, point: tuple[float, float]) -> np.ndarray:
    """Jacobian of the vector field at a finite point; NumericalError when an entry overflows."""
    for v in point:
        check("point", v, FINITE)
    x, y = point
    jac = np.array([
        [cp.a1 + 2.0 * cp.b11 * x + cp.b12 * y, cp.b12 * x],
        [cp.b21 * y, cp.a2 + cp.b21 * x + 2.0 * cp.b22 * y],
    ])
    if not np.isfinite(jac).all():
        raise NumericalError(f"the Jacobian at {point} is not finite: {jac.tolist()}")
    return jac


@np.errstate(over="ignore", invalid="ignore")
def eigenvalues(m: np.ndarray) -> tuple[complex, complex]:
    """Roots of the characteristic polynomial of a 2x2 matrix.

    Ordered by real part descending, then imaginary part descending.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (2, 2) or not np.all(np.isfinite(m)):
        raise ValidationError("expected a finite 2x2 matrix")
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    disc = tr * tr - 4.0 * det
    if not np.isfinite(disc):
        raise NumericalError(f"eigenvalues overflow: trace {tr:g}, determinant {det:g}")
    if disc >= 0:
        root = np.sqrt(disc)
        lam = (complex((tr + root) / 2.0), complex((tr - root) / 2.0))
    else:
        root = np.sqrt(-disc)
        lam = (complex(tr / 2.0, root / 2.0), complex(tr / 2.0, -root / 2.0))
    return tuple(sorted(lam, key=lambda z: (-z.real, -z.imag)))  # type: ignore[return-value]


class Stability(Enum):
    STABLE_NODE = "stable_node"
    UNSTABLE_NODE = "unstable_node"
    SADDLE = "saddle"
    STABLE_FOCUS = "stable_focus"
    UNSTABLE_FOCUS = "unstable_focus"
    CENTER = "center"
    DEGENERATE = "degenerate"


def classify_stability(eigs: tuple[complex, complex]) -> Stability:
    """Classify an equilibrium from the eigenvalues of its linearization.

    Boundary cases (a real part within 1e-9 of zero, or a repeated real pair
    within 1e-9) are reported as DEGENERATE rather than forced into a named
    class; a purely imaginary pair is a CENTER, for which the linearization
    is inconclusive about the nonlinear system.  Eigenvalues that are not
    finite raise ValidationError.
    """
    if not np.isfinite(eigs).all():
        raise ValidationError(f"eigenvalues must be finite, got {eigs}")
    tol = 1e-9
    lam1, lam2 = eigs
    if abs(lam1.imag) > tol or abs(lam2.imag) > tol:
        re = lam1.real
        if re < -tol:
            return Stability.STABLE_FOCUS
        if re > tol:
            return Stability.UNSTABLE_FOCUS
        return Stability.CENTER
    r1, r2 = lam1.real, lam2.real
    if r1 > tol and r2 < -tol:
        return Stability.SADDLE
    if abs(r1 - r2) <= tol:
        return Stability.DEGENERATE
    if r1 < -tol and r2 < -tol:
        return Stability.STABLE_NODE
    if r1 > tol and r2 > tol:
        return Stability.UNSTABLE_NODE
    return Stability.DEGENERATE


@dataclass(frozen=True, eq=False)
class StabilityReport:
    jacobian: np.ndarray
    eigenvalues: tuple[complex, complex]
    classification: Stability


def stability_at(cp: ContinuousParams, point: tuple[float, float]) -> StabilityReport:
    """Linearize at a point and classify it."""
    jac = jacobian_at(cp, point)
    eigs = eigenvalues(jac)
    return StabilityReport(jacobian=jac, eigenvalues=eigs,
                           classification=classify_stability(eigs))


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box in the open first quadrant."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        for f in fields(self):
            check(f.name, getattr(self, f.name), _ANY_REAL)
        ends = astuple(self)
        if not (all(map(finite, ends))
                and 0 < self.x_min < self.x_max and 0 < self.y_min < self.y_max):
            raise InvalidBBox(f"bbox must satisfy 0 < x_min < x_max and 0 < y_min < y_max, "
                              f"got ({', '.join(map(_shown, ends))})")


@dataclass(frozen=True, eq=False)
class PhaseGeometry:
    """Sampled phase-plane geometry over a bounding box.

    Nullcline coefficients are in A + B*x + C*y = 0 form.  The grids are
    indexed [i, j] for the point (xs[i], ys[j]).
    """

    nullcline_x: tuple[float, float, float]
    nullcline_y: tuple[float, float, float]
    bbox: BBox
    xs: np.ndarray            # (gridN,)
    ys: np.ndarray            # (gridN,)
    dx: np.ndarray            # (gridN, gridN) float
    dy: np.ndarray            # (gridN, gridN) float


def phase_geometry(cp: ContinuousParams, bbox: BBox, grid_n: int) -> PhaseGeometry:
    """Sample the vector field over a grid.

    Raises NumericalError when the field overflows somewhere on the grid.
    """
    check("grid_n", grid_n)
    xs = np.linspace(bbox.x_min, bbox.x_max, grid_n)
    ys = np.linspace(bbox.y_min, bbox.y_max, grid_n)
    with np.errstate(over="ignore", invalid="ignore"):
        dx, dy = vector_field(cp, *np.meshgrid(xs, ys, indexing="ij"))
    if not (np.isfinite(dx).all() and np.isfinite(dy).all()):
        raise NumericalError(f"the vector field overflows on the phase grid over {bbox}")
    return PhaseGeometry(
        nullcline_x=(cp.a1, cp.b11, cp.b12),
        nullcline_y=(cp.a2, cp.b21, cp.b22),
        bbox=bbox,
        xs=xs,
        ys=ys,
        dx=dx,
        dy=dy,
    )


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Integrated states at uniformly spaced times."""

    t: np.ndarray       # (m+1,)
    states: np.ndarray  # (m+1, 2)


def _rk4_step(cp: ContinuousParams, x, y, h: float) -> tuple:
    """One classical RK4 step of size h from (x, y): floats, or arrays elementwise."""
    c = 0.5 * h
    k1x, k1y = vector_field(cp, x, y)
    k2x, k2y = vector_field(cp, x + c * k1x, y + c * k1y)
    k3x, k3y = vector_field(cp, x + c * k2x, y + c * k2y)
    k4x, k4y = vector_field(cp, x + h * k3x, y + h * k3y)
    w = h / 6.0
    return (x + w * (k1x + 2.0 * k2x + 2.0 * k3x + k4x),
            y + w * (k1y + 2.0 * k2y + 2.0 * k3y + k4y))


def _rk4_path(cp: ContinuousParams, x: float, y: float, h: float, n_steps: int) -> list:
    """(x, y) and up to n_steps states after it, each bit for bit that of _rk4_step, with
    the coefficients in locals; a state below NEGATIVE_STATE_TOL is the last."""
    a1, b11, b12, a2, b21, b22 = astuple(cp)
    c, w, path = 0.5 * h, h / 6.0, [(x, y)]
    for _ in range(n_steps):           # vector_field's operations in its order, at each stage
        k1x, k1y = a1 * x + b11 * x * x + b12 * x * y, a2 * y + b21 * y * x + b22 * y * y
        u, v = x + c * k1x, y + c * k1y
        k2x, k2y = a1 * u + b11 * u * u + b12 * u * v, a2 * v + b21 * v * u + b22 * v * v
        u, v = x + c * k2x, y + c * k2y
        k3x, k3y = a1 * u + b11 * u * u + b12 * u * v, a2 * v + b21 * v * u + b22 * v * v
        u, v = x + h * k3x, y + h * k3y
        k4x, k4y = a1 * u + b11 * u * u + b12 * u * v, a2 * v + b21 * v * u + b22 * v * v
        x, y = (x + w * (k1x + 2.0 * k2x + 2.0 * k3x + k4x),
                y + w * (k1y + 2.0 * k2y + 2.0 * k3y + k4y))
        path.append((x, y))
        if min(x, y) < NEGATIVE_STATE_TOL:
            break
    return path


def _first_max(a: np.ndarray, b) -> np.ndarray:
    """Elementwise ``max(a, b)`` by Python's rule: keep a unless b is greater.

    So a NaN in ``a`` is kept and a NaN in ``b`` is passed over, as ``max``
    does on floats.
    """
    return np.where(b > a, b, a)


def integrate_ode(
    cp: ContinuousParams,
    x0: tuple[float, float],
    t_end: float,
    dt: float = 0.001,
) -> Trajectory:
    """Classical fixed-step RK4 integration of the system.

    Each step is checked by step doubling: the full step is compared with
    two half steps and the run aborts with StepTooLarge when the relative
    discrepancy exceeds RK4_ERROR_TOL (the estimate never adapts the step).
    A state below -1e-9 aborts with NegativeState, an overflowing state with
    TrajectoryOverflow.  x0 obeys :func:`~lvdyn.errors.check_start`.

    The check of step k depends only on the state it starts from, so the
    path is stepped first and every step is checked afterwards in one array
    pass, with the same floating-point operations in the same order.  A
    flagged step raises StepTooLarge even when a later step went negative.
    A span of more than MAX_RK4_STEPS steps raises ValidationError.
    """
    check("dt", dt, (REAL, lambda v: v > 0 and finite(v), "finite and > 0", ValidationError))
    check("t_end", t_end, FINITE_NON_NEGATIVE)
    x, y = check_start(x0)
    if not float(t_end) / float(dt) < np.inf:
        raise ValidationError(f"t_end / dt overflows: {t_end} / {dt}")

    n_steps = int(round(t_end / dt))
    if n_steps > MAX_RK4_STEPS:
        raise ValidationError(
            f"t_end / dt asks for {n_steps:.3g} RK4 steps, more than {MAX_RK4_STEPS:.0e}")
    t = np.linspace(0.0, n_steps * dt, n_steps + 1)
    states = np.array(_rk4_path(cp, x, y, dt, n_steps))

    # Step k goes from states[k] to states[k + 1]; redo each in two halves.
    x_start, y_start = states[:-1].T
    x_full, y_full = states[1:].T
    half_dt = dt / 2.0
    with np.errstate(all="ignore"):
        hx, hy = _rk4_step(cp, *_rk4_step(cp, x_start, y_start, half_dt), half_dt)
        err = (_first_max(abs(x_full - hx), abs(y_full - hy))
               / _first_max(_first_max(abs(hx), abs(hy)), 1.0))
    flagged = np.flatnonzero(err > RK4_ERROR_TOL)
    if flagged.size:
        k = flagged[0]
        raise StepTooLarge(
            f"step-doubling estimate {err[k]:.3e} exceeds {RK4_ERROR_TOL:g} at t={t[k]:g}")
    if min(states[-1]) < NEGATIVE_STATE_TOL:
        raise NegativeState(
            f"state left the first quadrant at t={t[len(states) - 1]:g}: {states[-1]}")
    # A NaN or inf state stays one, so the last state shows any overflow.
    if not np.isfinite(states[-1]).all():
        k = np.isfinite(states).all(axis=1).argmin()
        raise TrajectoryOverflow(f"state overflowed at t={t[k]:g}: {states[k]}")
    return Trajectory(t=t, states=states)
