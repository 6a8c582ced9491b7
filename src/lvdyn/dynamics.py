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

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (FINITE_NON_NEGATIVE, REAL, InvalidBBox, NegativeState, NumericalError,
                     StepTooLarge, TrajectoryOverflow, ValidationError, check, check_start, finite)
from .params import ContinuousParams

#: Relative threshold below which the interior-equilibrium denominator is
#: treated as zero (no interior point).
INTERIOR_DENOM_EPS = 1e-15

#: Default per-step relative error tolerance for the step-doubling estimate.
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


def interior_equilibria(columns, out: np.ndarray | None = None
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form intersection of the two interior nullclines, elementwise.

    ``columns`` holds six coefficient arrays of one length n in PARAM_NAMES
    order, such as the transpose of an (n, 6) array of parameter rows.
    Returns (points, ok): points is (2, n) with rows (x*, y*), written into
    ``out`` when given, and ok is False, with NaN in points, where the
    nullclines are (numerically) parallel, judged against the magnitude of
    the coefficient products involved, or where those products overflow.
    """
    a1, b11, b12, a2, b21, b22 = (np.asarray(c, dtype=float) for c in columns)
    points = np.empty((2, len(a1))) if out is None else out
    # Every element is computed unmasked, the ones that are not ok are
    # overwritten last, and the two product buffers are reused throughout.
    with np.errstate(all="ignore"):
        cross, own = b12 * b21, b11 * b22
        den = cross - own
        scale = np.maximum(np.abs(cross, out=cross), np.abs(own, out=own), out=cross)
        np.maximum(scale, 1e-300, out=scale)
        np.multiply(scale, INTERIOR_DENOM_EPS, out=scale)
        abs_den = np.abs(den, out=own)
        # A finite den implies finite products, hence a finite scale.
        ok = (abs_den >= scale) & (abs_den < np.inf)
        num, tmp = scale, abs_den                 # both spent: reuse for the numerators
        np.subtract(np.multiply(a1, b22, out=num), np.multiply(b12, a2, out=tmp), out=num)
        np.divide(num, den, out=points[0])
        np.subtract(np.multiply(b11, a2, out=num), np.multiply(a1, b21, out=tmp), out=num)
        np.divide(num, den, out=points[1])
    if not ok.all():
        points[:, ~ok] = np.nan
    return points, ok


def interior_equilibrium(cp: ContinuousParams) -> tuple[float, float] | None:
    """Interior equilibrium of one parameter set by :func:`interior_equilibria`.

    Returns None when the nullclines are (numerically) parallel.
    """
    points, ok = interior_equilibria([[v] for v in cp.as_tuple()])
    return tuple(points[:, 0].tolist()) if ok[0] else None


@dataclass(frozen=True)
class EquilibriumSet:
    """All equilibria of the system; axis entries are None when undefined."""

    origin: tuple[float, float]
    axial_x: tuple[float, float] | None
    axial_y: tuple[float, float] | None
    interior: tuple[float, float] | None


def equilibrium_set(cp: ContinuousParams) -> EquilibriumSet:
    axial_x = (-cp.a1 / cp.b11, 0.0) if cp.b11 != 0 else None
    axial_y = (0.0, -cp.a2 / cp.b22) if cp.b22 != 0 else None
    return EquilibriumSet(
        origin=(0.0, 0.0),
        axial_x=axial_x,
        axial_y=axial_y,
        interior=interior_equilibrium(cp),
    )


def jacobian_at(cp: ContinuousParams, point: tuple[float, float]) -> np.ndarray:
    """Jacobian of the vector field at a point."""
    x, y = point
    return np.array([
        [cp.a1 + 2.0 * cp.b11 * x + cp.b12 * y, cp.b12 * x],
        [cp.b21 * y, cp.a2 + cp.b21 * x + 2.0 * cp.b22 * y],
    ])


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
    is inconclusive about the nonlinear system.
    """
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


@dataclass(frozen=True)
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
        if not (np.isfinite([self.x_min, self.x_max, self.y_min, self.y_max]).all()
                and 0 < self.x_min < self.x_max and 0 < self.y_min < self.y_max):
            raise InvalidBBox(
                f"bbox must satisfy 0 < x_min < x_max and 0 < y_min < y_max, got "
                f"({self.x_min}, {self.x_max}, {self.y_min}, {self.y_max})")


@dataclass(frozen=True)
class PhaseGeometry:
    """Sampled phase-plane geometry over a bounding box.

    Nullcline coefficients are in A + B*x + C*y = 0 form.  The grids are
    indexed [i, j] for the point (xs[i], ys[j]); sign entries are -1, 0 or +1.
    """

    nullcline_x: tuple[float, float, float]
    nullcline_y: tuple[float, float, float]
    bbox: BBox
    xs: np.ndarray            # (gridN,)
    ys: np.ndarray            # (gridN,)
    sign_dx: np.ndarray       # (gridN, gridN) int
    sign_dy: np.ndarray       # (gridN, gridN) int
    dx: np.ndarray            # (gridN, gridN) float
    dy: np.ndarray            # (gridN, gridN) float


def phase_geometry(cp: ContinuousParams, bbox: BBox, grid_n: int) -> PhaseGeometry:
    """Sample the vector field and its sign pattern over a grid."""
    check("grid_n", grid_n)
    xs = np.linspace(bbox.x_min, bbox.x_max, grid_n)
    ys = np.linspace(bbox.y_min, bbox.y_max, grid_n)
    dx, dy = vector_field(cp, *np.meshgrid(xs, ys, indexing="ij"))
    return PhaseGeometry(
        nullcline_x=(cp.a1, cp.b11, cp.b12),
        nullcline_y=(cp.a2, cp.b21, cp.b22),
        bbox=bbox,
        xs=xs,
        ys=ys,
        sign_dx=np.sign(dx).astype(int),
        sign_dy=np.sign(dy).astype(int),
        dx=dx,
        dy=dy,
    )


@dataclass(frozen=True)
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
    error_tol: float = RK4_ERROR_TOL,
) -> Trajectory:
    """Classical fixed-step RK4 integration of the system.

    Each step is checked by step doubling: the full step is compared with
    two half steps and the run aborts with StepTooLarge when the relative
    discrepancy exceeds ``error_tol`` (the estimate never adapts the step).
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
    check("error_tol", error_tol, (REAL, lambda v: v >= 0 and (finite(v) or v == np.inf),
                                   "finite and >= 0, or inf", ValidationError))
    x, y = check_start(x0)
    if not float(t_end) / float(dt) < np.inf:
        raise ValidationError(f"t_end / dt overflows: {t_end} / {dt}")

    n_steps = int(round(t_end / dt))
    if n_steps > MAX_RK4_STEPS:
        raise ValidationError(
            f"t_end / dt asks for {n_steps:.3g} RK4 steps, more than {MAX_RK4_STEPS:.0e}")
    t = np.linspace(0.0, n_steps * dt, n_steps + 1)
    path = [(x, y)]
    for _ in range(n_steps):
        x, y = _rk4_step(cp, x, y, dt)
        path.append((x, y))
        if min(x, y) < NEGATIVE_STATE_TOL:
            break
    states = np.array(path)

    # Step k goes from states[k] to states[k + 1]; redo each in two halves.
    x_start, y_start = states[:-1].T
    x_full, y_full = states[1:].T
    half_dt = dt / 2.0
    with np.errstate(all="ignore"):
        hx, hy = _rk4_step(cp, *_rk4_step(cp, x_start, y_start, half_dt), half_dt)
        err = (_first_max(abs(x_full - hx), abs(y_full - hy))
               / _first_max(_first_max(abs(hx), abs(hy)), 1.0))
    flagged = np.flatnonzero(err > error_tol)
    if flagged.size:
        k = flagged[0]
        raise StepTooLarge(
            f"step-doubling estimate {err[k]:.3e} exceeds {error_tol:g} at t={t[k]:g}")
    if min(x, y) < NEGATIVE_STATE_TOL:
        raise NegativeState(
            f"state left the first quadrant at t={t[len(path) - 1]:g}: {np.array((x, y))}")
    # A NaN or inf state stays one, so the last state shows any overflow.
    if not np.isfinite(states[-1]).all():
        k = np.isfinite(states).all(axis=1).argmin()
        raise TrajectoryOverflow(f"state overflowed at t={t[k]:g}: {states[k]}")
    return Trajectory(t=t, states=states)
