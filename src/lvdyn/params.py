"""Parameterizations of the two-species Lotka-Volterra system.

Three equivalent layers describe the same dynamics:

* ``ContinuousParams`` -- the ODE coefficients of

      dx/dt = a1*x + b11*x^2 + b12*x*y
      dy/dt = a2*y + b21*y*x + b22*y^2

* ``DiscreteParams`` -- the coefficients of the equivalent discrete map

      x(k+1) = alpha1 * x(k) / (1 - self1*x(k) - cross1*y(k))
      y(k+1) = alpha2 * y(k) / (1 - self2*y(k) - cross2*x(k))

* ``RegressionCoeffs`` -- the linear form the map takes when written as a
  ratio regression

      x(k)/x(k+1) = intercept1 + self_slope1*x(k) + cross_slope1*y(k)
      y(k)/y(k+1) = intercept2 + cross_slope2*x(k) + self_slope2*y(k)

All discrete and regression coefficients are stored BY ROLE (coefficient on
the species' own state vs. on the other species' state), never by position
in a printed formula.  The role convention is the single source of truth for
every transform in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import FINITE, DomainError, check


def _require_finite(obj, fields: tuple[str, ...]) -> None:
    for name in fields:
        check(f"{type(obj).__name__}.{name}", getattr(obj, name), FINITE)


@dataclass(frozen=True)
class ContinuousParams:
    """ODE-level coefficients.

    a1, a2 are intrinsic growth rates (1/time); b11, b22 the self-limiting
    coefficients; b12 the effect of y on x and b21 the effect of x on y.
    """

    a1: float
    b11: float
    b12: float
    a2: float
    b21: float
    b22: float

    def __post_init__(self):
        _require_finite(self, ("a1", "b11", "b12", "a2", "b21", "b22"))

    def as_tuple(self) -> tuple[float, float, float, float, float, float]:
        return (self.a1, self.b11, self.b12, self.a2, self.b21, self.b22)


#: Canonical ordering of the six continuous parameters, used everywhere a
#: parameter vector appears (sensitivity bounds, sample matrices, reports).
PARAM_NAMES = ("a1", "b11", "b12", "a2", "b21", "b22")


@dataclass(frozen=True)
class DiscreteParams:
    """Discrete-map coefficients, stored by role.

    ``alpha1``/``alpha2`` are the growth multipliers; ``self1``/``self2``
    multiply the species' own state in the map denominator and
    ``cross1``/``cross2`` multiply the other species' state.  The transforms
    to and from the other layers require alpha_i > 0 and alpha_i != 1.
    """

    alpha1: float
    self1: float
    cross1: float
    alpha2: float
    self2: float
    cross2: float

    def __post_init__(self):
        _require_finite(self, ("alpha1", "self1", "cross1", "alpha2", "self2", "cross2"))


@dataclass(frozen=True)
class RegressionCoeffs:
    """Ratio-regression coefficients, stored by role.

    ``intercept_i`` is the reciprocal of the corresponding growth multiplier
    (well-defined when positive and != 1).  ``adj_r2_i`` is the adjusted
    coefficient of determination of equation i's through-origin slope fit,
    using the no-intercept convention (uncentered total sum of squares,
    n rather than n-1 in the numerator degrees of freedom).
    """

    intercept1: float
    self_slope1: float
    cross_slope1: float
    intercept2: float
    self_slope2: float
    cross_slope2: float
    adj_r2_1: float | None = None
    adj_r2_2: float | None = None

    def __post_init__(self):
        _require_finite(self, ("intercept1", "self_slope1", "cross_slope1",
                               "intercept2", "self_slope2", "cross_slope2"))


class InteractionKind(Enum):
    PURE_COMPETITION = "pure_competition"
    MUTUALISM = "mutualism"
    PREDATOR_PREY = "predator_prey"
    AMENSALISM = "amensalism"
    COMMENSALISM = "commensalism"
    NEUTRALISM = "neutralism"


@dataclass(frozen=True)
class InteractionType:
    """Interaction regime implied by the signs of the cross coefficients.

    For the predator-prey regime ``prey`` names the species ("x" or "y")
    whose incoming cross-effect is negative while its outgoing cross-effect
    is positive; it is None for every other regime.
    """

    kind: InteractionKind
    prey: str | None = None


def _check_positive_not_one(value: float, label: str) -> None:
    """Growth multipliers and their reciprocal intercepts must be > 0 and != 1."""
    if value <= 0 or value == 1:
        raise DomainError(f"{label} must be > 0 and != 1, got {value}")


def regression_to_discrete(rc: RegressionCoeffs) -> DiscreteParams:
    """Invert the ratio-regression layer into discrete-map coefficients.

    alpha_i = 1/intercept_i, and each slope maps to minus itself scaled by
    alpha_i, preserving roles.  Raises DomainError when an intercept is
    non-positive or exactly 1 (the inversion is undefined there).
    """
    _check_positive_not_one(rc.intercept1, "intercept1")
    _check_positive_not_one(rc.intercept2, "intercept2")
    alpha1 = 1.0 / rc.intercept1
    alpha2 = 1.0 / rc.intercept2
    return DiscreteParams(
        alpha1=alpha1,
        self1=-rc.self_slope1 * alpha1,
        cross1=-rc.cross_slope1 * alpha1,
        alpha2=alpha2,
        self2=-rc.self_slope2 * alpha2,
        cross2=-rc.cross_slope2 * alpha2,
    )


def discrete_to_regression(dp: DiscreteParams) -> RegressionCoeffs:
    """Exact inverse of :func:`regression_to_discrete` (no fit diagnostics)."""
    _check_positive_not_one(dp.alpha1, "alpha1")
    _check_positive_not_one(dp.alpha2, "alpha2")
    return RegressionCoeffs(
        intercept1=1.0 / dp.alpha1,
        self_slope1=-dp.self1 / dp.alpha1,
        cross_slope1=-dp.cross1 / dp.alpha1,
        intercept2=1.0 / dp.alpha2,
        self_slope2=-dp.self2 / dp.alpha2,
        cross_slope2=-dp.cross2 / dp.alpha2,
    )


def discrete_to_continuous(dp: DiscreteParams) -> ContinuousParams:
    """Map discrete coefficients to ODE coefficients.

    a_i = ln(alpha_i); self and cross coefficients scale by
    ln(alpha_i)/(alpha_i - 1), which is positive for every valid alpha, so
    signs are preserved role by role.
    """
    _check_positive_not_one(dp.alpha1, "alpha1")
    _check_positive_not_one(dp.alpha2, "alpha2")
    a1 = math.log(dp.alpha1)
    a2 = math.log(dp.alpha2)
    s1 = a1 / (dp.alpha1 - 1.0)
    s2 = a2 / (dp.alpha2 - 1.0)
    return ContinuousParams(
        a1=a1,
        b11=dp.self1 * s1,
        b12=dp.cross1 * s1,
        a2=a2,
        b21=dp.cross2 * s2,
        b22=dp.self2 * s2,
    )


def continuous_to_discrete(cp: ContinuousParams) -> DiscreteParams:
    """Exact inverse of :func:`discrete_to_continuous`.

    Requires a_i != 0 (alpha_i = e^{a_i} must differ from 1).
    """
    if cp.a1 == 0 or cp.a2 == 0:
        raise DomainError("growth rates must be nonzero to invert (alpha_i != 1)")
    alpha1 = math.exp(cp.a1)
    alpha2 = math.exp(cp.a2)
    s1 = (alpha1 - 1.0) / cp.a1
    s2 = (alpha2 - 1.0) / cp.a2
    return DiscreteParams(
        alpha1=alpha1,
        self1=cp.b11 * s1,
        cross1=cp.b12 * s1,
        alpha2=alpha2,
        self2=cp.b22 * s2,
        cross2=cp.b21 * s2,
    )


def _sign(value: float, tol: float) -> int:
    if abs(value) <= tol:
        return 0
    return 1 if value > 0 else -1


def classify_interaction(cp: ContinuousParams, tol: float = 0.0) -> InteractionType:
    """Classify the interaction regime from the signs of b12 and b21.

    Coefficients with magnitude <= tol are treated as exactly zero.  The
    mapping is total over the nine sign combinations:

        (+,+) pure competition; (-,-) mutualism; opposite strict signs
        predator-prey; one + and one 0 amensalism; one - and one 0
        commensalism; (0,0) neutralism.
    """
    check("classify_tol", tol)
    s12 = _sign(cp.b12, tol)
    s21 = _sign(cp.b21, tol)
    if s12 == 0 and s21 == 0:
        return InteractionType(InteractionKind.NEUTRALISM)
    if s12 > 0 and s21 > 0:
        return InteractionType(InteractionKind.PURE_COMPETITION)
    if s12 < 0 and s21 < 0:
        return InteractionType(InteractionKind.MUTUALISM)
    if s12 * s21 < 0:
        # Prey: negative incoming cross-effect, positive outgoing one.
        prey = "x" if s12 < 0 else "y"
        return InteractionType(InteractionKind.PREDATOR_PREY, prey=prey)
    if s12 > 0 or s21 > 0:
        return InteractionType(InteractionKind.AMENSALISM)
    return InteractionType(InteractionKind.COMMENSALISM)
