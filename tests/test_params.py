"""Parameter layers, transforms between them, and interaction classification."""

from __future__ import annotations

import math
from dataclasses import astuple

import numpy as np
import pytest

from lvdyn import (
    ContinuousParams,
    DiscreteParams,
    InteractionKind,
    NumericalError,
    RegressionCoeffs,
    ValidationError,
    classify_interaction,
    continuous_to_discrete,
    discrete_to_continuous,
    discrete_to_regression,
    regression_to_discrete,
)
from lvdyn.errors import DomainError

from conftest import PUBLISHED, roundtrip_mismatches


def rc_from(published: dict) -> RegressionCoeffs:
    return RegressionCoeffs(**{k: v for k, v in published.items()
                               if not k.startswith("adj")})


def cp_from(published: dict) -> ContinuousParams:
    return ContinuousParams(**published)


# ---------------------------------------------------------------------------
# regression -> discrete
# ---------------------------------------------------------------------------

def test_regression_to_discrete_published_alpha():
    rc = rc_from(PUBLISHED["ai_physical"]["regression"])
    dp = regression_to_discrete(rc)
    assert dp.alpha1 == pytest.approx(47.1160, rel=1e-2)
    assert dp.alpha2 == pytest.approx(139.0605, rel=1e-2)


def test_regression_to_discrete_zero_coefficients():
    rc = RegressionCoeffs(intercept1=0.5, self_slope1=0.0, cross_slope1=0.0,
                          intercept2=0.25, self_slope2=0.0, cross_slope2=0.0)
    dp = regression_to_discrete(rc)
    assert dp.alpha1 == 2.0
    assert dp.self1 == 0.0 and dp.cross1 == 0.0
    assert dp.alpha2 == 4.0


def test_regression_to_discrete_published_cross():
    rc = rc_from(PUBLISHED["ai_labor"]["regression"])
    dp = regression_to_discrete(rc)
    assert dp.cross2 == pytest.approx(0.391303, rel=1e-2)


@pytest.mark.parametrize("bad", [0.0, -0.1, 1.0])
def test_regression_to_discrete_rejects_bad_intercepts(bad):
    rc = RegressionCoeffs(intercept1=bad, self_slope1=0.0, cross_slope1=0.0,
                          intercept2=0.5, self_slope2=0.0, cross_slope2=0.0)
    with pytest.raises(DomainError):
        regression_to_discrete(rc)


# ---------------------------------------------------------------------------
# discrete -> continuous
# ---------------------------------------------------------------------------

def test_discrete_to_continuous_published_species1():
    dp = DiscreteParams(**PUBLISHED["ai_physical"]["discrete"])
    cp = discrete_to_continuous(dp)
    assert cp.a1 == pytest.approx(3.852613, rel=1e-2)
    assert cp.b11 == pytest.approx(-0.006965, rel=1e-2)


def test_discrete_to_continuous_published_species2_cross():
    dp = DiscreteParams(**PUBLISHED["ai_physical"]["discrete"])
    cp = discrete_to_continuous(dp)
    assert cp.b21 == pytest.approx(0.007846, rel=1e-2)


def test_discrete_to_continuous_scale_factor_cancels():
    # alpha = e makes ln(alpha) = 1, and self = e-1 cancels the denominator.
    dp = DiscreteParams(alpha1=math.e, self1=math.e - 1.0, cross1=0.0,
                        alpha2=math.e, self2=0.0, cross2=0.0)
    cp = discrete_to_continuous(dp)
    assert cp.a1 == pytest.approx(1.0, abs=1e-12)
    assert cp.b11 == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("alpha", [0.0, -3.0, 1.0])
def test_discrete_to_continuous_rejects_bad_alpha(alpha):
    dp = DiscreteParams(alpha1=alpha, self1=0.0, cross1=0.0,
                        alpha2=2.0, self2=0.0, cross2=0.0)
    with pytest.raises(DomainError):
        discrete_to_continuous(dp)


# ---------------------------------------------------------------------------
# Round trips and inverses
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("key", ["ai_physical", "ai_labor"])
def test_published_layers_round_trip_within_one_percent(key):
    # 1% relative per entry, widened by the rounding interval of the printed
    # inputs (a couple of cross-slopes are printed at two significant figures,
    # which alone moves the derived entry by more than 1%).
    assert roundtrip_mismatches(key, rel=0.01) == []


@pytest.mark.parametrize("key", ["ai_physical", "ai_labor"])
def test_published_discrete_to_continuous_within_one_percent(key):
    # The discrete layer is printed precisely enough that the plain 1%
    # check holds entry by entry in this direction.
    pub = PUBLISHED[key]
    cp = discrete_to_continuous(DiscreteParams(**pub["discrete"]))
    for name, want in pub["continuous"].items():
        assert getattr(cp, name) == pytest.approx(want, rel=1e-2), name


def test_inverse_transforms_are_exact():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a1, a2 = rng.uniform(0.1, 5.0, 2)
        b = rng.uniform(-1.0, 1.0, 4)
        cp = ContinuousParams(a1=a1, b11=b[0], b12=b[1], a2=a2, b21=b[2], b22=b[3])
        back = discrete_to_continuous(continuous_to_discrete(cp))
        for name in ("a1", "b11", "b12", "a2", "b21", "b22"):
            assert getattr(back, name) == pytest.approx(getattr(cp, name),
                                                        rel=1e-12, abs=1e-15)
        dp = continuous_to_discrete(cp)
        rc = discrete_to_regression(dp)
        dp2 = regression_to_discrete(rc)
        for name in ("alpha1", "self1", "cross1", "alpha2", "self2", "cross2"):
            assert getattr(dp2, name) == pytest.approx(getattr(dp, name),
                                                       rel=1e-12, abs=1e-15)


def test_transform_preserves_signs():
    # ln(alpha)/(alpha-1) > 0 for every valid alpha, so roles keep their signs.
    rng = np.random.default_rng(11)
    for _ in range(500):
        alpha1, alpha2 = np.exp(rng.uniform(-3, 5, 2))
        if abs(alpha1 - 1) < 1e-6 or abs(alpha2 - 1) < 1e-6:
            continue
        coeffs = rng.uniform(-1, 1, 4)
        dp = DiscreteParams(alpha1=alpha1, self1=coeffs[0], cross1=coeffs[1],
                            alpha2=alpha2, self2=coeffs[2], cross2=coeffs[3])
        cp = discrete_to_continuous(dp)
        assert np.sign(cp.b11) == np.sign(dp.self1)
        assert np.sign(cp.b12) == np.sign(dp.cross1)
        assert np.sign(cp.b22) == np.sign(dp.self2)
        assert np.sign(cp.b21) == np.sign(dp.cross2)


def test_constructors_reject_non_finite():
    with pytest.raises(ValidationError):
        ContinuousParams(a1=float("nan"), b11=0, b12=0, a2=1, b21=0, b22=0)
    with pytest.raises(ValidationError):
        DiscreteParams(alpha1=float("inf"), self1=0, cross1=0,
                       alpha2=2, self2=0, cross2=0)


@pytest.mark.parametrize("value", [10**400, "1.0", None], ids=["int-beyond-float", "str", "None"])
def test_constructors_reject_values_that_are_not_finite_numbers(value):
    # An int beyond the largest float raised a bare OverflowError from
    # math.isfinite.
    with pytest.raises(ValidationError, match="ContinuousParams.b12 must be"):
        ContinuousParams(a1=1.0, b11=0, b12=value, a2=1, b21=0, b22=0)


#: A transform of finite coefficients whose result is not finite:
#: continuous_to_discrete raised a bare OverflowError from math.exp, and the
#: other three a ValidationError naming the result's field.
OVERFLOWING_TRANSFORMS = [
    (continuous_to_discrete, ContinuousParams(1000.0, -1.0, 1.0, 1.0, 1.0, -1.0), r"e\^a"),
    (regression_to_discrete, RegressionCoeffs(1e-320, 1.0, 1.0, 0.5, 1.0, 1.0),
     "DiscreteParams.alpha1"),
    (discrete_to_regression, DiscreteParams(1e-320, 1e300, 1.0, 2.0, 1.0, 1.0),
     "RegressionCoeffs.intercept1"),
    (discrete_to_continuous, DiscreteParams(1e-320, 1e308, 1.0, 2.0, 1.0, 1.0),
     "ContinuousParams.b11"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("transform,arg,match", OVERFLOWING_TRANSFORMS,
                         ids=[t.__name__ for t, *_ in OVERFLOWING_TRANSFORMS])
@pytest.mark.parametrize("kind", [float, np.float64])
def test_transform_that_overflows_fails_numerical(transform, arg, match, kind):
    # With numpy scalars the overflow also warned.
    with pytest.raises(NumericalError, match=match):
        transform(type(arg)(*map(kind, astuple(arg))))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a1,error", [(0.0, DomainError), (-1000.0, NumericalError),
                                      (1e-20, NumericalError)],
                         ids=["zero", "underflows-to-0", "rounds-to-1"])
def test_continuous_to_discrete_multiplier_outside_the_domain(a1, error):
    # A zero growth rate has no inverse (exit 2).  e^-1000 underflows to 0 and
    # e^1e-20 rounds to 1, multipliers no transform accepts: that is numerical
    # (exit 3), where it was a DomainError of the next transform.
    with pytest.raises(error):
        continuous_to_discrete(ContinuousParams(a1, -1.0, 1.0, 1.0, 1.0, -1.0))


# ---------------------------------------------------------------------------
# Interaction classification
# ---------------------------------------------------------------------------

def _cp(b12: float, b21: float) -> ContinuousParams:
    return ContinuousParams(a1=1.0, b11=-1.0, b12=b12, a2=1.0, b21=b21, b22=-1.0)


@pytest.mark.parametrize("b12,b21,kind,prey", [
    (1.0, 1.0, InteractionKind.PURE_COMPETITION, None),
    (-1.0, -1.0, InteractionKind.MUTUALISM, None),
    (1.0, -1.0, InteractionKind.PREDATOR_PREY, "y"),
    (-1.0, 1.0, InteractionKind.PREDATOR_PREY, "x"),
    (1.0, 0.0, InteractionKind.AMENSALISM, None),
    (0.0, 1.0, InteractionKind.AMENSALISM, None),
    (-1.0, 0.0, InteractionKind.COMMENSALISM, None),
    (0.0, -1.0, InteractionKind.COMMENSALISM, None),
    (0.0, 0.0, InteractionKind.NEUTRALISM, None),
])
def test_classification_covers_all_sign_combinations(b12, b21, kind, prey):
    result = classify_interaction(_cp(b12, b21), tol=0.0)
    assert result.kind is kind
    assert result.prey == prey


@pytest.mark.parametrize("key", ["ai_physical", "ai_labor"])
def test_fitted_subsystems_are_predator_prey_with_x_prey(key):
    cp = cp_from(PUBLISHED[key]["continuous"])
    result = classify_interaction(cp)
    assert result.kind is InteractionKind.PREDATOR_PREY
    assert result.prey == "x"


def test_classification_invariant_under_positive_rescaling():
    rng = np.random.default_rng(13)
    for _ in range(300):
        b12, b21 = rng.uniform(-1, 1, 2)
        scale = float(rng.uniform(1e-6, 1e6))
        base = classify_interaction(_cp(b12, b21))
        scaled = classify_interaction(_cp(b12 * scale, b21 * scale))
        assert base == scaled


def test_classification_tolerance_zeroes_small_coefficients():
    near_zero = classify_interaction(_cp(1e-9, -1e-9), tol=1e-6)
    assert near_zero.kind is InteractionKind.NEUTRALISM
    exact = classify_interaction(_cp(1e-9, -1e-9), tol=0.0)
    assert exact.kind is InteractionKind.PREDATOR_PREY


def test_classification_rejects_negative_tolerance():
    with pytest.raises(ValidationError):
        classify_interaction(_cp(1.0, 1.0), tol=-1e-9)
