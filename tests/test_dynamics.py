"""Equilibria, stability classification, phase geometry and integration."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from lvdyn import (
    BASELINES,
    BBox,
    ContinuousParams,
    DiscreteParams,
    NumericalError,
    Stability,
    ValidationError,
    equilibrium_set,
    free_run,
    integrate_ode,
    interior_equilibrium,
    phase_geometry,
    stability_at,
)
from lvdyn import dynamics
from lvdyn.dynamics import (MAX_RK4_STEPS, RK4_ERROR_TOL, _rk4_step, classify_stability,
                            eigenvalues, jacobian_at, vector_field)
from lvdyn.errors import InvalidBBox, LvdynError, NegativeState, StepTooLarge, TrajectoryOverflow

import reference_kernels as ref
from conftest import PUBLISHED


def cp_for(key: str) -> ContinuousParams:
    return ContinuousParams(**PUBLISHED[key]["continuous"])


def field_residual_scale(cp: ContinuousParams, x: float, y: float) -> float:
    return max(abs(cp.a1 * x), abs(cp.b11 * x * x), abs(cp.b12 * x * y),
               abs(cp.a2 * y), abs(cp.b21 * x * y), abs(cp.b22 * y * y), 1e-30)


# ---------------------------------------------------------------------------
# Equilibria
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("key", ["ai_physical", "ai_labor"])
def test_interior_equilibrium_reproduces_published(key):
    point = interior_equilibrium(cp_for(key))
    want = PUBLISHED[key]["interior"]
    assert point is not None
    assert point[0] == pytest.approx(want[0], abs=0.5)
    assert point[1] == pytest.approx(want[1], abs=0.5)


def test_interior_equilibrium_decoupled_logistic():
    cp = ContinuousParams(a1=1, b11=-1, b12=0, a2=1, b21=0, b22=-1)
    assert interior_equilibrium(cp) == pytest.approx((1.0, 1.0))


def test_interior_equilibrium_parallel_nullclines():
    # b12*b21 == b11*b22 exactly: no interior intersection.
    cp = ContinuousParams(a1=1, b11=2.0, b12=-2.0, a2=1, b21=3.0, b22=-3.0)
    assert interior_equilibrium(cp) is None


def test_interior_equilibrium_overflowing_products():
    # b11*b22 overflows: the closed form would give (-0.0, -0.0).
    cp = ContinuousParams(a1=1, b11=-1e200, b12=-1.0, a2=1, b21=1.0, b22=-1e200)
    assert interior_equilibrium(cp) is None


def test_interior_equilibria_zero_both_nullclines_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    coef = st.one_of(st.just(0.0), st.builds(lambda m, s: m * s, st.floats(1e-3, 1e3),
                                             st.sampled_from([-1.0, 1.0])))
    rows = st.lists(st.lists(coef, min_size=6, max_size=6), min_size=1, max_size=16)
    eps = np.finfo(float).eps

    @hyp.settings(max_examples=200, deadline=None)
    @hyp.given(rows=rows)
    def check(rows):
        found = [(row, interior_equilibrium(ContinuousParams(*row))) for row in rows]
        theta = np.array([row for row, point in found if point is not None]).reshape(-1, 6)
        a1, b11, b12, a2, b21, b22 = theta.T
        x, y = np.array([point for _, point in found if point is not None]).reshape(-1, 2).T
        # Relative residual of each nullcline, bounded by the conditioning of
        # the 2x2 solve (near-parallel nullclines amplify rounding).
        cond = np.maximum(np.abs(b12 * b21), np.abs(b11 * b22)) / np.abs(b12 * b21 - b11 * b22)
        for terms in ((a1, b11 * x, b12 * y), (a2, b21 * x, b22 * y)):
            size = np.maximum.reduce([np.abs(t) for t in terms] + [np.full(len(x), 1e-300)])
            assert np.all(np.abs(sum(terms)) <= 16 * eps * cond * size)

    check()


@pytest.mark.parametrize("key", ["ai_physical", "ai_labor"])
def test_equilibrium_residuals(key):
    cp = cp_for(key)
    eqs = equilibrium_set(cp)
    points = [eqs.origin, eqs.axial_x, eqs.axial_y, eqs.interior]
    for point in points:
        assert point is not None
        f1, f2 = vector_field(cp, *point)
        scale = field_residual_scale(cp, *point)
        assert abs(f1) / scale <= 1e-9
        assert abs(f2) / scale <= 1e-9


def test_axial_equilibria_are_carrying_capacities():
    cp = ContinuousParams(a1=2.0, b11=-0.5, b12=-1.0, a2=3.0, b21=0.25, b22=-1.5)
    eqs = equilibrium_set(cp)
    assert eqs.axial_x == pytest.approx((4.0, 0.0))
    assert eqs.axial_y == pytest.approx((0.0, 2.0))


@pytest.mark.parametrize("coefficients,name", [
    ((1.0, -1e-320, 0.1, 1.0, 0.1, -1.0), "axial_x"),        # was (inf, 0.0)
    ((1e300, -1e-10, 1e-10, 1.0, 1e-10, -1.0), "axial_x"),   # interior was (inf, 1e300)
    ((1e304, -1.0, 1.0, 1.0, 1.0 - 1e-6, -1.0), "interior"),  # axial points finite
    ((1.0, -1.0, 0.1, 1e300, 0.1, -1e-10), "axial_y"),
])
def test_equilibrium_that_overflows_is_a_numerical_error(coefficients, name):
    with pytest.raises(NumericalError, match=f"the {name} equilibrium is not finite"):
        equilibrium_set(ContinuousParams(*coefficients))


def test_interior_equilibrium_that_overflows_is_a_numerical_error():
    # interior_equilibrium returned (inf, 1e308); only equilibrium_set checked it.
    cp = ContinuousParams(1e308, -1e-308, 1e-308, 1.0, 1e-308, -1.0)
    with pytest.raises(NumericalError) as err:
        interior_equilibrium(cp)
    assert str(err.value) == "the interior equilibrium is not finite: (inf, 1e+308)"
    # equilibrium_set checks its axial points first, as it did before.
    with pytest.raises(NumericalError) as err:
        equilibrium_set(cp)
    assert str(err.value) == "the axial_x equilibrium is not finite: (inf, 0.0)"


# ---------------------------------------------------------------------------
# Jacobian and eigenvalues
# ---------------------------------------------------------------------------

def test_jacobian_at_origin_is_diagonal():
    cp = ContinuousParams(a1=1.5, b11=-1, b12=2, a2=-0.5, b21=3, b22=-4)
    jac = jacobian_at(cp, (0.0, 0.0))
    assert np.allclose(jac, np.diag([1.5, -0.5]))


def test_jacobian_interior_identity():
    # At the interior equilibrium the Jacobian reduces to
    # [[b11*x, b12*x], [b21*y, b22*y]].
    for key in ("ai_physical", "ai_labor"):
        cp = cp_for(key)
        x, y = interior_equilibrium(cp)
        jac = jacobian_at(cp, (x, y))
        want = np.array([[cp.b11 * x, cp.b12 * x], [cp.b21 * y, cp.b22 * y]])
        assert np.allclose(jac, want, rtol=1e-9)


def test_jacobian_trace_det_at_physical_interior():
    cp = cp_for("ai_physical")
    jac = jacobian_at(cp, interior_equilibrium(cp))
    assert np.trace(jac) == pytest.approx(-7.87, abs=0.05)
    assert np.linalg.det(jac) == pytest.approx(12.8, abs=0.1)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(17)
    h = 1e-6
    for _ in range(100):
        cp = ContinuousParams(*rng.uniform(-1, 1, 6))
        x, y = rng.uniform(0.1, 100.0, 2)
        jac = jacobian_at(cp, (x, y))
        fd = np.empty((2, 2))
        fd[:, 0] = (np.array(vector_field(cp, x + h, y))
                    - np.array(vector_field(cp, x - h, y))) / (2 * h)
        fd[:, 1] = (np.array(vector_field(cp, x, y + h))
                    - np.array(vector_field(cp, x, y - h))) / (2 * h)
        scale = np.max(np.abs(jac)) + 1.0
        assert np.max(np.abs(jac - fd)) / scale <= 1e-5


def test_eigenvalues_identity():
    assert eigenvalues(np.eye(2)) == (1 + 0j, 1 + 0j)


@pytest.mark.parametrize("key", ["ai_physical", "ai_labor"])
def test_eigenvalues_reproduce_published(key):
    cp = cp_for(key)
    eigs = eigenvalues(jacobian_at(cp, interior_equilibrium(cp)))
    want = PUBLISHED[key]["eigenvalues"]
    assert eigs[0].real == pytest.approx(want[0], abs=0.05)
    assert eigs[1].real == pytest.approx(want[1], abs=0.05)
    assert eigs[0].imag == 0 and eigs[1].imag == 0


def test_eigenvalue_trace_det_reconstruction():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        m = rng.uniform(-5, 5, (2, 2))
        l1, l2 = eigenvalues(m)
        tr, det = np.trace(m), np.linalg.det(m)
        scale = max(1.0, abs(tr), abs(det))
        assert abs((l1 + l2).real - tr) / scale <= 1e-9
        assert abs((l1 + l2).imag) / scale <= 1e-9
        assert abs((l1 * l2).real - det) / scale <= 1e-9
        assert abs((l1 * l2).imag) / scale <= 1e-9


def test_jacobian_that_overflows_is_a_numerical_error():
    # The matrix held -inf, and stability_at failed it as a validation error (exit 2).
    cp, point = ContinuousParams(1.0, -1e300, 0.0, 1.0, 0.0, -1.0), (1e10, 1.0)
    for f in (jacobian_at, stability_at):
        with pytest.raises(NumericalError, match="the Jacobian at .* is not finite"):
            f(cp, point)
        # A point that is not finite is a bad argument, not an overflow.
        with pytest.raises(ValidationError, match="point must be finite"):
            f(cp, (np.nan, 1.0))


def test_eigenvalue_ordering_complex_pair():
    m = np.array([[0.0, 1.0], [-1.0, 0.0]])
    l1, l2 = eigenvalues(m)
    assert l1 == pytest.approx(1j)
    assert l2 == pytest.approx(-1j)


def test_eigenvalues_agree_with_numpy_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    entry = st.one_of(st.floats(-1e3, 1e3), st.integers(-3, 3).map(float))
    key = lambda z: (-z.real, -z.imag)

    @hyp.settings(max_examples=300, deadline=None)
    @hyp.given(m=st.lists(entry, min_size=4, max_size=4).map(lambda v: np.reshape(v, (2, 2))))
    def check(m):
        got = eigenvalues(m)
        assert list(got) == sorted(got, key=key)
        want = sorted(np.linalg.eigvals(m).astype(complex).tolist(), key=key)
        # A repeated root moves by ~sqrt(eps) under rounding, not eps.
        tol = 1e-6 * max(1.0, np.abs(m).max())
        assert np.allclose(got, want, rtol=0, atol=tol)

    check()


def test_eigenvalues_reject_bad_input():
    with pytest.raises(ValidationError):
        eigenvalues(np.ones((2, 3)))
    with pytest.raises(ValidationError):
        eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# Stability classification
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("eigs,want", [
    ((-2.29 + 0j, -5.57 + 0j), Stability.STABLE_NODE),
    ((5 + 0j, 2 + 0j), Stability.UNSTABLE_NODE),
    ((1 + 0j, -1 + 0j), Stability.SADDLE),
    ((-1 + 2j, -1 - 2j), Stability.STABLE_FOCUS),
    ((1 + 2j, 1 - 2j), Stability.UNSTABLE_FOCUS),
    ((1j, -1j), Stability.CENTER),
    ((0j, -3 + 0j), Stability.DEGENERATE),
    ((-2 + 0j, -2 + 0j), Stability.DEGENERATE),
])
def test_classify_stability(eigs, want):
    assert classify_stability(eigs) is want


@pytest.mark.parametrize("eigs", [(np.nan, 1.0), (1.0, -np.inf), (complex(-1, np.nan), -1 + 0j)])
def test_classify_stability_rejects_eigenvalues_that_are_not_finite(eigs):
    # (nan, 1.0) was DEGENERATE.
    with pytest.raises(ValidationError, match="eigenvalues must be finite"):
        classify_stability(eigs)


@pytest.mark.parametrize("key", ["ai_physical", "ai_labor"])
def test_fitted_interiors_are_stable_nodes(key):
    cp = cp_for(key)
    report = stability_at(cp, interior_equilibrium(cp))
    assert report.classification is Stability.STABLE_NODE


# ---------------------------------------------------------------------------
# Phase geometry
# ---------------------------------------------------------------------------

def test_phase_geometry_nullcline_coefficients_and_zeroes():
    cp = cp_for("ai_physical")
    pg = phase_geometry(cp, BBox(1.0, 500.0, 1.0, 80000.0), 21)
    assert pg.nullcline_x == (cp.a1, cp.b11, cp.b12)
    assert pg.nullcline_y == (cp.a2, cp.b21, cp.b22)
    # Points on the x-nullcline have dx/dt = 0 (scaled) for x > 0.
    for y in np.linspace(1000.0, 60000.0, 7):
        x = -(cp.a1 + cp.b12 * y) / cp.b11
        if x <= 0:
            continue
        f1, _ = vector_field(cp, x, y)
        assert abs(f1) / field_residual_scale(cp, x, y) <= 1e-9


def test_phase_geometry_region_signs():
    cp = cp_for("ai_physical")
    x_star, y_star = interior_equilibrium(cp)
    # Left of the x-nullcline and below the y-nullcline: both factors grow.
    x_low = 0.5 * min(-cp.a1 / cp.b11, x_star)
    y_low = 0.25 * y_star
    f1, f2 = vector_field(cp, x_low, y_low)
    assert f1 > 0 and f2 > 0

    pg = phase_geometry(cp, BBox(x_low, 2 * x_star, y_low, 2 * y_star), 31)
    i = int(np.argmin(np.abs(pg.xs - x_low)))
    j = int(np.argmin(np.abs(pg.ys - y_low)))
    assert np.sign(pg.dx)[i, j] == 1 and np.sign(pg.dy)[i, j] == 1


def test_phase_geometry_labor_declining_ai_region():
    # A region with dx/dt < 0 and dy/dt > 0 exists: right of the x-nullcline
    # yet still below the y-nullcline.
    cp = cp_for("ai_labor")
    _, y_star = interior_equilibrium(cp)
    y = 0.9 * y_star
    x_on_nullcline = -(cp.a1 + cp.b12 * y) / cp.b11
    f1, f2 = vector_field(cp, x_on_nullcline + 10.0, y)
    assert f1 < 0 and f2 > 0


def test_phase_geometry_grid_shapes():
    cp = cp_for("ai_physical")
    pg = phase_geometry(cp, BBox(1.0, 10.0, 1.0, 10.0), 5)
    assert np.sign(pg.dx).shape == (5, 5)
    assert pg.dx.shape == (5, 5)
    assert set(np.unique(np.sign(pg.dx))).issubset({-1, 0, 1})


@pytest.mark.parametrize("key", ["ai_physical", "ai_labor"])
def test_phase_geometry_grid_is_the_vector_field(key):
    # One field formula: the sampled grid is vector_field on the meshgrid,
    # bit for bit, over the box the pipeline draws around the interior.
    cp = cp_for(key)
    x, y = interior_equilibrium(cp)
    pg = phase_geometry(cp, BBox(x / 50.0, 2.2 * x, y / 50.0, 1.6 * y), 41)
    dx, dy = vector_field(cp, *np.meshgrid(pg.xs, pg.ys, indexing="ij"))
    assert np.array_equal(pg.dx, dx)
    assert np.array_equal(pg.dy, dy)


def test_phase_geometry_fails_typed_when_the_field_overflows():
    # x*y of the box's far corner overflows; the field was an inf and a NaN.
    cp = cp_for("ai_physical")
    with np.errstate(all="raise"), pytest.raises(NumericalError, match="phase grid"):
        phase_geometry(cp, BBox(1.0, 30.0, 1.0, 1e306), 2)


@pytest.mark.parametrize("ends,error,match", [
    (("a", 1.0, 1.0, 2.0), ValidationError, r"x_min must be a real number, got 'a'"),
    ((1, 10**400, 1, 2), InvalidBBox, r"got \(1, 10{400}, 1, 2\)$"),
    ((1.0, np.inf, 1.0, 2.0), InvalidBBox,
     r"^bbox must satisfy 0 < x_min < x_max and 0 < y_min < y_max, got \(1.0, inf, 1.0, 2.0\)$"),
], ids=["str", "huge-int", "inf"])
def test_bbox_rejects_ends_of_the_wrong_type_or_not_finite(ends, error, match):
    # np.isfinite raised a bare TypeError on the first two.
    with pytest.raises(error, match=match):
        BBox(*ends)


def test_phase_geometry_invalid_inputs():
    cp = cp_for("ai_physical")
    with pytest.raises(InvalidBBox):
        BBox(-1.0, 10.0, 1.0, 10.0)
    with pytest.raises(InvalidBBox):
        BBox(5.0, 1.0, 1.0, 10.0)
    with pytest.raises(ValidationError):
        phase_geometry(cp, BBox(1.0, 2.0, 1.0, 2.0), 1)


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------

def test_integrate_pure_exponential():
    cp = ContinuousParams(a1=1.0, b11=0, b12=0, a2=1.0, b21=0, b22=0)
    traj = integrate_ode(cp, (1.0, 1.0), 1.0, 0.001)
    assert traj.states[-1][0] == pytest.approx(np.e, rel=1e-6)
    assert traj.states[-1][1] == pytest.approx(np.e, rel=1e-6)
    assert traj.t[-1] == pytest.approx(1.0)


@pytest.mark.parametrize("key,x0", [
    ("ai_physical", (15.4, 37202.1)), ("ai_labor", (15.4, 22770.0))])
def test_integrate_converges_to_interior(key, x0):
    cp = cp_for(key)
    want = interior_equilibrium(cp)
    traj = integrate_ode(cp, x0, 10.0, 0.001)
    end = traj.states[-1]
    assert abs(end[0] - want[0]) / want[0] < 0.01
    assert abs(end[1] - want[1]) / want[1] < 0.01


def test_integrate_fixed_point_stays_put():
    cp = cp_for("ai_physical")
    point = interior_equilibrium(cp)
    traj = integrate_ode(cp, point, 2.0, 0.001)
    rel = np.abs(traj.states - np.array(point)) / np.array(point)
    assert np.max(rel) < 1e-6


@pytest.mark.parametrize("key,x0", [
    ("ai_physical", (15.4, 37202.1)), ("ai_labor", (15.4, 22770.0))])
def test_integrate_monotone_convergence_after_transient(key, x0):
    cp = cp_for(key)
    want = np.array(interior_equilibrium(cp))
    traj = integrate_ode(cp, x0, 10.0, 0.001)
    dist = np.linalg.norm(traj.states / want - 1.0, axis=1)
    tail = dist[int(0.2 * len(dist)):]
    assert np.all(np.diff(tail) <= 1e-12)


def reference_rk4_states(cp: ContinuousParams, x0, t_end: float, dt: float) -> np.ndarray:
    """Classical RK4 stepped on numpy arrays, the oracle for the float loop."""
    def f(s):
        return np.array(vector_field(cp, s[0], s[1]))

    def step(s, h):
        k1 = f(s)
        k2 = f(s + 0.5 * h * k1)
        k3 = f(s + 0.5 * h * k2)
        k4 = f(s + h * k3)
        return s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    states = [np.array(x0, dtype=float)]
    for _ in range(int(round(t_end / dt))):
        states.append(step(states[-1], dt))
    return np.array(states)


@pytest.mark.parametrize("key,x0", [
    ("ai_physical", (15.4, 37202.1)), ("ai_labor", (15.4, 22770.0))])
def test_integrate_is_bitwise_the_array_rk4(key, x0):
    cp = cp_for(key)
    traj = integrate_ode(cp, x0, 10.0, 0.001)
    assert np.array_equal(traj.states, reference_rk4_states(cp, x0, 10.0, 0.001))


def test_integrate_step_too_large():
    cp = ContinuousParams(a1=-1000.0, b11=0, b12=0, a2=1.0, b21=0, b22=0)
    with pytest.raises(StepTooLarge) as info:
        integrate_ode(cp, (1.0, 1.0), 1.0, 0.01)
    assert str(info.value) == "step-doubling estimate 5.485e-01 exceeds 0.001 at t=0"


def test_integrate_negative_state(monkeypatch):
    # With the error estimate disabled, a giant step on strong quadratic
    # decay overshoots straight through the axis.
    monkeypatch.setattr(dynamics, "RK4_ERROR_TOL", np.inf)
    cp = ContinuousParams(a1=0.0, b11=-1.0, b12=0, a2=0.1, b21=0, b22=0)
    with pytest.raises(NegativeState) as info:
        integrate_ode(cp, (10.0, 1.0), 1.0, 1.0)
    assert str(info.value) == (
        "state left the first quadrant at t=1: [-6.49149299e+10  1.10517083e+00]")


def ode_outcome(integrate, *args) -> tuple:
    """A completed path as (states, t), or a failure as (type, message)."""
    try:
        traj = integrate(*args)
    except LvdynError as exc:
        return type(exc), str(exc)
    return traj.states, traj.t


def assert_same_outcome(*args) -> tuple:
    """The same failure and message as the per-step loop, or the same path.

    Paths match bit for bit, zero signs included, except for the sign and
    payload of a NaN: CPython does not fix which operand's NaN a float
    operation returns, and the loop itself varies there from call to call.
    """
    got = ode_outcome(integrate_ode, *args)
    want = ode_outcome(ref.integrate_ode, *args)
    if not isinstance(want[0], np.ndarray):
        assert got == want
        return got
    assert isinstance(got[0], np.ndarray), got
    for g, w in zip(got, want):
        assert g.shape == w.shape and np.array_equal(g, w, equal_nan=True)
        num = ~np.isnan(w)
        assert np.array_equal(np.signbit(g)[num], np.signbit(w)[num])
    return got


def test_integrate_flagged_step_wins_over_later_negative_state(monkeypatch):
    # Step 0 fails the step-doubling check; without the check the path goes
    # on and leaves the quadrant at t=0.5.  The earlier failure is raised.
    cp = ContinuousParams(a1=1.7, b11=-0.2, b12=0.1, a2=-1.5, b21=2.0, b22=-0.2)
    assert assert_same_outcome(cp, (8.0, 14.0), 5.0, 0.25) == (
        StepTooLarge, "step-doubling estimate 2.392e-01 exceeds 0.001 at t=0")
    monkeypatch.setattr(dynamics, "RK4_ERROR_TOL", np.inf)
    assert assert_same_outcome(cp, (8.0, 14.0), 5.0, 0.25) == (
        NegativeState,
        "state left the first quadrant at t=0.5: [ 4.02285356e+07 -5.04432257e+08]")


def test_integrate_flagged_step_that_also_goes_negative():
    # The step of test_integrate_negative_state, now with the check on.
    cp = ContinuousParams(a1=0.0, b11=-1.0, b12=0, a2=0.1, b21=0, b22=0)
    got = assert_same_outcome(cp, (10.0, 1.0), 1.0, 1.0)
    assert got[0] is StepTooLarge


# In this step the second half step of y overflows to inf - inf = NaN while
# every stage value stays finite, so x is unaffected: |fy - hy| and |hy| are
# NaN, the second argument of both max calls.  Python's max passes over a NaN
# after the first argument and keeps one in first place.
_NAN_SECOND = dict(a1=-1.0, b11=0.0, b12=0.0, a2=-3e36, b21=0.0, b22=5e-163)


def test_integrate_nan_in_second_max_argument_is_passed_over():
    cp = ContinuousParams(**_NAN_SECOND)
    assert assert_same_outcome(cp, (1.0, 5e15), 1.0, 1.0) == (
        StepTooLarge, "step-doubling estimate 6.829e-03 exceeds 0.001 at t=0")


def test_integrate_nan_in_first_max_argument_is_kept():
    # The same step with x and y swapped: the estimate is NaN, which never
    # exceeds the tolerance, so the step is accepted.
    p = _NAN_SECOND
    cp = ContinuousParams(a1=p["a2"], b11=p["b22"], b12=0.0, a2=p["a1"], b21=0.0, b22=0.0)
    assert_same_outcome(cp, (5e15, 1.0), 1.0, 1.0)
    traj = integrate_ode(cp, (5e15, 1.0), 1.0, 1.0)
    assert traj.states[1].tolist() == [1.6875e160, 0.375]


def test_integrate_matches_per_step_reference_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    coeff = st.one_of(
        st.just(0.0),
        st.builds(lambda sign, exp: sign * 10.0 ** exp,
                  st.sampled_from([-1.0, 1.0]), st.floats(-4, 2)))
    params = st.builds(ContinuousParams, coeff, coeff, coeff, coeff, coeff, coeff)
    state = st.one_of(st.floats(0, 1e3), st.sampled_from([0.0, 1e300, np.inf, np.nan]))

    @hyp.settings(max_examples=300, deadline=None)
    @hyp.given(cp=params, x0=st.tuples(state, state), t_end=st.floats(0, 3),
               dt=st.floats(1e-3, 0.5), tol=st.sampled_from([RK4_ERROR_TOL, 1e-6, np.inf]))
    def check(cp, x0, t_end, dt, tol):
        with mock.patch.object(dynamics, "RK4_ERROR_TOL", tol):
            assert_same_outcome(cp, x0, t_end, dt)

    check()


@pytest.mark.parametrize("coeffs,x0,t_end,dt,error", [
    ((1.7, -0.2, 0.1, -1.5, 2.0, -0.2), (8.0, 14.0), 5.0, 0.25, StepTooLarge),
    ((0.116, -2.32, -40.3, -0.0123, -57.1, 5.57), (9.69, 7.26), 2.0, 0.5, NegativeState),
    ((0.116, -2.32, -40.3, -0.0123, -57.1, 5.57), (9.69, 7.26), 0.1, 0.001, None),
])
def test_rk4_path_is_rk4_step_bit_for_bit_property(coeffs, x0, t_end, dt, error):
    # The integration loop holds the coefficients in locals and writes the
    # vector field out; every state it keeps is _rk4_step's.  Each fixed case
    # ends as its error says, and the drawn runs start from it.
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    cp = ContinuousParams(*coeffs)
    if error is None:
        integrate_ode(cp, x0, t_end, dt)
    else:
        with pytest.raises(error):
            integrate_ode(cp, x0, t_end, dt)
    coeff = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 1e200, -1e-200]))
    state = st.one_of(st.floats(-1.0, 1e3), st.sampled_from([0.0, -0.0, 1e300, np.inf, np.nan]))

    @hyp.settings(max_examples=100, deadline=None)
    @hyp.given(scale=st.lists(coeff, min_size=6, max_size=6), start=st.tuples(state, state),
               steps=st.integers(0, 200), h=st.sampled_from([dt, dt / 3, 0.5, 1e-3]))
    @hyp.example(scale=[1.0] * 6, start=x0, steps=round(t_end / dt), h=dt)
    def check(scale, start, steps, h):
        cp = ContinuousParams(*(c * s for c, s in zip(coeffs, scale)))
        (x, y), want = start, [start]
        for _ in range(steps):
            x, y = _rk4_step(cp, x, y, h)
            want.append((x, y))
            if min(x, y) < dynamics.NEGATIVE_STATE_TOL:
                break
        got, want = np.array(dynamics._rk4_path(cp, *start, h, steps)), np.array(want)
        # NaNs match as NaNs: CPython does not fix which operand's NaN it returns.
        num = ~np.isnan(want)
        assert got.shape == want.shape and np.array_equal(np.isnan(got), ~num)
        assert np.array_equal(got[num].view(np.uint64), want[num].view(np.uint64))

    check()


def test_integrate_validates_arguments():
    cp = cp_for("ai_physical")
    with pytest.raises(ValidationError):
        integrate_ode(cp, (1.0, 1.0), 1.0, 0.0)
    with pytest.raises(ValidationError):
        integrate_ode(cp, (1.0, 1.0), -1.0, 0.1)
    with pytest.raises(ValidationError):
        integrate_ode(cp, (-1.0, 1.0), 1.0, 0.1)


@pytest.mark.parametrize("t_end,dt", [
    (1.0, np.nan), (1.0, -np.inf), (np.nan, 0.1), (np.inf, 0.1), (-np.inf, 0.1),
    (1e300, 1e-300), (np.float64(1e300), np.float64(1e-300)),
])
def test_integrate_rejects_non_finite_span(t_end, dt):
    # NaN and inf reached int(round(t_end / dt)) as a bare ValueError or
    # OverflowError; a finite t_end / dt that overflows did too.
    with pytest.raises(ValidationError):
        integrate_ode(cp_for("ai_physical"), (1.0, 1.0), t_end, dt)
    with pytest.raises(ValidationError):
        ref.integrate_ode(cp_for("ai_physical"), (1.0, 1.0), t_end, dt)


@pytest.mark.parametrize("t_end,dt", [(1e300, 1.0), ((MAX_RK4_STEPS + 1) * 1e-3, 1e-3)])
def test_integrate_rejects_a_span_of_too_many_steps(t_end, dt):
    # np.linspace raised a bare ValueError on 1e300 steps; a count that fits
    # an index but not memory went on to allocate its path.
    with pytest.raises(ValidationError, match="RK4 steps"):
        integrate_ode(cp_for("ai_physical"), (1.0, 1.0), t_end, dt)


def test_integrate_takes_up_to_max_rk4_steps(monkeypatch):
    monkeypatch.setattr(dynamics, "MAX_RK4_STEPS", 10)
    assert len(integrate_ode(cp_for("ai_physical"), (1.0, 1.0), 0.01, 0.001).t) == 11
    with pytest.raises(ValidationError, match="11 RK4 steps, more than 1e\\+01"):
        integrate_ode(cp_for("ai_physical"), (1.0, 1.0), 0.011, 0.001)


@pytest.mark.parametrize("x0", [(np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (1.0, np.inf)])
def test_integrate_rejects_non_finite_start(x0):
    # Such a start would give a path that ends in NaN.
    with pytest.raises(ValidationError, match="finite"):
        integrate_ode(cp_for("ai_physical"), x0, 1.0, 0.1)


#: Starts that integrate_ode and free_run both reject.  Before they shared a
#: rule, (1.0,) raised IndexError, "ab" and 5.0 a bare TypeError or
#: ValueError, and an int beyond the largest float OverflowError; both took a
#: bool, integrate_ode three values, and free_run a negative start, and a NaN
#: or inf one that it iterated into NaN rows.
BAD_STARTS = {
    "one-value": (1.0,), "str": "ab", "three-values": (1.0, 1.0, 1.0), "scalar": 5.0,
    "bool": (True, 1.0), "int-beyond-float": (10**400, 1.0), "nan": (np.nan, 1.0),
    "inf": (1.0, np.inf), "negative": (-1.0, 1.0),
    "int-too-long-for-str": (1.0, 10**5000),
}


@pytest.mark.parametrize("x0", BAD_STARTS.values(), ids=BAD_STARTS.keys())
def test_integrate_and_free_run_reject_a_bad_start(x0):
    got = assert_same_outcome(cp_for("ai_physical"), x0, 1.0, 0.1)   # and the reference
    assert got[0] is ValidationError
    assert got[1].startswith("x0 must be ")
    with pytest.raises(ValidationError) as err:
        free_run(DiscreteParams(2.0, 0.0, 0.0, 2.0, 0.0, 0.0), x0, 3)
    assert str(err.value) == got[1]


def test_start_message_shows_an_int_too_long_for_str_by_its_size():
    with pytest.raises(ValidationError) as err:
        integrate_ode(cp_for("ai_physical"), (1.0, 10**5000), 1.0, 0.1)
    assert str(err.value) == "x0 must be finite and >= 0, got a positive integer of 16610 bits"


def test_a_start_may_be_any_pair_of_real_numbers():
    dp = DiscreteParams(2.0, 0.0, 0.0, 2.0, 0.0, 0.0)
    want = free_run(dp, (1.0, 2.0), 3)
    for x0 in ([1, 2], np.array([1.0, 2.0]), (np.float32(1.0), np.int64(2))):
        assert np.array_equal(free_run(dp, x0, 3), want)
        assert np.array_equal(integrate_ode(cp_for("ai_physical"), x0, 0.1, 0.01).states,
                              integrate_ode(cp_for("ai_physical"), (1.0, 2.0), 0.1, 0.01).states)


def test_integrate_overflow_to_nan_is_a_typed_error():
    # The first step takes 1e195 to inf - inf = NaN, which the step-doubling
    # check passes over (err > tol is False for NaN); the path ran on to
    # [nan, nan], and that NaN reached report.json.
    cp = BASELINES["ai_physical"].params
    got = assert_same_outcome(cp, (1e195, 3.0), 10.0, 0.001)
    assert got == (TrajectoryOverflow, "state overflowed at t=0.001: [nan nan]")


@pytest.mark.parametrize("kwargs", [
    dict(dt="a"), dict(dt=None), dict(dt=10**400), dict(dt=np.inf), dict(t_end=None),
    dict(t_end="1"), dict(t_end=10**400),
], ids=["dt-str", "dt-None", "dt-int-beyond-float", "dt-inf", "t_end-None", "t_end-str",
        "t_end-int-beyond-float"])
def test_integrate_rejects_arguments_that_are_not_numbers_in_range(kwargs):
    # "a" and None raised a bare TypeError from a comparison, and an int
    # beyond the largest float a bare OverflowError.
    args = dict(t_end=1.0, dt=0.1) | kwargs
    with pytest.raises(ValidationError, match=next(iter(kwargs))):
        integrate_ode(cp_for("ai_physical"), (1.0, 1.0), **args)


def test_integrate_takes_an_infinite_error_tol_and_numpy_numbers(monkeypatch):
    cp = cp_for("ai_physical")
    want = integrate_ode(cp, (10.0, 100.0), 0.5, 0.01)
    got = integrate_ode(cp, (10.0, 100.0), np.float64(0.5), np.float64(0.01))
    assert np.array_equal(got.states, want.states)
    # The tolerance is read when the check runs.
    monkeypatch.setattr(dynamics, "RK4_ERROR_TOL", np.inf)
    assert len(integrate_ode(cp, (10.0, 100.0), 1, 0.5).t) == 3


def test_eigenvalues_that_overflow_are_a_typed_error():
    # The trace squared and the determinant overflow to inf, their difference
    # to NaN: the eigenvalues came back as (1e200+nanj) twice.
    with pytest.raises(NumericalError, match="eigenvalues overflow"):
        eigenvalues(np.array([[1e200, 0.0], [0.0, 1e200]]))
    with pytest.raises(NumericalError):
        eigenvalues(np.array([[1.0, 1e300], [-1e300, 1.0]]))
