"""Equilibria, stability classification, phase geometry and integration."""

from __future__ import annotations

import numpy as np
import pytest

from lvdyn import (
    BBox,
    ContinuousParams,
    InvalidBBox,
    NegativeState,
    Stability,
    StepTooLarge,
    ValidationError,
    classify_stability,
    eigenvalues,
    equilibrium_set,
    integrate_ode,
    interior_equilibrium,
    jacobian_at,
    phase_geometry,
    stability_at,
)
from lvdyn.dynamics import interior_equilibria, vector_field

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
        theta = np.array(rows)
        points, ok = interior_equilibria(theta)
        assert np.all(np.isnan(points[~ok]))
        a1, b11, b12, a2, b21, b22 = theta[ok].T
        x, y = points[ok].T
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


def test_classify_stability_rejects_negative_tol():
    with pytest.raises(ValidationError):
        classify_stability((1 + 0j, 2 + 0j), tol=-1.0)


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
    assert pg.sign_dx[i, j] == 1 and pg.sign_dy[i, j] == 1


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
    assert pg.sign_dx.shape == (5, 5)
    assert pg.dx.shape == (5, 5)
    assert set(np.unique(pg.sign_dx)).issubset({-1, 0, 1})


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


def test_integrate_negative_state():
    # With the error estimate disabled, a giant step on strong quadratic
    # decay overshoots straight through the axis.
    cp = ContinuousParams(a1=0.0, b11=-1.0, b12=0, a2=0.1, b21=0, b22=0)
    with pytest.raises(NegativeState) as info:
        integrate_ode(cp, (10.0, 1.0), 1.0, 1.0, error_tol=np.inf)
    assert str(info.value) == (
        "state left the first quadrant at t=1: [-6.49149299e+10  1.10517083e+00]")


def test_integrate_validates_arguments():
    cp = cp_for("ai_physical")
    with pytest.raises(ValidationError):
        integrate_ode(cp, (1.0, 1.0), 1.0, 0.0)
    with pytest.raises(ValidationError):
        integrate_ode(cp, (1.0, 1.0), -1.0, 0.1)
    with pytest.raises(ValidationError):
        integrate_ode(cp, (-1.0, 1.0), 1.0, 0.1)
