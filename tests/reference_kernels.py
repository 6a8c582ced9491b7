"""Straightforward reference versions of the batched kernels.

``lvdyn`` evaluates the Saltelli design block row by block row from the base
matrices A and B, computes the closed-form equilibria and the Sobol'
estimators with contiguous, unmasked array operations, and checks the RK4
step doubling of a whole path in one array pass.  These are the plain
formulations they replace: a materialised row-major design, boolean-masked
division, one loop iteration per parameter and one step-doubling check per
RK4 step.  The tests require the package kernels to equal them bit for bit,
after :func:`block_major` puts the row-major results in the package's (...,
block row, base index) order.  The one thing the references share with the
package is the summation order of the Sobol' estimators: each sum is numpy's
pairwise sum over a contiguous row of one output's values.  The reference
``integrate_ode`` checks its start with the package's ``check_start``, so
both integrators take the same starts and reject the rest alike.

The package's ``evaluate_equilibria`` takes only a design; tests reach it on
(n, 6) parameter rows through :func:`evaluate_rows`.
"""

from __future__ import annotations

import numpy as np

from lvdyn.dynamics import (INTERIOR_DENOM_EPS, NEGATIVE_STATE_TOL, RK4_ERROR_TOL,
                           Trajectory, _rk4_step)
from lvdyn.errors import (NegativeState, StepTooLarge, TrajectoryOverflow, ValidationError,
                          check_start)
from lvdyn.sensitivity import (_SOBOL_BITS, BLOCK, N_PARAMS, SaltelliDesign, _sobol_points,
                               evaluate_equilibria as evaluate_design)


def sobol_unit(n: int, seed: int) -> np.ndarray:
    """(n, 12) scrambled Sobol' points in [0, 1), as scipy.stats.qmc.Sobol gives them."""
    return (_sobol_points(n, seed) * 2.0 ** -_SOBOL_BITS).T


def saltelli_matrix(bounds, n_base: int, seed: int) -> np.ndarray:
    """Row-major (n_base*BLOCK, D) design: per base index A, A_B^1..A_B^D, B."""
    unit = np.ascontiguousarray(sobol_unit(n_base, seed))
    width = bounds.upper - bounds.lower
    a = bounds.lower + unit[:, :N_PARAMS] * width
    b = bounds.lower + unit[:, N_PARAMS:] * width
    blocks = np.repeat(a[:, None, :], BLOCK, axis=1)
    blocks[:, -1] = b
    for i in range(N_PARAMS):
        blocks[:, 1 + i, i] = b[:, i]
    return blocks.reshape(-1, N_PARAMS)


def block_major(rows: np.ndarray, n_base: int) -> np.ndarray:
    """Row-major design data, (n_base*BLOCK, ...) -> (..., BLOCK, n_base)."""
    blocks = rows.reshape(n_base, BLOCK, *rows.shape[1:])
    return np.moveaxis(blocks, (0, 1), (-1, -2))


def design_rows(design) -> np.ndarray:
    """(BLOCK, n_base, D): the parameter rows of every block row of a design."""
    return np.stack([np.column_stack(design.block(k)) for k in range(BLOCK)])


def block_values(f, design) -> np.ndarray:
    """f of every parameter row of a design, as (BLOCK, n_base)."""
    return f(design_rows(design).reshape(-1, N_PARAMS)).reshape(BLOCK, design.n_base)


def evaluate_rows(theta) -> tuple[np.ndarray, np.ndarray]:
    """The package's evaluate_equilibria on (n, 6) parameter rows.

    The rows become a design with A = B = the rows, so every block row holds
    them; block row 0 gives outputs (n, 2), columns (x*, y*), and valid (n,).
    """
    columns = np.asarray(theta, dtype=float).T
    design = SaltelliDesign(a=columns, b=columns, n_base=columns.shape[1], seed=0)
    outputs, valid = evaluate_design(design)
    return outputs[:, 0].T, valid[0]


def interior_equilibria(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masked closed form: divide only on the rows whose nullclines cross.

    A row also counts as parallel when its denominator overflows.
    """
    a1, b11, b12, a2, b21, b22 = np.asarray(theta, dtype=float).T
    with np.errstate(over="ignore", invalid="ignore"):
        den = b12 * b21 - b11 * b22
        scale = np.maximum(np.maximum(np.abs(b12 * b21), np.abs(b11 * b22)), 1e-300)
        ok = (np.abs(den) >= INTERIOR_DENOM_EPS * scale) & np.isfinite(den)
    points = np.full((len(den), 2), np.nan)
    with np.errstate(all="ignore"):
        points[ok, 0] = (a1[ok] * b22[ok] - b12[ok] * a2[ok]) / den[ok]
        points[ok, 1] = (b11[ok] * a2[ok] - a1[ok] * b21[ok]) / den[ok]
    return points, ok


def evaluate_equilibria(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Equilibria with whole-row finiteness and sign checks."""
    out, ok = interior_equilibria(samples)
    valid = ok & np.all(np.isfinite(out), axis=1) & np.all(out >= 0, axis=1)
    out[~valid] = np.nan
    return out, valid


def by_output(rows: np.ndarray) -> np.ndarray:
    """(retained, 2) row-major values as a C-contiguous (2, retained) copy."""
    return np.ascontiguousarray(rows.T)


def sobol_indices(n_base: int, outputs: np.ndarray, valid: np.ndarray):
    """(first, total, variance, retained) with one (retained, 2) product per parameter.

    Each mean and variance reduces a C-contiguous (2, retained) copy along
    axis 1, one pairwise sum per output.
    """
    keep = np.all(valid.reshape(n_base, BLOCK), axis=1)
    out_blocks = outputs.reshape(n_base, BLOCK, 2)[keep]
    f_a = out_blocks[:, 0, :]
    f_b = out_blocks[:, -1, :]
    f_ab = out_blocks[:, 1:-1, :]
    variance = by_output(np.concatenate([f_a, f_b], axis=0)).var(axis=1)
    first = np.empty((2, N_PARAMS))
    total = np.empty((2, N_PARAMS))
    for i in range(N_PARAMS):
        diff = f_ab[:, i, :] - f_a
        first[:, i] = np.mean(by_output(f_b * diff), axis=1) / variance
        total[:, i] = np.mean(by_output((f_a - f_ab[:, i, :]) ** 2), axis=1) / (2.0 * variance)
    return first, total, variance, int(np.count_nonzero(keep))


def integrate_ode(cp, x0, t_end, dt=0.001, error_tol=RK4_ERROR_TOL) -> Trajectory:
    """RK4 with the step-doubling check made inside the loop, step by step."""
    if not dt > 0:
        raise ValidationError(f"dt must be > 0, got {dt}")
    if not 0 <= t_end < np.inf:
        raise ValidationError(f"t_end must be finite and >= 0, got {t_end}")
    x, y = check_start(x0)
    if not float(t_end) / float(dt) < np.inf:
        raise ValidationError(f"t_end / dt overflows: {t_end} / {dt}")

    n_steps = int(round(t_end / dt))
    t = np.linspace(0.0, n_steps * dt, n_steps + 1)
    path = [(x, y)]
    half_dt = dt / 2.0
    for k in range(n_steps):
        fx, fy = _rk4_step(cp, x, y, dt)
        hx, hy = _rk4_step(cp, *_rk4_step(cp, x, y, half_dt), half_dt)
        err = max(abs(fx - hx), abs(fy - hy)) / max(abs(hx), abs(hy), 1.0)
        if err > error_tol:
            raise StepTooLarge(
                f"step-doubling estimate {err:.3e} exceeds {error_tol:g} at t={t[k]:g}")
        x, y = fx, fy
        if min(x, y) < NEGATIVE_STATE_TOL:
            raise NegativeState(
                f"state left the first quadrant at t={t[k + 1]:g}: {np.array((x, y))}")
        path.append((x, y))
    states = np.array(path)
    if not np.isfinite(states[-1]).all():
        k = np.isfinite(states).all(axis=1).argmin()
        raise TrajectoryOverflow(f"state overflowed at t={t[k]:g}: {states[k]}")
    return Trajectory(t=t, states=states)
