"""Straightforward reference versions of the batched sensitivity kernels.

``lvdyn`` computes the Saltelli design, the closed-form equilibria and the
Sobol' estimators with contiguous, unmasked array operations.  These are the
plain formulations they replace: row-major blocks, boolean-masked division,
row reductions and one loop iteration per parameter.  The tests require the
package kernels to equal them bit for bit.
"""

from __future__ import annotations

import numpy as np

from lvdyn.dynamics import INTERIOR_DENOM_EPS
from lvdyn.sensitivity import BLOCK, N_PARAMS, _sobol_unit


def saltelli_matrix(bounds, n_base: int, seed: int) -> np.ndarray:
    """Row-major (n_base*BLOCK, D) design: per base index A, A_B^1..A_B^D, B."""
    unit = np.ascontiguousarray(_sobol_unit(n_base, seed))
    width = bounds.upper - bounds.lower
    a = bounds.lower + unit[:, :N_PARAMS] * width
    b = bounds.lower + unit[:, N_PARAMS:] * width
    blocks = np.repeat(a[:, None, :], BLOCK, axis=1)
    blocks[:, -1] = b
    for i in range(N_PARAMS):
        blocks[:, 1 + i, i] = b[:, i]
    return blocks.reshape(-1, N_PARAMS)


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


def sobol_indices(n_base: int, outputs: np.ndarray, valid: np.ndarray):
    """(first, total, variance, retained) with one (retained, 2) mean per parameter."""
    keep = np.all(valid.reshape(n_base, BLOCK), axis=1)
    out_blocks = outputs.reshape(n_base, BLOCK, 2)[keep]
    f_a = out_blocks[:, 0, :]
    f_b = out_blocks[:, -1, :]
    f_ab = out_blocks[:, 1:-1, :]
    variance = np.concatenate([f_a, f_b], axis=0).var(axis=0)
    first = np.empty((2, N_PARAMS))
    total = np.empty((2, N_PARAMS))
    for i in range(N_PARAMS):
        diff = f_ab[:, i, :] - f_a
        first[:, i] = np.mean(f_b * diff, axis=0) / variance
        total[:, i] = np.mean((f_a - f_ab[:, i, :]) ** 2, axis=0) / (2.0 * variance)
    return first, total, variance, int(np.count_nonzero(keep))
