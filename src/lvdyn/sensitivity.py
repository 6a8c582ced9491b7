"""Variance-based global sensitivity of the interior equilibrium.

The equilibrium (x*, y*) is a closed-form function of the six ODE
coefficients.  Each coefficient is varied independently and uniformly inside
a box around its baseline, the model is evaluated on a Saltelli design built
from a scrambled Sobol' sequence, and first-order / total-order variance
shares are estimated per output.  Parameter draws whose equilibrium is
non-finite or leaves the first quadrant are rejected; rejection removes the
whole base-index triple so estimator pairings stay aligned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateVariance, InvalidN, TooManyRejections, ValidationError,
                     ZeroBaseline)
from .params import PARAM_NAMES, ContinuousParams
from .dynamics import interior_equilibria

__all__ = [
    "ParamBounds",
    "SaltelliDesign",
    "SobolResult",
    "bounds_from_baseline",
    "saltelli_sample",
    "evaluate_equilibria",
    "sobol_indices",
    "analyze_sensitivity",
    "OUTPUT_NAMES",
]

N_PARAMS = len(PARAM_NAMES)
#: Rows per base index in the Saltelli design: A, the N_PARAMS A_B^i rows, B.
BLOCK = N_PARAMS + 2
OUTPUT_NAMES = ("x_star", "y_star")

#: Minimum fraction of base-sample triples that must survive rejection.
MIN_RETAINED_FRACTION = 0.5

#: Bits per Sobol' coordinate: every point is a multiple of 2**-_SOBOL_BITS.
_SOBOL_BITS = 30
#: Primitive polynomials (leading and trailing terms included) and initial
#: direction numbers of the first 2*N_PARAMS Sobol' dimensions, from Joe & Kuo
#: (2008) as scipy.stats.qmc.Sobol ships them.  Dimension 0 is van der Corput.
_JOE_KUO_POLY = (1, 3, 7, 11, 13, 19, 25, 37, 41, 47, 55, 59)
_JOE_KUO_INIT = ((1,), (1,), (1, 3), (1, 3, 1), (1, 1, 1), (1, 1, 3, 3),
                 (1, 3, 5, 13), (1, 1, 5, 5, 17), (1, 1, 5, 5, 5),
                 (1, 1, 7, 11, 19), (1, 1, 5, 1, 1), (1, 1, 1, 3, 11))


def _direction_numbers() -> np.ndarray:
    """(2*N_PARAMS, _SOBOL_BITS) direction numbers, column k shifted left by
    _SOBOL_BITS-1-k so that bit 29 is the first binary digit of a point."""
    rows = []
    for poly, init in zip(_JOE_KUO_POLY, _JOE_KUO_INIT):
        m = poly.bit_length() - 1          # degree; 0 for dimension 0
        v = list(init) if m else [1] * _SOBOL_BITS
        for k in range(len(v), _SOBOL_BITS):
            new = v[k - m] ^ (v[k - m] << m)
            for i in range(1, m):
                if poly >> (m - i) & 1:
                    new ^= v[k - i] << i
            v.append(new)
        rows.append([vk << (_SOBOL_BITS - 1 - k) for k, vk in enumerate(v)])
    return np.array(rows, dtype=np.uint32)


_DIRECTIONS = _direction_numbers()


def _sobol_unit(n: int, seed: int) -> np.ndarray:
    """First n points of the scrambled 2*N_PARAMS-dimensional Sobol' sequence.

    Linear matrix scrambling (Matousek 1998) plus a digital shift, drawn from
    ``np.random.default_rng(seed)`` in the order scipy.stats.qmc.Sobol draws
    them, so the result equals ``Sobol(d=12, scramble=True, seed=seed)
    .random(n)`` bit for bit.  n must be a power of two.
    """
    rng = np.random.default_rng(seed)
    dims = len(_DIRECTIONS)
    bits = np.arange(_SOBOL_BITS, dtype=np.uint32)
    msb_first = bits[::-1]
    shift = rng.integers(2, size=(dims, _SOBOL_BITS), dtype=np.uint32) @ (1 << bits)
    ltm = np.tril(rng.integers(2, size=(dims, _SOBOL_BITS, _SOBOL_BITS),
                               dtype=np.uint32)).astype(np.uint8)
    ltm[:, bits, bits] = 1
    # Scrambled digit p of a direction number (digit 0 the most significant)
    # is the parity of row p of its dimension's matrix against its digits.
    v_digits = (_DIRECTIONS[:, :, None] >> msb_first & 1).astype(np.uint8)
    scrambled = (v_digits @ ltm.transpose(0, 2, 1) & 1) @ (1 << msb_first)

    # Gray-code order: point 2^j + i is point 2^j - 1 - i with direction j
    # flipped, so each doubling of the prefix is one vectorised XOR.  Points
    # are built dimension by dimension, so the result is column-major.
    points = np.empty((dims, n), dtype=np.uint32)
    points[:, 0] = shift
    for j in range(n.bit_length() - 1):
        np.bitwise_xor(points[:, (1 << j) - 1::-1], scrambled[:, j, None],
                       out=points[:, 1 << j:2 << j])
    return (points * 2.0 ** -_SOBOL_BITS).T


@dataclass(frozen=True)
class ParamBounds:
    """Per-parameter sampling intervals for (a1, b11, b12, a2, b21, b22)."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.shape != (N_PARAMS,) or hi.shape != (N_PARAMS,):
            raise ValidationError(f"bounds must have shape ({N_PARAMS},)")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValidationError("bounds must be finite")
        if not np.all(lo < hi):
            bad = [PARAM_NAMES[i] for i in range(N_PARAMS) if lo[i] >= hi[i]]
            raise ValidationError(f"lower must be < upper for every parameter: {bad}")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)


def bounds_from_baseline(cp: ContinuousParams, fraction: float) -> ParamBounds:
    """Symmetric relative box [v - |v|*fraction, v + |v|*fraction].

    The box never crosses zero for fraction < 1, so every parameter keeps its
    baseline sign.  An exactly-zero baseline collapses the interval and is
    rejected.
    """
    if not 0 < fraction < 1:
        raise ValidationError(f"fraction must be in (0, 1), got {fraction}")
    theta = np.array(cp.as_tuple())
    if np.any(theta == 0):
        zero = [PARAM_NAMES[i] for i in range(N_PARAMS) if theta[i] == 0]
        raise ZeroBaseline(f"baseline is exactly zero for {zero}; box collapses")
    half = np.abs(theta) * fraction
    return ParamBounds(lower=theta - half, upper=theta + half)


@dataclass(frozen=True)
class SaltelliDesign:
    """Saltelli sample of N*(D+2) rows for D=6 parameters.

    Rows are grouped per base index j in blocks of BLOCK = D+2: the A-row,
    the D rows where column i is swapped in from B, and the B-row, so
    ``matrix.reshape(n_base, BLOCK, D)[:, k]`` is block row k of every base
    index (the reshape copies; see below).  These are the only rows the
    first-order (Saltelli 2010) and total-order (Jansen 1999) estimators
    read.  The layout is deterministic for a given (bounds, n_base, seed).

    The matrix is stored column-major (Fortran order): the equilibrium is
    evaluated one parameter column at a time, and a contiguous column lets
    every array operation run as one long inner loop.
    """

    matrix: np.ndarray   # (n_base*BLOCK, D), column-major
    n_base: int
    seed: int


def saltelli_sample(bounds: ParamBounds, n_base: int, seed: int) -> SaltelliDesign:
    """Draw the Saltelli design from a scrambled Sobol' sequence.

    The base matrices A and B are the first and last six columns of a
    12-dimensional low-discrepancy sample of size n_base, mapped affinely
    into the bounds; n_base must be a power of two >= 64.
    """
    if n_base < 64 or n_base & (n_base - 1) != 0:
        raise InvalidN(f"base sample size must be a power of two >= 64, got {n_base}")
    unit = _sobol_unit(n_base, seed).T                  # (2D, n_base), contiguous
    lower = bounds.lower[:, None]
    width = bounds.upper[:, None] - lower
    a = lower + unit[:N_PARAMS] * width
    b = lower + unit[N_PARAMS:] * width

    columns = np.empty((N_PARAMS, n_base, BLOCK))      # [param, base, block row]
    columns[:] = a[:, :, None]
    columns[:, :, -1] = b
    for i in range(N_PARAMS):
        columns[i, :, 1 + i] = b[i]
    matrix = columns.reshape(N_PARAMS, -1).T
    return SaltelliDesign(matrix=matrix, n_base=n_base, seed=seed)


def evaluate_equilibria(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form interior equilibrium for every sample row.

    Returns (outputs, valid): outputs has columns (x*, y*); a row is invalid
    when the nullclines are parallel, the result is non-finite, or either
    component is negative.  Invalid rows carry NaN outputs.
    """
    out, ok = interior_equilibria(samples)
    x, y = out.T
    valid = ok & (x >= 0) & (y >= 0) & (x < np.inf) & (y < np.inf)
    out[~valid] = np.nan
    return out, valid


@dataclass(frozen=True)
class SobolResult:
    """First- and total-order indices for both equilibrium outputs.

    Index arrays are (2, 6): rows follow OUTPUT_NAMES, columns PARAM_NAMES.
    Raw estimator values are kept unclipped.  ``accepted_count`` and
    ``rejected_count`` count the valid and invalid rows of the whole
    N*(D+2)-row design; ``retained_triples`` is the number of base indices
    that survived whole-triple rejection.
    """

    first_order: np.ndarray
    total_order: np.ndarray
    total_variance: np.ndarray   # (2,)
    accepted_count: int
    rejected_count: int
    retained_triples: int
    n_base: int
    seed: int


def _mean_in_order(a: np.ndarray) -> np.ndarray:
    """Mean over the last axis, summed strictly left to right; overwrites ``a``.

    ``np.mean(axis=0)`` of a C-ordered array adds its rows one after another,
    starting from +0.0, so this equals that mean of ``a``'s transpose bit for
    bit (the ``+ 0.0`` turns a sum of only -0.0 terms into +0.0, as there).
    A mean along a contiguous axis would add pairwise and change the last bits.
    """
    return (np.add.accumulate(a, axis=-1, out=a)[..., -1] + 0.0) / a.shape[-1]


def _var_in_order(a: np.ndarray) -> np.ndarray:
    """``np.var`` over the last axis, with :func:`_mean_in_order` sums; overwrites a."""
    a -= _mean_in_order(a.copy())[:, None]
    a *= a
    return _mean_in_order(a)


def sobol_indices(
    design: SaltelliDesign, outputs: np.ndarray, valid: np.ndarray
) -> SobolResult:
    """Estimate variance shares from an evaluated Saltelli design.

    First-order indices use the cross-matrix covariance estimator
    V_i ~ mean(f(B) * (f(A_B^i) - f(A))); total-order indices use the
    squared-difference estimator V_~i-complement ~ mean((f(A) - f(A_B^i))^2)/2.
    A base index is dropped whole when its A-row, B-row or any A_B^i row,
    that is any row of its block, is invalid; at least half the base sample
    must survive.
    """
    n = design.n_base
    if outputs.shape != (n * BLOCK, 2) or valid.shape != (n * BLOCK,):
        raise ValidationError("outputs/valid do not match the design shape")

    accepted = int(np.count_nonzero(valid))
    keep = np.ones(n, dtype=bool)
    keep[np.flatnonzero(~valid) // BLOCK] = False
    retained = int(np.count_nonzero(keep))
    if retained < MIN_RETAINED_FRACTION * n:
        raise TooManyRejections(
            f"only {retained} of {n} sample triples valid; need at least "
            f"{MIN_RETAINED_FRACTION:.0%}")

    # A copy indexed (output, block row, retained base index), so that every
    # operation below runs along the long, contiguous base-index axis.
    first_rows = np.flatnonzero(keep) * BLOCK
    blocks = np.take(outputs.T, first_rows + np.arange(BLOCK)[:, None], axis=1)
    f_a, f_b = blocks[:, 0], blocks[:, -1]       # (2, retained)
    with np.errstate(over="ignore", invalid="ignore"):
        variance = _var_in_order(np.concatenate([f_a, f_b], axis=1))
    if not np.all((variance > 0) & (variance < np.inf)):
        raise DegenerateVariance(
            f"pooled output variance is {variance.tolist()}; the variance "
            f"shares of {OUTPUT_NAMES} need a finite, positive variance")

    diff = blocks[:, 1:-1]                       # (2, D, retained)
    diff -= f_a[:, None]                         # f(A_B^i) - f(A), in place
    first = _mean_in_order(f_b[:, None] * diff) / variance[:, None]
    diff *= diff                                 # == (f(A) - f(A_B^i))**2
    total = _mean_in_order(diff) / (2.0 * variance[:, None])

    return SobolResult(
        first_order=first,
        total_order=total,
        total_variance=variance,
        accepted_count=accepted,
        rejected_count=len(valid) - accepted,
        retained_triples=retained,
        n_base=n,
        seed=design.seed,
    )


def analyze_sensitivity(
    cp: ContinuousParams, fraction: float, n_base: int, seed: int
) -> SobolResult:
    """End-to-end driver: bounds, sampling, evaluation, indices."""
    bounds = bounds_from_baseline(cp, fraction)
    design = saltelli_sample(bounds, n_base, seed)
    outputs, valid = evaluate_equilibria(design.matrix)
    return sobol_indices(design, outputs, valid)
