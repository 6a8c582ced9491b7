"""Variance-based global sensitivity of the interior equilibrium.

The equilibrium (x*, y*) is a closed-form function of the six ODE
coefficients.  Each coefficient is varied independently and uniformly inside
a box around its baseline, the model is evaluated on a Saltelli design built
from a scrambled Sobol' sequence, and first-order / total-order variance
shares are estimated per output.  The design keeps only its base matrices A
and B; the N*(D+2) parameter sets are evaluated one block row at a time
(A, each A_B^i, B) from column views of A and B, and the outputs are laid
out (output, block row, base index) for the estimators.  Parameter draws
whose equilibrium is non-finite or leaves the first quadrant are rejected;
rejection removes the whole base-index triple so estimator pairings stay
aligned.  Every estimator mean and variance is numpy's pairwise sum along a
C-contiguous row of base indices, whose rounding error grows with log N
rather than N (Higham 1993), whatever the memory order of the outputs.

From N = 2 * MIN_PART on, each kernel splits its work into parts, one per
usable CPU, and runs every part beyond the first in a thread of its own:
sampling by rows of A and B, evaluation by ranges of base indices, the
estimators by output.  Each part applies the same elementwise operations
and full-row sums to its own slice, so every result is bit-identical
whatever the number of parts.

A public call of a kernel allocates its arrays afresh, so nothing it
returns is written by a later call.  Only :func:`analyze_sensitivity`, from
which nothing leaves but the small :class:`SobolResult` arrays, hands the
kernels the calling thread's workspace through their private ``_ws``.  The
workspace is sized for the last ``n_base`` that thread analysed and reused
on its next call of the same size.  It holds A|B, the outputs and their
validity, and one scratch buffer shared by temporaries that are never alive
at once: the Sobol' digits while sampling, then the pooled A|B outputs the
variance reads and the difference/product pair of the estimators.
"""

from __future__ import annotations

import contextvars
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateVariance, TooManyRejections, ValidationError, ZeroBaseline,
                     check)
from .params import PARAM_NAMES, ContinuousParams
from .dynamics import interior_equilibria

N_PARAMS = len(PARAM_NAMES)
#: Rows per base index in the Saltelli design: A, the N_PARAMS A_B^i rows, B.
BLOCK = N_PARAMS + 2
OUTPUT_NAMES = ("x_star", "y_star")

#: Minimum fraction of base-sample triples that must survive rejection.
MIN_RETAINED_FRACTION = 0.5

#: Fewest base indices per part: below 2 * MIN_PART base indices each kernel
#: runs in the calling thread alone, where starting a thread costs more than
#: it saves.
MIN_PART = 1 << 15

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


def _sobol_points(n: int, seed: int, out: np.ndarray | None = None) -> np.ndarray:
    """Digits of the first n points of the scrambled 2*N_PARAMS-dim Sobol' sequence.

    Returns (2*N_PARAMS, n) uint32, written into ``out`` when given:
    coordinate d of point j is ``points[d, j] * 2**-_SOBOL_BITS``.  Linear
    matrix scrambling (Matousek 1998) plus a digital shift, drawn from
    ``np.random.default_rng(seed)`` in the order scipy.stats.qmc.Sobol draws
    them, so the scaled, transposed points equal ``Sobol(d=12, scramble=True,
    seed=seed).random(n)`` bit for bit.  n must be a power of two.
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
    # flipped, so each doubling of the prefix is one vectorised XOR.
    points = np.empty((dims, n), dtype=np.uint32) if out is None else out
    points[:, 0] = shift
    for j in range(n.bit_length() - 1):
        np.bitwise_xor(points[:, (1 << j) - 1::-1], scrambled[:, j, None],
                       out=points[:, 1 << j:2 << j])
    return points


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:             # no CPU affinity on this platform
        return os.cpu_count() or 1


def _part_count(n_base: int) -> int:
    """Parts a kernel splits into: one per usable CPU, each of at least MIN_PART base indices."""
    return max(1, min(_usable_cpus(), n_base // MIN_PART))


def _run_parts(work, count: int, parts: int) -> None:
    """Call ``work(lo, hi)`` on ``parts`` contiguous ranges that cover range(count).

    The first range runs in the calling thread, each other one in a thread
    of its own, started in a copy of the caller's context so that numpy's
    error state (``np.errstate``) holds there too.  numpy releases the GIL
    inside the ufuncs and reductions the kernels call, so the parts run at
    once.  Every thread is joined before the first part's error, in range
    order, is raised again in the caller with its own class.
    """
    parts = min(parts, count)
    edges = [count * p // parts for p in range(parts + 1)]
    errors = [None] * parts

    def run(p: int, context: contextvars.Context) -> None:
        try:
            context.run(work, edges[p], edges[p + 1])
        except BaseException as exc:   # raised again in the caller
            errors[p] = exc

    threads = [threading.Thread(target=run, args=(p, contextvars.copy_context()))
               for p in range(1, parts)]
    for thread in threads:
        thread.start()
    try:
        work(edges[0], edges[1])
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


#: The arrays of the last design each thread analysed, reused by its next
#: call of analyze_sensitivity on a design of the same size.
_WORKSPACE = threading.local()


def _workspace(n_base: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The calling thread's (A|B, outputs, valid, scratch) for n_base base indices."""
    arrays = getattr(_WORKSPACE, "arrays", None)
    if arrays is None or arrays[0].shape[1] != n_base:
        arrays = _WORKSPACE.arrays = None      # the last size's arrays go first
        arrays = _WORKSPACE.arrays = (
            np.empty((2 * N_PARAMS, n_base)), np.empty((2, BLOCK, n_base)),
            np.empty((BLOCK, n_base), dtype=bool), np.empty((N_PARAMS, n_base)))
    return arrays


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
    check("fraction", fraction)
    theta = np.array(cp.as_tuple())
    if np.any(theta == 0):
        zero = [PARAM_NAMES[i] for i in range(N_PARAMS) if theta[i] == 0]
        raise ZeroBaseline(f"baseline is exactly zero for {zero}; box collapses")
    half = np.abs(theta) * fraction
    return ParamBounds(lower=theta - half, upper=theta + half)


@dataclass(frozen=True)
class SaltelliDesign:
    """Saltelli design of N*(D+2) parameter sets for D=6 parameters.

    Only the base matrices A and B are stored, each as (D, n_base): row i is
    parameter i, column j base index j.  Every base index has BLOCK = D+2
    block rows: the A-row, the D rows A_B^i that take column i from B, and
    the B-row; :meth:`block` gives block row k of every base index as six
    column views of A and B.  These are the only parameter sets the
    first-order (Saltelli 2010) and total-order (Jansen 1999) estimators
    read, and none of them is copied into a design matrix.  The layout is
    deterministic for a given (bounds, n_base, seed).
    """

    a: np.ndarray   # (D, n_base)
    b: np.ndarray   # (D, n_base)
    n_base: int
    seed: int

    def block(self, k: int) -> list[np.ndarray]:
        """Parameter columns of block row k: A, A_B^k (k = 1..D) or B."""
        if k == BLOCK - 1:
            return list(self.b)
        columns = list(self.a)
        if k:
            columns[k - 1] = self.b[k - 1]
        return columns


def saltelli_sample(bounds: ParamBounds, n_base: int, seed: int, *, _ws=None) -> SaltelliDesign:
    """Draw the Saltelli design from a scrambled Sobol' sequence.

    The base matrices A and B are the first and last six columns of a
    12-dimensional low-discrepancy sample of size n_base, mapped affinely
    into the bounds; n_base obeys the ``sobol_n`` rule and seed the ``seed`` rule.
    Large designs scale a range of rows of A and B per part, at once.
    """
    check("sobol_n", n_base)
    check("seed", seed)
    # Rows 0..D-1 of ab are A, rows D..2D-1 are B, each scaled in place:
    # p * 2**-30 is exact, so this is lower + unit * width bit for bit.
    ab = np.empty((2 * N_PARAMS, n_base)) if _ws is None else _ws[0]
    digits = None if _ws is None else _ws[3].view(np.uint32).reshape(ab.shape)
    points = _sobol_points(n_base, seed, digits)
    lower = np.tile(bounds.lower, 2)[:, None]
    width = np.tile(bounds.upper - bounds.lower, 2)[:, None]

    def scale(lo: int, hi: int) -> None:
        rows = np.multiply(points[lo:hi], 2.0 ** -_SOBOL_BITS, out=ab[lo:hi])
        rows *= width[lo:hi]
        rows += lower[lo:hi]

    _run_parts(scale, 2 * N_PARAMS, _part_count(n_base))
    return SaltelliDesign(a=ab[:N_PARAMS], b=ab[N_PARAMS:], n_base=n_base, seed=seed)


def evaluate_equilibria(design: SaltelliDesign, *, _ws=None) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form interior equilibrium of every parameter set of a design.

    The design is evaluated one block row at a time, straight from the
    columns of A and B: outputs is (2, BLOCK, n_base), indexed (output, block
    row, base index), and valid is (BLOCK, n_base).  A point is valid when
    its nullclines cross and it is finite and in the closed first quadrant;
    invalid points carry NaN outputs.  Large designs are split into
    contiguous ranges of base indices, evaluated at once.
    """
    n = design.n_base
    if _ws is None:
        outputs, valid = np.empty((2, BLOCK, n)), np.empty((BLOCK, n), dtype=bool)
    else:
        outputs, valid = _ws[1:3]

    def evaluate(lo: int, hi: int) -> None:
        for k in range(BLOCK):
            points = outputs[:, k, lo:hi]
            (x, y), ok = interior_equilibria([c[lo:hi] for c in design.block(k)], points)
            row_valid = np.logical_and(ok, x >= 0, out=valid[k, lo:hi])
            row_valid &= y >= 0
            row_valid &= x < np.inf
            row_valid &= y < np.inf
            if not row_valid.all():
                points[:, ~row_valid] = np.nan

    _run_parts(evaluate, n, _part_count(n))
    return outputs, valid


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


def sobol_indices(
    design: SaltelliDesign, outputs: np.ndarray, valid: np.ndarray, *, _ws=None
) -> SobolResult:
    """Estimate variance shares from an evaluated Saltelli design.

    ``outputs`` (2, BLOCK, n_base) and ``valid`` (BLOCK, n_base) are laid
    out as :func:`evaluate_equilibria` returns them for ``design``; neither
    is modified.  First-order indices use the cross-matrix covariance
    estimator V_i ~ mean(f(B) * (f(A_B^i) - f(A))); total-order indices use
    the squared-difference estimator V_~i-complement ~ mean((f(A) -
    f(A_B^i))^2)/2.  A base index is dropped whole when its A-row, B-row or
    any A_B^i row, that is any row of its block, is invalid; at least half
    the base sample must survive.  A variance that is zero or not finite, or
    an index that is not finite, raises DegenerateVariance.

    Summation: each mean, and the pooled ``np.var`` of the A and B outputs,
    is numpy's pairwise sum over one C-contiguous (retained,) row per
    output, whatever the memory order of ``outputs``.  Large designs
    estimate the two outputs at once.
    """
    n = design.n_base
    if outputs.shape != (2, BLOCK, n) or valid.shape != (BLOCK, n):
        raise ValidationError("outputs/valid do not match the design shape")

    accepted = int(np.count_nonzero(valid))
    keep = valid.all(axis=0)
    retained = int(np.count_nonzero(keep))
    if retained < MIN_RETAINED_FRACTION * n:
        raise TooManyRejections(
            f"only {retained} of {n} sample triples valid; need at least "
            f"{MIN_RETAINED_FRACTION:.0%}")

    # Every sum below runs along C-contiguous rows of the base-index axis.
    blocks = (np.ascontiguousarray(outputs) if retained == n
              else np.compress(keep, outputs, axis=-1))
    f_a, f_b = blocks[:, 0], blocks[:, -1]       # (2, retained)
    # The pooled A|B outputs, then the diff/prod pair, one after the other.
    temps = np.empty(4 * retained) if _ws is None else _ws[3].reshape(-1)[:4 * retained]
    pooled = temps.reshape(2, 2 * retained)
    pooled[:, :retained] = f_a
    pooled[:, retained:] = f_b
    with np.errstate(over="ignore", invalid="ignore"):
        variance = pooled.var(axis=-1)
    if not np.all((variance > 0) & (variance < np.inf)):
        raise DegenerateVariance(
            f"pooled output variance is {variance.tolist()}; the variance "
            f"shares of {OUTPUT_NAMES} need a finite, positive variance")

    # A tiny positive variance can still overflow a ratio; checked below.
    first, total = np.empty((2, 2, N_PARAMS))
    diff, prod = temps.reshape(2, 2, retained)   # reused for every parameter

    def estimate(lo: int, hi: int) -> None:      # outputs lo..hi-1
        d, p = diff[lo:hi], prod[lo:hi]
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(N_PARAMS):
                np.subtract(blocks[lo:hi, 1 + i], f_a[lo:hi], out=d)   # f(A_B^i) - f(A)
                first[lo:hi, i] = np.multiply(f_b[lo:hi], d, out=p).mean(axis=-1)
                total[lo:hi, i] = np.multiply(d, d, out=p).mean(axis=-1)

    _run_parts(estimate, len(OUTPUT_NAMES), _part_count(n))
    with np.errstate(over="ignore", invalid="ignore"):
        first /= variance[:, None]
        total /= 2.0 * variance[:, None]
    if not (np.all(np.isfinite(first)) and np.all(np.isfinite(total))):
        raise DegenerateVariance(
            f"Sobol' indices are not finite for a pooled output variance of "
            f"{variance.tolist()}")

    return SobolResult(
        first_order=first,
        total_order=total,
        total_variance=variance,
        accepted_count=accepted,
        rejected_count=valid.size - accepted,
        retained_triples=retained,
        n_base=n,
        seed=design.seed,
    )


def analyze_sensitivity(
    cp: ContinuousParams, fraction: float, n_base: int, seed: int
) -> SobolResult:
    """End-to-end analysis: bounds, sampling, evaluation, indices.

    The design, the outputs, the Sobol' digits and the estimators' buffers
    live in the calling thread's workspace, which the next call of the same
    size reuses.
    """
    bounds = bounds_from_baseline(cp, fraction)
    check("sobol_n", n_base)                     # before the workspace is sized
    ws = _workspace(n_base)
    design = saltelli_sample(bounds, n_base, seed, _ws=ws)
    outputs, valid = evaluate_equilibria(design, _ws=ws)
    return sobol_indices(design, outputs, valid, _ws=ws)
