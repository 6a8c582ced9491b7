"""Variance-based global sensitivity of the interior equilibrium.

The equilibrium (x*, y*) is a closed-form function of the six ODE
coefficients.  Each coefficient is varied independently and uniformly inside
a box around its baseline, the model is evaluated on a Saltelli design built
from a scrambled Sobol' sequence, and first-order / total-order variance
shares are estimated per output.  The design keeps only its base matrices A
and B; the N*(D+2) parameter sets are evaluated one block row at a time
(A, each A_B^i, B) from column views of A and B, each A_B^i sharing the A
row's products that do not hold parameter i.  Outputs are laid out (output,
block row, base index).  Parameter draws whose equilibrium is non-finite or
leaves the first quadrant are rejected, one of two ways: a box that interval
arithmetic proves valid once is evaluated without a test, and any other box
tests every point elementwise.  Rejection removes the whole base-index
triple so estimator pairings stay aligned.  Every estimator
mean and variance is numpy's pairwise sum along a C-contiguous row of base
indices, whose rounding error grows with log N rather than N (Higham 1993),
whatever the memory order of the outputs.

From N = 2 * MIN_PART on, each kernel splits its work into parts, one per
usable CPU, and hands every part beyond the first to a helper thread that
stays alive for later calls: sampling by rows of A and B, evaluation by
ranges of base indices, the estimators by leaves of the pairwise-sum tree of
every row, whose sums the caller adds in the tree's order.  So every result
is bit-identical whatever the number of parts.

A public call of a kernel allocates its arrays afresh, so nothing it
returns is written by a later call.  Only :func:`analyze_sensitivity`, from
which nothing leaves but the small :class:`SobolResult` arrays, hands the
kernels the calling thread's workspace through their private ``_ws``.  The
workspace is sized for the last ``n_base`` that thread analysed and reused
on its next call of the same size.  It holds A|B, the outputs and their
validity, and one scratch buffer shared by temporaries that are never alive
at once: the Sobol' digits while sampling, the A row's denominator and
numerators and each row's temporaries while evaluating (its products wait in
output rows not yet written), then the pooled A|B outputs that the variance
overwrites, in four rows, and one difference/product pair in the other two.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import astuple, dataclass

import numpy as np

from .errors import (DegenerateVariance, NumericalError, TooManyRejections, ValidationError,
                     ZeroBaseline, _shown, check)
from .params import PARAM_NAMES, ContinuousParams
from .dynamics import INTERIOR_DENOM_EPS, nullclines_cross

N_PARAMS = len(PARAM_NAMES)
#: Rows per base index in the Saltelli design: A, the N_PARAMS A_B^i rows, B.
BLOCK = N_PARAMS + 2
OUTPUT_NAMES = ("x_star", "y_star")

#: Minimum fraction of base-sample triples that must survive rejection.
MIN_RETAINED_FRACTION = 0.5

#: Fewest base indices per part: below 2 * MIN_PART base indices each kernel
#: runs in the calling thread alone, where handing a part to a helper thread
#: costs about as much as it saves.
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


def _scramble(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The digital shift (dims,) and Gray-code flips (dims, _SOBOL_BITS) of seed's sequence,
    with Matousek's (1998) linear matrix scrambling, drawn from
    ``np.random.default_rng(seed)`` as scipy.stats.qmc.Sobol draws them."""
    rng = np.random.default_rng(seed)
    dims = len(_DIRECTIONS)
    msb_first = 1 << np.arange(_SOBOL_BITS - 1, -1, -1, dtype=np.uint32)
    shift = rng.integers(2, size=(dims, _SOBOL_BITS), dtype=np.uint32) @ msb_first[::-1]
    ltm = np.tril(rng.integers(2, size=(dims, _SOBOL_BITS, _SOBOL_BITS), dtype=np.uint32))
    # Scrambled digit p (0 the most significant, bit 29) of a direction number
    # is the parity of its bits under row p of the matrix, unit diagonal set.
    rows = ltm @ msb_first | msb_first
    parity = rows[:, None, :] & _DIRECTIONS[:, :, None]
    for bit in (16, 8, 4, 2, 1):
        parity ^= parity >> bit
    scrambled = (parity & 1) @ msb_first

    # Gray-code order: point 2^j + i is point i with directions j and j-1
    # flipped, so each doubling of the prefix is one vectorised XOR.
    flips = scrambled.copy()
    flips[:, 1:] ^= scrambled[:, :-1]
    return shift, flips


def _gray_code_fill(points: np.ndarray, shift: np.ndarray, flips: np.ndarray) -> np.ndarray:
    """Fill points (dims, n), n a power of two, from each dimension's shift and flips."""
    points[:, 0] = shift
    for j in range(points.shape[1].bit_length() - 1):
        np.bitwise_xor(points[:, :1 << j], flips[:, j, None], out=points[:, 1 << j:2 << j])
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


class _Helper:
    """A daemon thread that runs ``task`` on each release of ``go``, then releases ``done``."""

    def __init__(self) -> None:
        self.go, self.done = threading.Lock(), threading.Lock()
        self.go.acquire(), self.done.acquire()
        threading.Thread(target=self._serve, daemon=True).start()

    def _serve(self) -> None:
        while self.go.acquire():
            self.task()
            self.done.release()


#: Idle helper threads: a call takes one per extra part and puts it back.
_HELPERS: list[_Helper] = []
if hasattr(os, "register_at_fork"):    # a child of os.fork runs none of its parent's threads
    os.register_at_fork(after_in_child=lambda: _HELPERS.clear())


def _run_parts(work, count: int, parts: int) -> None:
    """Call ``work(lo, hi)`` on ``parts`` contiguous ranges that cover range(count).

    The first range runs in the calling thread, each other one in a helper
    thread in a copy of the caller's context, so that ``np.errstate`` holds
    there too; numpy releases the GIL in the kernels' ufuncs.  Once every range
    has run, the first error, in range order, is raised again in the caller.
    """
    parts = min(parts, count)
    edges = [count * p // parts for p in range(parts + 1)]
    errors = [None] * parts

    def run(p: int) -> None:
        try:
            work(edges[p], edges[p + 1])
        except BaseException as exc:   # raised again in the caller
            errors[p] = exc

    helpers = []
    try:
        for p in range(1, parts):
            try:                       # an idle helper, or a new one when none is idle
                helper = _HELPERS.pop()
            except IndexError:
                helper = _Helper()
            helper.task = lambda p=p, context=contextvars.copy_context(): context.run(run, p)
            helper.go.release()
            helpers.append(helper)
        run(0)
    finally:                           # every helper given a part is idle again once it is done
        for helper in helpers:
            helper.done.acquire()
            _HELPERS.append(helper)
    for exc in filter(None, errors):
        raise exc


def _pairwise(lo: int, hi: int, depth: int, leaf=lambda lo, hi: [(lo, hi)]):
    """``leaf(start, stop)`` of each node at ``depth`` of numpy's pairwise-sum tree of
    range(lo, hi), added in the tree's order (Higham 1993): a node of more than 128 elements
    splits at half its length, rounded down to a multiple of 8, so leaf sums add up bit for bit."""
    if depth == 0 or hi - lo <= 128:
        return leaf(lo, hi)
    mid = lo + (hi - lo) // 2 // 8 * 8
    return _pairwise(lo, mid, depth - 1, leaf) + _pairwise(mid, hi, depth - 1, leaf)


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


@dataclass(frozen=True, eq=False)
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
        wide = [p for p, low, up in zip(PARAM_NAMES, lo.tolist(), hi.tolist())
                if up - low == math.inf]
        if wide:
            raise ValidationError(f"upper - lower must be finite for every parameter: {wide}")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)


def bounds_from_baseline(cp: ContinuousParams, fraction: float) -> ParamBounds:
    """Symmetric relative box [v - |v|*fraction, v + |v|*fraction].

    The box never crosses zero for fraction < 1, so every parameter keeps its
    baseline sign.  An exactly-zero baseline collapses the interval and is
    rejected.  A box that overflows, or collapses in rounding, raises
    NumericalError.
    """
    check("fraction", fraction)
    theta = np.array(astuple(cp))
    if np.any(theta == 0):
        zero = [PARAM_NAMES[i] for i in range(N_PARAMS) if theta[i] == 0]
        raise ZeroBaseline(f"baseline is exactly zero for {zero}; box collapses")
    half = np.abs(theta) * fraction
    with np.errstate(over="ignore"):
        lower, upper = theta - half, theta + half
    try:
        return ParamBounds(lower=lower, upper=upper)
    except ValidationError as exc:     # theta and fraction are valid: the sums are not
        raise NumericalError(
            f"the box of relative width {fraction} overflows or collapses: {exc}") from None


@dataclass(frozen=True, eq=False)
class SaltelliDesign:
    """Saltelli design of N*(D+2) parameter sets for D=6 parameters.

    Only the base matrices A and B are stored, each as (D, n_base): row i is
    parameter i, column j base index j.  Every base index has BLOCK = D+2
    block rows: the A-row, the D rows A_B^i that take column i from B, and
    the B-row.  These are the only parameter sets the first-order (Saltelli
    2010) and total-order (Jansen 1999) estimators read, and none of them is
    copied into a design matrix.  The layout is deterministic for a given
    (bounds, n_base, seed).  Other shapes, or n_base < 1, raise
    ValidationError; the values are not checked.
    """

    a: np.ndarray   # (D, n_base)
    b: np.ndarray   # (D, n_base)
    n_base: int
    seed: int

    def __post_init__(self):
        if not (all(isinstance(m, np.ndarray) and m.shape == (N_PARAMS, self.n_base)
                    for m in (self.a, self.b)) and self.n_base >= 1):
            raise ValidationError(f"a and b must be arrays of shape ({N_PARAMS}, n_base) with "
                                  f"n_base >= 1, got {np.shape(self.a)} and {np.shape(self.b)} "
                                  f"for n_base {_shown(self.n_base)}")


def saltelli_sample(bounds: ParamBounds, n_base: int, seed: int, *, _ws=None) -> SaltelliDesign:
    """Draw the Saltelli design from a scrambled Sobol' sequence.

    The base matrices A and B are the first and last six columns of a
    12-dimensional low-discrepancy sample of size n_base, mapped affinely
    into the bounds; n_base obeys the ``sobol_n`` rule and seed the ``seed`` rule.
    Large designs fill and scale a range of rows of A and B per part, at once.
    """
    check("sobol_n", n_base)
    check("seed", seed)
    # Rows 0..D-1 of ab are A, rows D..2D-1 are B, each scaled in place:
    # p * 2**-30 is exact, so this is lower + unit * width bit for bit, and so
    # is p * (width * 2**-30) wherever width * 2**-30 is exact (width >= 2**-992).
    ab = np.empty((2 * N_PARAMS, n_base)) if _ws is None else _ws[0]
    digits = np.empty(ab.shape, np.uint32) if _ws is None else _ws[3].view(np.uint32)
    shift, flips = _scramble(seed)
    lower = np.tile(bounds.lower, 2)[:, None]
    width = np.tile(bounds.upper - bounds.lower, 2)[:, None]
    step = width * 2.0 ** -_SOBOL_BITS
    folded = np.array_equal(step * 2.0 ** _SOBOL_BITS, width)

    def sample(lo: int, hi: int) -> None:
        points = _gray_code_fill(digits.reshape(ab.shape)[lo:hi], shift[lo:hi], flips[lo:hi])
        rows = np.multiply(points, step[lo:hi] if folded else 2.0 ** -_SOBOL_BITS, out=ab[lo:hi])
        if not folded:
            rows *= width[lo:hi]
        rows += lower[lo:hi]

    _run_parts(sample, 2 * N_PARAMS, _part_count(n_base))
    return SaltelliDesign(a=ab[:N_PARAMS], b=ab[N_PARAMS:], n_base=n_base, seed=seed)


def _sample_box(bounds: ParamBounds) -> tuple[list[float], list[float]]:
    """The least and the greatest value of each parameter that saltelli_sample draws in
    bounds of finite width: its operations at digits 0 and 2**30 - 1, rounding being monotone."""
    lower, upper = bounds.lower.tolist(), bounds.upper.tolist()
    return lower, [(1.0 - 2.0 ** -_SOBOL_BITS) * (up - low) + low for low, up in zip(lower, upper)]


def _box_proves_valid(lower, upper) -> bool:
    """True when every parameter set in the box [lower, upper] is valid, by interval
    arithmetic (Moore 1966) on the evaluation's operations: rounding is monotone, so a product
    lies between its rounded corner products and a difference between the rounded differences
    of the ends.  The denominator is then finite, of one sign and past nullclines_cross's
    threshold, each numerator has its sign or is zero, and every quotient is finite."""
    def product(u, v):
        corners = [s * t for s in u for t in v]
        return min(corners), max(corners)

    a1, b11, b12, a2, b21, b22 = zip(lower, upper)
    cross, own = product(b12, b21), product(b11, b22)
    den = cross[0] - own[1], cross[1] - own[0]
    nums = [(p[0] - q[1], p[1] - q[0]) for p, q in ((product(a1, b22), product(b12, a2)),
                                                     (product(b11, a2), product(a1, b21)))]
    if not all(map(math.isfinite, (*lower, *upper, *cross, *own, *den, *nums[0], *nums[1]))):
        return False
    least = den[0] if den[0] > 0 else -den[1]
    return (least >= max(*map(abs, cross + own), 1e-300) * INTERIOR_DENOM_EPS
            and all((lo >= 0 if den[0] > 0 else hi <= 0) and max(-lo, hi) / least < math.inf
                    for lo, hi in nums))


def evaluate_equilibria(design: SaltelliDesign, *, _ws=None,
                        _box=None) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form interior equilibrium of every parameter set of a design.

    The design is evaluated one block row at a time, straight from the
    columns of A and B: outputs is (2, BLOCK, n_base), indexed (output, block
    row, base index), and valid is (BLOCK, n_base).  A point is valid when
    its nullclines cross and it is finite and in the closed first quadrant;
    invalid points carry NaN outputs.  Large designs are split into
    contiguous ranges of base indices, evaluated at once.

    Row A_B^i recomputes only the two products of the closed form that hold
    parameter i, and the terms that hold those: 24 products in place of 48,
    6 denominators in place of 8, 12 numerators in place of 16.  Operands
    keep their order, so every bit is that of :func:`~lvdyn.dynamics.interior_equilibrium`.
    A private ``_box`` that holds the design and that :func:`_box_proves_valid` clears marks
    every point valid and tests none; any other design tests every point elementwise.
    """
    n = design.n_base
    proved = _box is not None and _box_proves_valid(*_box)
    if _ws is None:
        outputs, valid = np.empty((2, BLOCK, n)), np.empty((BLOCK, n), dtype=bool)
        scratch = np.empty((N_PARAMS, n))
    else:
        outputs, valid, scratch = _ws[1:]

    def evaluate(lo: int, hi: int) -> None:
        a1, b11, b12, a2, b21, b22 = design.a[:, lo:hi]
        b = design.b[:, lo:hi]
        out, ok = outputs[..., lo:hi], valid[:, lo:hi]
        den, num_x, num_y, t0, t1, t2 = scratch[:, lo:hi]
        # The A row's products, each in an output row written after its last use:
        #   p1 = a1*b22, p4 = a1*b21      last used by row 4, kept in row 5
        #   own = b11*b22, p3 = b11*a2    last used by row 5, kept in row 6
        #   cross = b12*b21, p2 = b12*a2  last used by row 6, kept in row 7
        (p1, p4), (own, p3), (cross, p2) = out[:, 5], out[:, 6], out[:, 7]

        def crossing(k: int, cross, own, den) -> None:      # den alone where proved
            if proved:
                np.subtract(cross, own, out=den)
            else:
                nullclines_cross(cross, own, den, ok[k], out[:, k])

        def divide(k: int, num_x, num_y, den) -> None:       # output row k
            np.divide(num_x, den, out=out[0, k])
            np.divide(num_y, den, out=out[1, k])

        with np.errstate(all="ignore"):
            crossing(0, np.multiply(b12, b21, out=cross), np.multiply(b11, b22, out=own), den)
            np.subtract(np.multiply(a1, b22, out=p1), np.multiply(b12, a2, out=p2), out=num_x)
            np.subtract(np.multiply(b11, a2, out=p3), np.multiply(a1, b21, out=p4), out=num_y)
            divide(0, num_x, num_y, den)
            # A_B^i recomputes the denominator for i in b11, b12, b21, b22, the
            # numerator of x* for i not in b11, b21, that of y* for i not in b12, b22.
            divide(1, np.subtract(np.multiply(b[0], b22, out=t0), p2, out=t0),
                   np.subtract(p3, np.multiply(b[0], b21, out=t1), out=t1), den)
            crossing(2, cross, np.multiply(b[1], b22, out=t0), t1)
            divide(2, num_x, np.subtract(np.multiply(b[1], a2, out=t2), p4, out=t2), t1)
            crossing(3, np.multiply(b[2], b21, out=t0), own, t1)
            divide(3, np.subtract(p1, np.multiply(b[2], a2, out=t2), out=t2), num_y, t1)
            divide(4, np.subtract(p1, np.multiply(b12, b[3], out=t0), out=t0),
                   np.subtract(np.multiply(b11, b[3], out=t1), p4, out=t1), den)
            crossing(5, np.multiply(b12, b[4], out=t0), own, t1)
            divide(5, num_x, np.subtract(p3, np.multiply(a1, b[4], out=t2), out=t2), t1)
            crossing(6, cross, np.multiply(b11, b[5], out=t0), t1)
            divide(6, np.subtract(np.multiply(a1, b[5], out=t2), p2, out=t2), num_y, t1)
            # B: every product anew, in scratch rows the A row is done with.
            crossing(7, np.multiply(b[2], b[4], out=t0), np.multiply(b[1], b[5], out=t1), t2)
            np.subtract(np.multiply(b[0], b[5], out=t0), np.multiply(b[2], b[3], out=t1), out=t0)
            np.subtract(np.multiply(b[1], b[3], out=t1), np.multiply(b[0], b[4], out=den), out=t1)
            divide(7, t0, t1, t2)
            if proved:
                ok.fill(True)
            else:                               # A_B^1 and A_B^4 keep A's denominator
                ok[[1, 4]] = ok[0]
                ok &= ((out >= 0) & (out < np.inf)).all(axis=0)
                out[:, ~ok] = np.nan

    _run_parts(evaluate, n, _part_count(n))
    return outputs, valid


@dataclass(frozen=True, eq=False)
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

    Summation: each mean is numpy's pairwise sum over one C-contiguous row
    per output, whatever the memory order of ``outputs``; the variance of the
    pooled A and B outputs takes ``np.var``'s steps in place.  Large designs
    split every sum along its pairwise-sum tree, which leaves every bit as it is.
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
    # Each part sums its leaves of the trees of the rows and of the pooled A|B rows.
    parts = _part_count(n)
    depth = (parts - 1).bit_length()             # ceil(log2(parts))
    rows, pooled_rows = _pairwise(0, retained, depth), _pairwise(0, 2 * retained, depth)
    temps = np.empty(6 * retained) if _ws is None else _ws[3].reshape(-1)[:6 * retained]
    pooled, (diff, prod) = temps[:4 * retained].reshape(2, -1), temps[4 * retained:].reshape(2, -1)
    row_sums, pooled_sums, square_sums = {}, {}, {}

    def estimate(lo: int, hi: int) -> None:      # leaves lo..hi-1 of each tree
        for start, stop in pooled_rows[lo:hi]:
            mid = min(max(start, retained), stop)
            pooled[:, start:mid] = f_a[:, start:mid]
            pooled[:, mid:stop] = f_b[:, mid - retained:stop - retained]
            pooled_sums[start] = pooled[:, start:stop].sum(axis=-1)
        for start, stop in rows[lo:hi]:          # an output at a time: d and p stay in cache
            sums = row_sums[start] = np.empty((2, 2, N_PARAMS))
            d, p = diff[start:stop], prod[start:stop]
            for o, i in np.ndindex(2, N_PARAMS):         # f(A_B^i) - f(A)
                np.subtract(blocks[o, 1 + i, start:stop], f_a[o, start:stop], out=d)
                sums[0, o, i] = np.multiply(f_b[o, start:stop], d, out=p).sum()
                sums[1, o, i] = np.square(d, out=p).sum()

    def center(lo: int, hi: int) -> None:        # np.var's steps, in place
        for start, stop in pooled_rows[lo:hi]:
            pool = np.subtract(pooled[:, start:stop], mean, out=pooled[:, start:stop])
            square_sums[start] = np.square(pool, out=pool).sum(axis=-1)

    def tree_mean(sums: dict, length: int) -> np.ndarray:
        return _pairwise(0, length, depth, lambda lo, hi: sums[lo]) / length

    # The parts' error state: a tiny positive variance can still overflow a ratio; checked below.
    with np.errstate(over="ignore", invalid="ignore"):
        _run_parts(estimate, max(len(rows), len(pooled_rows)), parts)
        mean = tree_mean(pooled_sums, 2 * retained)[:, None]
        _run_parts(center, len(pooled_rows), parts)
        variance = tree_mean(square_sums, 2 * retained)
        first, total = tree_mean(row_sums, retained)
    if not np.all((variance > 0) & (variance < np.inf)):
        raise DegenerateVariance(
            f"pooled output variance is {variance.tolist()}; the variance "
            f"shares of {OUTPUT_NAMES} need a finite, positive variance")
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
    outputs, valid = evaluate_equilibria(design, _ws=ws, _box=_sample_box(bounds))
    return sobol_indices(design, outputs, valid, _ws=ws)
