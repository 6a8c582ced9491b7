"""Exception hierarchy for the lvdyn package.

Errors fall into three families, each carrying its CLI ``exit_code``:
validation (2), numerical (3) and I/O (4) failures.  Any other exception is a
bug in lvdyn: the CLI shows its traceback and exits 1.
"""

from __future__ import annotations

import sys

import numpy as np


class LvdynError(Exception):
    """Base class for all package errors."""


# --------------------------------------------------------------------------
# Validation errors (CLI exit code 2)
# --------------------------------------------------------------------------

class ValidationError(LvdynError, ValueError):
    """Input data or configuration violates a documented contract."""
    exit_code = 2


class DomainError(ValidationError):
    """A parameter value lies outside the domain of a transform."""


class InsufficientData(ValidationError):
    """Fewer observations than the regression needs."""


class NonPositiveValue(ValidationError):
    """An observation that must be strictly positive is not."""


class LengthMismatch(ValidationError):
    """Two paired series have different lengths."""


class ZeroObserved(ValidationError):
    """A relative error was requested against a zero observation."""


class InvalidBBox(ValidationError):
    """Phase-plane bounding box is empty or leaves the open first quadrant."""


class ZeroBaseline(ValidationError):
    """A relative perturbation box around an exactly-zero value collapses."""


class InvalidN(ValidationError):
    """Sample size breaks the ``sobol_n`` rule."""


class ParseError(ValidationError):
    """Malformed input file; message carries the row/column location."""


#: The two value types a setting may have; a bool is neither.
_INTEGER = ("an integer", (int, np.integer))
REAL = ("a real number", (int, float, np.integer, np.floating))


def finite(v) -> bool:
    """Whether real v has a finite float value (an int beyond the largest has none)."""
    return -np.inf < v < np.inf and not (isinstance(v, int) and abs(v) > sys.float_info.max)


#: Rules of a finite real number, of one >= 0 (classify_tol, a start x0), and
#: of one > 0 (an observation).
FINITE = (REAL, finite, "finite", ValidationError)
FINITE_NON_NEGATIVE = (REAL, lambda v: v >= 0 and finite(v), "finite and >= 0", ValidationError)
FINITE_POSITIVE = (REAL, lambda v: v > 0 and finite(v), "finite and > 0", NonPositiveValue)
#: Rules of a value's type alone, for records that test the values together.
_ANY_INTEGER = (_INTEGER, lambda v: True, "", ValidationError)
_ANY_REAL = (REAL, lambda v: True, "", ValidationError)

#: The one rule of each scalar setting, in the order AnalysisConfig.validate
#: applies them: (value type, test, requirement, error class).  NaN fails
#: every test.  sobol_n stops at 2**30, the length of the Sobol' sequence
#: with the 30 direction numbers per coordinate that lvdyn.sensitivity has.
#: grid_n stops at 1024: a grid of 1024 x 1024 points keeps two 8 MB arrays
#: of field values, and writes a million rows to each grid CSV.
RULES = {
    "sobol_n": (_INTEGER, lambda n: 64 <= n <= 2**30 and n & (n - 1) == 0,
                "a power of two from 64 to 2**30", InvalidN),
    "fraction": (REAL, lambda f: 0 < f < 1, "in (0, 1)", ValidationError),
    "classify_tol": FINITE_NON_NEGATIVE,
    "grid_n": (_INTEGER, lambda n: 2 <= n <= 1024, "from 2 to 1024", ValidationError),
    "seed": (_INTEGER, lambda s: s >= 0, "a non-negative integer", ValidationError),
}


def check(name: str, value, rule=None) -> None:
    """Raise the error class of ``rule``, by default setting ``name``'s rule
    in RULES, unless ``value`` obeys it."""
    (kind, types), test, requirement, error = rule or RULES[name]
    if not isinstance(value, types) or isinstance(value, bool):
        raise error(f"{name} must be {kind}, got {value!r}")
    if not test(value):
        raise error(f"{name} must be {requirement}, got {_shown(value)}")


def _shown(value) -> str:
    """str(value), or the size of an int too long for str (sys.get_int_max_str_digits)."""
    try:
        return str(value)
    except ValueError:
        return f"a {'negative' if value < 0 else 'positive'} integer of {value.bit_length()} bits"


def check_start(x0) -> tuple[float, float]:
    """The start (x, y) of a trajectory as floats, once x0 is a pair of real
    numbers that are finite and >= 0; otherwise ValidationError."""
    try:
        x, y = x0
    except (TypeError, ValueError):
        raise ValidationError(f"x0 must be a pair of real numbers, got {type(x0)}") from None
    for v in (x, y):
        check("x0", v, FINITE_NON_NEGATIVE)
    return float(x), float(y)


# --------------------------------------------------------------------------
# Numerical errors (CLI exit code 3)
# --------------------------------------------------------------------------

class NumericalError(LvdynError, ArithmeticError):
    """Base class for numerical failures."""
    exit_code = 3


class SingularDesign(NumericalError):
    """Regression is degenerate: collinear regressors, singular normal equations,
    a slope that is not a finite normal float, or a constant response."""


class IllConditioned(UserWarning):
    """Warning: normal equations condition number exceeds the threshold."""


class DenominatorNearZero(NumericalError):
    """Discrete-map denominator vanished at an evaluation point."""


class TrajectoryOverflow(NumericalError):
    """An iterated state exceeded the overflow guard (1e300)."""


class StepTooLarge(NumericalError):
    """Step-doubling error estimate exceeded the tolerance."""


class NegativeState(NumericalError):
    """An integrated state left the meaningful (non-negative) domain."""


class TooManyRejections(NumericalError):
    """Too few valid sample triples survived rejection filtering."""


class DegenerateVariance(NumericalError):
    """A Sobol' output has zero or non-finite variance, or an index that is not
    finite, so its shares are undefined."""


# --------------------------------------------------------------------------
# I/O errors (CLI exit code 4)
# --------------------------------------------------------------------------

class IoError(LvdynError, OSError):
    """Filesystem failure while reading inputs or writing outputs."""
    exit_code = 4


class PipelineStageError(LvdynError):
    """Wraps a stage's error with the stage name; the exit code is the cause's."""

    def __init__(self, stage: str, cause: LvdynError):
        super().__init__(f"stage '{stage}': {cause}")
        self.stage = stage
        self.cause = cause
        self.exit_code = cause.exit_code
