"""Exception hierarchy for the lvdyn package.

Errors fall into three families that the CLI maps onto exit codes:
input/validation problems (exit 2), numerical failures (exit 3) and
I/O failures (exit 4).
"""

from __future__ import annotations


class LvdynError(Exception):
    """Base class for all package errors."""


# --------------------------------------------------------------------------
# Validation errors (CLI exit code 2)
# --------------------------------------------------------------------------

class ValidationError(LvdynError, ValueError):
    """Input data or configuration violates a documented contract."""


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
    """Sample size is not a power of two >= 64."""


class ParseError(ValidationError):
    """Malformed input file; message carries the row/column location."""


# --------------------------------------------------------------------------
# Numerical errors (CLI exit code 3)
# --------------------------------------------------------------------------

class NumericalError(LvdynError, ArithmeticError):
    """Base class for numerical failures."""


class SingularDesign(NumericalError):
    """Regression is degenerate: collinear regressors or a constant response."""


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
    """A Sobol' output has zero or non-finite variance, so its shares are undefined."""


# --------------------------------------------------------------------------
# I/O errors (CLI exit code 4)
# --------------------------------------------------------------------------

class IoError(LvdynError, OSError):
    """Filesystem failure while reading inputs or writing outputs."""


class PipelineStageError(LvdynError):
    """Wraps an error raised inside a pipeline stage with its stage name."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}': {cause}")
        self.stage = stage
        self.cause = cause


def exit_code_for(err: BaseException) -> int:
    """Map an exception to the documented CLI exit code."""
    if isinstance(err, PipelineStageError):
        return exit_code_for(err.cause)
    if isinstance(err, ValidationError):
        return 2
    if isinstance(err, NumericalError):
        return 3
    if isinstance(err, OSError):   # IoError is an OSError
        return 4
    return 3
