"""Exception hierarchy.

Every error raised by this package derives from :class:`PrivguessError`.
Validation failures are ``ValueError`` subclasses so callers that do not care
about the fine-grained taxonomy can catch the builtin; genuine numerical
breakdowns (which indicate a solver bug or an ill-posed instance, never a bad
argument) derive from ``RuntimeError`` instead.
"""

__all__ = [
    "PrivguessError",
    "InvalidDistributionError",
    "InvalidChannelError",
    "InvalidOrderError",
    "DimensionMismatchError",
    "ParameterError",
    "DegenerateChannelError",
    "InfeasibleThresholdError",
    "CapacityError",
    "NumericalError",
]


class PrivguessError(Exception):
    """Base class for all package errors."""


class InvalidDistributionError(PrivguessError, ValueError):
    """Matrix is not a joint probability distribution (negative entry or mass != 1)."""


class InvalidChannelError(PrivguessError, ValueError):
    """Matrix is not row-stochastic."""


class InvalidOrderError(PrivguessError, ValueError):
    """Entropy order outside the supported range [1, inf]."""


class DimensionMismatchError(PrivguessError, ValueError):
    """Operands have incompatible shapes."""


class ParameterError(PrivguessError, ValueError):
    """Scalar parameter outside its documented domain."""


class DegenerateChannelError(ParameterError):
    """Channel parameters make the observable useless or a formula denominator vanish."""


class InfeasibleThresholdError(PrivguessError, ValueError):
    """Privacy threshold below the unconditional guessing probability."""


class CapacityError(PrivguessError, ValueError):
    """Alphabet too large for exact enumeration."""


class NumericalError(PrivguessError, RuntimeError):
    """Numerical failure (pivot budget exhausted, certificate violated)."""
