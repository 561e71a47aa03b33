"""Exception types shared across the package, and the number check of the library specs."""

import numbers


class AmpLabError(Exception):
    """Base class for all amplab errors."""


class RejectedInputError(AmpLabError, ValueError):
    """Input violates a documented precondition (dimension mismatch, bad parameter)."""


class NumericalFailureError(AmpLabError, RuntimeError):
    """A numerical routine failed to meet its accuracy contract."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class DivergenceError(NumericalFailureError):
    """An iterate left the finite range; carries the offending iteration index and,
    for an orbit block, the indices of the rows that left it (None for one orbit)."""

    def __init__(self, message, iteration, rows=None):
        super().__init__(message)
        self.iteration = iteration
        self.rows = rows


class DegenerateInputError(AmpLabError):
    """Vector is degenerate for the requested operation (zero overlap, vanishing iterate)."""


class PreconditionError(AmpLabError):
    """A hypothesis checked at runtime does not hold; the run is refused."""


class AccuracyError(NumericalFailureError):
    """Quadrature failed its node-doubling self-consistency check."""


class ConfigError(AmpLabError):
    """Experiment configuration is malformed."""


def real_number(value, what):
    """value as a float; RejectedInputError unless it is a real number (a bool or a string is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise RejectedInputError(f"{what} must be a real number, got {value!r}")
    return float(value)
