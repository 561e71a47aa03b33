"""Exception types shared across the package."""


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
    """An iterate left the finite range; carries the offending iteration index."""

    def __init__(self, message, iteration):
        super().__init__(message)
        self.iteration = iteration


class DegenerateInputError(AmpLabError):
    """Vector is degenerate for the requested operation (zero overlap, vanishing iterate)."""


class PreconditionError(AmpLabError):
    """A hypothesis checked at runtime does not hold; the run is refused."""


class AccuracyError(NumericalFailureError):
    """Quadrature failed its node-doubling self-consistency check."""


class ConfigError(AmpLabError):
    """Experiment configuration is malformed."""
