"""Exception types shared across the package."""

__all__ = ["ZenoTrajError", "ConfigError", "NumericError", "QuadratureError", "NullOutcome"]


class ZenoTrajError(Exception):
    """Base class for all library errors."""


class ConfigError(ZenoTrajError):
    """Invalid or inconsistent run configuration (CLI exit code 2)."""


class NumericError(ZenoTrajError):
    """A numerical routine failed to meet its accuracy contract (CLI exit code 3)."""


class QuadratureError(NumericError):
    """Adaptive quadrature did not converge to the requested tolerance.

    Carries the best available estimate and the reported error bound so a
    caller can decide whether the partial result is still useful.
    """

    def __init__(self, message, estimate, error_bound=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class NullOutcome(NumericError):
    """Post-selection succeeded with (numerically) zero probability.

    Raised when a requested conditional state does not exist because the
    interferometer output port is dark, e.g. for n = N/2 binary phase
    profiles or when the survival probability underflows.
    """
