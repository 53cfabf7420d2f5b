"""Exception hierarchy shared across the package."""


class RespectraError(Exception):
    """Base class for all package errors."""


class ConfigError(RespectraError):
    """Invalid run configuration or model document."""


class AnalyticityError(RespectraError):
    """A form factor is evaluated, or declared, outside its analytic region."""


class EvaluationError(RespectraError):
    """An integrand or coefficient could not be evaluated reliably."""


class ContourError(RespectraError):
    """The contour geometry does not support the requested computation."""


class ConvergenceError(RespectraError):
    """An iterative solve failed to reach the requested tolerance."""

    def __init__(self, message, last_iterate=None, residual=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual


class DegeneratePairError(RespectraError):
    """A left/right pair is self-orthogonal (exceptional point) or the
    pole is degenerate, so no biorthogonal normalization exists."""


class BoundStateError(RespectraError):
    """The level is pushed below the continuum threshold: eta has a real
    zero at ``energy`` < 0, a bound state, and no resonance pole exists."""

    def __init__(self, message, energy):
        super().__init__(message)
        self.energy = energy


class ChannelClosedError(RespectraError):
    """The barrier model has no open decay channel: the corrected level
    lies below the continuum threshold and no imaginary part appears."""
