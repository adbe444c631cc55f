"""Exception types shared across the package."""


class MagbeamError(Exception):
    """Base class for all package-specific errors."""


class ScenarioError(MagbeamError):
    """A scenario file or object violates the schema or a physical invariant."""

    def __init__(self, message, field=None):
        self.field, self.reason = field, message
        if field:
            message = f"{field}: {message}"
        super().__init__(message)


class InfeasibleError(MagbeamError):
    """The requested power delivery cannot be met under the active constraints."""


class SolverError(MagbeamError):
    """The conic solver failed to converge to the requested accuracy."""


class EfficiencyUndefinedError(MagbeamError):
    """Efficiency requested for a schedule that draws zero transmit power."""


class EstimationError(MagbeamError):
    """Channel estimation failed (singular or ill-conditioned measurements)."""
