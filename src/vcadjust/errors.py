"""Exception types shared across the package."""


class VcadjustError(Exception):
    """Base class for all package errors."""


class ValidationError(VcadjustError):
    """Invalid input data, design declaration, or request."""


class SingularityError(VcadjustError):
    """A matrix that must be invertible is singular (degenerate regressor,
    singular stratum, inestimable configuration)."""
