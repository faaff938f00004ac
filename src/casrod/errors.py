"""Exception types shared across the package."""


class OutOfDomainError(ValueError):
    """Parametric or angular coordinate outside the valid domain."""


class DegenerateParametrizationError(RuntimeError):
    """Curve parametrization has (numerically) zero speed at a point."""


class NonAxisAlignedRotationError(ValueError):
    """Rotation constraint requested at an end where the normal is not axis-aligned."""


class SingularSystemError(RuntimeError):
    """Constrained stiffness matrix is not positive definite (insufficient constraints)."""


class InsufficientDataError(ValueError):
    """Not enough convergence records to estimate a rate."""
