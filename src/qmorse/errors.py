"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input outside the physically admissible domain."""


class MassPoleError(DomainError):
    """Position-dependent mass evaluated at or beyond its pole."""


class NoRealSolutionError(ValueError):
    """Bound-state constants would need the square root of a negative number."""

    def __init__(self, message: str, value: float):
        super().__init__(f"{message} (offending value {value!r})")
        self.value = value


class ThresholdStateError(ValueError):
    """State sits exactly at the varying-mass threshold (vanishing denominator)."""


class NonNormalizableError(DomainError):
    """Requested wavefunction decays too slowly to normalize."""
