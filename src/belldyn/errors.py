"""Exception types shared across the package."""


class InvalidStateError(ValueError):
    """A density matrix or coefficient triple violates physicality."""


class NonCPTPError(ValueError):
    """A channel parameter would break complete positivity."""


class SupportViolationError(ValueError):
    """Relative entropy diverges: the first state leaks outside the second's support."""


class AccuracyError(ValueError):
    """A numerical routine cannot meet its accuracy contract (e.g. step too large)."""
