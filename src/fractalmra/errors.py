"""Exception hierarchy shared by all modules."""


class FractalMRAError(Exception):
    """Base class for all package errors."""


class PreconditionError(FractalMRAError):
    """An operation was called with inputs that violate its contract."""


class CapExceededError(FractalMRAError):
    """A configured size or depth cap would be exceeded."""


class InvalidDigitError(PreconditionError):
    """A digit lies outside the digit set of its system."""


class SystemMismatchError(PreconditionError):
    """Two lattice vectors over different digit systems were combined."""


class CoarseningError(PreconditionError):
    """A lattice vector was asked for a resolution below its current one."""


class NotNormalizedError(PreconditionError):
    """A filter does not satisfy the transfer-operator normalization R(1) = 1."""
