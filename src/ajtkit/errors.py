"""Exception types shared across the toolkit."""


class AjtError(Exception):
    """Base class for all toolkit errors."""


class InputError(AjtError):
    """Malformed or out-of-contract input. CLI exit code 2."""


class NotPrime(InputError):
    """The modulus is not an odd prime."""


class SingularMatrix(InputError):
    """Inversion was requested for a matrix with zero determinant."""


class RadiusTooLarge(InputError):
    """The progression radius k does not satisfy 2k + 1 <= p."""


class PhaseInNonCyclotomicRing(InputError):
    """Root-of-unity phases only make sense over the cyclotomic ring."""


class DegreeMismatch(InputError):
    """The two exponent families of a duality check have different totals."""


class PreconditionViolated(InputError):
    """A documented mathematical precondition does not hold for the input."""


class BudgetExceeded(AjtError):
    """The requested computation does not fit the configured budget. CLI exit code 3."""


class MathViolation(AjtError):
    """A verified mathematical invariant failed to hold. CLI exit code 1."""


class ConstructionFailed(AjtError):
    """A staged construction produced a set that does not certify."""

    def __init__(self, message, candidate=None, report=None):
        super().__init__(message)
        self.candidate = candidate
        self.report = report


class PartitionNotFound(AjtError):
    """No partition with the requested part properties within the retry budget."""

    def __init__(self, message, attempts=0):
        super().__init__(message)
        self.attempts = attempts


class NotFound(AjtError):
    """A randomized search exhausted its retry budget without a certificate."""

    def __init__(self, message, attempts=0):
        super().__init__(message)
        self.attempts = attempts
