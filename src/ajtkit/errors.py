"""Exception types shared across the toolkit: one class per CLI exit code."""


class AjtError(Exception):
    """Base class for all toolkit errors."""


class InputError(AjtError):
    """Malformed or out-of-contract input. CLI exit code 2."""


class BudgetExceeded(AjtError):
    """The requested computation does not fit the configured budget. CLI exit code 3."""


class MathViolation(AjtError):
    """A verified statement failed, or no certificate was found. CLI exit code 1."""
