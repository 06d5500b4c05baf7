"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Invalid input data (bad matrix, missing table entry, malformed file)."""


class EnumerationLimitError(RuntimeError):
    """A word/witness enumeration would exceed the configured budget."""


class NotMixingError(RuntimeError):
    """An operation requiring a topologically mixing shift got a non-mixing one."""


class ConvergenceError(RuntimeError):
    """The Perron iteration hit its step cap before reaching tolerance, or
    broke down (a singular or non-finite solve, or an underflowed root)."""


class ExactModeError(RuntimeError):
    """Exact rational arithmetic was requested but is not available here."""
