"""Exception hierarchy shared across the package.

CLI exit codes map onto these classes: ValidationError -> 2,
EstimationError -> 3, OSError -> 4.
"""


class ValidationError(ValueError):
    """Bad input data: malformed header or cell, bound violation, unknown variable."""


class SignalError(ValidationError):
    """A raw signal cannot be processed (too short, non-positive window)."""


class NoSignalError(SignalError):
    """Input carries no usable signal (flatline ECG, no breath cycles)."""


class EstimationError(RuntimeError):
    """Model fitting failed (rank deficiency, degenerate inputs)."""


class StratificationError(EstimationError):
    """A cross-fitting fold misses a treatment level entirely."""
