"""Exception hierarchy shared across the package.

Two top-level families map onto the CLI exit-code contract:
ValidationError -> exit 1 (bad parameters / preconditions),
DataError -> exit 2 (unreadable or inconsistent input data).
"""


class CombinfError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(CombinfError, ValueError):
    """An argument violates a documented precondition."""


class DataError(CombinfError):
    """Input data (files, matrices, manifests) is malformed or inconsistent."""
