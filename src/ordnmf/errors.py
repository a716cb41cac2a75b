"""Exception hierarchy shared across the package."""


class OrdnmfError(Exception):
    """Base class for all package errors."""


class DataError(OrdnmfError):
    """Invalid or inconsistent data (bad counts, duplicates, shape mismatch)."""


class ParseError(DataError):
    """Malformed input file; carries the offending line number."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class ConfigError(OrdnmfError):
    """Invalid configuration value."""


class NumericalError(OrdnmfError):
    """Non-finite or out-of-domain quantity produced during computation."""

