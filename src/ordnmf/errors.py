"""Exception hierarchy shared across the package."""


class OrdnmfError(Exception):
    """Base class for all package errors."""


class DataError(OrdnmfError):
    """Invalid or inconsistent data (bad counts, duplicates, shape mismatch)."""


class ParseError(DataError):
    """Malformed input file; names it and carries the offending line number."""

    def __init__(self, path, line_number, message):
        super().__init__(f"{path}: line {line_number}: {message}")
        self.line_number = line_number


class ConfigError(OrdnmfError):
    """Invalid configuration value."""


class NumericalError(OrdnmfError):
    """Non-finite or out-of-domain quantity produced during computation."""

