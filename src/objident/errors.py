"""Exception hierarchy shared by the whole package.

Every error carries a machine-readable ``category`` (shown in diagnostics),
the process ``exit_code`` the command line returns for it and, where it
makes sense, a human-readable ``location`` (a line/column for text inputs,
a field path for structured documents).
"""

from __future__ import annotations


class ObjidentError(Exception):
    """Base class for all errors raised by this package."""

    category = "internal"
    exit_code = 1

    def __init__(self, message: str, *, location: str | None = None):
        super().__init__(message)
        self.location = location

    def __str__(self) -> str:
        base = super().__str__()
        if self.location:
            return f"{self.location}: {base}"
        return base


class ValidationError(ObjidentError):
    """Input data violates a documented invariant (bad matrix, bad cut, ...)."""

    category = "validation"
    exit_code = 4


class ParseError(ObjidentError):
    """Text input does not conform to its grammar or schema."""

    category = "parse"
    exit_code = 3

    def __init__(self, message: str, *, line: int | None = None,
                 column: int | None = None, location: str | None = None):
        if location is None and line is not None:
            location = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(message, location=location)
        self.line = line
        self.column = column


class ConfigError(ObjidentError):
    """Invalid or contradictory run configuration."""

    category = "config"
    exit_code = 2


class InputOutputError(ObjidentError):
    """Filesystem failure while reading inputs or writing outputs."""

    category = "io"
    exit_code = 5
