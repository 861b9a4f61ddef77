"""Exception types shared across the package.

Every HelistarError that reaches the CLI exits 2 (invalid input); an empty
result exits 3 and a failed verification exits 1 without raising.
"""


class HelistarError(Exception):
    """Base class for all package errors."""


class ParameterError(HelistarError):
    """A band, offset triple, or option value violates its invariants."""


class NotACompoundError(HelistarError):
    """split_compound was called on a band with gcd(n, s) = 1."""


class WindowError(HelistarError):
    """A mesh window is too small for the requested check."""


class CatalogFormatError(HelistarError):
    """A catalog document failed to parse; the message names line and field."""
