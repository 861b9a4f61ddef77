"""Exception types shared across the package, and its one integer check.

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


def check_int(name: str, value, minimum: int | None = None) -> None:
    """ParameterError naming the parameter unless value is an int >= minimum.

    Exactly int: a bool, a float (even 5.0) or a str is refused, never
    converted, so a count or index cannot be silently truncated or misread.
    With minimum None any int passes, negative ones included.
    """
    if type(value) is not int or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ParameterError(f"{name} must be an integer{bound}, got {value!r}")
