"""Exception types shared across the package, and its integer and real checks.

Every HelistarError that reaches the CLI exits 2 (invalid input); an empty
result exits 3 and a failed verification exits 1 without raising.
"""

import sys


class HelistarError(Exception):
    """Base class for all package errors."""


class ParameterError(HelistarError):
    """A band or an option value violates its invariants."""


class NotACompoundError(HelistarError):
    """split_compound was called on a band with gcd(n, s) = 1."""


class WindowError(HelistarError):
    """A mesh window is too small for the requested check."""


class CatalogFormatError(HelistarError):
    """A catalog document failed to parse; the message names line and field."""


def check_int(name: str, value, minimum: int | None = None, maximum: int | None = None) -> None:
    """ParameterError naming the parameter unless value is an int in [minimum, maximum].

    Exactly int: a bool, a float (even 5.0) or a str is refused, never
    converted, so a count or index cannot be silently truncated or misread.
    Either bound may be None; with both None any int passes, negative ones included.
    """
    if type(value) is not int or not (
        (minimum is None or value >= minimum) and (maximum is None or value <= maximum)
    ):
        bounds = " and".join(f" {op} {x}" for op, x in ((">=", minimum), ("<=", maximum)) if x is not None)
        raise ParameterError(f"{name} must be an integer{bounds}, got {value!r}")


def check_real(name: str, value, above: float | None = None, below: float | None = None) -> None:
    """ParameterError naming the parameter unless value is a finite real in (above, below).

    A real is an int or a float, never a bool or a str; NaN, the infinities
    and ints too large for a float are refused. Either bound may be None, and
    both are exclusive.
    """
    real = isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max
    if not real or (above is not None and value <= above) or (below is not None and value >= below):
        bounds = " and".join(f" {op} {x}" for op, x in ((">", above), ("<", below)) if x is not None)
        raise ParameterError(f"{name} must be a finite real{bounds}, got {value!r}")
