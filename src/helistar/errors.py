"""Exception types shared across the package, and its five argument checks.

check_int, check_real and check_array take numbers, check_type a package object
and check_items a list of them; each raises ParameterError naming the argument.

Every HelistarError that reaches the CLI exits 2 (invalid input); an empty
result exits 3 and a failed verification exits 1 without raising.
"""

import contextlib
import reprlib
import sys

import numpy as np


class HelistarError(Exception):
    """Base class for all package errors."""


class ParameterError(HelistarError):
    """A band or an option value violates its invariants."""


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


def check_array(name: str, value, kinds: str, shape: tuple[int | None, ...] | None = None) -> np.ndarray:
    """value as an array of integers (kinds "iu") or finite reals ("iuf"); ParameterError otherwise.

    shape gives each axis's length, None for any (shape None: any shape); an empty 1-D
    sequence is zero rows. A numeric ndarray of a kind in kinds, finite if real, is returned
    whole. Anything else comes back as int64 or float, checked entry by entry (name[i][j]) since np.asarray
    turns [0.5, True] into floats; entries all Python ints (or floats, for reals) need only one cast.
    """
    try:
        arr = value if isinstance(value, np.ndarray) else np.asarray(value, dtype=object)
    except (TypeError, ValueError) as exc:  # rows that do not stack
        raise ParameterError(f"{name} must be {_array_text(shape)}: {exc}") from None
    arr = arr.reshape(0, *shape[1:]) if arr.shape == (0,) and shape and shape[0] is None else arr  # [] is zero rows
    if shape is not None and (arr.ndim != len(shape) or any(w not in (None, d) for w, d in zip(shape, arr.shape))):
        got = repr(value) if arr.ndim == 0 else f"shape {arr.shape}"
        raise ParameterError(f"{name} must be {_array_text(shape)}, got {got}")
    if arr.dtype.kind in kinds and (arr.dtype.kind != "f" or np.isfinite(arr).all()):
        return arr
    check, dtype = (check_real, float) if "f" in kinds else (check_int, np.int64)
    if set(map(type, flat := arr.ravel().tolist())) <= {int, dtype}:  # no bool, str or other scalar: one cast
        with contextlib.suppress(OverflowError):  # then walked, for the message
            if np.isfinite(cast := arr.astype(dtype)).all():
                return cast
    for i, v in enumerate(flat):
        v = v.item() if isinstance(v, np.generic) else v
        try:
            check(name, v)
        except ParameterError:  # raised again, naming the entry: built only on failure
            check(name + "".join(f"[{j}]" for j in np.unravel_index(i, arr.shape)), v)
    try:
        return arr.astype(dtype)
    except OverflowError:  # an int beyond 64 bits
        raise ParameterError(f"{name} must hold integers of at most 64 bits") from None


def _array_text(shape: tuple[int | None, ...] | None) -> str:
    """check_array's wording of a shape, built only for a message."""
    return "an array" if shape is None else f"a {len(shape)}-D array of shape {tuple(shape)}".replace("None", "m")


def check_type(name: str, value, kind: type | tuple[type, ...]) -> None:
    """ParameterError naming the parameter unless value is an instance of kind, a class or a tuple of classes."""
    if not isinstance(value, kind):
        kinds = kind if isinstance(kind, tuple) else (kind,)
        want = " or ".join("None" if k is type(None) else f"a {k.__name__}" for k in kinds)
        raise ParameterError(f"{name} must be {want}, got {reprlib.repr(value)}")


def check_items(name: str, values, kind: type) -> list:
    """values as a new list; ParameterError unless it is a non-text iterable and each item, name[i], passes check_type.

    Items all exactly of the class kind pass on one set of their types, with no loop over them.
    """
    try:
        items = list(None if isinstance(values, (str, bytes)) else values)  # text is no list: list(None) raises
    except TypeError:
        raise ParameterError(f"{name} must be a list of {kind.__name__}, got {reprlib.repr(values)}") from None
    if not set(map(type, items)) <= {kind}:
        for i, item in enumerate(items):
            check_type(f"{name}[{i}]", item, kind)
    return items
