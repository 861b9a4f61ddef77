"""Array arguments: one refusal table and one acceptance table over every public
function that takes an array, all checked by errors.check_array.

A refusal raises ParameterError whose message starts with the argument's name,
or with the bad entry's, name[i][j]. Nothing is converted on the way, so a bool
is never 1, a float never an index and a numeric string never a number.
"""

import math
import re
from collections import Counter

import numpy as np
import pytest

from helistar import (
    BandSpec,
    HelixParams,
    MeshSegment,
    ParameterError,
    closure_determinant,
    helix_points,
    antiprism_tower,
    realize,
    triangles_properly_intersect,
)
from helistar import errors

HELIX = HelixParams(r=0.7, theta=1.1, h=0.3)
BAND = BandSpec(5, 2)
TRIANGLE = [[0, 0, 0], [4, 0, 0], [0, 4, 0]]
CROSSING = [[1, 1, -1], [1, 1, 1], [4, 4, 1]]  # pierces TRIANGLE at (1, 1, 0)
MESH = {"vertices": TRIANGLE, "faces": [[0, 1, 2]], "edges": [[0, 1], [1, 2]], "boundary_marks": [0, 1]}


def mesh_field(field):
    """A call that builds MeshSegment with its argument as field, the others valid, and returns the field."""

    def call(value):
        seg = MeshSegment(**{**MESH, field: value})
        return sorted(seg.boundary_marks) if field == "boundary_marks" else getattr(seg, field)

    return call


# target -> (argument name in messages, integer entries?, valid value, call)
TARGETS = {
    "helix_points": ("ks", True, [0, 1, 2], lambda v: helix_points(HELIX, v)),
    "closure_determinant": ("theta", False, [1, 2, 3], lambda v: closure_determinant(BAND, v)),
    "triangles_properly_intersect": ("t2", False, CROSSING, lambda v: triangles_properly_intersect(TRIANGLE, v)),
    **{field: (field, field != "vertices", value, mesh_field(field)) for field, value in MESH.items()},
}


def with_last(value, bad):
    """value as an object array with its last entry replaced by bad, and that entry's index text."""
    out = np.array(value, dtype=object)
    index = np.unravel_index(out.size - 1, out.shape)
    out[index] = bad
    return out, "".join(f"[{i}]" for i in index)


def must_be(ints: bool) -> str:
    return "an integer" if ints else "a finite real"


BAD_ENTRIES = {
    "bool": True,
    "numpy_bool": np.bool_(True),
    "numeric_text": "1",
    "nan": math.nan,
    "inf": math.inf,
    "minus_inf": -math.inf,
    "complex": 1 + 0j,
    "none": None,
    "nested": [1, 2],
}


@pytest.mark.parametrize("bad", BAD_ENTRIES.values(), ids=BAD_ENTRIES)
@pytest.mark.parametrize("target", TARGETS)
def test_a_bad_entry_among_numbers_is_refused_by_name(target, bad):
    # as a list and as an object array: a bool hidden in a list of numbers is not 1
    name, ints, good, call = TARGETS[target]
    rows, index = with_last(good, bad)
    for value in (rows.tolist(), rows):
        with pytest.raises(ParameterError, match=rf"^{re.escape(name + index)} must be {must_be(ints)}, got "):
            call(value)


@pytest.mark.parametrize("index_value", [0.5, 1.0, np.float64(1.0)], ids=["half", "integral", "numpy"])
@pytest.mark.parametrize("target", [t for t, (_, ints, _, _) in TARGETS.items() if ints])
def test_a_float_index_is_refused(target, index_value):
    name, _, good, call = TARGETS[target]
    rows, index = with_last(good, index_value)
    with pytest.raises(ParameterError, match=rf"^{re.escape(name + index)} must be an integer, got "):
        call(rows.tolist())
    with pytest.raises(ParameterError, match=rf"^{name} must be"):  # alone, not in a sequence
        call(index_value)
    # a float array is refused at its first entry, however integral its values
    first = "[0]" * np.ndim(good)
    with pytest.raises(ParameterError, match=rf"^{re.escape(name + first)} must be an integer, got 0.0"):
        call(np.array(good, dtype=float))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "minus_inf"])
@pytest.mark.parametrize("target", [t for t, (_, ints, _, _) in TARGETS.items() if not ints])
def test_a_float_array_that_is_not_finite_is_refused_at_the_entry(target, bad):
    name, _, good, call = TARGETS[target]
    rows, index = with_last(good, bad)
    with pytest.raises(ParameterError, match=rf"^{re.escape(name + index)} must be a finite real, got {bad}"):
        call(rows.astype(float))


@pytest.mark.parametrize(
    "value",
    [True, None, "1.5", [[0, 1, 2], [0, 1]], np.ones((1, 3), dtype=bool)],
    ids=["bool", "none", "numeric_text", "ragged", "bool_array"],
)
@pytest.mark.parametrize("target", TARGETS)
def test_a_bad_argument_is_refused_by_name(target, value):
    name, _, _, call = TARGETS[target]
    with pytest.raises(ParameterError, match=rf"^{name}(\[\d+\])* must be"):
        call(value)


@pytest.mark.parametrize("target", ["helix_points", "triangles_properly_intersect", "vertices", "faces", "edges"])
def test_a_wrong_shape_is_refused_by_name(target):
    name, _, good, call = TARGETS[target]
    with pytest.raises(ParameterError, match=rf"^{name} must be a {np.ndim(good)}-D array of shape \(.*\), got shape"):
        call([good, good])


def numpy_scalars(arr: np.ndarray) -> list:
    """arr as nested lists of numpy scalars (tolist would give Python numbers)."""
    return [numpy_scalars(row) for row in arr] if arr.ndim > 1 else list(arr)


def same(a, b) -> bool:
    """The same dtype, shape and bits for arrays; the same type and value otherwise."""
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("form", ["int", "narrow_array", "numpy_scalars", "object_array", "wide_array"])
@pytest.mark.parametrize("target", TARGETS)
def test_numbers_of_any_real_kind_are_taken(target, form):
    # every form gives the result of the plain list of ints (integer entries) or floats (real ones)
    _, ints, good, call = TARGETS[target]
    narrow, wide = (np.int32, np.int64) if ints else (np.float32, np.float64)
    value = {
        "int": good,
        "narrow_array": np.array(good, dtype=narrow),
        "numpy_scalars": numpy_scalars(np.array(good, dtype=narrow)),
        "object_array": np.array(good, dtype=object),
        "wide_array": np.array(good, dtype=wide),
    }[form]
    assert same(call(value), call(good if ints else np.array(good, dtype=float).tolist()))


@pytest.mark.parametrize("empty", [[], np.zeros(0, dtype=int)], ids=["list", "int_array"])
@pytest.mark.parametrize("target", ["helix_points", "closure_determinant", "faces", "edges", "boundary_marks"])
def test_empty_input_is_taken(target, empty):
    assert np.size(TARGETS[target][3](empty)) == 0


@pytest.mark.parametrize("empty", [[], np.zeros((0, 3))], ids=["list", "float_array"])
def test_a_mesh_without_vertices_is_taken(empty):
    seg = MeshSegment(vertices=empty, faces=[], edges=[])
    assert seg.vertices.shape == (0, 3) and seg.vertices.dtype == float
    assert seg.faces.shape == (0, 3) and seg.edges.shape == (0, 2)


def entry_checks(monkeypatch) -> Counter:
    """The calls of check_int and check_real from here on, counted by name."""
    calls = Counter()
    for name in ("check_int", "check_real"):
        check = getattr(errors, name)
        monkeypatch.setattr(errors, name, lambda *args, _name=name, _check=check: calls.update([_name]) or _check(*args))
    return calls


def test_the_package_passes_whole_arrays(monkeypatch, tetrahelix):
    # realize and antiprism_tower hand MeshSegment ndarrays, the boundary marks
    # too, which are all taken with no entry loop
    calls = entry_checks(monkeypatch)
    seg, tower = realize(tetrahelix, 10), antiprism_tower(5, 4)
    helix_points(tetrahelix.params, np.arange(30))
    assert calls == Counter()


@pytest.mark.parametrize("kinds, value", [("iu", [[0, 2**62], [-1, 5]]), ("iuf", [[0.5, 1], [2**70, -0.0]])])
def test_plain_python_numbers_are_cast_without_an_entry_loop(monkeypatch, kinds, value):
    # ints (and floats, for reals) only: one cast, the same array as the walk gives
    calls = entry_checks(monkeypatch)
    got = errors.check_array("x", value, kinds, (None, 2))
    want = np.array(value, dtype=float if "f" in kinds else np.int64)
    assert not calls and got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("big", [2**63, 2**70, -(2**70)], ids=["int64_max_plus_1", "70_bits", "minus_70_bits"])
@pytest.mark.parametrize("target", [t for t, (_, ints, _, _) in TARGETS.items() if ints])
def test_an_integer_beyond_64_bits_is_refused(target, big):
    # every entry is an int, so only the conversion to int64 can find it
    name, _, good, call = TARGETS[target]
    rows, _ = with_last(good, big)
    with pytest.raises(ParameterError, match=rf"^{name} must hold integers of at most 64 bits$"):
        call(rows.tolist())


@pytest.mark.parametrize("target", TARGETS)
def test_rows_that_do_not_stack_are_refused_by_name(target):
    # numpy cannot put a 2-D array beside a list of two in one object array
    name, _, _, call = TARGETS[target]
    want = r"(an array|a \d-D array of shape \(.*\))"
    with pytest.raises(ParameterError, match=rf"^{name} must be {want}: "):
        call([[1, 2], np.zeros((2, 2))])
