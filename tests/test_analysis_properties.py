"""Property tests for the triangle-triangle predicate and the face window.

Triangles are well conditioned: no angle close to zero and no edge close to
zero, so that rounding moves no vertex across the 1e-12 plane threshold and
no overlap across the 1e-9 measure threshold. Half of the coordinates are
snapped to a grid of halves, which forces exact contacts (shared points,
vertices on planes, coplanar pairs) that the continuous draws almost never
hit. Runs are derandomized so the suite sees the same examples every time.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

import helistar as hs
from helistar import triangles_properly_intersect
from helistar.analysis import _intersect, classify_face_intersection

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)

grid_coord = st.integers(-6, 6).map(lambda v: v / 2.0)
free_coord = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


def _well_conditioned(t: np.ndarray) -> bool:
    edges = np.linalg.norm(t - np.roll(t, 1, axis=0), axis=1)
    area2 = np.linalg.norm(np.cross(t[1] - t[0], t[2] - t[0]))
    return edges.min() >= 0.25 and area2 >= 0.1 * edges.max() ** 2


def _triangle(coord, z=None):
    z = coord if z is None else st.just(z)
    return (
        st.lists(st.tuples(coord, coord, z), min_size=3, max_size=3)
        .map(lambda rows: np.array(rows, dtype=float))
        .filter(_well_conditioned)
    )


@st.composite
def pairs(draw):
    """(t1, t2, shared): free, sharing one vertex, or lying in one plane."""
    coord = draw(st.sampled_from([grid_coord, free_coord]))
    mode = draw(st.sampled_from(["free", "vertex", "coplanar"]))
    flat = 0.0 if mode == "coplanar" else None
    t1 = draw(_triangle(coord, flat))
    t2 = draw(_triangle(coord, flat))
    if mode != "vertex":
        return t1, t2, 0
    t2[0] = t1[0]
    assume(_well_conditioned(t2))
    return t1, t2, 1


rigid_motions = st.tuples(
    st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
        lambda q: np.linalg.norm(q) > 0.1
    ),
    st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3),
)


@PROPERTY
@given(pairs())
def test_symmetric(pair):
    t1, t2, shared = pair
    assert triangles_properly_intersect(t1, t2, shared) == triangles_properly_intersect(
        t2, t1, shared
    )


@PROPERTY
@given(pairs(), rigid_motions)
def test_invariant_under_rigid_motion(pair, motion):
    t1, t2, shared = pair
    quat, shift = motion
    rot = Rotation.from_quat(quat)
    moved = [rot.apply(t) + np.array(shift) for t in (t1, t2)]
    assert triangles_properly_intersect(*moved, shared) == triangles_properly_intersect(
        t1, t2, shared
    )


@PROPERTY
@given(pairs(), st.integers(0, 2), st.integers(0, 2))
def test_invariant_under_cyclic_relabelling(pair, r1, r2):
    t1, t2, shared = pair
    relabelled = np.roll(t1, r1, axis=0), np.roll(t2, r2, axis=0)
    assert triangles_properly_intersect(*relabelled, shared) == triangles_properly_intersect(
        t1, t2, shared
    )


@settings(PROPERTY, max_examples=60)
@given(st.lists(st.tuples(pairs(), st.integers(0, 3)), min_size=1, max_size=8))
def test_batch_rows_match_batch_of_one(rows):
    # the drawn shared count overrides the pair's own on some rows, so that
    # shared-edge rejections sit between live rows
    T1 = np.array([t1 for (t1, _, _), _ in rows])
    T2 = np.array([t2 for (_, t2, _), _ in rows])
    shared = np.array([sh if extra < 2 else extra for (_, _, sh), extra in rows])
    batched = _intersect(T1, T2, shared)
    assert batched.dtype == bool and batched.shape == (len(rows),)
    for i in range(len(rows)):
        assert batched[i] == triangles_properly_intersect(T1[i], T2[i], int(shared[i]))


@pytest.fixture(scope="module")
def branches_5_16():
    return [
        sol
        for n in range(5, 17)
        for s in range(1, n // 2 + 1)
        for sol in hs.solve_band(hs.BandSpec(n, s))
    ]


@settings(PROPERTY, max_examples=60)
@given(data=st.data())
def test_face_verdict_is_base_invariant(branches_5_16, data):
    sol = data.draw(st.sampled_from(branches_5_16), label="branch")
    base = data.draw(st.integers(-40, 40), label="base")
    assert classify_face_intersection(sol, base)[0] == classify_face_intersection(sol)[0]
