"""Branch classification: self-intersection and vertex-figure type.

Two exact finite tests stand in for questions about an infinite surface:

* Face intersection. A face spans c*h axially, so a prototype face at base k
  can only meet faces with base in [k-c, k+c]; faces exactly c apart meet the
  prototype's axial extremes in a single plane where both shrink to the shared
  vertex. Testing U_0 and D_0 against that window therefore decides the whole
  surface, by screw symmetry. The window's 2*(4c+2) pairs go through the
  triangle-triangle predicate as one stack in a single call; that batched
  predicate is the only one, and triangles_properly_intersect is a batch of
  one.

* Vertex figure. The six neighbors of a vertex, in face-adjacency cycle order,
  form a closed hexagon. Projected along the vertex normal (the sum of the six
  incident unit face normals), the hexagon either is a simple circuit or
  crosses itself; that splits the branches into the two families.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .band_combinatorics import prototype_faces, vertex_neighbor_cycle
from .closure_solver import _FAN, BranchSolution, _cross, _dot, _normals, _unit, helix_points
from .errors import check_int

__all__ = [
    "Classification",
    "classify",
    "classify_face_intersection",
    "vertex_figure",
    "triangles_properly_intersect",
]

MEASURE_TOL = 1e-9   # intersections thinner than this count as touching
_PLANE_EPS = 1e-12   # vertex-on-plane threshold, coordinates are O(1)

FaceId = tuple[str, int]

# hexagon sides (i, i+1) and (j, j+1), for the 9 pairs that share no corner
_SIDE_PAIRS = np.array([(i, i + 1, j, (j + 1) % 6) for i in range(4) for j in range(i + 2, 6) if j - i != 5])


@dataclass
class Classification:
    """intersecting + witness pair, and the vertex figure with its polygon."""

    intersecting: bool
    witness: tuple[FaceId, FaceId] | None
    vertex_figure: str  # 'simple' | 'crossed' | 'indeterminate'
    figure_polygon: np.ndarray  # (6, 3) neighbor positions in cycle order


def _interval(tri: np.ndarray, dist: np.ndarray, axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parameter interval where each triangle meets the other one's plane.

    tri is (m, 3, 3); dist holds each triangle's signed vertex distances to
    that plane; axis is the direction of the plane-intersection line. On-plane
    vertices and strict edge crossings both contribute a parameter. A row with
    neither (the triangle lies strictly on one side) gets the empty interval
    (inf, -inf).
    """
    nxt = [1, 2, 0]  # edge i runs from vertex i to vertex nxt[i]
    on = np.abs(dist) <= _PLANE_EPS
    crosses = (dist * dist[:, nxt] < 0.0) & ~on & ~on[:, nxt]
    s = dist / (dist - dist[:, nxt])  # masked off where the edge does not cross
    hits = tri + s[..., None] * (tri[:, nxt] - tri)
    t = np.concatenate([_dot(axis[:, None], tri), _dot(axis[:, None], hits)], axis=1)
    ok = np.concatenate([on, crosses], axis=1)
    return np.where(ok, t, np.inf).min(axis=1), np.where(ok, t, -np.inf).max(axis=1)


def _shoelace(poly: list[np.ndarray]) -> float:
    """Signed shoelace sum of a 2D polygon: twice its area, positive if CCW."""
    s = 0.0
    for i in range(len(poly)):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % len(poly)]
        s += x1 * y2 - x2 * y1
    return s


def _poly_area(poly: list[np.ndarray]) -> float:
    if len(poly) < 3:
        return 0.0
    return abs(_shoelace(poly)) / 2.0


def _clip_area(sub: list[np.ndarray], clip: list[np.ndarray]) -> float:
    """Area of sub clipped to convex polygon clip (both 2D, clip CCW)."""
    poly = list(sub)
    for i in range(len(clip)):
        p, q = clip[i], clip[(i + 1) % len(clip)]
        edge = q - p
        out: list[np.ndarray] = []
        for j in range(len(poly)):
            u, v = poly[j], poly[(j + 1) % len(poly)]
            du = edge[0] * (u[1] - p[1]) - edge[1] * (u[0] - p[0])
            dv = edge[0] * (v[1] - p[1]) - edge[1] * (v[0] - p[0])
            if du >= 0.0:
                out.append(u)
            if (du > 0.0 > dv) or (du < 0.0 < dv):
                out.append(u + du / (du - dv) * (v - u))
        poly = out
        if not poly:
            return 0.0
    return _poly_area(poly)


def _coplanar_intersect(t1: np.ndarray, t2: np.ndarray, n1: np.ndarray) -> bool:
    e1 = t1[1] - t1[0]
    e1 = e1 / np.linalg.norm(e1)
    e2 = np.cross(n1, e1)
    to2d = lambda p: np.array([np.dot(p - t1[0], e1), np.dot(p - t1[0], e2)])
    q1 = [to2d(p) for p in t1]
    q2 = [to2d(p) for p in t2]
    s = _shoelace(q1)
    if s == 0.0:  # degenerate source triangle, nothing to clip against
        return False
    # orient the clip polygon CCW
    if s < 0.0:
        q1 = q1[::-1]
    if _clip_area(q2, q1) > MEASURE_TOL:
        return True
    # area can vanish while the boundaries still share a positive-length
    # segment; collinear edge overlap counts as a proper intersection too
    cross2 = lambda u, v: u[0] * v[1] - u[1] * v[0]
    for i in range(3):
        for j in range(3):
            p1, p2 = q1[i], q1[(i + 1) % 3]
            p3, p4 = q2[j], q2[(j + 1) % 3]
            d = p2 - p1
            L = float(np.linalg.norm(d))
            u = d / L
            if abs(cross2(u, p3 - p1)) > _PLANE_EPS or abs(cross2(u, p4 - p1)) > _PLANE_EPS:
                continue
            a1, a2 = sorted((0.0, L))
            b1, b2 = sorted((float(np.dot(p3 - p1, u)), float(np.dot(p4 - p1, u))))
            if min(a2, b2) - max(a1, b1) > MEASURE_TOL:
                return True
    return False


def _intersect(T1: np.ndarray, T2: np.ndarray, shared: np.ndarray) -> np.ndarray:
    """Proper intersection of each triangle pair in two (m, 3, 3) stacks.

    Moeller's interval test, one array pass over all m pairs: rows sharing an
    edge, rows with a degenerate triangle and rows with one triangle strictly
    on one side of the other's plane are rejected; coplanar rows go through
    the 2D clip one by one; the rest intersect when the two triangles'
    intervals on the planes' common line overlap by more than MEASURE_TOL.
    """
    with np.errstate(divide="ignore", invalid="ignore"):  # rejected rows divide by zero
        n1 = _normals(T1)
        n2 = _normals(T2)
        n1n = np.sqrt(_dot(n1, n1))
        n2n = np.sqrt(_dot(n2, n2))
        live = (shared < 2) & (n1n != 0.0) & (n2n != 0.0)
        n1 = n1 / n1n[:, None]
        n2 = n2 / n2n[:, None]

        d2 = _dot(n1[:, None], T2 - T1[:, :1])
        d1 = _dot(n2[:, None], T1 - T2[:, :1])
        for d in (d2, d1):
            live &= ~(np.all(d > _PLANE_EPS, axis=1) | np.all(d < -_PLANE_EPS, axis=1))
        coplanar = live & np.all(np.abs(d2) <= _PLANE_EPS, axis=1)

        axis = _unit(_cross(n1, n2))
        lo1, hi1 = _interval(T1, d1, axis)
        lo2, hi2 = _interval(T2, d2, axis)
        hit = live & ~coplanar & (np.minimum(hi1, hi2) - np.maximum(lo1, lo2) > MEASURE_TOL)
    for i in np.flatnonzero(coplanar):
        hit[i] = _coplanar_intersect(T1[i], T2[i], n1[i])
    return hit


def triangles_properly_intersect(t1: np.ndarray, t2: np.ndarray, shared: int = 0) -> bool:
    """True when two triangles share a region of positive length or area.

    shared is the number of combinatorially identified vertices. Two faces
    sharing an edge meet exactly in that edge and never properly intersect;
    faces sharing one vertex count only when the overlap extends beyond it.
    Contacts of measure below MEASURE_TOL are touching, not intersecting.
    """
    T1 = np.asarray(t1, dtype=float)[None]
    T2 = np.asarray(t2, dtype=float)[None]
    return bool(_intersect(T1, T2, np.array([shared]))[0])


def classify_face_intersection(
    solution: BranchSolution,
    base: int = 0,
) -> tuple[bool, tuple[FaceId, FaceId] | None]:
    """Decide self-intersection; returns the first witness pair found.

    Prototypes U_base and D_base are tested against every face with base
    index in [base-c, base+c], all pairs in one predicate call. The witness
    is the first hit in scan order: prototype U then D, window k ascending,
    U_k before D_k. The default base of 0 is exhaustive by screw symmetry;
    other bases exist so the invariance is checkable.
    """
    check_int("base", base)
    off = solution.offsets
    c = off.c
    shape = prototype_faces(off)
    first = base - c  # lowest vertex index in the window
    protos = base + shape
    window = (np.arange(first, base + c + 1)[:, None, None] + shape).reshape(-1, 3)
    pts = helix_points(solution.params, np.arange(first, base + 2 * c + 1))
    shared = (protos[:, None, :, None] == window[None, :, None, :]).any(axis=-1).sum(axis=-1)
    hits = _intersect(
        np.repeat(pts[protos - first], len(window), axis=0),
        np.tile(pts[window - first], (2, 1, 1)),
        shared.ravel(),
    )
    at = int(np.argmax(hits))
    if not hits[at]:
        return False, None
    proto, other = divmod(at, len(window))
    k, kind = divmod(other, 2)
    return True, (("UD"[proto], base), ("UD"[kind], first + k))


def _figure_kind(polygon2d: np.ndarray) -> str:
    """simple or crossed, by proper crossing of non-adjacent hexagon sides."""
    p1, p2, q1, q2 = polygon2d[_SIDE_PAIRS].transpose(1, 0, 2)
    cross = lambda u, v: u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
    d1 = cross(q2 - q1, p1 - q1)
    d2 = cross(q2 - q1, p2 - q1)
    d3 = cross(p2 - p1, q1 - p1)
    d4 = cross(p2 - p1, q2 - p1)
    return "crossed" if np.any((d1 * d2 < 0.0) & (d3 * d4 < 0.0)) else "simple"


def vertex_figure(solution: BranchSolution, base: int = 0) -> tuple[np.ndarray, str]:
    """Hexagon of the 6 neighbors in cycle order, and its figure type.

    Projection is along the vertex normal, the sum of the unit normals of the
    6 fan faces (base, base + w_i, base + w_(i+1)); when that sum degenerates
    (below 1e-9) the classification is reported indeterminate rather than
    guessed.
    """
    check_int("base", base)
    pts = helix_points(solution.params, base + np.array([0, *vertex_neighbor_cycle(solution.offsets)]))
    center, polygon = pts[0], pts[1:]
    axis = _unit(_normals(pts[_FAN])).sum(axis=0)
    norm = float(np.linalg.norm(axis))
    if norm < 1e-9:
        return polygon, "indeterminate"
    axis /= norm

    seed = np.array([1.0, 0.0, 0.0])
    if abs(np.dot(seed, axis)) > 0.9:
        seed = np.array([0.0, 1.0, 0.0])
    e1 = _cross(axis, seed)
    e1 /= np.linalg.norm(e1)
    e2 = _cross(axis, e1)
    rel = polygon - center
    flat = np.stack([rel @ e1, rel @ e2], axis=1)
    return polygon, _figure_kind(flat)


def classify(solution: BranchSolution) -> Classification:
    """Full classification of one branch."""
    intersecting, witness = classify_face_intersection(solution)
    polygon, kind = vertex_figure(solution)
    return Classification(
        intersecting=intersecting,
        witness=witness,
        vertex_figure=kind,
        figure_polygon=polygon,
    )
