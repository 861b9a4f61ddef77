"""Branch classification: self-intersection and vertex-figure type.

Two exact finite tests stand in for questions about an infinite surface:

* Face intersection. A face spans c*h axially, so a prototype face at base k
  can only meet faces with base in [k-c, k+c]; faces exactly c apart meet the
  prototype's axial extremes in a single plane where both shrink to the shared
  vertex. By screw symmetry every face pair is congruent to one holding U_0
  or D_0, and the half-turn about the x axis, v_k -> v_-k, maps U_k =
  (k, k+a, k+c) onto D_(-k-c); so U_0 against that window decides the whole
  surface. Screw symmetry also pairs (U_0, U_k) with (U_0, U_-k), and the
  three faces sharing an edge with U_0 never intersect it, which leaves
  3c-2 pairs per branch of the window's 2*(4c+2) (_face_pass). All
  branches of a band share their offsets, so they share the window's index
  tables, and the tables of all the bands in a pass are built in one array
  pass. Every row of a branch has U_0 as its first triangle, so U_0's
  corners and unit normal are computed once per branch. The rows of many
  branches, of any bands, go through the triangle-triangle predicate
  together, scanned in stages so that a branch leaves at its first hit, in
  calls of at most ROW_BUDGET rows; in each call the side test against
  U_0's plane runs first, and the other face's plane and the interval step
  only for the rows it leaves. That batched predicate, on the x, y and z
  coordinate lanes that closure_solver._helix_lanes gives every corner
  (helix_points's bits), is the only one, and triangles_properly_intersect
  is a batch of one.

* Vertex figure. The six neighbors of a vertex, in face-adjacency cycle order,
  form a closed hexagon. Projected along the vertex normal (the sum of the six
  incident unit face normals), the hexagon either is a simple circuit or
  crosses itself; that splits the branches into the two families. The
  hexagons of many branches are projected and tested as one stack.

classify takes branches of any bands, such as every branch of a catalog, and
runs both tests over them in blocks of at most BLOCK_ROWS kept rows: the
1149 branches of 5..24 strips with compounds are one block, 20,438 rows in
23 predicate calls. classify([branch])[0] is the public entry for one
branch; classify_face_intersection and vertex_figure, the same passes over
a list of one branch, are this module's names only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .band_combinatorics import _neighbor_cycle, _prototype_rows
from .closure_solver import _NEXT, _ROT, BranchSolution, _cross, _dot, _helix_lanes, _unit, _vertex_star
from .errors import check_array, check_int, check_items, check_type

__all__ = [
    "Classification",
    "classify",
    "classify_face_intersection",
    "vertex_figure",
    "triangles_properly_intersect",
]

MEASURE_TOL = 1e-9   # intersections thinner than this count as touching
_PLANE_EPS = 1e-12   # vertex-on-plane threshold, coordinates are O(1)
ROW_BUDGET = 1024    # most rows per predicate call
BLOCK_ROWS = 64 * ROW_BUDGET  # most kept rows (3c - 2 per branch) per classify block; bounds the working set

FaceId = tuple[str, int]
Witness = tuple[FaceId, FaceId]

# the 9 pairs of hexagon sides (i, i+1), (j, j+1) sharing no corner, as the terms (j, i), (j, i+1) over
# (i, j), (i, j+1) of _figure_kind's table of cross products, side x with corner y at 6x + y
_SIDE_TERMS = np.array([[(6 * j + i, 6 * j + i + 1), (6 * i + j, 6 * i + (j + 1) % 6)]
                        for i in range(4) for j in range(i + 2, 6) if j - i != 5]).transpose(1, 2, 0)


@dataclass
class Classification:
    """intersecting + witness pair, and the vertex figure with its polygon."""

    intersecting: bool
    witness: Witness | None
    vertex_figure: str  # 'simple' | 'crossed' | 'indeterminate'
    figure_polygon: np.ndarray  # (6, 3) neighbor positions in cycle order


def _shoelace(poly: list[np.ndarray]) -> float:
    """Signed shoelace sum of a 2D polygon: twice its area, positive if CCW."""
    s = 0.0
    for i in range(len(poly)):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % len(poly)]
        s += x1 * y2 - x2 * y1
    return s


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
    return abs(_shoelace(poly)) / 2.0  # exactly 0 for fewer than 3 points


def _coplanar_intersect(t1: np.ndarray, t2: np.ndarray, n1: np.ndarray) -> bool:
    """Proper intersection of two triangles in the plane of t1, unit normal n1: t1 and t2 are
    (3 coordinates, 3 corners) lanes, projected on t1's plane along its first edge and n1 x that."""
    e1 = _unit(t1[:, 1] - t1[:, 0])
    basis = np.stack([e1, _cross(n1, e1)], axis=-1)[:, None]  # (3, 1, 2)
    q1, q2 = (list(_dot((t - t1[:, :1])[..., None], basis)) for t in (t1, t2))
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
    dot2 = lambda u, v: u[0] * v[0] + u[1] * v[1]
    for i in range(3):
        for j in range(3):
            p1, p2 = q1[i], q1[(i + 1) % 3]
            p3, p4 = q2[j], q2[(j + 1) % 3]
            d = p2 - p1
            L = math.sqrt(dot2(d, d))
            u = d / L
            if abs(cross2(u, p3 - p1)) > _PLANE_EPS or abs(cross2(u, p4 - p1)) > _PLANE_EPS:
                continue
            a1, a2 = sorted((0.0, L))
            b1, b2 = sorted((dot2(p3 - p1, u), dot2(p4 - p1, u)))
            if min(a2, b2) - max(a1, b1) > MEASURE_TOL:
                return True
    return False


def _unit_cross(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Length (m,) and direction (3, m) of the _cross of (3, m) coordinate lanes; a zero
    product has a NaN direction, which callers mask and silence."""
    n = _cross(u, v)
    length = np.sqrt(_dot(n, n))
    return length, n / length


def _plane(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normal length and unit normal of the triangles of (3, 3, m) lanes, _cross of the edges from
    corner 0; a degenerate triangle's NaN normal raises no warning."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return _unit_cross(P[:, 1] - P[:, 0], P[:, 2] - P[:, 0])


def _straddles(dist: np.ndarray) -> np.ndarray:
    """True for each lane of signed corner distances (3, m) whose triangle is not strictly on one side of the plane."""
    return (dist.min(axis=0) > _PLANE_EPS) == (dist.max(axis=0) < -_PLANE_EPS)  # at most one holds


def _intersect(P: np.ndarray, Q: np.ndarray, shared: np.ndarray, plane1) -> np.ndarray:
    """Proper intersection of each triangle pair of two (3 coordinates, 3 corners, m) lane stacks.

    Moeller's interval test in array passes, a lane being one row; every
    distance, normal, cut axis and interval end is a sum over whole
    coordinate lanes. plane1 is _plane(P). The first pass rejects rows
    sharing an edge, with a degenerate P, or with Q strictly on one side of
    P's plane (about half of a census's rows); only the survivors get the
    second pass: Q's plane, which rejects a degenerate Q and P strictly on
    one side of it, and the interval step, in which the two triangles
    intersect when their intervals on the planes' common line overlap by
    more than MEASURE_TOL. Coplanar survivors go through the 2D clip one by
    one instead. Every step works lane by lane, so a row's verdict is the
    same bits in any stack, and whichever rows a pass drops.
    """
    hit = np.zeros(P.shape[-1], dtype=bool)
    n1n, n1 = plane1
    with np.errstate(divide="ignore", invalid="ignore"):  # rejected rows divide by zero
        d2 = _dot(n1[:, None], Q - P[:, :1])
        rows = ((shared < 2) & (n1n != 0.0) & _straddles(d2)).nonzero()[0]
        tri = np.concatenate([P[:, :, None], Q[:, :, None]], axis=2).take(rows, axis=-1)  # (3, 3, 2, rows)
        (P, Q), n1, d2 = tri.transpose(2, 0, 1, 3), n1.take(rows, axis=-1), d2.take(rows, axis=-1)
        n2n, n2 = _plane(Q)
        dist = np.concatenate([_dot(n2[:, None], P - Q[:, :1])[:, None], d2[:, None]], axis=1)  # to the other plane
        on = np.abs(dist) <= _PLANE_EPS
        live = (n2n != 0.0) & _straddles(dist[:, 0])
        coplanar = live & on[:, 1].all(axis=0)
        # where each triangle meets the other's plane along the cut axis: on-plane corners, strict edge crossings
        _, axis = _unit_cross(n1, n2)
        nxt = _ROT[0]  # edge i runs from corner i to corner nxt[i]
        after = dist.take(nxt, axis=0)
        ok = np.concatenate([on, (dist * after < 0.0) & ~(on | on.take(nxt, axis=0))])
        s = dist / (dist - after)  # masked off where the edge does not cross
        t = _dot(axis[:, None, None], np.concatenate([tri, tri + s * (tri.take(nxt, axis=1) - tri)], axis=1))
        t = np.where(ok, t, np.nan)  # fmin and fmax skip these; a row's ok ends are all NaN or none
        lo, hi = np.fmin.reduce(t, axis=0), np.fmax.reduce(t, axis=0)  # (2, rows)
        hit[rows] = live & ~coplanar & (hi.min(axis=0) - lo.max(axis=0) > MEASURE_TOL)
    for i in coplanar.nonzero()[0]:
        hit[rows[i]] = _coplanar_intersect(P[..., i], Q[..., i], n1[:, i])
    return hit


def triangles_properly_intersect(t1: np.ndarray, t2: np.ndarray, shared: int = 0) -> bool:
    """True when two triangles share a region of positive length or area.

    shared is the number of combinatorially identified vertices. Two faces
    sharing an edge meet exactly in that edge and never properly intersect;
    faces sharing one vertex count only when the overlap extends beyond it.
    Contacts of measure below MEASURE_TOL are touching, not intersecting.
    Each triangle must be 3 x 3 finite reals, a row per corner (check_array),
    and shared an int in [0, 3]; anything else raises ParameterError.
    """
    P, Q = (check_array(name, t, "iuf", (3, 3)).T.astype(float)[..., None] for name, t in (("t1", t1), ("t2", t2)))
    check_int("shared", shared, 0, 3)
    return bool(_intersect(P, Q, np.array([shared]), _plane(P))[0])


def _batch(solutions: list[BranchSolution]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What the passes read of branches of any bands, each field in one pass over them: their r,
    theta and h lanes, (3, branches), the offsets (a, b, c) of their bands in order of first
    appearance, one row a band, and each branch's row."""
    params, bands, seen = [sol.params for sol in solutions], [sol.band for sol in solutions], {}
    band = np.array([seen.setdefault((b.n_strips, b.shift), len(seen)) for b in bands], dtype=np.intp)
    lanes = np.array([[p.r for p in params], [p.theta for p in params], [p.h for p in params]], dtype=float)
    return lanes, np.array([(s, n - s, n) for n, s in seen], dtype=np.intp).reshape(-1, 3), band


def _kept_rows(offsets: np.ndarray) -> tuple[np.ndarray, ...]:
    """U_0's kept row in each band of a (bands, 3) array of offsets: U_0's corners
    per band, then each kept face's corners (vertex indices), shared count and
    code, stacked band after band, and each band's row length.

    The window's codes run -2c to 2c + 1, 2k for U_k and 2k + 1 for D_k
    (_face_id). Corner p of U_k or D_k is corner q of U_0 = (0, a, c) where
    k = q - p, so the shared counts are one bincount of those codes. The kept
    faces, in scan order, are U_k for -c <= k <= -1 and D_k for -c <= k <= c,
    except D_0, D_-b and D_a, which share an edge with U_0: 3c - 2 of them.
    """
    shape = np.array(_prototype_rows(*offsets.T)).transpose(2, 0, 1)  # (bands, 2, 3)
    width = 4 * offsets[:, 2] + 2
    zero = width.cumsum() - width // 2 - 1  # where each band's code 0 sits
    band = np.arange(len(offsets)).repeat(width)
    code = np.arange(len(band)) - zero.repeat(width)
    meets = zero[:, None, None, None] + 2 * (shape[:, :1, None] - shape[..., None]) + np.arange(2)[:, None, None]
    shared = np.bincount(meets.ravel(), minlength=len(band))
    keep = ((shared < 2) & ((code < 0) | (code % 2 == 1))).nonzero()[0]
    band, code = band[keep], code[keep]
    corners = shape.reshape(-1, 3)[2 * band + code % 2] + (code // 2)[:, None]
    return shape[:, 0], corners, shared[keep], code, np.bincount(band, minlength=len(offsets))


def _face_id(code: int) -> FaceId:
    """The name of a face's code: 2k is U_k, 2k + 1 is D_k."""
    return "UD"[code % 2], code // 2


def _face_pass(lanes: np.ndarray, offsets: np.ndarray, band: np.ndarray) -> tuple[list[bool], list[Witness | None]]:
    """Verdicts and first witness pairs of branches of any bands, in staged predicate calls.

    The branches come as _batch gives them. The scan order is prototype U_0
    then D_0, each against the window of faces with base index in [-c, c],
    k ascending, U_k before D_k; a branch's witness is its first hit in that
    order. Only U_0's row is tested, and only the part of it that can hold
    the first hit (_kept_rows):

    * D_0's row goes: the half-turn about v_0 maps D_0 onto U_-c, so by
      screw symmetry each (D_0, F) is congruent to some (U_0, F') in the
      window, and U_0's row, read first, hits whenever D_0's does.
    * U_k with k >= 0 goes: (U_0, U_k) is a screw image of (U_0, U_-k),
      which comes earlier in the row (k = 0 is U_0 itself).
    * Faces sharing an edge with U_0 go: the predicate never lets them hit.

    Most branches hit early in their row, so the rows are scanned in stages,
    up to 10%, 20%, 30%, 40%, 60% and 100% of each row's length, and a
    branch leaves the scan at its first hit. Each stage runs across all
    branches, in predicate calls of at most ROW_BUDGET rows; once the rows
    left fit in one call, that stage scans them to their ends. Each call
    computes its rows' corners with _helix_lanes; U_0's corners and plane are
    computed once per branch. A witness is the first hit in scan order
    whatever the stages, and every step works lane by lane, a lane being one
    row, so a branch's result is the same bits in any batch.
    """
    u0, corners, shared, codes, sizes = _kept_rows(offsets)
    length, start = sizes[band], (sizes.cumsum() - sizes)[band]  # each branch's kept row in the tables
    lanes, ks = np.ascontiguousarray(lanes), np.ascontiguousarray(corners.T)  # take copies a strided source whole
    proto = _helix_lanes(lanes, u0[band].T)  # U_0, once per branch
    length1, unit1 = _plane(proto)

    first_hit = np.full(len(band), -1)  # kept-table position of each branch's witness
    live, begin = np.arange(len(band)), np.zeros(len(band), dtype=np.intp)  # positions scanned so far
    for tenths in (1, 2, 3, 4, 6, 10):
        end = full = length[live]
        count = end - begin
        if count.sum() > ROW_BUDGET:
            end = -(-end * tenths // 10)  # rounded up
            count = end - begin
        owner = live.repeat(count)
        at = np.arange(len(owner)) + (start[live] + begin - (count.cumsum() - count)).repeat(count)
        hits = np.zeros(len(at), dtype=bool)
        for i in range(0, len(at), ROW_BUDGET):
            o, r = owner[i:i + ROW_BUDGET], at[i:i + ROW_BUDGET]
            P, Q = proto.take(o, axis=-1), _helix_lanes(lanes.take(o, axis=-1), ks.take(r, axis=-1))
            hits[i:i + ROW_BUDGET] = _intersect(P, Q, shared[r], (length1[o], unit1.take(o, axis=-1)))
        hit_rows = hits.nonzero()[0]
        hit_owner = owner[hit_rows]  # each branch's rows are together, in scan order
        first = np.ones(len(hit_owner), dtype=bool)
        first[1:] = hit_owner[1:] != hit_owner[:-1]
        first_hit[hit_owner[first]] = at[hit_rows[first]]
        more = (first_hit[live] < 0) & (end < full)
        live, begin = live[more], end[more]
        if not live.size:
            break
    witness, hits = codes[first_hit].tolist(), (first_hit >= 0).tolist()  # witness read only on a hit
    pairs = {code: (("U", 0), _face_id(code)) for code in set(witness)}
    return hits, [pairs[code] if hit else None for code, hit in zip(witness, hits)]


def classify_face_intersection(solution: BranchSolution) -> tuple[bool, Witness | None]:
    """Decide self-intersection; returns the first witness pair found.

    The face pass of classify over this one branch; U_0 is exhaustive by
    screw symmetry. Anything but a BranchSolution raises ParameterError.
    """
    check_type("solution", solution, BranchSolution)
    hits, witnesses = _face_pass(*_batch([solution]))
    return hits[0], witnesses[0]


def _figure_kind(polygon2d: np.ndarray) -> np.ndarray:
    """simple or crossed for each hexagon of a (..., 6, 2) stack.

    A hexagon is crossed when two of its non-adjacent sides properly cross:
    the ends of each side lie strictly on opposite sides of the other's line.
    Every side's cross product with every corner relative to the side's start
    is computed once, on the x and y lanes, and the 9 pairs read their four
    terms from that table.
    """
    x, y = polygon2d[..., 0], polygon2d[..., 1]
    rx, ry = x[..., None, :] - x[..., :, None], y[..., None, :] - y[..., :, None]  # [..., i, j]: corner j - corner i
    sx, sy = (x.take(_NEXT, axis=-1) - x)[..., None], (y.take(_NEXT, axis=-1) - y)[..., None]  # side i: corner i, i + 1
    terms = (sx * ry - sy * rx).reshape(*x.shape[:-1], 36)[..., _SIDE_TERMS]
    return np.where(((terms[..., 0, :] * terms[..., 1, :]) < 0.0).all(axis=-2).any(axis=-1), "crossed", "simple")


def _figure_pass(lanes: np.ndarray, offsets: np.ndarray, band: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Neighbor hexagons, (branches, 6, 3), and figure kinds of branches of any bands.

    The branches come as _batch gives them. Each hexagon is projected along
    its own vertex normal, the sum of its fan (_vertex_star); a branch whose
    normal sum degenerates (below 1e-9, or NaN from a zero-area fan face) is
    indeterminate, whatever its projection gave, rather than guessed.
    One _vertex_star call gives every branch's star, each at its own band's
    neighbour cycle, and every step after it works row by row.
    """
    with np.errstate(divide="ignore", invalid="ignore"):  # a degenerate normal sum gives NaN rows
        pts, fan = _vertex_star(lanes.T, np.array([0 * offsets[:, 0], *_neighbor_cycle(*offsets.T)]).T[band])
        rel = pts[..., 1:] - pts[..., :1]
        axis = np.add.accumulate(fan, axis=-1)[..., -1]  # the six fan normals added first to last
        norm = np.sqrt(_dot(axis, axis))
        axis = axis / norm
        e1 = _unit(_cross(axis, np.where(np.abs(axis[:1]) > 0.9, [[0.0], [1.0], [0.0]], [[1.0], [0.0], [0.0]])))
        flat = np.stack([_dot(rel, e1[..., None]), _dot(rel, _cross(axis, e1)[..., None])], axis=-1)
        kinds = np.where(norm >= 1e-9, _figure_kind(flat), "indeterminate")
    return np.ascontiguousarray(pts[..., 1:].transpose(1, 2, 0)), kinds.tolist()


def vertex_figure(solution: BranchSolution) -> tuple[np.ndarray, str]:
    """Hexagon of v_0's 6 neighbors in cycle order, and its figure type.

    Projection is along the vertex normal at v_0, the sum of the unit normals
    of the 6 fan faces (0, w_i, w_(i+1)); by screw symmetry every vertex has
    the same figure. When that sum degenerates (below 1e-9) the
    classification is reported indeterminate rather than guessed. The figure
    pass of classify over this one branch. Anything but a BranchSolution
    raises ParameterError.
    """
    check_type("solution", solution, BranchSolution)
    polygons, kinds = _figure_pass(*_batch([solution]))
    return polygons[0], kinds[0]


def classify(solutions: list[BranchSolution]) -> list[Classification]:
    """Full classification of each branch, in input order; the branches may be of any bands.

    Each branch is read once (_batch), then the branches are taken in input
    order in blocks of at most BLOCK_ROWS kept rows (3c - 2 a branch; a
    branch with more is a block of its own), which bounds the working set;
    the face pass and the figure pass each run once over a block. A branch
    gets the same result, to the bit, in any block. The 1149 branches of
    5..24 with compounds (62,295 kept rows) are one block, 23 predicate calls
    and 20,438 rows; 5..64 is split. classify([]) is []; anything but a list
    of BranchSolution raises ParameterError.
    """
    solutions = check_items("solutions", solutions, BranchSolution)
    rows = np.cumsum([0] + [3 * sol.band.n_strips - 2 for sol in solutions])  # kept rows before each branch
    out: list[Classification] = []
    while len(out) < len(solutions):
        lo = len(out)
        hi = max(lo + 1, int(np.searchsorted(rows, rows[lo] + BLOCK_ROWS, "right")) - 1)
        block = _batch(solutions[lo:hi])
        polygons, kinds = _figure_pass(*block)
        out += map(Classification, *_face_pass(*block), kinds, polygons)
    return out
