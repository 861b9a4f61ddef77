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
  pass. Every row of a branch has U_0 as its first triangle, so U_0's unit
  normal is computed once per branch, not once per row. The rows of many
  branches, of any bands, go through the triangle-triangle predicate
  together, scanned in stages so that a branch leaves at its first hit, in
  calls of at most ROW_BUDGET rows. That batched predicate is the only one,
  and triangles_properly_intersect is a batch of one.

* Vertex figure. The six neighbors of a vertex, in face-adjacency cycle order,
  form a closed hexagon. Projected along the vertex normal (the sum of the six
  incident unit face normals), the hexagon either is a simple circuit or
  crosses itself; that splits the branches into the two families. The
  hexagons of many branches are projected and tested as one stack.

classify takes branches of any bands, such as every branch of a catalog, and
runs both tests over them in blocks of ROW_BUDGET branches, two for the 1149
branches of 5..24 strips with compounds; classify([branch])[0] is the public
entry for one branch. classify_face_intersection and vertex_figure, the same
passes over a list of one branch, are this module's names only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .band_combinatorics import BandSpec, prototype_faces, vertex_neighbor_cycle
from .closure_solver import BranchSolution, _cross, _dot, _helix_rows, _helix_stack, _normals, _unit, _vertex_star
from .errors import ParameterError, check_int, check_real

__all__ = [
    "Classification",
    "classify",
    "classify_face_intersection",
    "vertex_figure",
    "triangles_properly_intersect",
]

MEASURE_TOL = 1e-9   # intersections thinner than this count as touching
_PLANE_EPS = 1e-12   # vertex-on-plane threshold, coordinates are O(1)
ROW_BUDGET = 1024    # most rows per predicate call and most branches per classify block; bounds the working set

FaceId = tuple[str, int]
Witness = tuple[FaceId, FaceId]

# hexagon sides (i, i+1) and (j, j+1), for the 9 pairs that share no corner
_SIDE_PAIRS = np.array([(i, i + 1, j, (j + 1) % 6) for i in range(4) for j in range(i + 2, 6) if j - i != 5])


@dataclass
class Classification:
    """intersecting + witness pair, and the vertex figure with its polygon."""

    intersecting: bool
    witness: Witness | None
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


def _plane(T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normal length and unit normal of each triangle of a (m, 3, 3) stack.

    A degenerate triangle has length 0 and a NaN unit normal; callers mask it.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        n = _normals(T)
        length = np.sqrt(_dot(n, n))
        return length, n / length[:, None]


def _intersect(T1: np.ndarray, T2: np.ndarray, shared: np.ndarray, plane1=None) -> np.ndarray:
    """Proper intersection of each triangle pair in two (m, 3, 3) stacks.

    Moeller's interval test in two array passes. The first runs over all m
    pairs and rejects rows sharing an edge, rows with a degenerate triangle
    and rows with one triangle strictly on one side of the other's plane.
    Coplanar survivors go through the 2D clip one by one. The second pass
    runs on the other survivors only: they intersect when the two triangles'
    intervals on the planes' common line overlap by more than MEASURE_TOL.
    plane1 is _plane(T1), given by a caller that has it already (the face
    pass computes U_0's once per branch); every step is row by row, so it is
    the same bits either way.
    """
    hit = np.zeros(len(T1), dtype=bool)
    n1n, n1 = _plane(T1) if plane1 is None else plane1
    n2n, n2 = _plane(T2)
    with np.errstate(divide="ignore", invalid="ignore"):  # rejected rows divide by zero
        live = (shared < 2) & (n1n != 0.0) & (n2n != 0.0)
        d2 = _dot(n1[:, None], T2 - T1[:, :1])
        d1 = _dot(n2[:, None], T1 - T2[:, :1])
        for d in (d2, d1):
            live &= ~(np.all(d > _PLANE_EPS, axis=1) | np.all(d < -_PLANE_EPS, axis=1))
        coplanar = live & np.all(np.abs(d2) <= _PLANE_EPS, axis=1)

        rows = np.flatnonzero(live & ~coplanar)
        axis = _unit(_cross(n1[rows], n2[rows]))
        lo1, hi1 = _interval(T1[rows], d1[rows], axis)
        lo2, hi2 = _interval(T2[rows], d2[rows], axis)
        hit[rows] = np.minimum(hi1, hi2) - np.maximum(lo1, lo2) > MEASURE_TOL
    for i in np.flatnonzero(coplanar):
        hit[i] = _coplanar_intersect(T1[i], T2[i], n1[i])
    return hit


def triangles_properly_intersect(t1: np.ndarray, t2: np.ndarray, shared: int = 0) -> bool:
    """True when two triangles share a region of positive length or area.

    shared is the number of combinatorially identified vertices. Two faces
    sharing an edge meet exactly in that edge and never properly intersect;
    faces sharing one vertex count only when the overlap extends beyond it.
    Contacts of measure below MEASURE_TOL are touching, not intersecting.
    Each triangle must be 3 x 3 finite reals (check_real) and shared an int
    in [0, 3]; anything else raises ParameterError.
    """
    T1, T2 = _triangle("t1", t1), _triangle("t2", t2)
    check_int("shared", shared, 0, 3)
    return bool(_intersect(T1, T2, np.array([shared]))[0])


def _triangle(name: str, t) -> np.ndarray:
    """t as a (1, 3, 3) float stack; ParameterError naming it unless it is 3 x 3 finite reals."""
    try:
        rows = np.asarray(t, dtype=object)
    except ValueError:
        rows = None
    if rows is None or rows.shape != (3, 3):
        raise ParameterError(f"{name} must be a triangle, 3 x 3 finite reals, got {t!r}")
    for i, row in enumerate(rows.tolist()):
        for j, v in enumerate(row):
            check_real(f"{name}[{i}][{j}]", v.item() if isinstance(v, np.generic) else v)
    return rows.astype(float)[None]


def _check_branch(func: str, solution) -> None:
    """ParameterError naming func unless solution is a BranchSolution."""
    if not isinstance(solution, BranchSolution):
        raise ParameterError(f"{func} takes BranchSolution branches, got {solution!r}")


def _batch(solutions: list[BranchSolution]) -> tuple[np.ndarray, list[BandSpec], np.ndarray]:
    """What the passes read of branches of any bands: each branch's
    (r, theta, h) row (_helix_rows), the bands among them, in order of first
    appearance, and each branch's index into that list."""
    seen: dict = {}
    band = np.array([seen.setdefault(sol.band, len(seen)) for sol in solutions], dtype=np.intp)
    return _helix_rows([sol.params for sol in solutions]), list(seen), band


def _kept_rows(bands: list[BandSpec]) -> tuple[np.ndarray, ...]:
    """U_0's kept row in each band, in one array pass: U_0's corners per band,
    then each kept face's corners, shared count and code, stacked band after
    band, and each band's row length.

    Corners are vertex indices. The kept faces are U_k for -c <= k <= -1 and
    D_k for -c <= k <= c, except D_0, D_-b and D_a, the three faces that
    share an edge with U_0 = (0, a, c); they are in scan order, U_k before
    D_k, k ascending, 3c - 2 of them. A kept face's shared count is how many
    of its corners are 0, a or c, and its code is 2k for U_k and 2k + 1 for
    D_k (_face_id).
    """
    shape = np.array([prototype_faces(band) for band in bands])
    a, b, c = shape[:, 0, 1], shape[:, 1, 2], shape[:, 0, 2]
    width = 4 * c + 2  # the window's faces, codes -2c to 2c + 1
    band = np.repeat(np.arange(len(bands)), width)
    code = np.arange(len(band)) - np.repeat(np.cumsum(width) - width + 2 * c, width)
    k, is_d = code // 2, code % 2
    keep = np.flatnonzero(np.where(is_d, (k != 0) & (k != -b[band]) & (k != a[band]), k < 0))
    band, k, is_d = band[keep], k[keep], is_d[keep]
    corners = shape[band, is_d] + k[:, None]
    shared = ((corners == 0) | (corners == a[band, None]) | (corners == c[band, None])).sum(axis=-1)
    return shape[:, 0], corners, shared, code[keep], np.bincount(band, minlength=len(bands))


def _face_id(code: int) -> FaceId:
    """The name of a face's code: 2k is U_k, 2k + 1 is D_k."""
    return "UD"[code % 2], code // 2


def _face_pass(helix: np.ndarray, bands: list[BandSpec], band: np.ndarray) -> list[tuple[bool, Witness | None]]:
    """Verdict and first witness pair of each branch, of any bands, in staged predicate calls.

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
    up to 10%, 20%, 40% and 100% of each row's length, and a branch leaves
    the scan at its first hit. Each stage runs across all branches, in
    predicate calls of at most ROW_BUDGET rows; once the rows left fit in
    one call, that stage scans them to their ends, so a small band is one
    call. Each call computes the corners of its own rows; U_0's unit
    normal and its length are computed once per branch and gathered for
    each row. A witness is the first hit in scan order whatever the stages,
    and every step works row by row, so a branch's result is the same bits
    in any batch.
    """
    u0, corners, shared, codes, sizes = _kept_rows(bands)
    length = sizes[band]
    start = (np.cumsum(sizes) - sizes)[band]  # each branch's kept row in the stacked tables
    proto = _helix_stack(helix, u0[band])
    length1, unit1 = _plane(proto)  # U_0's normal, once per branch

    first_hit = np.full(len(helix), -1)  # kept-row position of each branch's witness
    done = np.zeros(len(helix), dtype=np.intp)  # positions scanned so far
    live = np.arange(len(helix))
    for tenths in (1, 2, 4, 10):
        end = length[live]
        if (end - done[live]).sum() > ROW_BUDGET:
            end = -(-end * tenths // 10)  # rounded up
        count = end - done[live]
        owner = np.repeat(live, count)
        pos = np.arange(count.sum()) + np.repeat(done[live] - (np.cumsum(count) - count), count)
        at = start[owner] + pos
        hits = np.zeros(len(at), dtype=bool)
        for i in range(0, len(at), ROW_BUDGET):
            o, r = owner[i:i + ROW_BUDGET], at[i:i + ROW_BUDGET]
            T2 = _helix_stack(helix[o], corners[r])
            hits[i:i + ROW_BUDGET] = _intersect(proto[o], T2, shared[r], (length1[o], unit1[o]))
        hit_rows = np.flatnonzero(hits)
        hit_owner = owner[hit_rows]  # each branch's rows are together, in scan order
        first = np.ones(len(hit_owner), dtype=bool)
        first[1:] = hit_owner[1:] != hit_owner[:-1]
        first_hit[hit_owner[first]] = pos[hit_rows[first]]
        done[live] = end
        live = live[(first_hit[live] < 0) & (end < length[live])]
        if not live.size:
            break
    witness = codes[start + first_hit].tolist()  # read only where first_hit >= 0
    return [
        (False, None) if hit < 0 else (True, (("U", 0), _face_id(code)))
        for code, hit in zip(witness, first_hit.tolist())
    ]


def classify_face_intersection(solution: BranchSolution) -> tuple[bool, Witness | None]:
    """Decide self-intersection; returns the first witness pair found.

    The face pass of classify over this one branch; U_0 is exhaustive by
    screw symmetry. Anything but a BranchSolution raises ParameterError.
    """
    _check_branch("classify_face_intersection", solution)
    return _face_pass(*_batch([solution]))[0]


def _figure_kind(polygon2d: np.ndarray) -> np.ndarray:
    """simple or crossed for each hexagon of a (..., 6, 2) stack.

    A hexagon is crossed when two of its non-adjacent sides properly cross.
    """
    p1, p2, q1, q2 = np.moveaxis(polygon2d[..., _SIDE_PAIRS, :], -2, 0)
    cross = lambda u, v: u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
    d1 = cross(q2 - q1, p1 - q1)
    d2 = cross(q2 - q1, p2 - q1)
    d3 = cross(p2 - p1, q1 - p1)
    d4 = cross(p2 - p1, q2 - p1)
    return np.where(np.any((d1 * d2 < 0.0) & (d3 * d4 < 0.0), axis=-1), "crossed", "simple")


def _figure_pass(helix: np.ndarray, bands: list[BandSpec], band: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Neighbor hexagons, (branches, 6, 3), and figure kinds of branches of any bands.

    The branches come as _batch gives them. Each hexagon is projected along
    its own vertex normal, the sum of its fan (_vertex_star); a branch whose
    normal sum degenerates (below 1e-9, or NaN from a zero-area fan face) is
    indeterminate and is left out of the projection rather than guessed.
    One _vertex_star call gives every branch's star, each at its own band's
    neighbour cycle, and every step after it works row by row.
    """
    with np.errstate(invalid="ignore"):  # a zero-area fan face gives a NaN sum
        pts, fan = _vertex_star(helix, np.array([[0, *vertex_neighbor_cycle(b)] for b in bands])[band])
    center, polygon = pts[:, :1], pts[:, 1:]
    axis = fan.sum(axis=1)
    norm = np.sqrt(_dot(axis, axis))
    kinds = np.full(len(helix), "indeterminate")
    ok = norm >= 1e-9
    axis = axis[ok] / norm[ok, None]

    seed = np.where(np.abs(axis[:, :1]) > 0.9, [0.0, 1.0, 0.0], [1.0, 0.0, 0.0])
    e1 = _unit(_cross(axis, seed))
    e2 = _cross(axis, e1)
    rel = (polygon - center)[ok]
    flat = np.stack([(rel @ e1[..., None])[..., 0], (rel @ e2[..., None])[..., 0]], axis=-1)
    kinds[ok] = _figure_kind(flat)
    return polygon, kinds.tolist()


def vertex_figure(solution: BranchSolution) -> tuple[np.ndarray, str]:
    """Hexagon of v_0's 6 neighbors in cycle order, and its figure type.

    Projection is along the vertex normal at v_0, the sum of the unit normals
    of the 6 fan faces (0, w_i, w_(i+1)); by screw symmetry every vertex has
    the same figure. When that sum degenerates (below 1e-9) the
    classification is reported indeterminate rather than guessed. The figure
    pass of classify over this one branch. Anything but a BranchSolution
    raises ParameterError.
    """
    _check_branch("vertex_figure", solution)
    polygons, kinds = _figure_pass(*_batch([solution]))
    return polygons[0], kinds[0]


def classify(solutions: list[BranchSolution]) -> list[Classification]:
    """Full classification of each branch, in input order; the branches may be of any bands.

    The branches are taken in input order, in blocks of ROW_BUDGET, which
    bounds the working set (a stage's row indices grow with the block); each
    block is grouped by band (_batch), and the face pass and the figure pass
    each run once over it. A branch gets the same result, to the bit, in any
    block. On the paper's range, kept rows of at most 70 faces, each stage of
    a block is a handful of predicate calls: 25 calls and 23,210 rows for the
    1149 branches of 5..24 with compounds, in two blocks. classify([]) is [];
    anything but a list of BranchSolution raises ParameterError.
    """
    if isinstance(solutions, BranchSolution):
        raise ParameterError("classify takes a list of branches; pass [solution]")
    try:
        solutions = list(solutions)
    except TypeError:
        raise ParameterError(f"classify takes a list of branches, got {solutions!r}") from None
    for sol in solutions:
        _check_branch("classify", sol)
    out: list[Classification] = []
    for lo in range(0, len(solutions), ROW_BUDGET):
        block = _batch(solutions[lo:lo + ROW_BUDGET])
        polygons, kinds = _figure_pass(*block)
        out += map(Classification, *zip(*_face_pass(*block)), kinds, polygons)
    return out
