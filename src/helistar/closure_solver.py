"""Closure solver: all screw realizations of a band with unit edges.

Geometric model. Place vertex k at

    v_k = (r cos k*theta, r sin k*theta, k*h)

for all integers k: one orbit of the screw motion (rotate theta, rise h) on a
cylinder of radius r. The squared chord between indices d apart is

    chord^2(d) = A (1 - cos d*theta) + B d^2,   A = 2 r^2,  B = h^2.

All faces are equilateral with unit edges exactly when chord(a) = chord(b) =
chord(c) = 1. For fixed theta these are three linear equations in (A, B) with
right-hand side 1; they are simultaneously solvable only where

    D(theta) = det [ 1 - cos a*theta  a^2  1 ]
                   [ 1 - cos b*theta  b^2  1 ]
                   [ 1 - cos c*theta  c^2  1 ]

vanishes. Every admissible root theta* in (0, pi) with A > 0 and B > 0 is one
polyhedron; sharpening the folds moves from one root to the next. theta and
2*pi - theta give mirror images, so (0, pi) covers one enantiomorph of each.

Cofactor expansion down the last column gives the form actually evaluated,

    D(theta) = (c^2 - b^2) cos a*theta + (a^2 - c^2) cos b*theta
             + (b^2 - a^2) cos c*theta,

which the tests pin against the literal 3x3 determinant. For a = b it cancels
identically (those bands have no isolated roots).

For a band of g = gcd(a, b) components, (a, b, c) = g (a', b', c') and
D(theta) = g^2 D'(g theta), D' the component's, whose a' < b' are coprime
(a = b gives a' = b' = 1). D' changes sign at every theta_k = pi k/b'. There
cos b'theta = (-1)^k and cos c'theta = (-1)^k cos a'theta, so the three terms
collapse: for even k, D'(theta_k) = (c'^2 - a'^2)(cos(pi a'k/b') - 1) < 0
when 0 < k < b', since b' does not divide a'k; for odd k, D'(theta_k) =
(c'^2 + a'^2 - 2b'^2) cos a'theta_k + (c'^2 - a'^2) >= 2 min(b'^2 - a'^2,
c'^2 - b'^2) > 0; and D'(pi) has the sign opposite to D'(theta_(b'-1)). So
each bracket (pi k/b', pi (k+1)/b'), k = 1..b'-1, holds a root (J. P. Boyd,
"Solving Transcendental Equations", SIAM 2014, on bracketing trigonometric
polynomials). That there is exactly one in each, and none in (0, pi/b'), is
measured, not proved: the colleague matrix of D' as a Chebyshev series in
cos theta (I. J. Good, Q. J. Math. 1961) counts b' - 1 roots in (0, pi) for
every band the tests try, and a bracket whose samples show any other count of
sign changes raises RuntimeError. The end values are far from rounding, |D'|
>= 2c' at odd k, so their float signs are certain. Each component root lifts
to g roots of D; the quadruple roots of a compound band at theta = 2 pi k/g
lift from theta' = 0, which no bracket holds, so they are never bracketed.

Each root is then snapped to the grid np.linspace(THETA_MIN, THETA_MAX,
GRID_POINTS), a constant: its cell is the pair of adjacent grid points, next
to it, where the computed D changes sign, or the grid point where it is
exactly 0. The grid is never scanned. solve_band takes one band or a list of
them. The brackets of all bands are sampled, polished and snapped in one array
pass; then the cells of all bands are bisected together, each lane with its
band's (a, b, c), and one acceptance pass over every root drops, in this
order, a root whose a/b system is singular, whose A or B is too small, whose
residual is too large, or, from one vertex star of all survivors, whose
dihedral is too near pi. Every step works lane by lane or row by row, so
a band's branches are the same bits alone as in any batch. A branch holds its
band, params and number, and the rest is derived from them; the acceptance
pass hands each kept branch the residual and dihedrals it computed. One
routine, _helix_lanes, computes every helix vertex as x, y and z lanes, for
helix_points ((len, 3) rows), the vertex star and analysis's face predicate,
and one kernel on such lanes, _dot, _cross and _unit, takes every dot and
cross product of the package without a BLAS call, so no pinned bit depends
on the CPU's BLAS kernel.

That makes a band's branches a function of the band alone, and every field
they are made of is frozen, so solve_band remembers them, keyed by the band: a
call solves only the bands it does not find held, in one pass as above, and a
repeated solve is a lookup. The least recently used bands are dropped once
more than SOLVED_BRANCHES branches are held.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .band_combinatorics import BandSpec, vertex_neighbor_cycle
from .errors import check_array, check_int, check_items, check_real, check_type

__all__ = [
    "HelixParams",
    "BranchSolution",
    "chord",
    "helix_points",
    "closure_determinant",
    "solve_band",
    "winding_estimate",
]

# Theta window and acceptance thresholds: part of the definition of a branch,
# not settings.
THETA_MIN = 1e-3
THETA_MAX = math.pi - 1e-3
BISECTION_TOL = 1e-13
BISECTION_RTOL = 4.0 * np.finfo(float).eps  # scipy.optimize.bisect's default rtol
RESIDUAL_TOL = 1e-9     # max |chord - 1| over the three edge classes
MIN_A = 1e-9            # A = 2 r^2; smaller is a flat degeneration
MIN_B = 1e-9            # B = h^2; smaller is an axis-collapsed degeneration
COPLANAR_GAP = 1e-6     # min |dihedral - pi| per edge class, radians
# Points of the theta grid np.linspace(THETA_MIN, THETA_MAX, GRID_POINTS) whose
# cells start each root's bisection, so it sets a branch's last bits
GRID_POINTS = 200_000

# Fan face i at vertex k, (k, k + w_i, k + w_(i+1)) with w the neighbour cycle,
# as rows of helix_points over [k, *(k + w)]
_FAN = np.array([(0, i + 1, (i + 1) % 6 + 1) for i in range(6)])
# A 3-vector's components rotated by one and by two places (_cross); a 6-cycle's successors
_ROT, _NEXT = np.array([[1, 2, 0], [2, 0, 1]]), _FAN[:, 2] - 1

# Points at which D is sampled in each analytic bracket, ends included, and
# Newton steps from the sub-cell that holds the sign change: algorithm
# constants, not settings
SUBGRID = 65
NEWTON_STEPS = 2
_SUBCELLS = np.linspace(0.0, 1.0, SUBGRID)
# Most brackets sampled at once: bounds the working set, about 10 MB
BRACKET_BUDGET = 2048
_NEIGHBOURS = np.arange(-1, 2)

# Most branches remembered, a band without branches counting as one: bounds
# the memo at about 4.3 MB (530 B a branch, its residual and dihedrals held), well above a 5..24 census (1149)
SOLVED_BRANCHES = 8192
# band -> its branches, least recently used first
_SOLVED: dict[BandSpec, tuple[BranchSolution, ...]] = {}


@dataclass(frozen=True)
class HelixParams:
    """One screw realization: radius r, twist theta, rise h; each a finite real of any sign (check_real)."""

    r: float
    theta: float
    h: float

    def __post_init__(self) -> None:
        for name in ("r", "theta", "h"):
            check_real(name, getattr(self, name))


@dataclass(frozen=True)
class BranchSolution:
    """One root of the closure equations of a band: the band, the root's params and its number.

    Those are the only fields, so equality, hashing and dataclasses.replace
    see only them, and no branch disagrees with its root: offsets, winding_m
    (winding_estimate), residual (_residual) and dihedrals (_interior_dihedrals)
    are derived from band and params, the last three once, on first read. A
    branch from the solver (_solved) arrives with the residual and dihedrals
    its acceptance pass computed, the same bits; a branch built or replaced
    by hand computes its own.
    """

    band: BandSpec
    params: HelixParams
    branch_index: int

    def __post_init__(self) -> None:
        check_type("band", self.band, BandSpec)
        check_type("params", self.params, HelixParams)
        check_int("branch_index", self.branch_index, 1)

    @classmethod
    def _solved(cls, band: BandSpec, params: HelixParams, branch_index: int, residual: float,
                dihedrals: tuple[float, float, float]) -> BranchSolution:
        """A branch whose residual and dihedrals are the values given, as they would be read."""
        self = cls(band, params, branch_index)
        self.__dict__.update(residual=residual, dihedrals=dihedrals)
        return self

    @property
    def offsets(self) -> tuple[int, int, int]:
        return self.band.offsets

    @cached_property
    def winding_m(self) -> int:
        return winding_estimate(self.band, self.params)

    @cached_property
    def residual(self) -> float:
        return _residual(self.band, self.params)

    @cached_property
    def dihedrals(self) -> tuple[float, float, float]:
        """Interior a, b, c dihedrals, in (0, 2pi); one edge per class speaks for all by screw
        symmetry. Above pi is a reflex fold, as on star branches and on the tetrahelix's
        class-a edges (three tetrahedra stack around each)."""
        (angles,) = _interior_dihedrals([self.band], [self.params])
        return angles


def helix_points(params: HelixParams, ks) -> np.ndarray:
    """Vertex positions v_k, a C-contiguous (len, 3) array, for an int k or a 1-D sequence of ints
    (check_array: True, 2.0, "2" or a 2-D array raises ParameterError)."""
    ks = check_array("ks", [ks] if isinstance(ks, (int, np.integer)) else ks, "iu", (None,))
    return np.ascontiguousarray(_helix_lanes((params.r, params.theta, params.h), ks.astype(float)).T)


def _helix_rows(params: list[HelixParams]) -> np.ndarray:
    """(r, theta, h) of each realization, shape (len(params), 3)."""
    return np.array([(p.r, p.theta, p.h) for p in params], dtype=float)


def _helix_lanes(helix, ks: np.ndarray) -> np.ndarray:
    """x, y and z lanes, (3, *ks.shape), of vertices ks of the realizations helix = (r, theta, h),
    each broadcast against ks. Every entry is one elementwise product, cosine or sine, so a
    vertex is the same bits in any stack and any layout."""
    r, theta, h = helix
    t = ks * theta
    return np.concatenate([r * np.cos(t), r * np.sin(t), ks * h]).reshape(3, *t.shape)


def chord(params: HelixParams, d: int) -> float:
    """Distance |v_{k+d} - v_k|; independent of k and of the sign of d."""
    x = 2.0 * params.r * params.r * (1.0 - math.cos(d * params.theta))
    return math.sqrt(x + d * d * params.h * params.h)


def _residual(band: BandSpec, params: HelixParams) -> float:
    """max |chord(d) - 1| over the band's offsets d = a, b, c: at most RESIDUAL_TOL for a kept root."""
    return max(abs(chord(params, d) - 1.0) for d in band.offsets)


def closure_determinant(band: BandSpec, theta):
    """D(theta) of a band, a float or an array as theta is, each entry a finite real (check_array)."""
    return _determinant(*band.offsets, check_array("theta", theta, "iuf"))


def _determinant(a, b, c, theta):
    """D(theta) for offsets a, b, c given as ints, or as arrays of one lane per theta."""
    theta = np.asarray(theta, dtype=float)
    aa, bb, cc = a * a, b * b, c * c
    out = (cc - bb) * np.cos(a * theta) + (aa - cc) * np.cos(b * theta) + (bb - aa) * np.cos(c * theta)
    return out if out.ndim else float(out)


def winding_estimate(band: BandSpec, params: HelixParams) -> int:
    """round(n*s*theta / 2pi): axis windings per circuit of the n strips.

    m = 1 labels the plain helical deltahedron, m >= 2 the star-style twists.
    """
    return _winding(band.n_strips, band.shift, params.theta)


def _winding(n: int, s: int, theta: float) -> int:
    """winding_estimate of the band (n, s) at twist theta, from the plain numbers."""
    return round(n * s * theta / (2.0 * math.pi))


def _solve_AB(band: BandSpec, theta: float) -> tuple[float, float] | None:
    """(A, B) from the a/b chord equations, or None where they are singular.

    Singular means (1 - cos a*theta) : a^2 = (1 - cos b*theta) : b^2 to 1e-12.
    With u, v the a and b equations' residuals, b^2 u - a^2 v = A det - (b^2 - a^2)
    and b^2 - a^2 >= 3, so there both hold within RESIDUAL_TOL only for A near
    (b^2 - a^2) / |det| >= 1.5e12 / b^2: no branch. The system is singular at
    theta = 2 pi k / g, g the component count, which no root reaches: no
    bracket holds the quadruple roots there.
    """
    a, b, _ = band.offsets
    xa = 1.0 - math.cos(a * theta)
    xb = 1.0 - math.cos(b * theta)
    det = xa * b * b - xb * a * a
    if abs(det) <= 1e-12 * max(1.0, abs(xa) * b * b, abs(xb) * a * a):
        return None
    return (b * b - a * a) / det, (xa - xb) / det


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Cross product of broadcastable x, y, z lanes (3, ...), component by component: u_(i+1) v_(i+2) - u_(i+2) v_(i+1)."""
    u, v = u.take(_ROT, axis=0), v.take(_ROT, axis=0)
    return u[0] * v[1] - u[1] * v[0]


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(x*x' + y*y') + z*z' of broadcastable x, y, z lanes (3, ...), entry by entry.

    Every entry is three products and two sums in that order, so it is the
    same bits in any stack, layout or gather, and on any CPU: no BLAS kernel
    picks how it adds.
    """
    p = u * v
    return p[0] + p[1] + p[2]


def _unit(v: np.ndarray) -> np.ndarray:
    """x, y, z lanes (3, ...) of v scaled to unit length."""
    return v / np.sqrt(_dot(v, v))


def _vertex_star(helix: np.ndarray, stars) -> tuple[np.ndarray, np.ndarray]:
    """Vertex 0's star in each row of helix (_helix_rows), stars holding each row's [0, *w],
    w its neighbour cycle, as x, y, z lanes: v_0 and v_(w_i) in cycle order, (3, rows, 7), and the
    unit normals of the fan faces (0, w_i, w_(i+1)), (3, rows, 6), _cross of its edges from v_0. A
    zero-area fan face gives a NaN normal, and numpy's warning unless the caller silences it. Rows are independent."""
    star = _helix_lanes(helix.T[..., None], stars)
    spokes = star[..., 1:] - star[..., :1]
    return star, _unit(_cross(spokes, spokes.take(_NEXT, axis=-1)))


def _interior_dihedrals(bands: list[BandSpec], params: list[HelixParams]) -> list[tuple[float, float, float]]:
    """Interior a, b, c dihedrals of each realization, through the solid, in (0, 2pi).

    The class-a, -b and -c edges are (0, w_j) for j = 5, 1, 0, w the neighbour
    cycle; each lies in fan faces j-1 and j, with third vertices w_(j-1) and
    w_(j+1). u1, u2 are those faces' in-plane perpendiculars to the edge. The
    angle between them is the dihedral; it is reflex when u1 pokes to the
    outside of face j (positive against its fan normal). bands holds each
    realization's band; one _vertex_star call serves every realization, of
    any bands, and every class, and each step works row by row, so a
    realization's angles are the same bits in a stack as alone.
    """
    pts, fan = _vertex_star(_helix_rows(params), [[0, *vertex_neighbor_cycle(band)] for band in bands])
    j = np.array([5, 1, 0])
    before, after = _FAN[j - 1], _FAN[j]
    origin = pts[..., :1]
    e = _unit(pts[..., after[:, 1]] - origin)[..., None, :]
    w = pts[..., np.stack([before[:, 1], after[:, 2]])] - origin[..., None]
    u = _unit(w - _dot(w, e) * e)
    cosines = np.clip(_dot(u[..., 0, :], u[..., 1, :]), -1.0, 1.0).tolist()
    outside = (_dot(u[..., 0, :], fan[..., j]) > 0.0).tolist()
    # math.acos, not np.arccos: the two differ in the last bit, and these
    # angles are printed in net and module sheets
    return [
        tuple(2.0 * math.pi - math.acos(x) if out else math.acos(x) for x, out in zip(xs, outs))
        for xs, outs in zip(cosines, outside)
    ]


def _bisect(abc: np.ndarray, lo: np.ndarray, width: np.ndarray, flo: np.ndarray) -> np.ndarray:
    """Bisect every bracket [lo, lo + width] at once, one lane per bracket.

    abc is a (3, lanes) array: column i holds the offsets a, b, c of the band
    whose D lane i bisects, so brackets of many bands share one loop. Whole
    numbers held as floats give D the same bits as ints, without a cast in
    every step.
    flo is D(lo), nonzero and of opposite sign to D(lo + width). Each lane
    takes scipy.optimize.bisect's steps exactly: halve the width, evaluate D
    at mid = lo + width, move lo to mid when D(mid) * flo >= 0, and stop at
    mid once D(mid) == 0 or |width| < BISECTION_TOL + BISECTION_RTOL * |mid|.
    """
    roots = np.empty_like(lo)
    lanes = np.arange(lo.size)
    while lanes.size:
        width = width * 0.5
        mid = lo + width
        fmid = _determinant(*abc, mid)
        lo = np.where(fmid * flo >= 0.0, mid, lo)
        done = (fmid == 0.0) | (np.abs(width) < BISECTION_TOL + BISECTION_RTOL * np.abs(mid))
        if done.any():
            roots[lanes[done]] = mid[done]
            live = ~done
            lanes, lo, width, flo, abc = lanes[live], lo[live], width[live], flo[live], abc[:, live]
    return roots


def _grid_point(idx: np.ndarray, points: int) -> np.ndarray:
    """Points idx of np.linspace(THETA_MIN, THETA_MAX, points), bit for bit.

    linspace computes point i as i * step + THETA_MIN and sets the last one
    to THETA_MAX.
    """
    step = (THETA_MAX - THETA_MIN) / (points - 1)
    return np.where(idx == points - 1, THETA_MAX, idx * step + THETA_MIN)


def _component_roots(bands: list[BandSpec], lane: np.ndarray, k: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """The root theta' of D' in each lane's bracket (pi k/b', pi (k+1)/b'), as _brackets finds it.

    lane indexes bands. terms is (6, lanes): each lane's a', b', c', then
    the weights of D' = sum of weight * cos((a', b', c') theta).
    """
    comp, weight = terms[:3], terms[3:]
    a, b, c = comp[..., None]
    sub = (k[:, None] + _SUBCELLS) * (math.pi / b)
    f = _determinant(a, b, c, sub)
    positive = f > 0.0
    change = positive[:, 1:] != positive[:, :-1]
    changes = change.sum(axis=1)
    wrong = changes != 1
    if wrong.any():
        i = wrong.argmax()
        raise RuntimeError(
            f"{bands[lane[i]]}: {changes[i]} sign changes of its component's D "
            f"in (pi {k[i]}/{b[i, 0]:.0f}, pi {k[i] + 1}/{b[i, 0]:.0f}), expected 1"
        )
    cell = change.argmax(axis=1) + np.arange(0, f.size, SUBGRID)
    sub, f = sub.ravel(), f.ravel()
    lo, hi, flo, fhi = sub[cell], sub[cell + 1], f[cell], f[cell + 1]
    theta = lo + (hi - lo) * (flo / (flo - fhi))
    slope = weight * comp
    for _ in range(NEWTON_STEPS):
        at = comp * theta
        theta = theta + (weight * np.cos(at)).sum(axis=0) / (slope * np.sin(at)).sum(axis=0)
    lost = ~((lo <= theta) & (theta <= hi))
    if lost.any():
        i = lost.argmax()
        raise RuntimeError(f"{bands[lane[i]]}: Newton left the sub-cell [{lo[i]!r}, {hi[i]!r}] for {theta[i]!r}")
    return theta


def _brackets(bands: list[BandSpec], points: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(band, cell, zero) of every root of every band's D, by band, then theta.

    band indexes bands; cell is the grid index of the root's flip, or of
    its grid point where zero is set. Each band's component (a', b', c') =
    (a, b, c) / g, g = band.components, has one root in each bracket (pi k/b', pi (k+1)/b'),
    k = 1..b'-1 (module docstring). All brackets of all bands are sampled at
    once, at SUBGRID points each; the one sub-cell where D' changes sign
    starts NEWTON_STEPS Newton steps, from the chord between its ends, to the
    polished root theta'. A bracket with any other count of sign changes, or
    a polished root outside its sub-cell, raises RuntimeError: a root is
    never dropped silently. Each theta' lifts to the g thetas of the band
    with g theta = 2 pi ceil(j/2) + (-1)^j theta', j = 0..g-1, kept in
    [THETA_MIN, THETA_MAX]. Each is taken to its nearest grid point j, and
    its cell is the grid index i among j - 1 and j with F(i) * F(i + 1) < 0,
    or, where zero is set, the grid point j with F(j) == 0, F the computed D
    at a grid point; where neither is there, RuntimeError. A band with a = b
    has b' = 1 and no brackets: its D vanishes identically, and it flexes
    through a continuum.

    points is GRID_POINTS but in tests. Every band with n <= 64 snaps its
    roots to cells up to 10**14 points; at 10**15 some cells fall below D's
    rounding noise, and 7 of those bands find no sign change next to a root.
    """
    table, count = [], []  # per band: a', b', c', the weights of D', g, a, b, c; its bracket count
    for band in bands:
        g = band.components
        a, b, c = (d // g for d in band.offsets)
        table.append((a, b, c, c * c - b * b, a * a - c * c, b * b - a * a, g, *band.offsets))
        count.append(b - 1)
    table = np.array(table, dtype=float)
    lane = np.repeat(np.arange(len(bands)), count)
    k = np.arange(1, lane.size + 1) - np.repeat(np.cumsum(count) - count, count)
    per_lane = table[lane].T
    blocks = [slice(i, i + BRACKET_BUDGET) for i in range(0, lane.size, BRACKET_BUDGET)]
    roots = [_component_roots(bands, lane[at], k[at], per_lane[:6, at]) for at in blocks]
    theta = np.concatenate([np.empty(0), *roots])  # the empty block serves bands without brackets
    g = per_lane[6]  # g theta = 2 pi ceil(j/2) + (-1)^j theta', j = 0..g-1; theta = theta' where g = 1
    lifts = g.astype(np.intp)
    j = np.arange(lifts.sum()) - np.repeat(np.cumsum(lifts) - lifts, lifts)
    lane, theta, g = np.repeat(lane, lifts), np.repeat(theta, lifts), np.repeat(g, lifts)
    theta = ((j + 1) // 2 * (2.0 * math.pi) + (-1.0) ** j * theta) / g
    order = np.lexsort((theta, lane))
    lane, theta = lane[order], theta[order]
    inside = (theta >= THETA_MIN) & (theta <= THETA_MAX)
    band, theta = lane[inside], theta[inside]
    step = (THETA_MAX - THETA_MIN) / (points - 1)
    j = np.minimum(np.maximum(np.rint((theta - THETA_MIN) / step).astype(np.intp), 1), points - 2)
    a, b, c = table[band, 7:].T[..., None]
    f = _determinant(a, b, c, _grid_point(j[:, None] + _NEIGHBOURS, points))
    zero = f[:, 1] == 0.0
    flip = f[:, :2] * f[:, 1:] < 0.0  # left and right of j
    missed = ~(zero | flip[:, 0] | flip[:, 1])
    if missed.any():
        i = band[missed.argmax()]
        raise RuntimeError(f"{bands[i]}: no sign change next to the roots {theta[missed & (band == i)]}")
    return band, j - flip[:, 0], zero


def solve_band(bands: BandSpec | Sequence[BandSpec]) -> list[BranchSolution] | list[list[BranchSolution]]:
    """All admissible roots of a band's D on [THETA_MIN, THETA_MAX], theta ascending.

    bands is one BandSpec, which gives that band's branches, or a sequence of
    them, which gives one list of branches per band in input order (solve_band([])
    is []); an element that is not a BandSpec raises ParameterError. One band
    is solved as a batch of one, so it gets the same branches, to the bit,
    as in any batch.

    The branches of each band are remembered, so a repeated solve is
    a lookup: a call solves only the bands not held, each once even if the
    call repeats it, and returns a new list per band of the shared frozen
    branches, which the caller may change freely. The least recently used
    bands are dropped once more than SOLVED_BRANCHES branches are held (a
    band without branches counts as one); a call that raises stores nothing.

    Each band's roots are located in its component's analytic brackets,
    polished by Newton's method and snapped to the grid of GRID_POINTS
    points, all bands in one pass (_brackets), so each root is one sign change
    of the computed D between adjacent grid points, or one grid point where it
    is exactly 0. The sign changes of all bands are bisected together in one
    loop (_bisect), each lane step for step as scipy.optimize.bisect bisects
    it alone. No root needs merging: a zero at grid point j excludes a flip at
    j-1 and j, and each bisected root lies inside its own cell. One acceptance
    pass over the roots of all bands (_solve_fresh) drops a root, tested in
    this order, when the a/b system of _solve_AB is singular, when A < MIN_A
    or B < MIN_B (flat or axis-collapsed), when _residual exceeds
    RESIDUAL_TOL, or when a dihedral, from one stack for this test only, is
    within COPLANAR_GAP of pi; each kept branch is handed the residual and
    dihedrals this pass computed for it. A kept root's faces
    have sides within RESIDUAL_TOL of 1, so none has zero area. An empty
    result is an answer, not an error.

    Measured on every band with n <= 40, not proven: a connected band keeps
    floor((2n - s - 1)/3) branches, and a compound band g times as many as its
    component (n/g, s/g). The grid can change which borderline roots are kept;
    at GRID_POINTS, (61,30), (63,31), (77,38) and (79,39) each keep one branch
    fewer than the rule. No band raises, but 362 of the 5133 connected bands
    with 81 <= n <= 200 keep fewer, and (1000, 499) keeps 116 of 500: the
    bisected theta's error, amplified in the c-chord residual, drops them
    (ROADMAP item 1).
    """
    if isinstance(bands, BandSpec):
        return _solve_bands([bands])[0]
    return _solve_bands(check_items("bands", bands, BandSpec))


def _solve_bands(bands: list[BandSpec]) -> list[list[BranchSolution]]:
    """A new list of each band's branches: the ones held, and one fresh pass over the rest.

    Every band solved or found here becomes the most recently used, and the
    least recently used are dropped until at most SOLVED_BRANCHES are held;
    a call that raises stores nothing. Eviction tolerates a key gone
    already, so concurrent callers can at worst solve a band twice.
    """
    found = {band: _SOLVED.get(band) for band in dict.fromkeys(bands)}
    fresh = [band for band, branches in found.items() if branches is None]
    found.update(zip(fresh, map(tuple, _solve_fresh(fresh))))
    for band, branches in found.items():
        _SOLVED.pop(band, None)
        _SOLVED[band] = branches
    weights = [(band, len(branches) or 1) for band, branches in list(_SOLVED.items())]
    excess = sum(weight for _, weight in weights) - SOLVED_BRANCHES
    for band, weight in weights:
        if excess <= 0:
            break
        _SOLVED.pop(band, None)
        excess -= weight
    return [list(found[band]) for band in bands]


def _solve_fresh(bands: list[BandSpec], points: int = GRID_POINTS) -> list[list[BranchSolution]]:
    """The branches of each band: one bracket pass, one bisection and one acceptance pass for all.

    It takes the roots by band, then theta (_brackets' order), tests singular,
    A, B, residual, then coplanar (solve_band), and numbers kept roots from 1.
    points is the grid, GRID_POINTS but in tests.
    """
    if not bands:
        return []
    owner, cell, zero = _brackets(bands, points)
    abc = np.array([band.offsets for band in bands], dtype=float)[owner].T
    roots = _grid_point(cell, points)
    flip = ~zero
    abc, lo = abc[:, flip], roots[flip]
    width = _grid_point(cell[flip] + 1, points) - lo
    roots[flip] = _bisect(abc, lo, width, _determinant(*abc, lo))
    found: list[tuple[int, HelixParams, float]] = []  # (band index, params, residual) of each survivor
    for i, theta in zip(owner.tolist(), roots.tolist()):
        AB = _solve_AB(bands[i], theta)
        if AB is None or AB[0] < MIN_A or AB[1] < MIN_B:
            continue
        params = HelixParams(r=math.sqrt(AB[0] / 2.0), theta=theta, h=math.sqrt(AB[1]))
        residual = _residual(bands[i], params)
        if residual <= RESIDUAL_TOL:
            found.append((i, params, residual))
    angles = _interior_dihedrals([bands[i] for i, _, _ in found], [p for _, p, _ in found]) if found else []
    branches: list[list[BranchSolution]] = [[] for _ in bands]
    for (i, params, residual), dihedrals in zip(found, angles):
        if min(abs(v - math.pi) for v in dihedrals) > COPLANAR_GAP:
            branches[i].append(BranchSolution._solved(bands[i], params, len(branches[i]) + 1, residual, dihedrals))
    return branches
