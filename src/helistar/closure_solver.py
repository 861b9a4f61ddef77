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

Roots are bracketed on the grid np.linspace(THETA_MIN, THETA_MAX, N): a
bracket is a pair of adjacent grid points where the computed D changes sign,
and a grid point where it is exactly 0 is a root. The grid is never scanned.
With x = cos theta, cos k*theta is the Chebyshev polynomial T_k(x), so D is
an integer Chebyshev series of degree c with a double root at x = 1. For a
band of g = gcd(a, b) components, (a, b, c) = g (a', b', c') and
D(theta) = g^2 D'(g theta), D' the component's. The roots of D' / (x - 1)^2
are the eigenvalues of its colleague matrix (I. J. Good, "The colleague
matrix, a Chebyshev analogue of the companion matrix", Q. J. Math. 1961);
exactly b' - 1 of them are real and inside (-1, 1), a count the solver
checks. Each lifts to the g thetas in (0, pi) with cos(g theta) = x, and each
theta picks out its bracket or zero among the grid points nearest it. The
double root x = 1 is divided out, so the quadruple roots of a compound band
at theta = 2 pi k / g are never bracketed.

solve_band takes one band or a list of them. Each band's brackets are found
on their own; then the brackets of all bands are bisected together, each
lane with its band's (a, b, c), and the surviving roots of all bands get
their coplanarity dihedrals from one stack of helix points. The colleague
roots are accurate to about 5e-14, so they predict nearly every step of the
bisection: a call of at most GUIDED_LANES lanes evaluates D once, at every
midpoint of the predicted paths, and only a lane whose computed sign
disagrees with its prediction goes on step by step. Either way every
midpoint and every decision is the one of the step-by-step loop, so the
route sets the time, not the bits. Every step works lane by lane or row by
row, so a band's branches are the same bits alone as in any batch.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.chebyshev import chebdiv, chebfromroots, chebroots

from .band_combinatorics import BandSpec, OffsetTriple, offsets_from_band, vertex_neighbor_cycle
from .errors import ParameterError, check_int

__all__ = [
    "HelixParams",
    "BranchSolution",
    "SolverOptions",
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
# Finer grid cells fall below the rounding noise of D: at 10**12 points some
# root's cell shows no sign change on 12 bands with n <= 64, at 10**11 on none.
MAX_GRID_POINTS = 10**11

# Fan face i at vertex k, (k, k + w_i, k + w_(i+1)) with w the neighbour cycle,
# as rows of helix_points over [k, *(k + w)]
_FAN = np.array([(0, i + 1, (i + 1) % 6 + 1) for i in range(6)])

# (flips, zeros, guesses) of a band whose D vanishes identically
_NO_ROOTS = (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), np.empty(0))

# (x - 1)^2 as a Chebyshev series: the double root of every D at theta = 0
_DOUBLE_ROOT_AT_1 = chebfromroots([1.0, 1.0])

# Most lanes a bisection checks against its guesses. With more, the loop's
# per-step cost is shared by so many lanes that predicting every path, and
# resuming the loop for the few that miss, takes longer than the loop itself.
GUIDED_LANES = 256


@dataclass(frozen=True)
class HelixParams:
    """One screw realization: radius r, twist theta in (0, pi), rise h."""

    r: float
    theta: float
    h: float


@dataclass(frozen=True)
class SolverOptions:
    """The theta grid whose cells bracket the roots: an int from 1000 to MAX_GRID_POINTS.

    A root's bisection starts from its grid cell, so the grid sets a branch's
    last bits; which roots are found does not depend on it, but the grid can
    change which borderline roots, residual near RESIDUAL_TOL, are kept.
    """

    grid_points: int = 200_000

    def __post_init__(self) -> None:
        check_int("grid_points", self.grid_points, 1000, MAX_GRID_POINTS)


@dataclass(frozen=True)
class BranchSolution:
    """One root of the closure equations of a band, with its labels.

    The band is the branch's identity; its edge offsets are derived from it.
    dihedrals are the interior a, b, c dihedrals of params, and cannot be set
    apart from them: the solver fills them from its stack, and a branch made
    any other way, directly or by dataclasses.replace, computes them from its
    own params when they are first read. Equality and hashing ignore them.
    """

    band: BandSpec
    params: HelixParams
    branch_index: int
    winding_m: int
    residual: float
    dihedrals: tuple[float, float, float] = field(init=False, compare=False)

    @property
    def offsets(self) -> OffsetTriple:
        """The band's image on the index line, offsets_from_band(band)."""
        return offsets_from_band(self.band)

    def __getattr__(self, name: str):
        # Python calls this only for an attribute not set: dihedrals of a branch the solver did not make
        if name != "dihedrals":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        (angles,) = _interior_dihedrals(self.offsets, [self.params])
        object.__setattr__(self, "dihedrals", angles)
        return angles


def helix_points(params: HelixParams, ks) -> np.ndarray:
    """Vertex positions v_k for an array of integer indices, shape (len, 3)."""
    return _helix_stack(_helix_rows([params]), ks)[0]


def _helix_rows(params: list[HelixParams]) -> np.ndarray:
    """(r, theta, h) of each realization, shape (len(params), 3)."""
    return np.array([(p.r, p.theta, p.h) for p in params], dtype=float)


def _helix_stack(helix: np.ndarray, ks) -> np.ndarray:
    """Vertex positions of the realizations in the rows of helix (_helix_rows), (rows, len, 3).

    ks holds the indices, one set shared by all rows, shape (len,), or one set
    per row, shape (rows, len). Every entry is one elementwise product, cosine
    or sine, so row i does not depend on the other rows: a branch's points
    are the same bits in any stack as alone.
    """
    r, theta, h = helix.T[..., None]
    ks = np.asarray(ks, dtype=float)
    t = ks * theta
    return np.stack([r * np.cos(t), r * np.sin(t), ks * h], axis=-1)


def chord(params: HelixParams, d: int) -> float:
    """Distance |v_{k+d} - v_k|; independent of k and of the sign of d."""
    x = 2.0 * params.r * params.r * (1.0 - math.cos(d * params.theta))
    return math.sqrt(x + d * d * params.h * params.h)


def closure_determinant(offsets: OffsetTriple, theta):
    """D(theta); accepts a scalar or an array. Sign changes bracket roots."""
    return _determinant(offsets.a, offsets.b, offsets.c, theta)


def _determinant(a, b, c, theta):
    """D(theta) for offsets a, b, c given as ints, or as arrays of one lane per theta."""
    theta = np.asarray(theta, dtype=float)
    out = (
        (c * c - b * b) * np.cos(a * theta)
        + (a * a - c * c) * np.cos(b * theta)
        + (b * b - a * a) * np.cos(c * theta)
    )
    return out if out.ndim else float(out)


def winding_estimate(band: BandSpec, params: HelixParams) -> int:
    """round(n*s*theta / 2pi): axis windings per circuit of the n strips.

    m = 1 labels the plain helical deltahedron, m >= 2 the star-style twists.
    """
    return round(band.n_strips * band.shift * params.theta / (2.0 * math.pi))


def _solve_AB(offsets: OffsetTriple, theta: float) -> tuple[float, float] | None:
    """(A, B) from the a/b chord equations, or None where they are singular.

    Singular means (1 - cos a*theta) : a^2 = (1 - cos b*theta) : b^2 to 1e-12.
    With u, v the a and b equations' residuals, b^2 u - a^2 v = A det - (b^2 - a^2)
    and b^2 - a^2 >= 3, so there both hold within RESIDUAL_TOL only for A near
    (b^2 - a^2) / |det| >= 1.5e12 / b^2: no branch. The system is singular at
    theta = 2 pi k / g, g the component count, which no root reaches: the
    quadruple roots there are divided out before any root is bracketed.
    """
    a, b = offsets.a, offsets.b
    xa = 1.0 - math.cos(a * theta)
    xb = 1.0 - math.cos(b * theta)
    det = xa * b * b - xb * a * a
    if abs(det) <= 1e-12 * max(1.0, abs(xa) * b * b, abs(xb) * a * a):
        return None
    return (b * b - a * a) / det, (xa - xb) / det


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise cross product of (..., 3) stacks, component by component."""
    return np.stack(
        [
            u[..., 1] * v[..., 2] - u[..., 2] * v[..., 1],
            u[..., 2] * v[..., 0] - u[..., 0] * v[..., 2],
            u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0],
        ],
        axis=-1,
    )


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise dot product of broadcastable (..., 3) stacks.

    Goes through matmul, which sums each row exactly as np.dot does on one
    pair of 3-vectors, so stacked and single-vector results agree bit for bit.
    """
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def _normals(tri: np.ndarray) -> np.ndarray:
    """Orientation normals (unnormalized) of a (..., 3, 3) stack of triangles."""
    return _cross(tri[..., 1, :] - tri[..., 0, :], tri[..., 2, :] - tri[..., 0, :])


def _unit(v: np.ndarray) -> np.ndarray:
    """Rows of v scaled to unit length (the Euclidean norm of each row)."""
    return v / np.sqrt(_dot(v, v))[..., None]


def _interior_dihedrals(
    offsets: OffsetTriple | list[OffsetTriple], params: list[HelixParams]
) -> list[tuple[float, float, float]]:
    """Interior a, b, c dihedrals of each realization, through the solid, in (0, 2pi).

    offsets are the band's, shared by every realization, or one per
    realization, so realizations of many bands share one stack.

    The class-a, -b and -c edges are (0, w_j) for j = 5, 1, 0, w the neighbour
    cycle; each lies in fan faces j-1 and j, with third vertices w_(j-1) and
    w_(j+1). u1, u2 are those faces' in-plane perpendiculars to the edge. The
    angle between them is the dihedral; it is reflex when u1 pokes to the
    outside of face j (positive against its orientation normal). One
    _helix_stack call serves every realization and class; its rows, and every
    row-wise step after it, do not depend on the other rows, so a
    realization's angles are the same bits in a stack as alone.
    """
    if isinstance(offsets, OffsetTriple):
        offsets = [offsets] * len(params)
    pts = _helix_stack(_helix_rows(params), [[0, *vertex_neighbor_cycle(off)] for off in offsets])
    j = np.array([5, 1, 0])
    before, after = _FAN[j - 1], _FAN[j]
    origin = pts[:, :1]
    e = _unit(pts[:, after[:, 1]] - origin)
    w = pts[:, np.stack([before[:, 1], after[:, 2]], axis=1)] - origin[:, None]
    u = _unit(w - _dot(w, e[..., None, :])[..., None] * e[..., None, :])
    n2 = _unit(_normals(pts[:, after]))
    cosines = np.clip(_dot(u[..., 0, :], u[..., 1, :]), -1.0, 1.0).tolist()
    outside = (_dot(u[..., 0, :], n2) > 0.0).tolist()
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
    This loop is the reference for _guided_bisect, which takes the same
    steps, and it serves the lanes whose guess _guided_bisect finds wrong.
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


def _guided_bisect(
    abc: np.ndarray, lo: np.ndarray, width: np.ndarray, flo: np.ndarray, guess: np.ndarray
) -> np.ndarray:
    """_bisect's roots, bit for bit, from one evaluation of D on the paths the guesses predict.

    guess holds a close estimate of each lane's root. Predict: from lo, step
    K times with _bisect's widths, width * 0.5**k, exact, moving lo to
    mid = lo + width unless mid > guess; K = ceil(log2(max width /
    BISECTION_TOL)) + 1 covers the stopping step of every lane, and widths
    are positive, so |width| in the stopping test is the width itself.
    Verify: evaluate D at all K predicted mids at once. Up to a lane's
    first step where the decision D(mid) * flo >= 0 differs from the
    prediction, its mids are the ones _bisect computes, so it stops at the
    first of them where _bisect stops. A lane whose decision differs first
    resumes _bisect from the lo and width that decision leaves. Each root is
    thus the same float as _bisect's; the guesses only decide how many lanes
    resume. More than GUIDED_LANES lanes go to _bisect directly.
    """
    if not 0 < lo.size <= GUIDED_LANES:
        return _bisect(abc, lo, width, flo)
    steps = math.ceil(math.log2(width.max() / BISECTION_TOL)) + 1
    half = width * 0.5 ** np.arange(1, steps + 1)[:, None]
    los = np.empty_like(half)  # lo before each step, on the predicted path
    los[0] = lo
    for w, before, after in zip(half, los, los[1:]):
        np.add(before, w, out=after)
        np.copyto(after, before, where=after > guess)
    mids = los + half
    fmid = _determinant(*abc, mids)
    done = (fmid == 0.0) | (half < BISECTION_TOL + BISECTION_RTOL * np.abs(mids))
    moved = fmid * flo >= 0.0
    stop = done | (moved == (mids > guess))
    stop[-1] = True  # a lane still going after K steps resumes from there
    at = (stop.argmax(axis=0), np.arange(lo.size))
    roots = mids[at]
    resume = ~done[at]
    if resume.any():
        resumed_lo = np.where(moved[at], mids[at], los[at])[resume]
        roots[resume] = _bisect(abc[:, resume], resumed_lo, half[at][resume], flo[resume])
    return roots


def _grid_point(idx: np.ndarray, points: int) -> np.ndarray:
    """Points idx of np.linspace(THETA_MIN, THETA_MAX, points), bit for bit.

    linspace computes point i as i * step + THETA_MIN and sets the last one
    to THETA_MAX.
    """
    step = (THETA_MAX - THETA_MIN) / (points - 1)
    return np.where(idx == points - 1, THETA_MAX, idx * step + THETA_MIN)


def _brackets(offsets: OffsetTriple, points: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(flips, zeros, guesses) of D's roots on the grid of points points.

    flips are the grid indices i with F(i) * F(i + 1) < 0 and zeros the i
    with F(i) == 0, F the computed D at grid point i, one per root; guesses
    are the colleague-matrix thetas of the flips' roots. The roots come from the
    colleague matrix of the component's D' / (x - 1)^2 (chebroots) and are
    lifted to the band's g components; each is taken to its nearest grid
    point j, and its flip or zero is the one among j - 1, j, j + 1. A count
    of real roots in (-1, 1) other than b' - 1, or a root whose flip or zero
    is not there, raises RuntimeError: a root is never dropped silently.
    """
    g = math.gcd(offsets.a, offsets.b)
    a, b, c = offsets.a // g, offsets.b // g, offsets.c // g
    coef = np.zeros(c + 1)
    coef[[a, b, c]] = (c * c - b * b, a * a - c * c, b * b - a * a)
    x = chebroots(chebdiv(coef, _DOUBLE_ROOT_AT_1)[0])
    x = x[(x.imag == 0.0) & (np.abs(x.real) < 1.0)].real
    if x.size != b - 1:
        raise RuntimeError(f"{offsets}: {x.size} roots in (-1, 1), expected {b - 1}")
    # cos(g theta) = x at g theta = 2 pi ceil(k/2) + (-1)^k arccos(x), k = 0..g-1
    k = np.arange(g)[:, None]
    theta = np.sort(((k + 1) // 2 * 2.0 * math.pi + (-1) ** k * np.arccos(x)).ravel() / g)
    theta = theta[(theta >= THETA_MIN) & (theta <= THETA_MAX)]
    step = (THETA_MAX - THETA_MIN) / (points - 1)
    j = np.clip(np.rint((theta - THETA_MIN) / step).astype(np.intp), 1, points - 2)
    f = closure_determinant(offsets, _grid_point(j[:, None] + np.arange(-1, 2), points))
    zero = f[:, 1] == 0.0
    left = f[:, 0] * f[:, 1] < 0.0
    right = f[:, 1] * f[:, 2] < 0.0
    if not np.all(zero | left | right):
        raise RuntimeError(f"{offsets}: no sign change next to the roots {theta[~(zero | left | right)]}")
    return np.where(left, j - 1, j)[~zero], j[zero], theta[~zero]


def solve_band(
    bands: BandSpec | Sequence[BandSpec], opts: SolverOptions | None = None
) -> list[BranchSolution] | list[list[BranchSolution]]:
    """All admissible roots of a band's D on [THETA_MIN, THETA_MAX], theta ascending.

    bands is one BandSpec, which gives that band's branches, or a sequence of
    them, which gives one list of branches per band in input order (solve_band([])
    is []); an element that is not a BandSpec raises ParameterError. One band
    is solved as a batch of one, so it gets the same branches, to the bit, as
    in any batch.

    Each band's roots are located from its component's colleague matrix and
    snapped to the grid of opts.grid_points points (_brackets), so each root
    is one sign change of the computed D between adjacent grid points, or
    one grid point where it is exactly 0. The sign changes of all bands are
    bisected together, each lane step for step as scipy.optimize.bisect
    bisects it alone. A call of at most GUIDED_LANES lanes checks the path
    that each colleague root predicts in one evaluation of D, and resumes
    the step-by-step loop only where a sign disagrees (_guided_bisect); its
    midpoints and decisions are the loop's, so its roots are too. No root
    needs merging: a zero at
    grid point j excludes a flip at j-1 and j, and each bisected root lies
    inside its own cell. A root is dropped when the a/b system of _solve_AB
    is singular, when A < MIN_A or B < MIN_B (flat or axis-collapsed), when
    the c-chord residual exceeds RESIDUAL_TOL, or when a dihedral is within
    COPLANAR_GAP of pi; the dihedrals of the remaining roots of all bands
    come from one stack. A kept root's faces have sides within RESIDUAL_TOL
    of 1, so none has zero area. An empty result is an answer, not an error.

    Measured on every band with n <= 40, not proven: a connected band keeps
    floor((2n - s - 1)/3) branches, and a compound band g times as many as
    its component (n/g, s/g). The grid can change which borderline roots are
    kept (SolverOptions); at the default grid, (61,30), (63,31), (77,38) and
    (79,39) each keep one branch fewer than the rule. No band raises, but 362
    of the 5133 connected bands with 81 <= n <= 200 keep fewer, and (1000, 499)
    keeps 116 of 500: the bisected theta's error, amplified in the c-chord
    residual, drops them (ROADMAP item 1).
    """
    opts = opts or SolverOptions()
    if isinstance(bands, BandSpec):
        return _solve_bands([bands], opts)[0]
    try:
        bands = list(bands)
    except TypeError:
        raise ParameterError(f"solve_band takes a BandSpec or a sequence of them, got {bands!r}") from None
    for band in bands:
        if not isinstance(band, BandSpec):
            raise ParameterError(f"solve_band takes BandSpec elements, got {band!r}")
    return _solve_bands(bands, opts)


def _solve_bands(bands: list[BandSpec], opts: SolverOptions) -> list[list[BranchSolution]]:
    """The branches of each band: brackets per band, then one bisection and one dihedral stack for all."""
    if not bands:
        return []
    points = opts.grid_points
    offsets = [offsets_from_band(band) for band in bands]
    # a = b: the a- and b-chord equations coincide, so D vanishes identically
    # and the band flexes through a continuum; there are no isolated branches
    brackets = [_brackets(off, points) if off.a != off.b else _NO_ROOTS for off in offsets]
    flips, zeros, guesses = zip(*brackets)
    counts = [f.size for f in flips]
    flips = np.concatenate(flips)
    abc = np.repeat(np.array([(off.a, off.b, off.c) for off in offsets], dtype=float), counts, axis=0).T
    lo = _grid_point(flips, points)
    width = _grid_point(flips + 1, points) - lo
    bisected = _guided_bisect(abc, lo, width, _determinant(*abc, lo), np.concatenate(guesses))
    candidates = [
        _candidates(off, np.sort(np.concatenate([_grid_point(zero, points), roots])).tolist())
        for off, zero, roots in zip(offsets, zeros, np.split(bisected, np.cumsum(counts)[:-1]))
    ]
    stack = [(off, params) for off, found in zip(offsets, candidates) for params, _ in found]
    angles = iter(_interior_dihedrals([off for off, _ in stack], [params for _, params in stack]) if stack else [])
    return [
        _accept(band, [(params, residual, next(angles)) for params, residual in found])
        for band, found in zip(bands, candidates)
    ]


def _candidates(offsets: OffsetTriple, roots: list[float]) -> list[tuple[HelixParams, float]]:
    """(params, residual) of each of one band's roots that passes every test but coplanarity."""
    candidates: list[tuple[HelixParams, float]] = []
    for theta in roots:
        AB = _solve_AB(offsets, theta)
        if AB is None or AB[0] < MIN_A or AB[1] < MIN_B:
            continue
        A, B = AB
        params = HelixParams(r=math.sqrt(A / 2.0), theta=theta, h=math.sqrt(B))
        residual = max(abs(chord(params, d) - 1.0) for d in (offsets.a, offsets.b, offsets.c))
        if residual <= RESIDUAL_TOL:
            candidates.append((params, residual))
    return candidates


def _accept(band: BandSpec, candidates: list[tuple[HelixParams, float, tuple]]) -> list[BranchSolution]:
    """The branches among one band's (params, residual, dihedrals), theta ascending, numbered from 1."""
    branches: list[BranchSolution] = []
    for params, residual, dihedrals in candidates:
        if min(abs(v - math.pi) for v in dihedrals) <= COPLANAR_GAP:
            continue
        branch = BranchSolution(
            band=band, params=params, branch_index=len(branches) + 1,
            winding_m=winding_estimate(band, params), residual=residual,
        )
        # the stack's rows are the same bits as a branch computes alone
        object.__setattr__(branch, "dihedrals", dihedrals)
        branches.append(branch)
    return branches
