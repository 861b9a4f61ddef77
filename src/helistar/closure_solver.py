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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.optimize import bisect

from .band_combinatorics import BandSpec, OffsetTriple, edge_faces, face_vertices, offsets_from_band
from .errors import ParameterError

__all__ = [
    "HelixParams",
    "BranchSolution",
    "SolverOptions",
    "chord",
    "helix_points",
    "closure_determinant",
    "solve_branches",
    "solve_band",
    "winding_estimate",
]

# Rejection guards, part of the solver contract.
COPLANAR_GAP = 1e-6     # min |dihedral - pi| per edge class, radians
DEGENERATE_AREA = 1e-12


@dataclass(frozen=True)
class HelixParams:
    """One screw realization: radius r, twist theta in (0, pi), rise h."""

    r: float
    theta: float
    h: float


@dataclass(frozen=True)
class SolverOptions:
    """Scan and acceptance tolerances. The defaults are part of the contract."""

    theta_min: float = 1e-3
    theta_max: float = math.pi - 1e-3
    grid_points: int = 200_000
    bisection_tol: float = 1e-13
    residual_tol: float = 1e-9
    min_A: float = 1e-9
    min_B: float = 1e-9

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if not (math.isfinite(v) and v > 0):
                raise ParameterError(f"{f.name} must be positive and finite, got {v}")
        if self.grid_points < 1000:
            raise ParameterError("grid_points must be >= 1000")
        if self.theta_min >= self.theta_max:
            raise ParameterError("theta_min must be < theta_max")


@dataclass(frozen=True)
class BranchSolution:
    """One root of the closure equations plus its labels.

    winding_m is None when no band is attached (free offset triples carry no
    strip count, so the winding label is unavailable).
    """

    offsets: OffsetTriple
    band: BandSpec | None
    params: HelixParams
    branch_index: int
    winding_m: int | None
    residual: float


def helix_points(params: HelixParams, ks) -> np.ndarray:
    """Vertex positions v_k for an array of integer indices, shape (len, 3)."""
    ks = np.asarray(ks, dtype=float)
    t = ks * params.theta
    return np.stack([params.r * np.cos(t), params.r * np.sin(t), ks * params.h], axis=-1)


def chord(params: HelixParams, d: int) -> float:
    """Distance |v_{k+d} - v_k|; independent of k and of the sign of d."""
    x = 2.0 * params.r * params.r * (1.0 - math.cos(d * params.theta))
    return math.sqrt(x + d * d * params.h * params.h)


def closure_determinant(offsets: OffsetTriple, theta):
    """D(theta); accepts a scalar or an array. Sign changes bracket roots."""
    a, b, c = offsets.a, offsets.b, offsets.c
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


def _solve_AB(offsets: OffsetTriple, theta: float) -> tuple[float, float]:
    """(A, B) from the a/b chord equations, least squares if they degenerate."""
    a, b, c = offsets.a, offsets.b, offsets.c
    xa = 1.0 - math.cos(a * theta)
    xb = 1.0 - math.cos(b * theta)
    det = xa * b * b - xb * a * a
    if abs(det) > 1e-12 * max(1.0, abs(xa) * b * b, abs(xb) * a * a):
        return (b * b - a * a) / det, (xa - xb) / det
    # cos a*theta = cos b*theta (or a near miss): the 2x2 system is rank
    # deficient, so fit all three equations at once
    xc = 1.0 - math.cos(c * theta)
    m = np.array([[xa, a * a], [xb, b * b], [xc, c * c]])
    sol, *_ = np.linalg.lstsq(m, np.ones(3), rcond=None)
    return float(sol[0]), float(sol[1])


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
    """Rows of v scaled to unit length (the np.linalg.norm of each row)."""
    return v / np.sqrt(_dot(v, v))[..., None]


def _interior_dihedrals(offsets: OffsetTriple, params: HelixParams) -> dict[str, float]:
    """Interior dihedral per edge class, measured through the solid, in (0, 2pi).

    For each class the two incident prototype faces are taken from the
    combinatorics; u1, u2 are their in-plane perpendiculars to the shared edge.
    The angle between them is the dihedral; it is reflex when u2 pokes to the
    outside of face 1 (positive against face 1's orientation normal). The
    three classes are handled as one (3, 2) stack of face pairs.
    """
    classes = ("a", "b", "c")
    faces = np.array(
        [[face_vertices(kind, k, offsets) for kind, k in edge_faces(offsets, cls)] for cls in classes]
    )
    on_edge = (faces[:, :, :, None] == faces[:, ::-1, None, :]).any(axis=-1)
    edge = np.sort(faces[:, 0][on_edge[:, 0]].reshape(3, 2), axis=1)
    apex = faces[~on_edge].reshape(3, 2)
    p = helix_points(params, edge[:, 0])
    e = _unit(helix_points(params, edge[:, 1]) - p)
    w = helix_points(params, apex) - p[:, None]
    u = _unit(w - _dot(w, e[:, None])[..., None] * e[:, None])
    n1 = _unit(_normals(helix_points(params, faces[:, 0])))
    cosines = np.clip(_dot(u[:, 0], u[:, 1]), -1.0, 1.0).tolist()
    outside = (_dot(u[:, 1], n1) > 0.0).tolist()
    # math.acos, not np.arccos: the two differ in the last bit, and these
    # angles are printed in net and module sheets
    return {
        cls: 2.0 * math.pi - math.acos(x) if out else math.acos(x)
        for cls, x, out in zip(classes, cosines, outside)
    }


def _face_area(offsets: OffsetTriple, params: HelixParams) -> float:
    n = _normals(helix_points(params, face_vertices("U", 0, offsets)))
    return 0.5 * float(np.sqrt(_dot(n, n)))


def solve_branches(
    offsets: OffsetTriple,
    opts: SolverOptions | None = None,
    band: BandSpec | None = None,
) -> list[BranchSolution]:
    """All admissible roots of D on [theta_min, theta_max], theta ascending.

    Uniform grid scan, bisection on every sign change, then (A, B) from the
    linear system with the third equation as a residual check. Roots with
    A < min_A or B < min_B (flat or axis-collapsed degenerations), a zero-area
    face, any adjacent-face pair coplanar within 1e-6 rad, or residual above
    residual_tol are dropped. An empty result is an answer, not an error.

    When band is given it must reduce to these offsets; branches then carry
    the winding label.
    """
    opts = opts or SolverOptions()
    if band is not None and offsets_from_band(band) != offsets:
        raise ParameterError(
            f"band ({band.n_strips},{band.shift}) does not reduce to offsets "
            f"({offsets.a},{offsets.b},{offsets.c})"
        )
    if offsets.a == offsets.b:
        # the a- and b-chord equations coincide, so D vanishes identically and
        # the band flexes through a continuum; there are no isolated branches
        return []

    grid = np.linspace(opts.theta_min, opts.theta_max, opts.grid_points)
    dval = closure_determinant(offsets, grid)

    roots: list[float] = []
    zero = dval == 0.0
    for i in np.flatnonzero(zero):
        roots.append(float(grid[i]))
    flips = np.flatnonzero((dval[:-1] * dval[1:]) < 0.0)
    f = lambda t: closure_determinant(offsets, t)
    for i in flips:
        roots.append(float(bisect(f, grid[i], grid[i + 1], xtol=opts.bisection_tol)))
    roots.sort()
    # merge duplicates from a grid point landing on (or next to) a root
    merged: list[float] = []
    for t in roots:
        if not merged or t - merged[-1] > 1e-10:
            merged.append(t)

    branches: list[BranchSolution] = []
    for theta in merged:
        A, B = _solve_AB(offsets, theta)
        if A < opts.min_A or B < opts.min_B:
            continue
        params = HelixParams(r=math.sqrt(A / 2.0), theta=theta, h=math.sqrt(B))
        residual = max(abs(chord(params, d) - 1.0) for d in (offsets.a, offsets.b, offsets.c))
        if residual > opts.residual_tol:
            continue
        if _face_area(offsets, params) < DEGENERATE_AREA:
            continue
        if min(abs(v - math.pi) for v in _interior_dihedrals(offsets, params).values()) <= COPLANAR_GAP:
            continue
        branches.append(
            BranchSolution(
                offsets=offsets,
                band=band,
                params=params,
                branch_index=len(branches) + 1,
                winding_m=winding_estimate(band, params) if band is not None else None,
                residual=residual,
            )
        )
    return branches


def solve_band(spec: BandSpec, opts: SolverOptions | None = None) -> list[BranchSolution]:
    """solve_branches for a band's offsets, with winding labels attached."""
    return solve_branches(offsets_from_band(spec), opts, band=spec)
