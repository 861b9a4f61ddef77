"""Finite triangle-mesh windows of the infinite polyhedra, plus checks.

A window realizes helix indices k in [0, periods*c] explicitly. Vertices near
the two ends are missing part of their face ring; they are marked boundary and
excluded from the uniformity checks, which only ever assert on interior
elements. The antiprismatic ring towers live here too: same mesh container,
different (closed-form) construction.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .band_combinatorics import prototype_faces
from .closure_solver import BranchSolution, _dot, helix_points
from .errors import ParameterError, WindowError, check_array, check_int, check_type

__all__ = [
    "MeshSegment",
    "realize",
    "verify_uniform",
    "UniformityReport",
    "antiprism_tower",
]

UNIFORM_TOL = 1e-9  # max deviation of edge length, face angle and constellation
MAX_WINDOW = 1000  # largest periods, net rows, sheet columns, tower rings or gon

_NEXT, _AFTER_NEXT = np.array([1, 2, 0]), np.array([2, 0, 1])  # a face's corners i+1 and i+2, by corner i
_SIX, _PAIRS = np.arange(6), np.triu_indices(7, k=1)  # a 1-ring's neighbor rows, and its pairs of points


@dataclass
class MeshSegment:
    """Explicit finite mesh: points, oriented triangles, edges, as arrays.

    vertices is (V, 3), row k the point of index k. faces is an (F, 3) and
    edges an (E, 2) integer array of vertex indices; each face row is in
    orientation order. On a helix window an edge (u, v) has u < v and its
    class is v - u, one of the offsets a/b/c; an antiprism tower lists its
    ring edges first, then per ring gap and column the two diagonals.
    boundary_marks are the vertex indices whose face ring is incomplete in
    this window. Each field goes through check_array: vertices finite reals, and
    faces, edges and boundary_marks (an array or any iterable, kept as a set) ints in [0, len(vertices)).
    """

    vertices: np.ndarray
    faces: np.ndarray
    edges: np.ndarray
    boundary_marks: set[int] = field(default_factory=set)

    def __post_init__(self) -> None:
        self.vertices = check_array("vertices", self.vertices, "iuf", (None, 3)).astype(float, copy=False)
        count, marks = len(self.vertices), self.boundary_marks
        self.faces = _vertex_indices("faces", self.faces, (None, 3), count)
        self.edges = _vertex_indices("edges", self.edges, (None, 2), count)
        marks = marks if isinstance(marks, np.ndarray) or not hasattr(marks, "__iter__") else list(marks)
        self.boundary_marks = set(_vertex_indices("boundary_marks", marks, (None,), count).tolist())


def _vertex_indices(name: str, value, shape: tuple, count: int) -> np.ndarray:
    """value as an intp array of the shape; ParameterError unless each is an int in [0, count)."""
    arr = check_array(name, value, "iu", shape)
    if arr.size and (arr.min() < 0 or arr.max() >= count):
        raise ParameterError(f"{name} must hold vertex indices in [0, {count}), got {arr.min()}..{arr.max()}")
    return arr.astype(np.intp, copy=False)


@dataclass
class UniformityReport:
    """Per-check maxima and verdicts from verify_uniform."""

    vertex_count: int
    interior_count: int
    face_count: int
    edge_length_max_dev: float
    face_angle_max_dev: float
    constellation_max_dev: float
    bad_interior_edges: int
    edge_length_ok: bool
    face_angle_ok: bool
    constellation_ok: bool
    edge_faces_ok: bool

    @property
    def passed(self) -> bool:
        return self.edge_length_ok and self.face_angle_ok and self.constellation_ok and self.edge_faces_ok

    def as_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def _outward(verts: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """faces, all flipped together if their summed radial normal component is negative.

    Flipping per face would break the opposite-traversal pairing on shared edges.
    """
    q = verts.T.take(faces.T, axis=1)  # coordinate, corner, face
    u, v = q[:, 1] - q[:, 0], q[:, 2] - q[:, 0]
    # x and y of each face's _cross normal and corner mean, with their bits, summed as np.sum sums an (F, 2) array
    xy = (u[1:] * v[::-2] - u[::-2] * v[1:]) * ((q[:2, 0] + q[:2, 1] + q[:2, 2]) / 3.0)
    return faces[:, [0, 2, 1]] if float(np.sum(np.ascontiguousarray(xy.T))) < 0.0 else faces


def realize(solution: BranchSolution, periods: int = 2) -> MeshSegment:
    """Materialize the window k in [0, periods*c] of a branch.

    Faces U_k, D_k are emitted for every k whose three indices fit the window.
    Orientation is outward: if the mean radial component of the face normals
    comes out negative, both families are flipped together. Edges are listed
    by class, a then b then c, each in ascending k.
    """
    check_type("solution", solution, BranchSolution)
    check_int("periods", periods, 1, MAX_WINDOW)
    a, b, c = solution.band.offsets
    kmax = periods * c
    verts = helix_points(solution.params, k := np.arange(kmax + 1))

    faces = _outward(verts, (k[: kmax - c + 1, None, None] + prototype_faces(solution.band)).reshape(-1, 3))
    edges = np.concatenate([k[: kmax - d + 1, None] + [0, d] for d in (a, b, c)])

    return MeshSegment(vertices=verts, faces=faces, edges=edges, boundary_marks=k[(k < c) | (k > kmax - c)])


def verify_uniform(segment: MeshSegment, offsets: tuple[int, int, int] | None = None) -> UniformityReport:
    """Check the window against the uniformity contract.

    Checks: every edge has length 1; every face angle is pi/3; every interior
    vertex has exactly 6 neighbors, and all carry congruent neighbor
    constellations (sorted pairwise-distance multisets of the closed 1-ring
    agree); every interior edge lies in exactly 2 faces, and every face side
    with both ends interior is a listed edge. Each deviation must be at most
    UNIFORM_TOL. Needs at least one interior vertex.

    The 1-rings are read off edge adjacency, on any mesh. offsets is ignored:
    it stays in the signature only so that positional callers keep working.
    """
    check_type("segment", segment, MeshSegment)
    verts, faces, edges = segment.vertices, segment.faces, segment.edges
    n = len(verts)
    inner = np.ones(n, dtype=bool)
    inner[list(segment.boundary_marks)] = False
    interior = np.flatnonzero(inner)
    if not interior.size:
        raise WindowError("window has no interior vertex; enlarge periods")

    u, v = edges.T
    d = verts.take(u, axis=0) - verts.take(v, axis=0)
    edge_dev = float(np.abs(np.sqrt(_dot(d, d)) - 1.0).max(initial=0.0))

    p = verts.take(faces, axis=0)
    side = p.take(_NEXT, axis=1) - p  # corner i to corner i+1; corner i to i+2 is -side[i+2], exactly
    length = np.sqrt(_dot(side, side))
    with np.errstate(invalid="ignore", divide="ignore"):  # a zero-length side gives a NaN, which fails below
        cosang = _dot(side, -side.take(_AFTER_NEXT, axis=1)) / (length * length.take(_AFTER_NEXT, axis=1))
    # acos is decreasing, so the largest |angle - pi/3| is at an extreme cosine, clipped to [-1, 1]
    ends = (max(cosang.min(), -1.0), min(cosang.max(), 1.0)) if cosang.size else ()
    ang_dev = max((abs(math.acos(x) - math.pi / 3.0) for x in ends), default=0.0)

    # u*n + v for both directions of every edge, sorted and distinct, then n*n: above every key
    adj = np.sort(np.concatenate([u * n + v, v * n + u, [n * n]]))
    adj = adj[np.concatenate([[True], adj[1:] != adj[:-1]])]
    centers = interior[np.bincount(adj // n, minlength=n)[interior] == 6]
    first = np.searchsorted(adj, centers * n)  # row of each center's first neighbor
    rings = np.column_stack([centers, adj[first[:, None] + _SIX] % n])
    ri, rj = rings[:, _PAIRS[0]], rings[:, _PAIRS[1]]
    dx, dy, dz = (x[ri] - x[rj] for x in np.ascontiguousarray(verts.T))
    sig = np.sort(np.sqrt(dx * dx + dy * dy + dz * dz), axis=-1)  # np.linalg.norm's sum order, so its bits
    const_dev = float(np.abs(sig - sig[:1]).max(initial=0.0))

    def keys(u, v):  # edge (u, v) or (v, u) as the one integer min*n + max
        return np.minimum(u, v) * n + np.maximum(u, v)

    sides = np.sort(keys(faces, faces.take(_NEXT, axis=1)), axis=None)
    inner_edges = keys(u, v)[inner[u] & inner[v]]
    # faces per inner edge: how often its key occurs among the sorted side keys
    per_edge = np.searchsorted(sides, inner_edges, "right") - np.searchsorted(sides, inner_edges)
    # and the distinct sides with both ends interior that no edge row lists
    listed = adj[np.searchsorted(adj, sides)] == sides  # a row of adj: its last key, n*n, is above every side
    unlisted = sides[inner[sides // n] & inner[sides % n] & ~listed]
    bad = int(np.count_nonzero(per_edge != 2)) + len(set(unlisted.tolist()))

    return UniformityReport(
        vertex_count=n,
        interior_count=len(interior),
        face_count=len(faces),
        edge_length_max_dev=edge_dev,
        face_angle_max_dev=ang_dev,
        constellation_max_dev=const_dev,
        bad_interior_edges=bad,
        edge_length_ok=edge_dev <= UNIFORM_TOL,
        face_angle_ok=ang_dev <= UNIFORM_TOL,
        constellation_ok=const_dev <= UNIFORM_TOL and len(centers) == len(interior),
        edge_faces_ok=bad == 0,
    )


def antiprism_tower(gon: int, rings: int) -> MeshSegment:
    """Stacked unit-edge antiprism side faces: an infinite tube, windowed.

    Ring j holds gon vertices at radius r = 1/(2 sin(pi/gon)), height j*h,
    rotated by j*pi/gon; h = sqrt(1 - (1 - cos(pi/gon)) / (2 sin^2(pi/gon)))
    makes the diagonals unit too. No caps: the object is a tube segment, so
    the first and last rings are boundary. Vertex i of ring j has index
    j*gon + i. gon and rings are each at most MAX_WINDOW.
    """
    check_int("gon", gon, 3, MAX_WINDOW)
    check_int("rings", rings, 2, MAX_WINDOW)
    phi = math.pi / gon
    r = 1.0 / (2.0 * math.sin(phi))
    h = math.sqrt(1.0 - (1.0 - math.cos(phi)) / (2.0 * math.sin(phi) ** 2))

    j, col = np.arange(rings)[:, None], np.arange(gon)
    t = 2.0 * math.pi * col / gon + j * phi
    verts = np.stack([r * np.cos(t), r * np.sin(t), np.broadcast_to(j * h, t.shape)], axis=-1).reshape(-1, 3)

    # lo/hi: vertex i on the lower/upper ring of each gap; *_next: vertex i + 1
    ring, nxt = j * gon, (col + 1) % gon
    lo, lo_next, hi, hi_next = ring[:-1] + col, ring[:-1] + nxt, ring[1:] + col, ring[1:] + nxt
    faces = np.stack([lo, lo_next, hi, hi, lo_next, hi_next], axis=-1).reshape(-1, 3)
    edges = np.concatenate([
        np.sort(np.stack([ring + col, ring + nxt], axis=-1), axis=-1).reshape(-1, 2),
        np.stack([lo, hi, lo_next, hi], axis=-1).reshape(-1, 2),
    ])

    return MeshSegment(verts, _outward(verts, faces), edges, boundary_marks=(ring[[0, -1]] + col).ravel())
