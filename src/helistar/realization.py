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
from .closure_solver import BranchSolution, _dot, _normals, helix_points
from .errors import ParameterError, WindowError, check_int

__all__ = [
    "MeshSegment",
    "realize",
    "verify_uniform",
    "UniformityReport",
    "antiprism_tower",
]

UNIFORM_TOL = 1e-9  # max deviation of edge length, face angle and constellation
MAX_WINDOW = 1000  # largest periods, net rows, sheet columns, tower rings or gon


@dataclass
class MeshSegment:
    """Explicit finite mesh: points, oriented triangles, edges, as arrays.

    vertices is (V, 3), row k the point of index k. faces is an (F, 3) and
    edges an (E, 2) integer array of vertex indices; each face row is in
    orientation order. On a helix window an edge (u, v) has u < v and its
    class is v - u, one of the offsets a/b/c; an antiprism tower lists its
    ring edges first, then per ring gap and column the two diagonals.
    boundary_marks are the vertex indices whose face ring is incomplete in
    this window. The three arrays are converted on construction, so nested
    sequences (even empty ones) are accepted; an array of the wrong row width,
    or a face, edge or boundary mark that is not an integer (a bool is not)
    in [0, len(vertices)), raises ParameterError naming the field.
    """

    vertices: np.ndarray
    faces: np.ndarray
    edges: np.ndarray
    boundary_marks: set[int] = field(default_factory=set)

    def __post_init__(self) -> None:
        self.vertices = _rows("vertices", self.vertices, 3, float)
        self.faces = _vertex_indices("faces", self.faces, 3, len(self.vertices))
        self.edges = _vertex_indices("edges", self.edges, 2, len(self.vertices))
        for m in self.boundary_marks:
            check_int("boundary_marks", m.item() if isinstance(m, np.integer) else m, 0, len(self.vertices) - 1)


def _rows(name: str, rows, width: int, dtype=None) -> np.ndarray:
    """rows as an (m, width) array, (0, width) if empty; ParameterError naming name otherwise."""
    try:
        arr = np.asarray(rows, dtype=dtype)
    except (TypeError, ValueError) as exc:  # ragged rows, or entries that are not numbers
        raise ParameterError(f"{name} must be an (m, {width}) array: {exc}") from None
    if arr.size and arr.shape[1:] != (width,):
        raise ParameterError(f"{name} must be an (m, {width}) array, got shape {arr.shape}")
    return arr.reshape(-1, width)


def _vertex_indices(name: str, rows, width: int, count: int) -> np.ndarray:
    """rows as an (m, width) intp array; ParameterError unless each is an int in [0, count)."""
    arr = _rows(name, rows, width)
    if arr.size and arr.dtype.kind not in "iu":
        raise ParameterError(f"{name} must hold integer vertex indices, got dtype {arr.dtype}")
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
    p = verts[faces]
    n = _normals(p)
    radial = float(np.sum(n[:, :2] * p.mean(axis=1)[:, :2]))
    return faces[:, [0, 2, 1]] if radial < 0.0 else faces


def realize(solution: BranchSolution, periods: int = 2) -> MeshSegment:
    """Materialize the window k in [0, periods*c] of a branch.

    Faces U_k, D_k are emitted for every k whose three indices fit the window.
    Orientation is outward: if the mean radial component of the face normals
    comes out negative, both families are flipped together. Edges are listed
    by class, a then b then c, each in ascending k.
    """
    check_int("periods", periods, 1, MAX_WINDOW)
    a, b, c = solution.band.offsets
    kmax = periods * c
    verts = helix_points(solution.params, np.arange(kmax + 1))

    faces = _outward(verts, (np.arange(kmax - c + 1)[:, None, None] + prototype_faces(solution.band)).reshape(-1, 3))
    edges = np.concatenate([np.arange(kmax - d + 1)[:, None] + [0, d] for d in (a, b, c)])

    boundary = set(range(c)) | set(range(kmax - c + 1, kmax + 1))
    return MeshSegment(vertices=verts, faces=faces, edges=edges, boundary_marks=boundary)


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
    verts, faces, edges = segment.vertices, segment.faces, segment.edges
    n = len(verts)
    inner = np.ones(n, dtype=bool)
    inner[list(segment.boundary_marks)] = False
    interior = np.flatnonzero(inner)
    if not interior.size:
        raise WindowError("window has no interior vertex; enlarge periods")

    d = verts[edges[:, 0]] - verts[edges[:, 1]]
    edge_dev = float(np.max(np.abs(np.sqrt(_dot(d, d)) - 1.0), initial=0.0))

    p = verts[faces]
    e1 = np.roll(p, -1, axis=1) - p  # corner i to corner i+1
    e2 = np.roll(p, -2, axis=1) - p  # corner i to corner i+2
    with np.errstate(invalid="ignore", divide="ignore"):  # a zero-length side gives a NaN, which fails below
        cosang = np.clip(_dot(e1, e2) / (np.sqrt(_dot(e1, e1)) * np.sqrt(_dot(e2, e2))), -1.0, 1.0)
    # acos is decreasing, so the largest |angle - pi/3| is at an extreme cosine
    ends = (cosang.min(), cosang.max()) if cosang.size else ()
    ang_dev = max((abs(math.acos(x) - math.pi / 3.0) for x in ends), default=0.0)

    # u*n + v for both directions of every edge, sorted and distinct
    adj = np.sort(np.concatenate([edges[:, 0] * n + edges[:, 1], edges[:, 1] * n + edges[:, 0]]))
    adj = adj[np.diff(adj, prepend=-1) != 0]
    centers = interior[np.bincount(adj // n, minlength=n)[interior] == 6]
    first = np.searchsorted(adj, centers * n)  # row of each center's first neighbor
    rings = np.column_stack([centers, adj[first[:, None] + np.arange(6)] % n])
    iu, ju = np.triu_indices(7, k=1)
    dx, dy, dz = (x.take(rings[:, iu]) - x.take(rings[:, ju]) for x in verts.T)
    sig = np.sort(np.sqrt(dx * dx + dy * dy + dz * dz), axis=-1)  # np.linalg.norm's sum order, so its bits
    const_dev = float(np.max(np.abs(sig - sig[:1]), initial=0.0))

    def keys(u, v):  # edge (u, v) or (v, u) as the one integer min*n + max
        return np.minimum(u, v) * n + np.maximum(u, v)

    sides = np.sort(keys(faces, faces[:, [1, 2, 0]]), axis=None)
    inner_edges = keys(*edges[inner[edges].all(axis=1)].T)
    # faces per inner edge: how often its key occurs among the sorted side keys
    per_edge = np.searchsorted(sides, inner_edges, "right") - np.searchsorted(sides, inner_edges)
    # and the distinct sides with both ends interior that no edge row lists
    listed = np.searchsorted(adj, sides, "right") > np.searchsorted(adj, sides)
    unlisted = sides[inner[sides // n] & inner[sides % n] & ~listed]
    bad = int(np.count_nonzero(per_edge != 2)) + int(np.count_nonzero(np.diff(unlisted, prepend=-1)))

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

    boundary = set(range(gon)) | set(range((rings - 1) * gon, rings * gon))
    return MeshSegment(
        vertices=verts, faces=_outward(verts, faces), edges=edges, boundary_marks=boundary
    )
