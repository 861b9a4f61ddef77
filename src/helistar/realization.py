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

from .band_combinatorics import OffsetTriple, face_vertices, vertex_neighbor_cycle
from .closure_solver import BranchSolution, _interior_dihedrals, _normals, helix_points
from .errors import WindowError, check_int

__all__ = [
    "MeshSegment",
    "realize",
    "dihedral_angles",
    "verify_uniform",
    "UniformityReport",
    "antiprism_tower",
]

UNIFORM_TOL = 1e-9  # max deviation of edge length, face angle and constellation


@dataclass
class MeshSegment:
    """Explicit finite mesh: points, oriented triangles, tagged edges.

    vertices[k] is the point of index k (row = index). edges are (u, v, tag)
    with tag the edge class; for helix windows the classes are the offsets
    a/b/c, for antiprism towers 'a' tags ring edges and 'b'/'c' the two
    diagonal directions. boundary_marks are the vertex indices whose face ring
    is incomplete in this window.
    """

    vertices: np.ndarray
    faces: list[tuple[int, int, int]]
    edges: list[tuple[int, int, str]]
    k_range: tuple[int, int]
    boundary_marks: set[int] = field(default_factory=set)


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


def _outward(verts: np.ndarray, faces: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    """faces, all flipped together if their summed radial normal component is negative.

    Flipping per face would break the opposite-traversal pairing on shared edges.
    """
    p = verts[np.asarray(faces)]
    n = _normals(p)
    radial = float(np.sum(n[:, :2] * p.mean(axis=1)[:, :2]))
    return [(i, k, j) for (i, j, k) in faces] if radial < 0.0 else faces


def realize(solution: BranchSolution, periods: int = 2) -> MeshSegment:
    """Materialize the window k in [0, periods*c] of a branch.

    Faces U_k, D_k are emitted for every k whose three indices fit the window.
    Orientation is outward: if the mean radial component of the face normals
    comes out negative, both families are flipped together.
    """
    check_int("periods", periods, 1)
    off = solution.offsets
    a, b, c = off.a, off.b, off.c
    kmax = periods * c
    verts = helix_points(solution.params, np.arange(kmax + 1))

    faces: list[tuple[int, int, int]] = []
    for k in range(kmax - c + 1):
        faces.append(face_vertices("U", k, off))
        faces.append(face_vertices("D", k, off))
    faces = _outward(verts, faces)

    edges: list[tuple[int, int, str]] = []
    for tag, d in (("a", a), ("b", b), ("c", c)):
        edges.extend((k, k + d, tag) for k in range(kmax - d + 1))

    boundary = {m for m in range(kmax + 1) if m < c or m > kmax - c}
    return MeshSegment(
        vertices=verts,
        faces=faces,
        edges=edges,
        k_range=(0, kmax),
        boundary_marks=boundary,
    )


def dihedral_angles(solution: BranchSolution) -> dict[str, float]:
    """Interior dihedral per edge class, through the solid, in (0, 2pi).

    By screw symmetry one prototype edge per class speaks for all. Values
    above pi are reflex folds; star branches have them, and so does the
    tetrahelix on its class-a edges (three tetrahedra stack around each).
    """
    return _interior_dihedrals(solution.offsets, solution.params)


def verify_uniform(segment: MeshSegment, offsets: OffsetTriple | None = None) -> UniformityReport:
    """Check the window against the uniformity contract.

    Checks: every edge has length 1; every face angle is pi/3; all interior
    vertices carry congruent neighbor constellations (sorted pairwise-distance
    multisets of the closed 1-ring agree); every interior edge lies in exactly
    2 faces. Each deviation must be at most UNIFORM_TOL. Needs at least one
    interior vertex.

    offsets are required for the constellation check on helix windows (they
    define the neighbor cycle); antiprism towers pass offsets=None and get
    their constellations from edge adjacency instead.
    """
    verts = segment.vertices
    interior = [k for k in range(len(verts)) if k not in segment.boundary_marks]
    if not interior:
        raise WindowError("window has no interior vertex; enlarge periods")

    ev = []
    for (u, v, _tag) in segment.edges:
        ev.append(np.linalg.norm(verts[u] - verts[v]) - 1.0)
    edge_dev = float(np.max(np.abs(ev)))

    ang_dev = 0.0
    for tri in segment.faces:
        p = verts[list(tri)]
        for i in range(3):
            u = p[(i + 1) % 3] - p[i]
            w = p[(i + 2) % 3] - p[i]
            cosang = np.dot(u, w) / (np.linalg.norm(u) * np.linalg.norm(w))
            ang = math.acos(float(np.clip(cosang, -1.0, 1.0)))
            ang_dev = max(ang_dev, abs(ang - math.pi / 3.0))

    if offsets is not None:
        cycle = vertex_neighbor_cycle(offsets)
        rings = {k: [k + w for w in cycle] for k in interior}
    else:
        nbrs: dict[int, set[int]] = {}
        for (u, v, _tag) in segment.edges:
            nbrs.setdefault(u, set()).add(v)
            nbrs.setdefault(v, set()).add(u)
        rings = {k: sorted(nbrs[k]) for k in interior if len(nbrs.get(k, ())) == 6}

    const_dev = 0.0
    ref = None
    for k, ring in rings.items():
        pts = verts[[k] + list(ring)]
        d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        sig = np.sort(d[np.triu_indices(len(pts), k=1)])
        if ref is None:
            ref = sig
        else:
            const_dev = max(const_dev, float(np.max(np.abs(sig - ref))))

    face_count: dict[tuple[int, int], int] = {}
    for tri in segment.faces:
        for i in range(3):
            e = tuple(sorted((tri[i], tri[(i + 1) % 3])))
            face_count[e] = face_count.get(e, 0) + 1
    interior_set = set(interior)
    bad = sum(
        1
        for (u, v, _tag) in segment.edges
        if u in interior_set and v in interior_set
        and face_count.get((min(u, v), max(u, v)), 0) != 2
    )

    return UniformityReport(
        vertex_count=len(verts),
        interior_count=len(interior),
        face_count=len(segment.faces),
        edge_length_max_dev=edge_dev,
        face_angle_max_dev=ang_dev,
        constellation_max_dev=const_dev,
        bad_interior_edges=bad,
        edge_length_ok=edge_dev <= UNIFORM_TOL,
        face_angle_ok=ang_dev <= UNIFORM_TOL,
        constellation_ok=const_dev <= UNIFORM_TOL,
        edge_faces_ok=bad == 0,
    )


def antiprism_tower(gon: int, rings: int) -> MeshSegment:
    """Stacked unit-edge antiprism side faces: an infinite tube, windowed.

    Ring j holds gon vertices at radius r = 1/(2 sin(pi/gon)), height j*h,
    rotated by j*pi/gon; h = sqrt(1 - (1 - cos(pi/gon)) / (2 sin^2(pi/gon)))
    makes the diagonals unit too. No caps: the object is a tube segment, so
    the first and last rings are boundary.
    """
    check_int("gon", gon, 3)
    check_int("rings", rings, 2)
    phi = math.pi / gon
    r = 1.0 / (2.0 * math.sin(phi))
    h = math.sqrt(1.0 - (1.0 - math.cos(phi)) / (2.0 * math.sin(phi) ** 2))

    def vid(j: int, i: int) -> int:
        return j * gon + i % gon

    verts = np.zeros((gon * rings, 3))
    for j in range(rings):
        for i in range(gon):
            t = 2.0 * math.pi * i / gon + j * phi
            verts[vid(j, i)] = (r * math.cos(t), r * math.sin(t), j * h)

    faces: list[tuple[int, int, int]] = []
    for j in range(rings - 1):
        for i in range(gon):
            faces.append((vid(j, i), vid(j, i + 1), vid(j + 1, i)))
            faces.append((vid(j + 1, i), vid(j, i + 1), vid(j + 1, i + 1)))
    faces = _outward(verts, faces)

    edges: list[tuple[int, int, str]] = []
    for j in range(rings):
        for i in range(gon):
            u, v = vid(j, i), vid(j, i + 1)
            edges.append((min(u, v), max(u, v), "a"))
    for j in range(rings - 1):
        for i in range(gon):
            edges.append(tuple(sorted((vid(j, i), vid(j + 1, i)))) + ("b",))
            edges.append(tuple(sorted((vid(j, i + 1), vid(j + 1, i)))) + ("c",))

    boundary = {vid(0, i) for i in range(gon)} | {vid(rings - 1, i) for i in range(gon)}
    return MeshSegment(
        vertices=verts,
        faces=faces,
        edges=edges,
        k_range=(0, gon * rings - 1),
        boundary_marks=boundary,
    )
