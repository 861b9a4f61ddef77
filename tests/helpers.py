"""Shared test oracles.

refold_max_error folds a net forward by its annotated dihedrals and compares
against the helix coordinates; brute_force_intersecting checks a realized
window by testing every face pair with the package predicate, and
oracle_intersecting checks the same window with a segment-triangle test that
shares no code with helistar.analysis. full_scan_witnesses repeats the face
test's scan with no symmetry reduction, at any base vertex, and
shifted_witness moves a base-0 result there; figure_oracle decides the vertex
figure at any vertex with its own projection and crossing test, sharing no
code with helistar.analysis. All are deliberately independent of the
implementation paths they check. pinned_meshes is the mesh set behind the
OBJ and uniformity-report byte pins, and faces_per_side_bad counts bad
interior edges with a Counter over side tuples. cycle_constellation_dev reads
each interior 1-ring off the neighbor cycle of the band, and
face_angle_dev_per_corner takes one math.acos per face corner; verify_uniform
must agree with both bit for bit. net_svg_oracle and modules_svg_oracle write
each sheet one element per Python call, each coordinate formatted on its own;
the exporters' one-pass templates must write the same bytes; fold_classes reads each
net fold's edge class off its point rows alone. colleague_brackets
locates each band's roots from the eigenvalues of its component's colleague
matrix and snaps them to the grid; the solver's analytic bracket pass must find
the same flips and zeros. catalog_json_oracle and catalog_csv_oracle write a
catalog one value per Python call; the column writers must write the same bytes.
kept_row_oracle builds U_0's kept row by comparing every window face with U_0.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from itertools import combinations

import numpy as np
from numpy.polynomial.chebyshev import chebdiv, chebfromroots, chebroots
from scipy.spatial.transform import Rotation

from helistar import (
    BandSpec,
    BranchSolution,
    CatalogEntry,
    MeshSegment,
    ModuleOptions,
    NetLayout,
    antiprism_tower,
    closure_determinant,
    helix_points,
    prototype_faces,
    realize,
    solve_band,
    triangles_properly_intersect,
    unfold_net,
    vertex_neighbor_cycle,
)
from helistar import __version__
from helistar.analysis import _intersect, _plane
from helistar.catalog import _ENTRY_FIELDS, _typed
from helistar.closure_solver import THETA_MAX, THETA_MIN, _grid_point
from helistar.export import _SVG_STYLE, GAP_MM, SQRT3_2

# Rotation sign for folding an attached triangle out of its parent's plane,
# about the parent-directed shared edge, by (pi - dihedral). Calibrated on the
# tetrahelix (where the folded strip must land on the closed-form helix) and
# used unchanged for every band.
FOLD_SIGN = 1.0


def _phi(row: int, n: int, s: int, rows: int) -> int:
    """Helix index of the net's point row: label (i, j) is row i*(rows + 1) + j."""
    i, j = divmod(row, rows + 1)
    return i * s + j * n


def refold_max_error(solution: BranchSolution, rows: int = 2) -> float:
    """Fold the net forward and return the max vertex error against the helix.

    The first net triangle is anchored at its true position, so the rigid
    alignment is the identity. Every other triangle is attached across a fold
    edge at the annotated interior dihedral, walking breadth-first.
    """
    net = unfold_net(solution, rows=rows)
    n, s = net.n_strips, net.shift
    params = solution.params

    fold_angle = {frozenset(e): a for e, a in zip(net.fold_edges.tolist(), net.fold_angles.tolist())}
    tris = net.triangles.tolist()
    by_edge: dict[frozenset, list[int]] = {}
    for t_idx, tri in enumerate(tris):
        for u in range(3):
            by_edge.setdefault(frozenset((tri[u], tri[(u + 1) % 3])), []).append(t_idx)

    def true_pos(row):
        return helix_points(params, [_phi(row, n, s, net.rows)])[0]

    placed: dict[int, np.ndarray] = {}
    seed = tris[0]
    for lbl in seed:
        placed[lbl] = true_pos(lbl)

    extra_err = 0.0  # disagreement when a label is reached along two paths
    seen = {0}
    queue = [0]
    while queue:
        t_idx = queue.pop(0)
        tri = tris[t_idx]
        for u in range(3):
            edge = (tri[u], tri[(u + 1) % 3])
            key = frozenset(edge)
            if key not in fold_angle:
                continue
            others = [o for o in by_edge[key] if o != t_idx]
            assert len(others) == 1
            nxt = others[0]
            if nxt in seen:
                continue
            seen.add(nxt)
            queue.append(nxt)

            apex = next(l for l in tris[nxt] if l not in key)
            p_from, p_to = placed[edge[0]], placed[edge[1]]
            q_from = net.points[edge[0]]
            e2 = net.points[edge[1]] - q_from
            n2 = np.array([-e2[1], e2[0]])
            q = net.points[apex] - q_from
            alpha, beta = float(np.dot(q, e2)), float(np.dot(q, n2))
            assert beta < 0.0  # attached apex sits right of the parent edge

            axis = p_to - p_from
            axis = axis / np.linalg.norm(axis)
            p_par_apex = placed[next(l for l in tri if l not in key)]
            w = p_par_apex - p_from
            w = w - np.dot(w, axis) * axis
            w = w / np.linalg.norm(w)
            flat = p_from + alpha * axis + beta * w
            rot = Rotation.from_rotvec(FOLD_SIGN * (math.pi - fold_angle[key]) * axis)
            pos = p_from + rot.apply(flat - p_from)
            if apex in placed:
                extra_err = max(extra_err, float(np.linalg.norm(pos - placed[apex])))
            else:
                placed[apex] = pos

    assert len(seen) == len(tris)
    err = max(float(np.linalg.norm(p - true_pos(lbl))) for lbl, p in placed.items())
    return max(err, extra_err)


def brute_force_intersecting(solution: BranchSolution, periods: int = 3) -> bool:
    """All-pairs proper-intersection test over a realized window."""
    seg = realize(solution, periods)
    verts = seg.vertices
    faces = seg.faces
    hit = False
    for ia in range(len(faces)):
        for ib in range(ia + 1, len(faces)):
            fa, fb = faces[ia], faces[ib]
            shared = len(set(fa) & set(fb))
            t1 = verts[list(fa)]
            t2 = verts[list(fb)]
            if triangles_properly_intersect(t1, t2, shared=shared):
                hit = True
                return hit
    return hit


ORACLE_EPS = 1e-9  # margin from every boundary for a crossing to count


def oracle_intersecting(solution: BranchSolution, periods: int = 3) -> bool:
    """Moeller-Trumbore crossing test over a realized window.

    True when, for some pair of faces sharing fewer than 2 vertices, an edge
    of one face passes through the other face strictly inside: barycentric
    coordinates and segment parameter all beyond ORACLE_EPS from 0 and 1.
    Edges parallel to the face plane (coplanar contact) never count.
    """
    seg = realize(solution, periods)
    verts = np.asarray(seg.vertices, dtype=float)
    faces = np.asarray(seg.faces)
    ia, ib = np.triu_indices(len(faces), k=1)
    shared = (faces[ia][:, :, None] == faces[ib][:, None, :]).any(axis=2).sum(axis=1)
    ia, ib = ia[shared < 2], ib[shared < 2]
    # every edge of face ia against face ib, and every edge of ib against ia
    starts = verts[faces[np.concatenate([ia, ib])]]  # (p, 3, 3): edge i runs from corner i to i+1
    tri = verts[faces[np.concatenate([ib, ia])]][:, None]  # (p, 1, 3, 3)
    seg_dir = np.roll(starts, -1, axis=1) - starts
    e1 = tri[:, :, 1] - tri[:, :, 0]
    e2 = tri[:, :, 2] - tri[:, :, 0]
    pvec = np.cross(seg_dir, e2)
    det = np.sum(e1 * pvec, axis=-1)
    tvec = starts - tri[:, :, 0]
    qvec = np.cross(tvec, e1)
    with np.errstate(divide="ignore", invalid="ignore"):  # parallel edges masked below
        u = np.sum(tvec * pvec, axis=-1) / det
        v = np.sum(seg_dir * qvec, axis=-1) / det
        t = np.sum(e2 * qvec, axis=-1) / det
    inside = (
        (np.abs(det) > ORACLE_EPS)
        & (u > ORACLE_EPS)
        & (v > ORACLE_EPS)
        & (u + v < 1.0 - ORACLE_EPS)
        & (t > ORACLE_EPS)
        & (t < 1.0 - ORACLE_EPS)
    )
    return bool(inside.any())


def lanes(triangles) -> np.ndarray:
    """Row-first triangles, (m, 3 corners, 3 coordinates), as the predicate's contiguous
    (3 coordinates, 3 corners, m) lanes."""
    return np.ascontiguousarray(np.asarray(triangles, dtype=float).transpose(2, 1, 0))


def full_scan_witnesses(solutions: list[BranchSolution], base: int = 0) -> list[tuple[bool, tuple | None]]:
    """Verdict and first witness of each branch, from the unreduced face scan.

    Both prototypes U_base = (base, base+a, base+c) and D_base = (base,
    base+c, base+b) against every face U_k, D_k with k in [base-c, base+c],
    edge-sharing pairs included. The witness is the first hit in the order
    prototype U then D, k ascending, U_k before D_k. Each pair goes through the
    package predicate in its batched form, one call per branch; no symmetry
    of the helix is used. solutions are the branches of one band, at least one.
    """
    a, b, c = solutions[0].offsets
    face = {"U": lambda k: (k, k + a, k + c), "D": lambda k: (k, k + c, k + b)}
    window = [(kind, k) for k in range(base - c, base + c + 1) for kind in "UD"]
    pairs = [((proto, base), other) for proto in "UD" for other in window]
    corners = [(face[p[0]](p[1]), face[q[0]](q[1])) for p, q in pairs]
    first = np.array([f for f, _ in corners]) - (base - c)  # rows of the window's points
    second = np.array([g for _, g in corners]) - (base - c)
    shared = np.array([len(set(f) & set(g)) for f, g in corners])
    out = []
    for sol in solutions:
        pts = helix_points(sol.params, range(base - c, base + 2 * c + 1))
        P, Q = lanes(pts[first]), lanes(pts[second])
        hits = _intersect(P, Q, shared, _plane(P))
        at = next((i for i, hit in enumerate(hits) if hit), None)
        out.append((False, None) if at is None else (True, pairs[at]))
    return out


def shifted_witness(result: tuple[bool, tuple | None], base: int) -> tuple[bool, tuple | None]:
    """A (verdict, witness) found at base 0, with both faces moved up by base."""
    hit, witness = result
    return hit, None if witness is None else tuple((kind, k + base) for kind, k in witness)


def figure_oracle(solution: BranchSolution, base: int) -> str:
    """'crossed' or 'simple': the vertex figure at v_base.

    The neighbours v_(base + w_i), w = [c, b, -a, -c, -b, a], are taken
    relative to v_base and expressed in an orthonormal basis whose first
    axis is the vertex normal, the sum of the unit normals of the fan faces
    (base, base + w_i, base + w_(i+1)); dropping that axis gives the hexagon.
    It is crossed when two sides that share no corner meet at parameters
    strictly inside both, solved as a 2x2 linear system per pair.
    """
    a, b, c = solution.offsets
    w = [c, b, -a, -c, -b, a]
    pts = helix_points(solution.params, [base] + [base + x for x in w])
    ring = pts[1:] - pts[0]
    normal = np.zeros(3)
    for i in range(6):
        f = np.cross(ring[i], ring[(i + 1) % 6])
        normal += f / np.linalg.norm(f)
    basis, _ = np.linalg.qr(np.column_stack([normal, np.eye(3)]))  # column 0 is +-normal
    hexagon = ring @ basis[:, 1:]
    sides = [(hexagon[i], hexagon[(i + 1) % 6] - hexagon[i]) for i in range(6)]
    for i, j in combinations(range(6), 2):
        (p, r), (q, d) = sides[i], sides[j]
        m = np.column_stack([r, -d])
        if 1 < j - i < 5 and np.linalg.det(m) != 0.0:  # no shared corner, not parallel
            t, u = np.linalg.solve(m, q - p)
            if 0.0 < t < 1.0 and 0.0 < u < 1.0:
                return "crossed"
    return "simple"


def pinned_meshes():
    """(mesh, offsets) for every branch of n 3..12 (all shifts) at periods 1, 2
    and 24, then (tower, None) for gon 3..12 at rings 2, 3 and 6."""
    bands = [BandSpec(n, s) for n in range(3, 13) for s in range(1, n)]
    for sols in solve_band(bands):
        for sol in sols:
            for periods in (1, 2, 24):
                yield realize(sol, periods), sol.offsets
    for gon in range(3, 13):
        for rings in (2, 3, 6):
            yield antiprism_tower(gon, rings), None


def faces_per_side_bad(segment: MeshSegment) -> int:
    """Interior edges (both ends off boundary_marks) not in exactly 2 faces, one per edge row,
    plus each distinct face side with both ends interior that no edge row lists."""
    faces_per_side = Counter()
    for f in segment.faces.tolist():
        for u, v in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
            faces_per_side[min(u, v), max(u, v)] += 1
    marks = segment.boundary_marks
    listed = [(min(u, v), max(u, v)) for u, v in segment.edges.tolist()]
    inner = [e for e in listed if e[0] not in marks and e[1] not in marks]
    unlisted = [(u, v) for u, v in set(faces_per_side) - set(listed) if u not in marks and v not in marks]
    return sum(faces_per_side[e] != 2 for e in inner) + len(unlisted)


def cycle_constellation_dev(segment: MeshSegment, band: BandSpec) -> float:
    """constellation_max_dev with the ring of each interior vertex k taken as
    k + [0, *vertex_neighbor_cycle(band)], on a helix window of the band."""
    interior = np.array(sorted(set(range(len(segment.vertices))) - segment.boundary_marks))
    pts = segment.vertices[interior[:, None] + [0, *vertex_neighbor_cycle(band)]]
    iu, ju = np.triu_indices(7, k=1)
    sig = np.sort(np.linalg.norm(pts[:, iu] - pts[:, ju], axis=-1), axis=-1)
    return float(np.max(np.abs(sig - sig[:1])))


def face_angle_dev_per_corner(segment: MeshSegment) -> float:
    """max |angle - pi/3| over every corner of every face, one math.acos per
    corner; 0.0 with no faces. Meant for faces with three distinct corners."""
    dev = 0.0
    for face in segment.faces.tolist():
        p = segment.vertices[face]
        for i in range(3):
            e1, e2 = p[(i + 1) % 3] - p[i], p[(i + 2) % 3] - p[i]
            cos = np.dot(e1, e2) / (np.sqrt(np.dot(e1, e1)) * np.sqrt(np.dot(e2, e2)))
            dev = max(dev, abs(math.acos(min(max(cos, -1.0), 1.0)) - math.pi / 3.0))
    return dev


# Per-element sheet writers: one Python call per element, coordinates formatted
# one at a time. export_net_svg and export_modules_svg must write the same bytes.

def _sheet_line(cls: str, p, q) -> str:
    return f'<line class="{cls}" x1="{p[0]:.3f}" y1="{p[1]:.3f}" x2="{q[0]:.3f}" y2="{q[1]:.3f}"/>\n'


def _sheet_text(x: float, y: float, size: float, body) -> str:
    return f'<text x="{x:.3f}" y="{y:.3f}" font-size="{size}">{body}</text>\n'


def _sheet_cut(corners) -> str:
    path = " L ".join(f"{x:.3f} {y:.3f}" for x, y in corners)
    return f'<path class="cut" d="M {path} Z"/>\n'


def _sheet(w: float, h: float, desc: str, body, footer_x: float, footer: str) -> str:
    sheet = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.3f}mm" height="{h:.3f}mm" '
        f'viewBox="0 0 {w:.3f} {h:.3f}">\n{_SVG_STYLE}<desc>{desc}</desc>\n{"".join(body)}'
    )
    return (sheet + _sheet_text(footer_x, h - 5.0, 3.5, footer) + "</svg>\n").replace("-0.000", "0.000")


def fold_classes(net: NetLayout) -> list[str]:
    """Each fold's edge class, read off its row difference: rows + 1 for a, -rows for b, 1 for c.

    Point row i*(rows + 1) + j is lattice label (i, j), so the a edge (i, j)-(i+1, j),
    the b edge (i+1, j)-(i, j+1) and the c edge (i, j)-(i, j+1) step by those rows.
    """
    step = {net.rows + 1: "a", -net.rows: "b", 1: "c"}
    return [step[v - u] for u, v in net.fold_edges.tolist()]


def net_svg_oracle(net: NetLayout, edge_mm: float = 40.0) -> str:
    """export_net_svg's sheet, element by element."""
    margin = 0.35 * edge_mm
    xmax, ymax = (max(float(p[k]) for p in net.points) for k in (0, 1))
    n, s, rows = net.n_strips, net.shift, net.rows

    def at(row):  # point row i*(rows + 1) + j is lattice label (i, j)
        p = net.points[row]
        return margin + p[0] * edge_mm, margin + (ymax - p[1]) * edge_mm

    def body():
        yield _sheet_cut(at(i * (rows + 1) + j) for i, j in [(0, 0), (n, 0), (n, rows), (0, rows)])
        for (u, v), angle in zip(net.fold_edges.tolist(), net.fold_angles.tolist()):
            p, q = at(u), at(v)
            yield _sheet_line("mountain" if angle < math.pi else "valley", p, q)
            yield _sheet_text((p[0] + q[0]) / 2, (p[1] + q[1]) / 2, 2.6, f"{math.degrees(angle):.1f}")
        for idx, pair in enumerate(net.seam_pairs.tolist()):
            for (x, y), side in zip(map(at, pair), (1.0, -1.0)):
                yield _sheet_text(x + side * 0.08 * edge_mm, y, 3.2, idx)

    return _sheet(
        xmax * edge_mm + 2 * margin, ymax * edge_mm + 2 * margin + 14.0,
        f"net for band ({n},{s}), {rows} rows; mountain = dashed, valley = dash-dot, "
        f"angles are interior dihedrals in degrees; right seam row j glues to left seam row j+{s}",
        body(), margin,
        f"band ({n},{s}): dashed = mountain fold, dash-dot = valley fold; "
        f"matching seam numbers glue together",
    )


def modules_svg_oracle(solution: BranchSolution, opts: ModuleOptions) -> str:
    """export_modules_svg's sheet, module by module."""
    count = (opts.periods - 1) * solution.offsets[2] + 1
    angle = solution.dihedrals[2]
    fold_dir = "mountain" if angle < math.pi else "valley"
    edge, cols = opts.edge_mm, opts.columns
    pitch_x = edge + GAP_MM
    pitch_y = 2.0 * SQRT3_2 * edge + GAP_MM
    unit = ((0.0, SQRT3_2), (0.5, 2.0 * SQRT3_2), (1.0, SQRT3_2), (0.5, 0.0))
    A, B, C, D = [(edge * x, edge * y) for x, y in unit]
    dx, dy = opts.slit_fraction * edge * SQRT3_2, opts.slit_fraction * edge * -0.5
    quarter = [(x0 + 0.25 * (x1 - x0), y0 + 0.25 * (y1 - y0)) for (x0, y0), (x1, y1) in ((A, B), (C, D))]
    slits = [(q, (q[0] + sign * dx, q[1] + sign * dy)) for q, sign in zip(quarter, (1.0, -1.0))]

    def body():
        for m in range(count):
            ox = GAP_MM + (m % cols) * pitch_x
            oy = GAP_MM + (m // cols) * pitch_y
            a, b, c, d = [(ox + x, oy + y) for x, y in (A, B, C, D)]
            yield _sheet_cut((a, b, c, d))
            yield _sheet_line(fold_dir, a, c)
            for (x0, y0), (x1, y1) in slits:
                yield _sheet_line("slit", (ox + x0, oy + y0), (ox + x1, oy + y1))

    return _sheet(
        cols * pitch_x + GAP_MM, (count + cols - 1) // cols * pitch_y + GAP_MM + 14.0,
        f"{count} slide-together modules; each is two unit triangles joined along the "
        f"class-c edge ({fold_dir} fold, {math.degrees(angle):.1f} degrees). Slit convention "
        f"chosen by this package: slits at the quarter-points of the two class-a edges, "
        f"perpendicular, {opts.slit_fraction:g} edge long, 180-degree rotationally symmetric.",
        body(), GAP_MM,
        f"{count} modules, edge {opts.edge_mm:g} mm; solid = cut, "
        f"{fold_dir} fold on the diagonal, short strokes = slits",
    )


# (x - 1)^2 as a Chebyshev series: the double root of every D at theta = 0
_DOUBLE_ROOT_AT_1 = chebfromroots([1.0, 1.0])


def colleague_brackets(band: BandSpec, points: int) -> tuple[np.ndarray, np.ndarray]:
    """(flips, zeros) of D's roots on the grid of points points.

    flips are the grid indices i with F(i) * F(i + 1) < 0 and zeros the i
    with F(i) == 0, F the computed D at grid point i, one per root. The roots
    come from the colleague matrix of the component's D' / (x - 1)^2
    (chebroots) and are lifted to the band's g components; each is taken to
    its nearest grid point j, and its flip or zero is the one among j - 1, j,
    j + 1. A count of real roots in (-1, 1) other than b' - 1, or a root
    whose flip or zero is not there, raises RuntimeError: a root is never
    dropped silently.
    """
    g = math.gcd(*band.offsets[:2])
    a, b, c = (d // g for d in band.offsets)
    coef = np.zeros(c + 1)
    coef[[a, b, c]] = (c * c - b * b, a * a - c * c, b * b - a * a)
    x = chebroots(chebdiv(coef, _DOUBLE_ROOT_AT_1)[0])
    x = x[(x.imag == 0.0) & (np.abs(x.real) < 1.0)].real
    if x.size != b - 1:
        raise RuntimeError(f"{band}: {x.size} roots in (-1, 1), expected {b - 1}")
    # cos(g theta) = x at g theta = 2 pi ceil(k/2) + (-1)^k arccos(x), k = 0..g-1
    k = np.arange(g)[:, None]
    theta = np.sort(((k + 1) // 2 * 2.0 * math.pi + (-1) ** k * np.arccos(x)).ravel() / g)
    theta = theta[(theta >= THETA_MIN) & (theta <= THETA_MAX)]
    step = (THETA_MAX - THETA_MIN) / (points - 1)
    j = np.clip(np.rint((theta - THETA_MIN) / step).astype(np.intp), 1, points - 2)
    f = closure_determinant(band, _grid_point(j[:, None] + np.arange(-1, 2), points))
    zero = f[:, 1] == 0.0
    left = f[:, 0] * f[:, 1] < 0.0
    right = f[:, 1] * f[:, 2] < 0.0
    if not np.all(zero | left | right):
        raise RuntimeError(f"{band}: no sign change next to the roots {theta[~(zero | left | right)]}")
    return np.where(left, j - 1, j)[~zero], j[zero]


# Per-value catalog writers: each field of each entry checked and formatted on
# its own. write_catalog and write_catalog_csv must write the same bytes.

def _entry_values(e: CatalogEntry) -> list:
    return [_typed(name, getattr(e, name)) for name in _ENTRY_FIELDS]


def _value_text(v) -> str:
    """One value's catalog text: reals to 15 significant digits with no "-0",
    ints plain, bools as true/false, anything else as JSON."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v + 0.0, ".15g")  # -0.0 + 0.0 is 0.0
    if isinstance(v, int):
        return str(v)
    return json.dumps(v)


def catalog_json_oracle(entries: list[CatalogEntry], options: dict | None = None) -> str:
    """write_catalog's document, value by value (options as in write_catalog, assumed valid)."""
    opt = {str(k): v for k, v in (options or {}).items()}
    recorded = ", ".join(f"{json.dumps(text)}: {_value_text(v)}" for text, v in sorted(opt.items()))
    rows = [
        ",\n".join(f'      "{k}": {_value_text(v)}' for k, v in zip(_ENTRY_FIELDS, _entry_values(e)))
        for e in entries
    ]
    body = ",".join(f"\n    {{\n{row}\n    }}" for row in rows) + ("\n  " if rows else "")
    return (
        f'{{\n  "generated_by": "helistar {__version__}",\n  "options": {{{recorded}}},\n'
        f'  "entries": [{body}]\n}}\n'
    )


def catalog_csv_oracle(entries: list[CatalogEntry]) -> str:
    """write_catalog_csv's text, value by value, row by row through csv.writer.

    csv.writer quotes a field that holds a character of its line terminator.
    Each row is written with "\r\n" and cut back to "\n", so a field holding
    a lone "\r" is quoted, as Python 3.13's writer quotes it with "\n" alone
    (3.11 and 3.12 leave it bare, and the text would not read back).
    """
    rows = [[v if isinstance(v, str) else _value_text(v) for v in _entry_values(e)] for e in entries]
    lines = []
    for row in [_ENTRY_FIELDS, *rows]:
        out = io.StringIO()
        csv.writer(out, lineterminator="\r\n").writerow(row)
        lines.append(out.getvalue()[:-2] + "\n")
    return "".join(lines)


def kept_row_oracle(band: BandSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """U_0's kept row of one band by comparing every window face with U_0.

    It is analysis._kept_rows's row for that band, with each face's name,
    ("U", k) or ("D", k), in place of its code.

    Every face U_k, D_k with k in [-c, c] is compared corner by corner with
    U_0; the faces sharing two corners (an edge) go, and so do U_k for k >= 0.
    """
    c = band.offsets[2]
    shape = prototype_faces(band)
    window = (np.arange(-c, c + 1)[:, None, None] + shape).reshape(-1, 3)
    shared = (shape[0][None, :, None] == window[:, None, :]).any(axis=-1).sum(axis=-1)
    slot = np.arange(len(window))  # U_k at 2*(k+c), D_k after it
    keep = np.flatnonzero((shared < 2) & ((slot < 2 * c) | (slot % 2 == 1)))
    return shape[0], window[keep], shared[keep], [("UD"[i % 2], i // 2 - c) for i in keep.tolist()]
