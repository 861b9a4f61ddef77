"""Mesh, frame, net, and module-sheet emission. All outputs byte deterministic.

OBJ files carry v/f/l records only, 9 fixed decimals. Nets are the flat
triangle lattice of the band with every interior edge annotated by its fold
(interior dihedral and mountain/valley direction); the seam columns carry the
shift correspondence. Module sheets hold one rhombus per (U_k, D_k) face pair
for slide-together assembly, with a slit convention chosen by this package
and stated inside the emitted file.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .closure_solver import BranchSolution
from .errors import MissingBandError, ParameterError
from .realization import MeshSegment, dihedral_angles

__all__ = [
    "NetLayout",
    "Fold",
    "ModuleOptions",
    "export_obj",
    "unfold_net",
    "export_net_svg",
    "export_modules_svg",
]

Label = tuple[int, int]

SQRT3_2 = math.sqrt(3.0) / 2.0


def _fmt(x: float, spec: str) -> str:
    """format(x, spec), with a negative zero written as zero."""
    s = format(float(x), spec)
    return s.lstrip("-") if float(s) == 0.0 else s


@contextmanager
def _opened(target, mode: str = "w", newline: str | None = "\n"):
    """target itself if it is a file object, else the path opened and closed after."""
    if hasattr(target, "read" if mode == "r" else "write"):
        yield target
    else:
        with open(target, mode, encoding="utf-8", newline=newline) as fh:
            yield fh


def export_obj(segment: MeshSegment, sink, frame: bool = False) -> None:
    """Write v + f records, or v + l edge records when frame is set.

    Face and line indices are 1-based per the format. Vertex order is index
    order, so re-parsing reproduces the mesh.
    """
    if len(segment.vertices) == 0:
        raise ParameterError("refusing to write an empty mesh")
    with _opened(sink) as fh:
        for v in segment.vertices:
            fh.write(f"v {_fmt(v[0], '.9f')} {_fmt(v[1], '.9f')} {_fmt(v[2], '.9f')}\n")
        if frame:
            for (u, w, _tag) in segment.edges:
                fh.write(f"l {u + 1} {w + 1}\n")
        else:
            for (i, j, k) in segment.faces:
                fh.write(f"f {i + 1} {j + 1} {k + 1}\n")


@dataclass(frozen=True)
class Fold:
    edge: tuple[Label, Label]
    cls: str            # 'a' | 'b' | 'c'
    angle: float        # interior dihedral, radians, in (0, 2pi)
    direction: str      # 'mountain' (< pi) | 'valley' (> pi)


@dataclass
class NetLayout:
    """Flat lattice window of a band: points, triangles, folds, seam pairs.

    points maps lattice label (i, j) to plane coordinates in edge units,
    P(i, j) = (i*sqrt(3)/2, j + i/2). triangles are label triples in the same
    orientation order as their 3D counterparts. seam_pairs lists the gluing
    ((n, j), (0, j+s)) for every pair inside the window.
    """

    n_strips: int
    shift: int
    rows: int
    points: dict[Label, np.ndarray]
    triangles: list[tuple[Label, Label, Label]]
    folds: list[Fold] = field(default_factory=list)
    seam_pairs: list[tuple[Label, Label]] = field(default_factory=list)


def _direction(angle: float) -> str:
    return "mountain" if angle < math.pi else "valley"


def unfold_net(solution: BranchSolution, rows: int = 2) -> NetLayout:
    """Unfold a band window into its flat strip lattice.

    The window covers strip-boundary lines i in [0, n] and rows j in [0, rows].
    Interior lattice edges become folds carrying the edge class's interior
    dihedral; the two boundary columns are the seam and carry the shift
    correspondence instead of a fold.
    """
    if solution.band is None:
        raise MissingBandError("unfolding needs a band; free offset triples have no strips")
    if rows < 1:
        raise ParameterError("rows must be >= 1")
    n, s = solution.band.n_strips, solution.band.shift
    angles = dihedral_angles(solution)

    points = {
        (i, j): np.array([i * SQRT3_2, j + i / 2.0])
        for i in range(n + 1)
        for j in range(rows + 1)
    }

    triangles: list[tuple[Label, Label, Label]] = []
    for i in range(n):
        for j in range(rows):
            triangles.append(((i, j), (i + 1, j), (i, j + 1)))
            triangles.append(((i + 1, j), (i + 1, j + 1), (i, j + 1)))

    folds: list[Fold] = []
    for cls, mk in (
        ("a", [(((i, j), (i + 1, j))) for j in range(1, rows) for i in range(n)]),
        ("b", [(((i + 1, j), (i, j + 1))) for j in range(rows) for i in range(n)]),
        ("c", [(((i, j), (i, j + 1))) for j in range(rows) for i in range(1, n)]),
    ):
        ang = angles[cls]
        folds.extend(Fold(edge=e, cls=cls, angle=ang, direction=_direction(ang)) for e in mk)

    seam = [((n, j), (0, j + s)) for j in range(rows - s + 1)] if rows >= s else []
    return NetLayout(
        n_strips=n, shift=s, rows=rows,
        points=points, triangles=triangles, folds=folds, seam_pairs=seam,
    )


_SVG_STYLE = (
    "<style>\n"
    "  .cut { stroke: #000; stroke-width: 0.5; fill: none; }\n"
    "  .mountain { stroke: #c00; stroke-width: 0.35; stroke-dasharray: 4 2; fill: none; }\n"
    "  .valley { stroke: #06c; stroke-width: 0.35; stroke-dasharray: 5 2 1 2; fill: none; }\n"
    "  .slit { stroke: #000; stroke-width: 0.5; fill: none; }\n"
    "  text { font-family: monospace; fill: #333; }\n"
    "</style>\n"
)


def _mm(x: float) -> str:
    return _fmt(x, ".3f")


def _check_edge_mm(edge_mm: float) -> None:
    if not (math.isfinite(edge_mm) and edge_mm > 0):
        raise ParameterError(f"edge_mm must be positive and finite, got {edge_mm}")


def export_net_svg(net: NetLayout, sink, edge_mm: float = 40.0) -> None:
    """Cut-and-fold sheet for a net: outline, fold lines, angles, seam marks.

    Millimeter user units, triangle edge = edge_mm. Mountain folds are dashed,
    valleys dash-dot; each fold carries its dihedral in degrees. The seam rows
    are numbered so row j on the right column meets row j + s on the left.
    """
    _check_edge_mm(edge_mm)
    margin = 0.35 * edge_mm
    ymax = max(p[1] for p in net.points.values())
    xmax = max(p[0] for p in net.points.values())

    def at(label: Label) -> tuple[float, float]:
        p = net.points[label]
        # flip y so row numbers grow upward on the page
        return margin + p[0] * edge_mm, margin + (ymax - p[1]) * edge_mm

    w = xmax * edge_mm + 2 * margin
    h = ymax * edge_mm + 2 * margin + 14.0
    with _opened(sink) as fh:
        fh.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_mm(w)}mm" '
            f'height="{_mm(h)}mm" viewBox="0 0 {_mm(w)} {_mm(h)}">\n'
        )
        fh.write(_SVG_STYLE)
        n, s, rows = net.n_strips, net.shift, net.rows
        fh.write(
            f"<desc>net for band ({n},{s}), {rows} rows; mountain = dashed, "
            f"valley = dash-dot, angles are interior dihedrals in degrees; "
            f"right seam row j glues to left seam row j+{s}</desc>\n"
        )
        corners = [(0, 0), (n, 0), (n, rows), (0, rows)]
        path = " L ".join(f"{_mm(x)} {_mm(y)}" for x, y in (at(c) for c in corners))
        fh.write(f'<path class="cut" d="M {path} Z"/>\n')
        for f in net.folds:
            (x1, y1), (x2, y2) = at(f.edge[0]), at(f.edge[1])
            fh.write(
                f'<line class="{f.direction}" x1="{_mm(x1)}" y1="{_mm(y1)}" '
                f'x2="{_mm(x2)}" y2="{_mm(y2)}"/>\n'
            )
            deg = math.degrees(f.angle)
            fh.write(
                f'<text x="{_mm((x1 + x2) / 2)}" y="{_mm((y1 + y2) / 2)}" '
                f'font-size="2.6">{deg:.1f}</text>\n'
            )
        for idx, (right, left) in enumerate(net.seam_pairs):
            for label, side in ((right, 1.0), (left, -1.0)):
                x, y = at(label)
                fh.write(
                    f'<text x="{_mm(x + side * 0.08 * edge_mm)}" y="{_mm(y)}" '
                    f'font-size="3.2">{idx}</text>\n'
                )
        fh.write(
            f'<text x="{_mm(margin)}" y="{_mm(h - 5.0)}" font-size="3.5">'
            f"band ({n},{s}): dashed = mountain fold, dash-dot = valley fold; "
            f"matching seam numbers glue together</text>\n"
        )
        fh.write("</svg>\n")


@dataclass(frozen=True)
class ModuleOptions:
    """Layout knobs for the slide-together module sheet.

    The slit convention is this package's: one slit per class-a edge at its
    quarter-point, perpendicular into the rhombus, slit_fraction of an edge
    long; the two slits are images of each other under the rhombus's
    180-degree rotation.
    """

    edge_mm: float = 40.0
    periods: int = 2
    columns: int = 5
    gap_mm: float = 8.0
    slit_fraction: float = 0.25

    def __post_init__(self) -> None:
        _check_edge_mm(self.edge_mm)
        if self.periods < 1:
            raise ParameterError("periods must be >= 1")
        if self.columns < 1:
            raise ParameterError("columns must be >= 1")


def export_modules_svg(solution: BranchSolution, opts: ModuleOptions, sink) -> int:
    """Sheet of congruent rhombus modules, one per (U_k, D_k) face pair.

    Each module is two unit triangles glued along the class-c edge, which is
    drawn as the fold line; the window of `periods` periods holds faces/2 such
    pairs. Modules are identical, so the sheet is just a grid of them. Returns
    the module count.
    """
    c = solution.offsets.c
    count = opts.periods * c - c + 1  # face pairs in the window = faces/2
    angles = dihedral_angles(solution)
    edge = opts.edge_mm

    # rhombus in local mm coordinates: fold diagonal A-C horizontal
    A = np.array([0.0, SQRT3_2 * edge])
    C = np.array([edge, SQRT3_2 * edge])
    B = np.array([edge / 2.0, 2.0 * SQRT3_2 * edge])  # page y grows downward
    D = np.array([edge / 2.0, 0.0])

    def slit(base: np.ndarray, tip: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        e = tip - base
        e = e / np.linalg.norm(e)
        inward = np.array([-e[1], e[0]])
        mid = (A + C) / 2.0
        if float(np.dot(inward, mid - base)) < 0.0:
            inward = -inward
        start = base + 0.25 * (tip - base)
        return start, start + opts.slit_fraction * edge * inward

    slits = [slit(A, B), slit(C, D)]

    cols = opts.columns
    pitch_x = edge + opts.gap_mm
    pitch_y = 2.0 * SQRT3_2 * edge + opts.gap_mm
    rows_n = (count + cols - 1) // cols
    w = cols * pitch_x + opts.gap_mm
    h = rows_n * pitch_y + opts.gap_mm + 14.0

    with _opened(sink) as fh:
        fh.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_mm(w)}mm" '
            f'height="{_mm(h)}mm" viewBox="0 0 {_mm(w)} {_mm(h)}">\n'
        )
        fh.write(_SVG_STYLE)
        fold_dir = _direction(angles["c"])
        fh.write(
            f"<desc>{count} slide-together modules; each is two unit triangles "
            f"joined along the class-c edge ({fold_dir} fold, "
            f"{math.degrees(angles['c']):.1f} degrees). Slit convention chosen "
            f"by this package: slits at the quarter-points of the two class-a "
            f"edges, perpendicular, {opts.slit_fraction:g} edge long, "
            f"180-degree rotationally symmetric.</desc>\n"
        )
        for m in range(count):
            ox = opts.gap_mm + (m % cols) * pitch_x
            oy = opts.gap_mm + (m // cols) * pitch_y

            def pt(p: np.ndarray) -> str:
                return f"{_mm(ox + p[0])} {_mm(oy + p[1])}"

            fh.write(f'<path class="cut" d="M {pt(A)} L {pt(B)} L {pt(C)} L {pt(D)} Z"/>\n')
            fh.write(
                f'<line class="{fold_dir}" x1="{_mm(ox + A[0])}" y1="{_mm(oy + A[1])}" '
                f'x2="{_mm(ox + C[0])}" y2="{_mm(oy + C[1])}"/>\n'
            )
            for p0, p1 in slits:
                fh.write(
                    f'<line class="slit" x1="{_mm(ox + p0[0])}" y1="{_mm(oy + p0[1])}" '
                    f'x2="{_mm(ox + p1[0])}" y2="{_mm(oy + p1[1])}"/>\n'
                )
        fh.write(
            f'<text x="{_mm(opts.gap_mm)}" y="{_mm(h - 5.0)}" font-size="3.5">'
            f"{count} modules, edge {opts.edge_mm:g} mm; solid = cut, "
            f"{fold_dir} fold on the diagonal, short strokes = slits</text>\n"
        )
        fh.write("</svg>\n")
    return count
