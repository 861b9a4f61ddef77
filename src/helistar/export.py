"""Mesh, frame, net, and module-sheet emission. All outputs byte deterministic.

OBJ files carry v/f/l records only, 9 fixed decimals, one write per block.
Negative zero prints as 0 (_unsigned_zeros, per OBJ vertex block and SVG sheet).
Nets are the flat triangle lattice of the band with every interior edge annotated
by its fold (interior dihedral and mountain/valley direction); the seam columns
carry the shift correspondence. Module sheets hold one rhombus per (U_k, D_k)
face pair for slide-together assembly, with a slit convention chosen by this
package and stated inside the emitted file. Both sheets go through one writer,
_write_sheet, each element kind one %-template filled from coordinate arrays.
A sink that is not a file object or a path raises ParameterError (_opened).
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .closure_solver import BranchSolution
from .errors import ParameterError, check_array, check_int, check_real, check_type
from .realization import MAX_WINDOW, MeshSegment, _vertex_indices

__all__ = [
    "NetLayout",
    "ModuleOptions",
    "export_obj",
    "unfold_net",
    "export_net_svg",
    "export_modules_svg",
]

SQRT3_2 = math.sqrt(3.0) / 2.0
SQRT3_4 = SQRT3_2 / 2.0  # quarter-point to rhombus centre, in edges
GAP_MM = 8.0  # module sheet margin and spacing between modules


def _unsigned_zeros(text: str, zero: str) -> str:
    """text with each "-" + zero as zero; exact when every number has zero's fixed decimals."""
    return text.replace("-" + zero, zero)


@contextmanager
def _opened(target, mode: str = "w", newline: str | None = "\n"):
    """target itself if it is a file object, else the path opened and closed after."""
    if hasattr(target, "read" if mode == "r" else "write"):
        yield target
    elif isinstance(target, (str, bytes, os.PathLike)):
        with open(target, mode, encoding="utf-8", newline=newline) as fh:
            yield fh
    else:
        raise ParameterError(f"expected a file object or a path, got {target!r}")


def export_obj(segment: MeshSegment, sink, frame: bool = False) -> None:
    """Write v + f records, or v + l edge records when frame is set.

    Indices are 1-based and vertices in index order, so re-parsing reproduces
    the mesh. One write per block.
    """
    check_type("segment", segment, MeshSegment)
    check_type("frame", frame, bool)
    if len(segment.vertices) == 0:
        raise ParameterError("refusing to write an empty mesh")
    line, rows = ("l %d %d\n", segment.edges) if frame else ("f %d %d %d\n", segment.faces)
    with _opened(sink) as fh:
        fh.write(_unsigned_zeros(_fill("v %.9f %.9f %.9f\n", segment.vertices), "0.000000000"))
        fh.write(_fill(line, rows + 1))


@dataclass
class NetLayout:
    """Flat lattice window of a band as arrays: points, triangles, folds, seam pairs.

    points is (m, 2), m = (n_strips + 1)(rows + 1): row i*(rows + 1) + j is lattice
    label (i, j), at P(i, j) = (i*sqrt(3)/2, j + i/2) in edge units. triangles
    (2*n_strips*rows, 3), fold_edges (f, 2) and seam_pairs (p, 2) hold point rows;
    triangles are in the orientation order of their 3D counterparts, and seam
    pair j glues (n, j) to (0, j + s). fold_angles (f,) is each fold's interior
    dihedral: mountain below pi, valley above. A fold's class is its row
    difference: rows + 1 for a, -rows for b, 1 for c. Each array is checked whole
    when built: points finite reals, the row arrays ints in [0, m).
    """

    n_strips: int
    shift: int
    rows: int
    points: np.ndarray
    triangles: np.ndarray
    fold_edges: np.ndarray
    fold_angles: np.ndarray
    seam_pairs: np.ndarray

    def __post_init__(self) -> None:
        check_int("n_strips", self.n_strips, 2)
        check_int("shift", self.shift, 1)
        check_int("rows", self.rows, 1, MAX_WINDOW)
        m = (self.n_strips + 1) * (self.rows + 1)
        self.points = check_array("points", self.points, "iuf", (m, 2)).astype(float, copy=False)
        self.triangles = _vertex_indices("triangles", self.triangles, (None, 3), m)
        self.fold_edges = _vertex_indices("fold_edges", self.fold_edges, (None, 2), m)
        f = len(self.fold_edges)
        self.fold_angles = check_array("fold_angles", self.fold_angles, "iuf", (f,)).astype(float, copy=False)
        self.seam_pairs = _vertex_indices("seam_pairs", self.seam_pairs, (None, 2), m)


def unfold_net(solution: BranchSolution, rows: int = 2) -> NetLayout:
    """Unfold a band window into its flat strip lattice.

    The window covers strip-boundary lines i in [0, n] and rows j in [0, rows].
    Interior lattice edges become folds carrying the edge class's interior
    dihedral, class a (j in [1, rows)), then b, then c, each j outer and i
    inner; the two boundary columns are the seam and carry the shift
    correspondence instead of a fold. rows is at most MAX_WINDOW.
    """
    check_type("solution", solution, BranchSolution)
    check_int("rows", rows, 1, MAX_WINDOW)
    n, s, r = solution.band.n_strips, solution.band.shift, rows + 1  # r: point rows per lattice line

    ii, jj = np.divmod(np.arange((n + 1) * r), r)  # every label, i outer
    grid = np.arange(rows) + np.arange(n)[:, None] * r  # the row of (i, j), i < n and j < rows
    # at each (i, j), j outer: the ends of (i, j)-(i+1, j), (i+1, j)-(i, j+1) and (i, j)-(i, j+1)
    ends = grid.T[None, :, :, None] + np.array([[0, r], [r, 1], [0, 1]])[:, None, None]
    j = np.arange(rows - s + 1)  # empty when rows < s: no complete pair
    return NetLayout(
        n_strips=n, shift=s, rows=rows,
        points=np.column_stack([ii * SQRT3_2, jj + ii / 2.0]),
        triangles=(grid[..., None, None] + np.array([[0, r, 1], [r, r + 1, 1]])).reshape(-1, 3),
        # an a fold for j >= 1, every b fold, a c fold for i >= 1
        fold_edges=np.concatenate([ends[0, 1:].reshape(-1, 2), ends[1].reshape(-1, 2), ends[2, :, 1:].reshape(-1, 2)]),
        fold_angles=np.repeat(solution.dihedrals, [n * (rows - 1), n * rows, (n - 1) * rows]),
        seam_pairs=np.column_stack([n * r + j, j + s]),
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


# element templates: each coordinate is a %.3f slot, filled for a whole sheet at once
_CUT = '<path class="cut" d="M %.3f %.3f L %.3f %.3f L %.3f %.3f L %.3f %.3f Z"/>\n'


def _line(cls: str) -> str:
    return f'<line class="{cls}" x1="%.3f" y1="%.3f" x2="%.3f" y2="%.3f"/>\n'


def _text(size: float, body: str = "%s") -> str:
    return f'<text x="%.3f" y="%.3f" font-size="{size}">{body}</text>\n'


# a fold's line, then its degrees: mountain below pi, valley above; objects, so a take shares the two strings
_FOLD_ROWS = np.array([_line(d) + _text(2.6, "%.1f") for d in ("mountain", "valley")], dtype=object)


def _fill(template: str | list[str], *columns) -> str:
    """template (row i: template[i], if a list) once per row of the columns side by side, filling its slots in order."""
    rows = np.column_stack(columns)
    return (template * len(rows) if isinstance(template, str) else "".join(template)) % tuple(rows.ravel().tolist())


def _write_sheet(sink, w: float, h: float, desc: str, body, footer_x: float, footer: str) -> None:
    """Write a w x h mm sheet: the <svg> tag, style, desc, body() and footer text.

    Coordinates have 3 decimals, and one pass over the sheet writes -0.000 as
    0.000. ParameterError unless w and h are both finite, before body() or the sink.
    """
    if not (math.isfinite(w) and math.isfinite(h)):
        raise ParameterError(f"sheet size must be finite, got {w} x {h} mm")
    sheet = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.3f}mm" height="{h:.3f}mm" '
        f'viewBox="0 0 {w:.3f} {h:.3f}">\n{_SVG_STYLE}<desc>{desc}</desc>\n{body()}'
        f'{_text(3.5) % (footer_x, h - 5.0, footer)}</svg>\n'
    )
    with _opened(sink) as fh:
        fh.write(_unsigned_zeros(sheet, "0.000"))


def export_net_svg(net: NetLayout, sink, edge_mm: float = 40.0) -> None:
    """Cut-and-fold sheet for a net: outline, fold lines, angles, seam marks.

    Millimeter user units, triangle edge = edge_mm. Mountain folds are dashed,
    valleys dash-dot; each fold carries its dihedral in degrees. The seam rows
    are numbered so row j on the right column meets row j + s on the left.
    The net's fields are checked again, as a NetLayout built from them is, so
    a field reassigned after unfold_net raises ParameterError too.
    """
    check_type("net", net, NetLayout)
    net = replace(net)  # a copy, built from the fields as they are now
    check_real("edge_mm", edge_mm, above=0)
    margin = 0.35 * edge_mm
    points, n, s, rows = net.points, net.n_strips, net.shift, net.rows
    corners = [0, n * (rows + 1), n * (rows + 1) + rows, rows]  # the rows of (0, 0), (n, 0), (n, rows), (0, rows)
    xmax, ymax = points.max(axis=0).tolist()

    def body() -> str:
        # flip y so row numbers grow upward on the page: x, ymax - y (as -y + ymax, the same bits), scaled
        page = margin + (points * [1.0, -1.0] + [0.0, ymax]) * edge_mm
        ends = page.take(net.fold_edges, axis=0).reshape(-1, 4)
        # each seam number beside its end: right of the right column, left of the left (y + 0.0 is y; -0 writes 0.000)
        marks = (page.take(net.seam_pairs, axis=0) + [[0.08 * edge_mm, 0.0], [-0.08 * edge_mm, 0.0]]).reshape(-1, 2)
        angles = net.fold_angles  # np.degrees has math.degrees' bits: one product by 180/pi
        templates = _FOLD_ROWS.take(angles >= math.pi).tolist()  # mountain (0) or valley (1), per fold
        return (
            _CUT % tuple(page.take(corners, axis=0).ravel().tolist())
            + _fill(templates, ends, (ends[:, :2] + ends[:, 2:]) / 2, np.degrees(angles))
            + _fill(_text(3.2, "%d"), marks, np.arange(len(marks)) // 2)
        )

    _write_sheet(
        sink, xmax * edge_mm + 2 * margin, ymax * edge_mm + 2 * margin + 14.0,
        f"net for band ({n},{s}), {rows} rows; mountain = dashed, valley = dash-dot, "
        f"angles are interior dihedrals in degrees; right seam row j glues to left seam row j+{s}",
        body, margin,
        f"band ({n},{s}): dashed = mountain fold, dash-dot = valley fold; "
        f"matching seam numbers glue together",
    )


@dataclass(frozen=True)
class ModuleOptions:
    """Layout knobs for the slide-together module sheet.

    The slit convention is this package's: one slit per class-a edge at its
    quarter-point, perpendicular into the rhombus, slit_fraction of an edge
    long; the two slits are images of each other under the rhombus's
    180-degree rotation. They lie on one line through the rhombus centre, at
    sqrt(3)/4 of an edge from each quarter-point, so slit_fraction must stay
    below sqrt(3)/4 or the slits meet and cut the module in two. periods and
    columns are each at most MAX_WINDOW, so every sheet size is a float.
    """

    edge_mm: float = 40.0
    periods: int = 2
    columns: int = 5
    slit_fraction: float = 0.25

    def __post_init__(self) -> None:
        check_real("edge_mm", self.edge_mm, above=0)
        check_int("periods", self.periods, 1, MAX_WINDOW)
        check_int("columns", self.columns, 1, MAX_WINDOW)
        check_real("slit_fraction", self.slit_fraction, above=0, below=SQRT3_4)


def export_modules_svg(solution: BranchSolution, opts: ModuleOptions, sink) -> int:
    """Sheet of congruent rhombus modules, one per (U_k, D_k) face pair.

    Each module is two unit triangles glued along the class-c edge, which is
    drawn as the fold line; the window of `periods` periods holds faces/2 such
    pairs. Modules are identical, so the sheet is just a grid of them. Returns
    the module count.
    """
    check_type("solution", solution, BranchSolution)
    check_type("opts", opts, ModuleOptions)
    count = (opts.periods - 1) * solution.band.n_strips + 1  # face pairs in the window = faces/2, c = n
    angle = solution.dihedrals[2]
    fold_dir = "mountain" if angle < math.pi else "valley"
    edge, cols = opts.edge_mm, opts.columns
    pitch_x, pitch_y = edge + GAP_MM, 2.0 * SQRT3_2 * edge + GAP_MM
    w = cols * pitch_x + GAP_MM
    h = (count + cols - 1) // cols * pitch_y + GAP_MM + 14.0

    def body() -> str:
        # rhombus A, B, C, D in local mm coordinates, page y downward; the fold
        # diagonal A-C is horizontal and the class-a edges are A-B and C-D
        A, B, C, D = edge * np.array([(0.0, SQRT3_2), (0.5, 2.0 * SQRT3_2), (1.0, SQRT3_2), (0.5, 0.0)])
        # each slit runs from the quarter-point of its class-a edge perpendicular
        # into the rhombus, along +-(sqrt(3)/2, -1/2): a direction free of edge_mm
        step = opts.slit_fraction * edge * np.array([SQRT3_2, -0.5])
        q0, q1 = A + 0.25 * (B - A), C + 0.25 * (D - C)
        m = np.arange(count)
        origin = np.column_stack([GAP_MM + (m % cols) * pitch_x, GAP_MM + (m // cols) * pitch_y])
        # each module's points in template order: outline, fold diagonal, both slits
        local = np.array([A, B, C, D, A, C, q0, q0 + step, q1, q1 - step])
        return _fill(_CUT + _line(fold_dir) + _line("slit") * 2, (origin[:, None] + local).reshape(count, -1))

    _write_sheet(
        sink, w, h,
        f"{count} slide-together modules; each is two unit triangles joined along the "
        f"class-c edge ({fold_dir} fold, {math.degrees(angle):.1f} degrees). Slit convention "
        f"chosen by this package: slits at the quarter-points of the two class-a edges, "
        f"perpendicular, {opts.slit_fraction:g} edge long, 180-degree rotationally symmetric.",
        body, GAP_MM,
        f"{count} modules, edge {opts.edge_mm:g} mm; solid = cut, "
        f"{fold_dir} fold on the diagonal, short strokes = slits",
    )
    return count
