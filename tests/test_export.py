"""OBJ, net, and module-sheet emission plus the fold-forward round trip."""

import hashlib
import io
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import helistar
from helistar import (
    BandSpec,
    MeshSegment,
    ModuleOptions,
    ParameterError,
    export_modules_svg,
    export_net_svg,
    export_obj,
    read_catalog,
    realize,
    solve_band,
    unfold_net,
    write_catalog,
    write_catalog_csv,
)
from helistar.realization import MAX_WINDOW

from helpers import fold_classes, modules_svg_oracle, net_svg_oracle, pinned_meshes, refold_max_error


def parse_obj(text):
    verts, faces, lines = [], [], []
    for line in text.splitlines():
        head, *rest = line.split()
        if head == "v":
            verts.append([float(x) for x in rest])
        elif head == "f":
            faces.append(tuple(int(x) - 1 for x in rest))
        elif head == "l":
            lines.append(tuple(int(x) - 1 for x in rest))
    return np.array(verts), faces, lines


class TestObj:
    def test_counts_and_roundtrip(self, tetrahelix):
        seg = realize(tetrahelix, 4)
        buf = io.StringIO()
        export_obj(seg, buf)
        verts, faces, lines = parse_obj(buf.getvalue())
        assert verts.shape == (13, 3)
        assert len(faces) == 20 and not lines
        assert faces == [tuple(f) for f in seg.faces.tolist()]
        assert np.max(np.abs(verts - seg.vertices)) < 1e-9

    def test_frame_emits_edges(self, tetrahelix):
        seg = realize(tetrahelix, 4)
        buf = io.StringIO()
        export_obj(seg, buf, frame=True)
        _, faces, lines = parse_obj(buf.getvalue())
        assert not faces
        assert len(lines) == 33
        assert lines == [tuple(e) for e in seg.edges.tolist()]

    def test_deterministic(self, band52):
        seg = realize(band52[0], 3)
        a, b = io.StringIO(), io.StringIO()
        export_obj(seg, a)
        export_obj(seg, b)
        assert a.getvalue() == b.getvalue()

    def test_negative_zero_normalized(self):
        seg = MeshSegment(
            vertices=np.array([[-0.0, -1e-12, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
            faces=[(0, 1, 2)],
            edges=[(0, 1)],
        )
        buf = io.StringIO()
        export_obj(seg, buf)
        first = buf.getvalue().splitlines()[0]
        assert first == "v 0.000000000 0.000000000 1.000000000"

    def test_refuses_empty_mesh(self):
        empty = MeshSegment(vertices=np.zeros((0, 3)), faces=[], edges=[])
        with pytest.raises(ParameterError):
            export_obj(empty, io.StringIO())

    def test_writes_to_path(self, tetrahelix, tmp_path):
        out = tmp_path / "tet.obj"
        export_obj(realize(tetrahelix, 2), str(out))
        assert out.read_text().startswith("v ")

    @pytest.mark.parametrize("periods", [1, 24])
    def test_one_write_per_block(self, band52, periods):
        # the vertex block and the face or line block are each one write
        class CountingSink(io.StringIO):
            writes = 0

            def write(self, text):
                self.writes += 1
                return super().write(text)

        seg = realize(band52[0], periods)
        for frame in (False, True):
            sink = CountingSink()
            export_obj(seg, sink, frame=frame)
            assert sink.writes <= 2, (periods, frame)
            assert sink.getvalue().count("\n") == len(seg.vertices) + len(seg.edges if frame else seg.faces)


# faces then frame of every mesh of helpers.pinned_meshes
OBJ_SHA256 = "493433ba99f38459f9f407b63edee0972daa125cb317e081033c9473e96ef058"


class TestObjBytes:
    def test_every_face_and_frame_file_matches_its_pin(self):
        digest = hashlib.sha256()
        files = 0
        for seg, _ in pinned_meshes():
            for frame in (False, True):
                buf = io.StringIO()
                export_obj(seg, buf, frame=frame)
                digest.update(buf.getvalue().encode())
                files += 1
        assert files == 2 * (254 * 3 + 30)
        assert digest.hexdigest() == OBJ_SHA256


class TestNet:
    def test_lattice_counts(self, band52):
        n, rows = 5, 3
        net = unfold_net(band52[0], rows=rows)
        assert net.points.shape == ((n + 1) * (rows + 1), 2)
        assert net.triangles.shape == (2 * n * rows, 3)
        # a fold's class is its row difference: rows + 1 for a, -rows for b, 1 for c
        by_cls = Counter(np.diff(net.fold_edges).ravel().tolist())
        assert by_cls == {rows + 1: n * (rows - 1), -rows: n * rows, 1: (n - 1) * rows}

    def test_lattice_edges_are_unit(self, band52):
        net = unfold_net(band52[0], rows=2)
        for tri in net.triangles:
            pts = net.points[tri]
            for u in range(3):
                d = np.linalg.norm(pts[u] - pts[(u + 1) % 3])
                assert abs(d - 1.0) < 1e-12

    def test_fold_angles_match_dihedrals(self, band52):
        sol = band52[0]
        net = unfold_net(sol, rows=2)
        angles = dict(zip((3, -2, 1), sol.dihedrals))  # a, b, c by row difference at rows = 2
        for (u, v), angle in zip(net.fold_edges.tolist(), net.fold_angles.tolist()):
            assert angle == angles[v - u]

    def test_every_fold_carries_its_class_dihedral(self, solutions_5_12):
        # the class comes from the fold's point rows alone, the angle from the branch
        nets = 0
        for (n, s), sols in solutions_5_12.items():
            for sol in sols:
                dihedral = dict(zip("abc", sol.dihedrals))
                for rows in (1, 2, 3):
                    net = unfold_net(sol, rows=rows)
                    classes = fold_classes(net)
                    assert [classes.count(c) for c in "abc"] == [n * (rows - 1), n * rows, (n - 1) * rows]
                    assert net.fold_angles.tolist() == [dihedral[c] for c in classes]
                    nets += 1
        assert nets == 3 * 124

    def test_seam_pairs_follow_the_shift(self, band52):
        net = unfold_net(band52[0], rows=3)
        labels = [[divmod(row, 4) for row in pair] for pair in net.seam_pairs.tolist()]  # row i*4 + j is (i, j)
        assert labels == [[(5, 0), (0, 2)], [(5, 1), (0, 3)]]
        # window shorter than the shift leaves no complete pair
        assert unfold_net(band52[0], rows=1).seam_pairs.shape == (0, 2)

    def test_rows_bound(self, tetrahelix):
        assert len(unfold_net(tetrahelix, rows=MAX_WINDOW).points) == 4 * (MAX_WINDOW + 1)
        with pytest.raises(ParameterError, match=f"rows must be .*<= {MAX_WINDOW}"):
            unfold_net(tetrahelix, rows=MAX_WINDOW + 1)

    def test_needs_band_and_rows(self, band52):
        with pytest.raises(ParameterError):
            unfold_net(band52[0], rows=0)
        with pytest.raises(ParameterError, match="rows"):
            unfold_net(band52[0], rows=1.5)


class TestRefold:
    def test_tetrahelix_refolds_onto_the_helix(self, tetrahelix):
        assert refold_max_error(tetrahelix, rows=2) < 1e-6
        assert refold_max_error(tetrahelix, rows=3) < 1e-6

    @pytest.mark.parametrize("n,s,b", [(5, 2, 0), (5, 2, 1), (7, 3, 0)])
    def test_star_nets_refold(self, n, s, b):
        sol = solve_band(BandSpec(n, s))[b]
        assert refold_max_error(sol, rows=2) < 1e-6


class TestNetSvg:
    def test_structure(self, band52):
        net = unfold_net(band52[0], rows=2)
        buf = io.StringIO()
        export_net_svg(net, buf)
        svg = buf.getvalue()
        assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
        assert svg.count('class="mountain"') + svg.count('class="valley"') == len(net.fold_angles)
        assert svg.count('class="cut"') == 1
        assert "<desc>" in svg and "viewBox" in svg
        # each seam pair is labeled on both columns
        label_count = sum(svg.count(f">{i}</text>") for i in range(len(net.seam_pairs)))
        assert label_count == 2 * len(net.seam_pairs)

    def test_mountain_valley_split_matches_folds(self, band52):
        net = unfold_net(band52[0], rows=2)
        buf = io.StringIO()
        export_net_svg(net, buf)
        svg = buf.getvalue()
        m = int(np.count_nonzero(net.fold_angles < math.pi))
        v = len(net.fold_angles) - m
        assert svg.count('<line class="mountain"') == m
        assert svg.count('<line class="valley"') == v

    def test_deterministic(self, band52):
        net = unfold_net(band52[0], rows=2)
        a, b = io.StringIO(), io.StringIO()
        export_net_svg(net, a)
        export_net_svg(net, b)
        assert a.getvalue() == b.getvalue()

    @pytest.mark.parametrize("edge_mm", [0.0, -5.0, math.nan, math.inf, True, "40"])
    def test_rejects_bad_edge_length(self, band52, edge_mm):
        net = unfold_net(band52[0], rows=2)
        with pytest.raises(ParameterError, match="edge_mm"):
            export_net_svg(net, io.StringIO(), edge_mm=edge_mm)


class TestModulesSvg:
    def test_one_rhombus_per_face_pair(self, band52):
        sol = band52[0]
        opts = ModuleOptions(periods=2)
        buf = io.StringIO()
        export_modules_svg(sol, opts, buf)
        svg = buf.getvalue()
        count = 2 * sol.offsets[2] - sol.offsets[2] + 1
        seg = realize(sol, 2)
        assert count == len(seg.faces) // 2
        assert svg.count('class="cut"') == count
        assert svg.count('class="slit"') == 2 * count
        assert "slit" in svg.split("<desc>")[1].split("</desc>")[0].lower()

    def test_deterministic_and_rejects_bad_periods(self, band52):
        a, b = io.StringIO(), io.StringIO()
        export_modules_svg(band52[0], ModuleOptions(), a)
        export_modules_svg(band52[0], ModuleOptions(), b)
        assert a.getvalue() == b.getvalue()
        with pytest.raises(ParameterError):
            export_modules_svg(band52[0], ModuleOptions(periods=0), io.StringIO())

    def test_returns_module_count(self, band52):
        buf = io.StringIO()
        count = export_modules_svg(band52[0], ModuleOptions(periods=3), buf)
        assert count == len(realize(band52[0], 3).faces) // 2
        assert buf.getvalue().count('class="cut"') == count

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"edge_mm": 0.0},
            {"edge_mm": -1.0},
            {"edge_mm": math.nan},
            {"columns": 0},
            {"periods": 0},
            {"slit_fraction": 0.0},
            {"slit_fraction": -1.0},
            {"slit_fraction": math.nan},
            {"slit_fraction": math.sqrt(3.0) / 4.0},
            {"slit_fraction": 0.6},
            {"periods": 1.5},
            {"columns": 2.5},
            {"columns": True},
            {"edge_mm": "40"},
            {"edge_mm": True},
            {"edge_mm": math.inf},
            {"slit_fraction": "0.2"},
            {"slit_fraction": True},
        ],
    )
    def test_options_reject_bad_dimensions(self, kwargs):
        with pytest.raises(ParameterError):
            ModuleOptions(**kwargs)

    @pytest.mark.parametrize("name", ["periods", "columns"])
    def test_options_bound_the_periods_and_columns(self, name):
        assert getattr(ModuleOptions(**{name: MAX_WINDOW}), name) == MAX_WINDOW
        with pytest.raises(ParameterError, match=f"{name} must be .*<= {MAX_WINDOW}"):
            ModuleOptions(**{name: MAX_WINDOW + 1})

    def test_options_accept_the_open_slit_range(self):
        ModuleOptions(slit_fraction=1e-9)
        ModuleOptions(slit_fraction=math.nextafter(math.sqrt(3.0) / 4.0, 0.0))

    def test_slits_meet_at_the_rhombus_centre(self, band52):
        # at the bound both slit tips land on the centre, where the module splits
        buf = io.StringIO()
        fraction = math.nextafter(math.sqrt(3.0) / 4.0, 0.0)
        export_modules_svg(band52[0], ModuleOptions(periods=1, slit_fraction=fraction), buf)
        tips = re.findall(r'<line class="slit" .* x2="([^"]+)" y2="([^"]+)"', buf.getvalue())
        assert len(tips) == 2 and tips[0] == tips[1]

    def test_huge_sheet_keeps_full_length_slits(self, band52):
        # the slit direction comes from the unit rhombus, so no step overflows
        opts = ModuleOptions(edge_mm=1e300, periods=1, columns=1)
        buf = io.StringIO()
        export_modules_svg(band52[0], opts, buf)
        ends = re.findall(
            r'<line class="slit" x1="([^"]+)" y1="([^"]+)" x2="([^"]+)" y2="([^"]+)"', buf.getvalue()
        )
        assert len(ends) == 2
        for x1, y1, x2, y2 in ends:
            dx = (float(x2) - float(x1)) / opts.edge_mm
            dy = (float(y2) - float(y1)) / opts.edge_mm
            assert abs(math.hypot(dx, dy) - opts.slit_fraction) < 1e-12


# net (rows, edge_mm) and module-sheet options covered by the byte pin below
NET_CASES = [(2, 40.0), (1, 0.3), (3, 12.5), (5, 1e6)]
MODULE_CASES = [ModuleOptions(), ModuleOptions(12.5, 3, 2, 0.4), ModuleOptions(0.3, 4, 7, 0.43)]
SHEETS_SHA256 = "0fd2a192917db582fd9b963ecb70a49802d38e9033e8003a5ca614c023c6a166"


class TestSheetBytes:
    def test_every_sheet_of_3_to_12_parses_and_matches_its_pin(self):
        bands = [BandSpec(n, s) for n in range(3, 13) for s in range(1, n // 2 + 1)]
        digest = hashlib.sha256()
        sheets = 0
        for sols in solve_band(bands):
            for sol in sols:
                for rows, edge_mm in NET_CASES:
                    buf = io.StringIO()
                    export_net_svg(unfold_net(sol, rows=rows), buf, edge_mm=edge_mm)
                    ET.fromstring(buf.getvalue())
                    digest.update(buf.getvalue().encode())
                for opts in MODULE_CASES:
                    buf = io.StringIO()
                    export_modules_svg(sol, opts, buf)
                    ET.fromstring(buf.getvalue())
                    digest.update(buf.getvalue().encode())
                sheets += len(NET_CASES) + len(MODULE_CASES)
        assert sheets > 500
        assert digest.hexdigest() == SHEETS_SHA256


def _move_point(net):
    # label (1, 1), at row rows + 2: past the old right edge and below row 0, so the sheet size and signs change
    net.points[net.rows + 2] += [9.25, -1.5]


def _move_point_onto_the_margin(net):
    # label (0, 1), at row 1: a page x a hair below zero, which the sheet writes as 0.000
    net.points[1, 0] = -0.35 - 1e-9


def _flip_a_fold(net):
    net.fold_angles[3] = 2.0 * math.pi - net.fold_angles[3]


def _drop_folds(net):
    net.fold_edges, net.fold_angles = net.fold_edges[:0], net.fold_angles[:0]


def _drop_seam_pairs(net):
    net.seam_pairs = net.seam_pairs[:0]


class TestSheetOracle:
    """The one-pass sheet writers against helpers' per-element writers, on
    inputs the byte pin never reaches."""

    @pytest.mark.parametrize(
        "edit", [_move_point, _move_point_onto_the_margin, _flip_a_fold, _drop_folds, _drop_seam_pairs]
    )
    @pytest.mark.parametrize("n,s,rows", [(5, 2, 3), (7, 3, 4)])
    def test_edited_net(self, n, s, rows, edit):
        net = unfold_net(solve_band(BandSpec(n, s))[0], rows=rows)
        edit(net)
        for edge_mm in (40.0, 0.3):
            buf = io.StringIO()
            export_net_svg(net, buf, edge_mm=edge_mm)
            assert buf.getvalue() == net_svg_oracle(net, edge_mm)

    def test_no_folds_and_no_seam_pairs_leave_the_outline(self, band52):
        net = unfold_net(band52[0], rows=1)
        _drop_folds(net)
        assert len(net.seam_pairs) == 0
        buf = io.StringIO()
        export_net_svg(net, buf)
        assert buf.getvalue() == net_svg_oracle(net)
        assert "<line" not in buf.getvalue() and buf.getvalue().count("<text") == 1

    @pytest.mark.parametrize("periods,columns", [(1, 5), (2, 7), (2, 1000)])
    def test_fewer_modules_than_columns(self, band52, tetrahelix, periods, columns):
        for sol in (tetrahelix, *band52):
            opts = ModuleOptions(12.5, periods, columns, 0.2)
            buf = io.StringIO()
            count = export_modules_svg(sol, opts, buf)
            assert count < columns
            assert buf.getvalue() == modules_svg_oracle(sol, opts)


# Each writer with a small output, well inside a pipe's buffer, so that a
# writer that does write to the descriptor cannot block
WRITERS = {
    "write_catalog": lambda sol, sink: write_catalog([], sink),
    "write_catalog_csv": lambda sol, sink: write_catalog_csv([], sink),
    "export_obj": lambda sol, sink: export_obj(realize(sol, 1), sink),
    "export_net_svg": lambda sol, sink: export_net_svg(unfold_net(sol, rows=1), sink),
    "export_modules_svg": lambda sol, sink: export_modules_svg(sol, ModuleOptions(periods=1), sink),
}


class TestSinks:
    # open() takes an int, or a bool, as a file descriptor, writes to it and
    # closes it; a sink or source must be a file object or a path. Only pipe
    # descriptors are passed here: the session's own stdio must stay open.
    @pytest.mark.parametrize("name", WRITERS)
    def test_a_writer_refuses_a_file_descriptor(self, tetrahelix, name):
        r, w = os.pipe()
        try:
            with pytest.raises(ParameterError, match="file object or a path"):
                WRITERS[name](tetrahelix, w)
            os.close(w)  # OSError if the writer closed it
            assert os.read(r, 1) == b""
        finally:
            os.close(r)

    def test_read_catalog_refuses_a_file_descriptor(self):
        r, w = os.pipe()
        os.close(w)  # an empty pipe at its end: reading cannot block
        with pytest.raises(ParameterError, match="file object or a path"):
            read_catalog(r)
        os.close(r)  # OSError if read_catalog closed it

    def test_a_bool_sink_is_refused_in_a_child_process(self):
        # True is fd 1: the child's stdout must stay open and hold only its own line
        package_root = str(Path(helistar.__file__).resolve().parent.parent)
        code = (
            f"import sys\nsys.path.insert(0, {package_root!r})\nimport helistar\n"
            "try:\n    helistar.write_catalog([], True)\n"
            "except helistar.ParameterError as exc:\n    print(exc)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout == "expected a file object or a path, got True\n"
