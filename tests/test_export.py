"""OBJ, net, and module-sheet emission plus the fold-forward round trip."""

import io
import math

import numpy as np
import pytest

from helistar import (
    BandSpec,
    MeshSegment,
    MissingBandError,
    ModuleOptions,
    ParameterError,
    dihedral_angles,
    export_modules_svg,
    export_net_svg,
    export_obj,
    realize,
    solve_band,
    unfold_net,
)

from helpers import refold_max_error


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
        assert faces == seg.faces
        assert np.max(np.abs(verts - seg.vertices)) < 1e-9

    def test_frame_emits_edges(self, tetrahelix):
        seg = realize(tetrahelix, 4)
        buf = io.StringIO()
        export_obj(seg, buf, frame=True)
        _, faces, lines = parse_obj(buf.getvalue())
        assert not faces
        assert len(lines) == 33
        assert lines == [(u, w) for (u, w, _t) in seg.edges]

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
            edges=[(0, 1, "a")],
            k_range=(0, 2),
        )
        buf = io.StringIO()
        export_obj(seg, buf)
        first = buf.getvalue().splitlines()[0]
        assert first == "v 0.000000000 0.000000000 1.000000000"

    def test_refuses_empty_mesh(self):
        empty = MeshSegment(vertices=np.zeros((0, 3)), faces=[], edges=[], k_range=(0, 0))
        with pytest.raises(ParameterError):
            export_obj(empty, io.StringIO())

    def test_writes_to_path(self, tetrahelix, tmp_path):
        out = tmp_path / "tet.obj"
        export_obj(realize(tetrahelix, 2), str(out))
        assert out.read_text().startswith("v ")


class TestNet:
    def test_lattice_counts(self, band52):
        n, rows = 5, 3
        net = unfold_net(band52[0], rows=rows)
        assert len(net.points) == (n + 1) * (rows + 1)
        assert len(net.triangles) == 2 * n * rows
        by_cls = {}
        for f in net.folds:
            by_cls[f.cls] = by_cls.get(f.cls, 0) + 1
        assert by_cls == {"a": n * (rows - 1), "b": n * rows, "c": (n - 1) * rows}

    def test_lattice_edges_are_unit(self, band52):
        net = unfold_net(band52[0], rows=2)
        for tri in net.triangles:
            pts = [net.points[lbl] for lbl in tri]
            for u in range(3):
                d = np.linalg.norm(pts[u] - pts[(u + 1) % 3])
                assert abs(d - 1.0) < 1e-12

    def test_fold_angles_match_dihedrals(self, band52):
        sol = band52[0]
        net = unfold_net(sol, rows=2)
        angles = dihedral_angles(sol)
        for f in net.folds:
            assert f.angle == angles[f.cls]
            assert f.direction == ("mountain" if f.angle < math.pi else "valley")

    def test_seam_pairs_follow_the_shift(self, band52):
        net = unfold_net(band52[0], rows=3)
        assert net.seam_pairs == [((5, 0), (0, 2)), ((5, 1), (0, 3))]
        # window shorter than the shift leaves no complete pair
        assert unfold_net(band52[0], rows=1).seam_pairs == []

    def test_needs_band_and_rows(self, band52):
        from helistar import solve_branches
        from helistar.band_combinatorics import OffsetTriple

        free = solve_branches(OffsetTriple(2, 3, 5))[0]
        with pytest.raises(MissingBandError):
            unfold_net(free)
        with pytest.raises(ParameterError):
            unfold_net(band52[0], rows=0)


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
        assert svg.count('class="mountain"') + svg.count('class="valley"') == len(net.folds)
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
        m = sum(1 for f in net.folds if f.direction == "mountain")
        v = len(net.folds) - m
        assert svg.count('<line class="mountain"') == m
        assert svg.count('<line class="valley"') == v

    def test_deterministic(self, band52):
        net = unfold_net(band52[0], rows=2)
        a, b = io.StringIO(), io.StringIO()
        export_net_svg(net, a)
        export_net_svg(net, b)
        assert a.getvalue() == b.getvalue()

    @pytest.mark.parametrize("edge_mm", [0.0, -5.0, math.nan, math.inf])
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
        count = 2 * sol.offsets.c - sol.offsets.c + 1
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
        [{"edge_mm": 0.0}, {"edge_mm": -1.0}, {"edge_mm": math.nan}, {"columns": 0}, {"periods": 0}],
    )
    def test_options_reject_bad_dimensions(self, kwargs):
        with pytest.raises(ParameterError):
            ModuleOptions(**kwargs)
