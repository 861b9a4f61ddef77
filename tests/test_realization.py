"""Mesh windows, uniformity checks, dihedrals, antiprism towers."""

import io
import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from helistar import (
    BandSpec,
    MeshSegment,
    ModuleOptions,
    ParameterError,
    WindowError,
    antiprism_tower,
    export_modules_svg,
    realize,
    solve_band,
    unfold_net,
    verify_uniform,
)
from helistar import closure_solver as cs
from helistar.realization import MAX_WINDOW

import fingerprint
from helpers import cycle_constellation_dev, face_angle_dev_per_corner, faces_per_side_bad


def regular_tetrahedron_dihedral():
    # from scratch: angle between two faces of an explicit regular tetrahedron
    v = np.array(
        [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.5, math.sqrt(3.0) / 2.0, 0.0],
            [0.5, math.sqrt(3.0) / 6.0, math.sqrt(6.0) / 3.0],
        ]
    )
    n1 = np.cross(v[1] - v[0], v[2] - v[0])
    n2 = np.cross(v[3] - v[0], v[1] - v[0])
    cosang = np.dot(n1, n2) / (np.linalg.norm(n1) * np.linalg.norm(n2))
    return math.pi - math.acos(float(np.clip(cosang, -1, 1)))


class TestRealize:
    def test_tetrahelix_window_counts(self, tetrahelix):
        seg = realize(tetrahelix, 4)
        assert len(seg.vertices) == 13
        assert len(seg.faces) == 20
        assert len(seg.edges) == 33

    def test_vertices_sit_on_the_helix(self, tetrahelix):
        p = tetrahelix.params
        seg = realize(tetrahelix, 2)
        for k, v in enumerate(seg.vertices):
            expect = [
                p.r * math.cos(k * p.theta),
                p.r * math.sin(k * p.theta),
                k * p.h,
            ]
            assert np.linalg.norm(v - expect) < 1e-12

    def test_screw_covariance(self, band52):
        sol = band52[0]
        p = sol.params
        seg = realize(sol, 3)
        ct, st = math.cos(p.theta), math.sin(p.theta)
        rot = np.array([[ct, -st, 0.0], [st, ct, 0.0], [0.0, 0.0, 1.0]])
        moved = seg.vertices @ rot.T + np.array([0.0, 0.0, p.h])
        assert np.max(np.abs(moved[:-1] - seg.vertices[1:])) < 1e-12

    def test_boundary_marks(self, tetrahelix):
        seg = realize(tetrahelix, 4)
        assert seg.boundary_marks == {0, 1, 2, 10, 11, 12}

    def test_orientation_consistent(self, band52):
        seg = realize(band52[0], 3)
        directed = set()
        count = {}
        for tri in seg.faces:
            for u in range(3):
                e = (tri[u], tri[(u + 1) % 3])
                assert e not in directed
                directed.add(e)
                count[frozenset(e)] = count.get(frozenset(e), 0) + 1
        for e, cnt in count.items():
            if cnt == 2:
                u, w = sorted(e)
                assert (u, w) in directed and (w, u) in directed

    def test_faces_point_outward(self):
        # the outward rule itself, recomputed with np.cross and corner means: on every branch of
        # 3..16 at periods 1, 2, 4 and 6 (the CLI's generate and verify defaults) and 24, the summed
        # radial component of the face normals is not negative, and the rule flips some windows
        flipped = kept = 0
        for n in range(3, 17):
            for s in range(1, n // 2 + 1):  # a shift above n/2 is the mirror band, the same BandSpec
                for sol in solve_band(BandSpec(n, s)):
                    a, _, c = sol.offsets
                    for periods in (1, 2, 4, 6, 24):
                        seg = realize(sol, periods)
                        p = seg.vertices[seg.faces]
                        normals = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
                        radial = np.sum(normals[:, :2] * p.mean(axis=1)[:, :2])
                        assert radial >= 0.0, (n, s, sol.branch_index, periods, radial)
                        # U_0 is (0, a, c) as built, (0, c, a) once flipped
                        assert seg.faces[0].tolist() in ([0, a, c], [0, c, a])
                        flipped += seg.faces[0].tolist() == [0, c, a]
                        kept += seg.faces[0].tolist() == [0, a, c]
        assert flipped and kept

    def test_edges_are_the_three_classes(self, tetrahelix):
        seg = realize(tetrahelix, 4)
        a, b, c = tetrahelix.offsets
        kmax = 4 * c
        classes = (seg.edges[:, 1] - seg.edges[:, 0]).tolist()
        assert set(classes) == {a, b, c}
        for d in (a, b, c):
            assert classes.count(d) == kmax - d + 1

    def test_periods_bound(self, tetrahelix):
        assert len(realize(tetrahelix, MAX_WINDOW).vertices) == 3 * MAX_WINDOW + 1
        with pytest.raises(ParameterError, match=f"periods must be .*<= {MAX_WINDOW}"):
            realize(tetrahelix, MAX_WINDOW + 1)

    def test_rejects_bad_periods(self, tetrahelix):
        with pytest.raises(ParameterError):
            realize(tetrahelix, 0)
        with pytest.raises(ParameterError, match="periods"):
            realize(tetrahelix, 1.5)


class TestDihedrals:
    def test_tetrahelix_stacks_of_tetrahedra(self, tetrahelix):
        # c, b, a edges are shared by 1, 2, 3 tetrahedra of the stack
        t = regular_tetrahedron_dihedral()
        angles = dict(zip("abc", tetrahelix.dihedrals))
        assert abs(angles["c"] - t) < 1e-9
        assert abs(angles["b"] - 2.0 * t) < 1e-9
        assert abs(angles["a"] - 3.0 * t) < 1e-9
        # the triple edge is reflex: the tetrahelix's single valley fold
        assert angles["a"] > math.pi
        assert angles["b"] < math.pi and angles["c"] < math.pi

    def test_star_branch_has_a_reflex_class(self, band52):
        star = band52[0]
        assert any(v > math.pi for v in star.dihedrals)

    def test_all_angles_inside_zero_two_pi(self, band52):
        for sol in band52:
            for v in sol.dihedrals:
                assert 0.0 < v < 2.0 * math.pi

    def test_band_stack_rows_equal_single_branches(self, monkeypatch):
        # the rows of the solver's one stack per band, which its coplanarity
        # test reads, against the dihedrals each kept branch computes alone
        stacked = {}
        real = cs._interior_dihedrals

        def stack(bands, params):
            rows = real(bands, params)
            stacked.update(zip(zip(bands, params), rows))
            return rows

        monkeypatch.setattr(cs, "_interior_dihedrals", stack)
        solved = [sol for n in range(3, 17) for s in range(1, n // 2 + 1) for sol in solve_band(BandSpec(n, s))]
        monkeypatch.undo()
        assert len(stacked) >= len(solved) > 300
        for sol in solved:
            row = stacked[sol.band, sol.params]
            assert [v.hex() for v in sol.dihedrals] == [v.hex() for v in row], sol.band

    def test_equality_and_hash_ignore_the_dihedrals(self, band52):
        sol = band52[0]
        other = replace(sol)
        object.__setattr__(other, "dihedrals", (1.0, 2.0, 3.0))
        assert other == sol and hash(other) == hash(sol)
        assert {sol: 1}[other] == 1
        # the derived values are not fields, so replace cannot set them
        assert [f.name for f in fields(sol)] == ["band", "params", "branch_index"]
        for name, value in [("residual", sol.residual + 1.0), ("winding_m", 7), ("dihedrals", (1.0, 2.0, 3.0))]:
            with pytest.raises(TypeError, match=name):
                replace(sol, **{name: value})

    def test_replaced_params_bring_their_own_dihedrals(self, band52):
        # replace used to copy the first branch's dihedrals, winding and
        # residual beside the second's params
        first, second = band52
        moved = replace(first, params=second.params)
        assert [v.hex() for v in moved.dihedrals] == [v.hex() for v in second.dihedrals]
        assert (moved.winding_m, moved.residual.hex()) == (second.winding_m, second.residual.hex())
        assert (second.winding_m, second.residual) != (first.winding_m, first.residual)
        assert moved.dihedrals == second.dihedrals != first.dihedrals
        assert unfold_net(moved).fold_angles.tolist() == unfold_net(second).fold_angles.tolist()
        sheets = [io.StringIO(), io.StringIO()]
        for sol, sheet in zip((moved, second), sheets):
            export_modules_svg(sol, ModuleOptions(), sheet)
        assert sheets[0].getvalue() == sheets[1].getvalue()


class TestVerifyUniform:
    def test_tetrahelix_passes(self, tetrahelix):
        seg = realize(tetrahelix, 4)
        rep = verify_uniform(seg, tetrahelix.offsets)
        assert rep.passed
        assert rep.edge_length_max_dev < 1e-9
        assert rep.face_angle_max_dev < 1e-9
        assert rep.constellation_max_dev < 1e-9
        assert rep.bad_interior_edges == 0
        assert rep.interior_count == 7

    def test_star_window_passes(self, band52):
        seg = realize(band52[0], 4)
        assert verify_uniform(seg, band52[0].offsets).passed

    def test_perturbed_vertex_fails(self, tetrahelix):
        seg = realize(tetrahelix, 4)
        bad = replace(seg, vertices=seg.vertices.copy())
        bad.vertices[6] += np.array([1e-3, 0.0, 0.0])
        rep = verify_uniform(bad, tetrahelix.offsets)
        assert not rep.passed
        assert rep.edge_length_max_dev > 1e-4

    def test_edge_in_one_face_is_counted(self, tetrahelix):
        seg = realize(tetrahelix, 4)
        holed = replace(seg, faces=np.delete(seg.faces, 10, axis=0))
        rep = verify_uniform(holed)
        assert rep.bad_interior_edges == 3
        assert not rep.edge_faces_ok
        assert not rep.passed

    def test_ring_paths_agree(self):
        # rings from edge adjacency must match those of the band's neighbor cycle
        for n in range(3, 13):
            for s in range(1, n // 2 + 1):
                for sol in solve_band(BandSpec(n, s)):
                    for periods in (3, 6):
                        seg = realize(sol, periods)
                        rep = verify_uniform(seg)
                        assert rep.constellation_max_dev.hex() == cycle_constellation_dev(seg, sol.band).hex()

    @pytest.mark.parametrize("magnitude", [0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.1])
    def test_face_angles_match_one_acos_per_corner(self, band52, magnitude):
        rng = np.random.default_rng(18)
        seg = realize(band52[0], 4)
        for vertex in rng.choice(len(seg.vertices), size=5, replace=False):
            bad = replace(seg, vertices=seg.vertices.copy())
            bad.vertices[vertex] += magnitude * rng.standard_normal(3)
            got = verify_uniform(bad).face_angle_max_dev
            assert got.hex() == face_angle_dev_per_corner(bad).hex()

    def test_no_faces_reads_exactly_zero(self, tetrahelix):
        rep = verify_uniform(_with_faces(realize(tetrahelix, 4), []))
        assert rep.face_angle_max_dev == 0.0 and rep.face_angle_ok
        assert math.copysign(1.0, rep.face_angle_max_dev) == 1.0

    def test_face_with_a_repeated_vertex_fails_the_angle_check(self, tetrahelix):
        seg = realize(tetrahelix, 4)
        degenerate = _with_faces(seg, np.concatenate([seg.faces, [[5, 5, 6]]]))
        rep = verify_uniform(degenerate)  # its 0/0 cosine raises no warning
        assert math.isnan(rep.face_angle_max_dev)
        assert not rep.face_angle_ok and not rep.passed

    def test_hand_built_mesh_is_converted(self):
        seg = MeshSegment(
            vertices=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, math.sqrt(3.0) / 2.0, 0.0]],
            faces=[(0, 1, 2)],
            edges=[],
            boundary_marks={0, 1},
        )
        assert seg.vertices.shape == (3, 3)
        assert seg.faces.dtype == np.intp and seg.edges.shape == (0, 2)
        rep = verify_uniform(seg)
        # its one interior vertex has no neighbors, so no uniform ring
        assert not rep.constellation_ok and rep.edge_length_max_dev == 0.0

    def test_bipyramid_vertices_without_six_neighbors_fail(self):
        # a unit-edge triangular bipyramid: unit edges, equilateral faces, each
        # edge in 2 faces, but vertex degrees 3 and 4
        z = math.sqrt(2.0 / 3.0)
        c = math.sqrt(3.0) / 6.0
        verts = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, math.sqrt(3.0) / 2.0, 0.0], [0.5, c, z], [0.5, c, -z]]
        faces = [(0, 1, 3), (1, 2, 3), (2, 0, 3), (1, 0, 4), (2, 1, 4), (0, 2, 4)]
        edges = [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3), (0, 4), (1, 4), (2, 4)]
        rep = verify_uniform(MeshSegment(vertices=verts, faces=faces, edges=edges))
        assert rep.edge_length_max_dev < 1e-15 and rep.face_angle_max_dev < 1e-15
        assert rep.edge_length_ok and rep.face_angle_ok and rep.edge_faces_ok
        assert not rep.constellation_ok and not rep.passed

    @pytest.mark.parametrize(
        "faces, edges, field",
        [
            ([[0, 1, 2.7]], [], "faces"),
            ([[0, 1, 5]], [], "faces"),
            ([[0, 1, -1]], [], "faces"),
            ([[True, False, True]], [], "faces"),
            ([["0", "1", "2"]], [], "faces"),
            ([[0, 1, 2]], [[0, 3]], "edges"),
            ([[0, 1, 2]], [[0.0, 1.0]], "edges"),
            ([[0, 1]], [], "faces"),
            ([[0, 1, 2], [0, 1]], [], "faces"),
            ([0, 1, 2], [], "faces"),
            ([[0, 1, 2]], [[0, 1, 2]], "edges"),
        ],
    )
    def test_mesh_refuses_bad_vertex_indices(self, faces, edges, field):
        verts = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, math.sqrt(3.0) / 2.0, 0.0]]
        with pytest.raises(ParameterError, match=field):
            MeshSegment(vertices=verts, faces=faces, edges=edges)

    @pytest.mark.parametrize("mark", [-1, 3, 1.5, "x", True, np.bool_(True)], ids=repr)
    def test_mesh_refuses_bad_boundary_marks(self, mark):
        # a bool is not a vertex index, and -1 would mark the last vertex
        verts = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, math.sqrt(3.0) / 2.0, 0.0]]
        with pytest.raises(ParameterError, match="boundary_marks"):
            MeshSegment(vertices=verts, faces=[(0, 1, 2)], edges=[], boundary_marks={0, mark})

    def test_mesh_keeps_boundary_marks_given_as_an_iterator(self, tetrahelix):
        # the check used to consume them, and verify_uniform then took every vertex as interior
        seg = realize(tetrahelix, 4)
        again = MeshSegment(seg.vertices, seg.faces, seg.edges, boundary_marks=iter(sorted(seg.boundary_marks)))
        assert again.boundary_marks == seg.boundary_marks
        assert verify_uniform(again).as_dict() == verify_uniform(seg).as_dict()

    def test_mesh_accepts_numpy_integer_marks(self):
        verts = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, math.sqrt(3.0) / 2.0, 0.0]]
        seg = MeshSegment(vertices=verts, faces=[(0, 1, 2)], edges=[], boundary_marks={np.int64(0), 1})
        assert verify_uniform(seg).interior_count == 1

    @pytest.mark.parametrize(
        "verts", [np.zeros((3, 2)), np.zeros(9), [[0.0, 0.0, 0.0], [1.0, 0.0]], [["x", "y", "z"]]]
    )
    def test_mesh_refuses_vertices_that_are_not_v_by_3(self, verts):
        with pytest.raises(ParameterError, match="vertices"):
            MeshSegment(vertices=verts, faces=[], edges=[])

    @pytest.mark.parametrize(
        "verts,message",
        [
            ([[0.0, math.nan, 0.0]], r"vertices\[0\]\[1\] must be a finite real, got nan"),
            ([[math.inf, 0.0, 0.0]], r"vertices\[0\]\[0\] must be a finite real, got inf"),
            ([[0.0, 0.0, -math.inf]], r"vertices\[0\]\[2\] must be a finite real, got -inf"),
            ([["1", "0", "0"]], r"vertices\[0\]\[0\] must be a finite real, got '1'"),
            ([[True, False, True]], r"vertices\[0\]\[0\] must be a finite real, got True"),
            (np.ones((1, 3), dtype=complex), r"vertices\[0\]\[0\] must be a finite real, got \(1\+0j\)"),
            ([[1, 2, None]], r"vertices\[0\]\[2\] must be a finite real, got None"),
        ],
        ids=["nan", "inf", "minus_inf", "numeric_text", "bool", "complex", "none"],
    )
    def test_mesh_refuses_vertices_that_are_not_finite_reals(self, verts, message):
        # such a point would reach export_obj as a "v nan ..." line, which is not OBJ
        with pytest.raises(ParameterError, match=message):
            MeshSegment(vertices=verts, faces=[], edges=[])

    def test_mesh_takes_int_and_float32_vertices_as_floats(self):
        for verts in ([[0, 1, 2]], np.ones((1, 3), dtype=np.float32)):
            seg = MeshSegment(vertices=verts, faces=[], edges=[])
            assert seg.vertices.dtype == float and seg.vertices.tolist() == np.asarray(verts, dtype=float).tolist()

    @pytest.mark.parametrize("marks", [None, 5, 1.5], ids=repr)
    def test_mesh_refuses_boundary_marks_that_are_not_iterable(self, marks):
        with pytest.raises(ParameterError, match=re.escape(f"boundary_marks must be a 1-D array of shape (m,), got {marks!r}")):
            MeshSegment(vertices=np.zeros((3, 3)), faces=[], edges=[], boundary_marks=marks)

    def test_window_too_small(self, tetrahelix):
        seg = realize(tetrahelix, 1)
        with pytest.raises(WindowError):
            verify_uniform(seg, tetrahelix.offsets)

    def test_report_dict_keys(self, tetrahelix):
        d = verify_uniform(realize(tetrahelix, 4), tetrahelix.offsets).as_dict()
        assert list(d) == [
            "vertex_count",
            "interior_count",
            "face_count",
            "edge_length_max_dev",
            "face_angle_max_dev",
            "constellation_max_dev",
            "bad_interior_edges",
            "edge_length_ok",
            "face_angle_ok",
            "constellation_ok",
            "edge_faces_ok",
            "passed",
        ]


def _with_faces(seg, faces):
    return replace(seg, faces=np.asarray(faces, dtype=np.intp).reshape(-1, 3))


class TestSideCounts:
    """bad_interior_edges against a Counter over side tuples."""

    @pytest.mark.parametrize(
        "edit",
        [
            lambda seg: _with_faces(seg, np.delete(seg.faces, 10, axis=0)),
            lambda seg: _with_faces(seg, np.concatenate([seg.faces, seg.faces[7:8]])),
            lambda seg: _with_faces(seg, []),
            # (4, 8) is interior but of no edge class, so no face has it as a side
            lambda seg: replace(seg, edges=np.concatenate([seg.edges, [[4, 8]]])),
            # row 5 is the class-a edge (5, 6), interior and a side of two faces
            lambda seg: replace(seg, edges=np.delete(seg.edges, 5, axis=0)),
        ],
        ids=["face-removed", "face-twice", "no-faces", "edge-in-no-face", "side-not-an-edge"],
    )
    def test_matches_the_counter_oracle(self, tetrahelix, edit):
        seg = edit(realize(tetrahelix, 4))
        want = faces_per_side_bad(seg)
        assert want > 0
        rep = verify_uniform(seg)
        assert rep.bad_interior_edges == want
        assert rep.edge_faces_ok is False and not rep.passed
        assert rep.face_count == len(seg.faces)


class TestPinnedReports:
    def test_every_report_of_the_report_pin_matches_the_side_oracle(self):
        # fingerprint.pinned_meshes, whose reports the report pin holds; a window
        # at periods 1 has no interior vertex, nor has a tower of 2 rings
        meshes = reports = 0
        for seg in fingerprint.pinned_meshes():
            meshes += 1
            try:
                rep = verify_uniform(seg)
            except WindowError:
                continue
            assert rep.bad_interior_edges == faces_per_side_bad(seg)
            reports += 1
        assert (meshes, reports) == (254 * 3 + 30, 254 * 2 + 10 * 2)

    def test_offsets_are_ignored(self, solutions_5_12):
        # a positional caller may still pass a branch's offsets: the report is the same
        windows = 0
        for sols in solutions_5_12.values():
            for sol in sols:
                seg = realize(sol, 24)
                assert verify_uniform(seg, sol.offsets).as_dict() == verify_uniform(seg).as_dict()
                windows += 1
        assert windows == 124


class TestAntiprismTower:
    def test_square_tower_closed_form(self):
        # rings of squares: r from the unit in-ring edge, h from the unit
        # between-ring edge; gon 4 collapses to h = 2**-0.25
        gon, rings = 4, 3
        seg = antiprism_tower(gon, rings)
        assert len(seg.vertices) == gon * rings
        assert len(seg.faces) == 2 * gon * (rings - 1)
        r_expect = 1.0 / (2.0 * math.sin(math.pi / gon))
        h_expect = math.sqrt(1.0 - 2.0 * r_expect * r_expect * (1.0 - math.cos(math.pi / gon)))
        assert abs(h_expect - 2.0 ** -0.25) < 1e-15
        assert abs(float(seg.vertices[gon][2]) - h_expect) < 1e-12
        assert abs(float(np.linalg.norm(seg.vertices[0][:2])) - r_expect) < 1e-12

    def test_all_edges_unit(self):
        seg = antiprism_tower(4, 3)
        for tri in seg.faces:
            pts = seg.vertices[list(tri)]
            for u in range(3):
                d = np.linalg.norm(pts[u] - pts[(u + 1) % 3])
                assert abs(d - 1.0) < 1e-12

    @pytest.mark.parametrize("gon,rings", [(3, 4), (4, 4), (6, 3), (8, 3)])
    def test_tower_is_uniform(self, gon, rings):
        seg = antiprism_tower(gon, rings)
        rep = verify_uniform(seg)
        assert rep.passed, rep.as_dict()

    def test_vertices_match_a_per_vertex_loop(self):
        # the placement law one vertex at a time with math.cos/math.sin, to the bit
        for gon in range(3, 17):
            phi = math.pi / gon
            r = 1.0 / (2.0 * math.sin(phi))
            h = math.sqrt(1.0 - (1.0 - math.cos(phi)) / (2.0 * math.sin(phi) ** 2))
            for rings in range(2, 7):
                ref = []
                for j in range(rings):
                    for i in range(gon):
                        t = 2.0 * math.pi * i / gon + j * phi
                        ref.append((r * math.cos(t), r * math.sin(t), j * h))
                got = antiprism_tower(gon, rings).vertices
                assert got.tobytes() == np.array(ref).tobytes(), (gon, rings)

    def test_boundary_is_first_and_last_ring(self):
        seg = antiprism_tower(5, 3)
        assert seg.boundary_marks == set(range(5)) | set(range(10, 15))

    def test_size_bound(self):
        assert len(antiprism_tower(3, MAX_WINDOW).vertices) == 3 * MAX_WINDOW
        assert len(antiprism_tower(MAX_WINDOW, 2).vertices) == 2 * MAX_WINDOW
        for gon, rings, name in ((MAX_WINDOW + 1, 2, "gon"), (3, MAX_WINDOW + 1, "rings")):
            with pytest.raises(ParameterError, match=f"{name} must be .*<= {MAX_WINDOW}"):
                antiprism_tower(gon, rings)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ParameterError):
            antiprism_tower(2, 3)
        with pytest.raises(ParameterError):
            antiprism_tower(4, 1)
        with pytest.raises(ParameterError, match="gon"):
            antiprism_tower(3.5, 3)
