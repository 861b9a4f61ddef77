"""Intersection predicate fixtures, classifier verdicts, vertex figures."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from helistar import (
    BandSpec,
    ParameterError,
    classify,
    solve_band,
    triangles_properly_intersect,
    vertex_figure,
)
from helistar.analysis import classify_face_intersection

from helpers import brute_force_intersecting

T_BASE = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 2.0, 0.0]])


class TestPredicateFixtures:
    def test_piercing_pair(self):
        t2 = np.array([[0.5, 0.5, -1.0], [0.5, 0.5, 1.0], [2.0, 2.0, 1.0]])
        assert triangles_properly_intersect(T_BASE, t2)

    def test_shared_edge_never_intersects(self):
        # combinatorial neighbors meet exactly in the edge
        t2 = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [1.0, -1.0, 1.0]])
        assert not triangles_properly_intersect(T_BASE, t2, shared=2)

    def test_single_point_touch_is_not_proper(self):
        t2 = np.array([[0.0, 0.0, 0.0], [-1.0, 0.0, 1.0], [0.0, -1.0, 1.0]])
        assert not triangles_properly_intersect(T_BASE, t2)

    def test_coplanar_overlap(self):
        t2 = np.array([[0.2, 0.2, 0.0], [1.2, 0.2, 0.0], [0.2, 1.2, 0.0]])
        assert triangles_properly_intersect(T_BASE, t2)

    def test_coplanar_disjoint(self):
        t2 = np.array([[5.0, 5.0, 0.0], [6.0, 5.0, 0.0], [5.0, 6.0, 0.0]])
        assert not triangles_properly_intersect(T_BASE, t2)

    def test_coplanar_segment_contact_counts(self):
        # interiors disjoint but the contact has positive length
        t2 = np.array([[0.5, 0.0, 0.0], [1.5, 0.0, 0.0], [1.0, -1.0, 0.0]])
        assert triangles_properly_intersect(T_BASE, t2)

    def test_parallel_planes_disjoint(self):
        t2 = T_BASE + np.array([0.0, 0.0, 1.0])
        assert not triangles_properly_intersect(T_BASE, t2)

    def test_degenerate_triangle_ignored(self):
        t2 = np.array([[0.0, 0.0, -1.0], [1.0, 1.0, -1.0], [2.0, 2.0, -1.0]])
        assert not triangles_properly_intersect(T_BASE, t2)

    def test_below_tolerance_overlap_is_touching(self):
        t2 = np.array([[0.5, 0.5, 0.0], [1.0, 0.5, 1.0], [0.5, 1.0, 1.0]])
        # tilted triangle meeting the base plane in a single boundary point
        assert not triangles_properly_intersect(T_BASE, t2)


class TestClassifier:
    def test_tetrahelix_embeds(self, tetrahelix):
        cls = classify(tetrahelix)
        assert not cls.intersecting
        assert cls.witness is None
        assert cls.vertex_figure == "simple"
        assert cls.figure_polygon.shape == (6, 3)

    def test_five_strip_verdicts(self, band52):
        hit, witness = classify_face_intersection(band52[0])
        assert hit and witness is not None
        assert not classify_face_intersection(band52[1])[0]
        sols51 = solve_band(BandSpec(5, 1))
        assert not classify_face_intersection(sols51[0])[0]
        assert classify_face_intersection(sols51[1])[0]

    def test_high_winding_branch_is_free(self):
        # winding 6 but geometrically embedded; the radius is large
        b3 = solve_band(BandSpec(7, 2))[2]
        assert b3.winding_m == 6
        assert not classify(b3).intersecting

    def test_witnesses_are_pinned(self, solutions_5_12):
        # verdict and witness of every 5..12 branch, recorded from the scalar
        # pair-by-pair scan; pins the scan order the demos print
        rows = json.loads((Path(__file__).parent / "data" / "face_witnesses_5_12.json").read_text())
        assert [5, 2, 1, True, [["U", 0], ["D", -2]]] in rows
        expected = {}
        for n, s, branch, hit, witness in rows:
            expected[(n, s, branch)] = (hit, None if witness is None else tuple(map(tuple, witness)))
        got = {
            (n, s, sol.branch_index): classify_face_intersection(sol)
            for (n, s), sols in solutions_5_12.items()
            for sol in sols
        }
        assert got == expected

    @pytest.mark.parametrize("base", [3, 7, 11])
    def test_screw_invariance(self, band52, base):
        for sol in band52:
            assert (
                classify_face_intersection(sol, base=base)[0]
                == classify_face_intersection(sol)[0]
            )

    @pytest.mark.parametrize("n,s", [(3, 1), (5, 1), (5, 2), (6, 1)])
    def test_agrees_with_brute_force(self, n, s):
        for sol in solve_band(BandSpec(n, s)):
            assert classify(sol).intersecting == brute_force_intersecting(sol)


class TestVertexFigure:
    def test_hexagon_sides_are_unit(self, band52):
        for sol in band52:
            poly, _ = vertex_figure(sol)
            for u in range(6):
                side = np.linalg.norm(poly[(u + 1) % 6] - poly[u])
                assert abs(side - 1.0) < 1e-9

    def test_face_angles_sum_to_full_turn(self, tetrahelix):
        # six equilateral corners meet at every vertex
        poly, _ = vertex_figure(tetrahelix)
        center = np.zeros(3)
        center[0] = tetrahelix.params.r  # vertex 0 of the helix
        total = 0.0
        for u in range(6):
            w1 = poly[u] - center
            w2 = poly[(u + 1) % 6] - center
            cosang = np.dot(w1, w2) / (np.linalg.norm(w1) * np.linalg.norm(w2))
            total += math.acos(float(np.clip(cosang, -1, 1)))
        assert abs(total - 2.0 * math.pi) < 1e-12

    def test_crossed_branch(self):
        b3 = solve_band(BandSpec(6, 1))[2]
        assert b3.winding_m == 3
        _, kind = vertex_figure(b3)
        assert kind == "crossed"

    def test_kind_is_base_invariant(self, band52):
        for sol in band52:
            assert vertex_figure(sol, base=5)[1] == vertex_figure(sol)[1]


class TestBase:
    @pytest.mark.parametrize("base", [1.5, True, "0", None])
    def test_non_integer_base_is_refused(self, band52, base):
        for check in (classify_face_intersection, vertex_figure):
            with pytest.raises(ParameterError, match="base"):
                check(band52[0], base=base)

    def test_negative_base_is_accepted(self, band52):
        sol = band52[0]
        assert classify_face_intersection(sol, base=-7)[0] == classify_face_intersection(sol)[0]
        assert vertex_figure(sol, base=-3)[1] == vertex_figure(sol)[1]
