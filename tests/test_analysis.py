"""Intersection predicate fixtures, classifier verdicts, vertex figures."""

import hashlib
import json
import math
import random
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helistar import (
    BandSpec,
    HelixParams,
    ParameterError,
    classify,
    solve_band,
    triangles_properly_intersect,
)
from helistar import analysis, helix_points
from helistar.analysis import BLOCK_ROWS, ROW_BUDGET, classify_face_intersection, vertex_figure

from helpers import brute_force_intersecting, figure_oracle, full_scan_witnesses, kept_row_oracle, lanes, shifted_witness

T_BASE = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 2.0, 0.0]])


def pinned_witnesses():
    """Rows of face_witnesses_5_12.json, and (n, s, branch) -> (verdict, witness)."""
    rows = json.loads((Path(__file__).parent / "data" / "face_witnesses_5_12.json").read_text())
    expected = {}
    for n, s, branch, hit, witness in rows:
        expected[(n, s, branch)] = (hit, None if witness is None else tuple(map(tuple, witness)))
    return rows, expected


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

    def test_one_batch_mixes_every_kind_of_row(self):
        # each row leaves the predicate at another mask; the rejected ones
        # divide by zero, which must stay silent
        rows = [
            ([[0.5, 0.5, -1.0], [0.5, 0.5, 1.0], [0.5, 0.5, 0.0]], 0, False),  # zero-area T2 across T1's plane
            ([[0.2, 0.2, 0.0], [1.2, 0.2, 0.0], [0.2, 1.2, 0.0]], 0, True),  # coplanar overlap
            ([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [1.0, 1.0, 0.0]], 2, False),  # shares an edge, even overlapping
            ([[0.0, 0.0, 0.0], [-1.0, -1.0, 1.0], [-1.0, -1.0, -1.0]], 1, False),  # touches at one vertex
            ([[0.5, 0.5, -1.0], [0.5, 0.5, 1.0], [2.0, 2.0, 1.0]], 0, True),  # crossing
            ([[0.5, 0.5, 0.0], [1.0, 0.25, 0.0], [0.5, 0.5, 1.0]], 0, True),  # an edge inside T1, 0/0 in the interval step
        ]
        P = lanes([T_BASE] * len(rows))
        Q = lanes([t2 for t2, _, _ in rows])
        shared = np.array([sh for _, sh, _ in rows])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = analysis._intersect(P, Q, shared, analysis._plane(P))
        assert got.tolist() == [hit for _, _, hit in rows]
        assert got.tolist() == [triangles_properly_intersect(T_BASE, t2, sh) for t2, sh, _ in rows]


class TestPredicateInput:
    """triangles_properly_intersect refuses what is not two triangles and a shared count."""

    @pytest.mark.parametrize(
        "t2,message",
        [
            (T_BASE[:2], r"t2 must be a 2-D array of shape \(3, 3\), got shape \(2, 3\)"),
            ([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.0, 1.0]], r"t2 must be a 2-D array of shape \(3, 3\), got shape \(3,\)"),
            (None, r"t2 must be a 2-D array of shape \(3, 3\), got None"),
            ([[0.0, 0.0, 1.0], [1.0, 0.0, "x"], [0.0, 1.0, 1.0]], r"t2\[1\]\[2\] must be a finite real, got 'x'"),
            ([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.0, math.nan, 1.0]], r"t2\[2\]\[1\] must be a finite real, got nan"),
            ([[0.0, 0.0, 1.0], [1.0, 0.0, math.inf], [0.0, 1.0, 1.0]], r"t2\[1\]\[2\] must be a finite real"),
            ([[0.0, 0.0, True], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]], r"t2\[0\]\[2\] must be a finite real, got True"),
        ],
        ids=["two_rows", "ragged", "none", "text", "nan", "inf", "bool"],
    )
    def test_a_malformed_triangle_is_refused(self, t2, message):
        with pytest.raises(ParameterError, match=message):
            triangles_properly_intersect(T_BASE, t2)
        with pytest.raises(ParameterError, match=message.replace("t2", "t1", 1)):
            triangles_properly_intersect(t2, T_BASE)

    @pytest.mark.parametrize("shared", [5, -1, True, 1.0, np.int64(1)], ids=["five", "negative", "bool", "float", "numpy"])
    def test_a_bad_shared_count_is_refused(self, shared):
        with pytest.raises(ParameterError, match=r"shared must be an integer >= 0 and <= 3"):
            triangles_properly_intersect(T_BASE, T_BASE + 1.0, shared)

    def test_numbers_of_any_real_kind_are_taken(self):
        # ints, numpy scalars and float32 arrays are reals; a list gives the array's verdict
        t2 = np.array([[0.5, 0.5, -1.0], [0.5, 0.5, 1.0], [2.0, 2.0, 1.0]])
        assert triangles_properly_intersect(T_BASE.astype(int), t2.astype(np.float32), 0)
        assert triangles_properly_intersect([[np.int64(0), 0, 0], [2, 0, 0], [0, 2, 0]], t2.tolist(), shared=3) is False


class TestBranchInput:
    @pytest.mark.parametrize("func", [classify_face_intersection, vertex_figure])
    @pytest.mark.parametrize("bad", [None, 3, "ab", []], ids=["none", "int", "str", "list"])
    def test_a_non_branch_is_refused(self, func, bad):
        with pytest.raises(ParameterError, match="^solution must be a BranchSolution, got"):
            func(bad)

    @pytest.mark.parametrize("func", [classify_face_intersection, vertex_figure])
    def test_a_list_of_one_branch_is_refused(self, band52, func):
        with pytest.raises(ParameterError, match=r"^solution must be a BranchSolution, got \["):
            func(band52[:1])


class TestClassifier:
    def test_tetrahelix_embeds(self, tetrahelix):
        [cls] = classify([tetrahelix])
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
        assert not classify([b3])[0].intersecting

    def test_witnesses_are_pinned(self, solutions_5_12):
        # verdict and witness of every 5..12 branch, recorded from the scalar
        # pair-by-pair scan; pins the scan order the demos print
        rows, expected = pinned_witnesses()
        assert [5, 2, 1, True, [["U", 0], ["D", -2]]] in rows
        got = {
            (n, s, sol.branch_index): classify_face_intersection(sol)
            for (n, s), sols in solutions_5_12.items()
            for sol in sols
        }
        assert got == expected

    @pytest.mark.parametrize("base", [3, 7, 11])
    def test_screw_invariance(self, band52, base):
        # the unreduced scan at v_base finds classify's witness, moved up by base
        expected = [shifted_witness((cls.intersecting, cls.witness), base) for cls in classify(band52)]
        assert full_scan_witnesses(band52, base) == expected

    def test_mirror_images_keep_every_verdict(self, solutions_5_12):
        # theta -> 2 pi - theta reflects the mesh through the xz plane; every
        # branch of 5..12, compound bands included
        checked = 0
        for sols in solutions_5_12.values():
            mirrors = [
                replace(sol, params=HelixParams(sol.params.r, 2.0 * math.pi - sol.params.theta, sol.params.h))
                for sol in sols
            ]
            ours, theirs = classify(sols), classify(mirrors)
            assert [(c.intersecting, c.vertex_figure) for c in theirs] == [
                (c.intersecting, c.vertex_figure) for c in ours
            ]
            checked += len(sols)
        assert checked == 124

    @pytest.mark.parametrize("n,s", [(3, 1), (5, 1), (5, 2), (6, 1)])
    def test_agrees_with_brute_force(self, n, s):
        sols = solve_band(BandSpec(n, s))
        for sol, cls in zip(sols, classify(sols), strict=True):
            assert cls.intersecting == brute_force_intersecting(sol)


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

    def test_kind_is_base_invariant(self, solutions_5_12):
        # classify's figure at v_0 against an oracle with its own projection
        # and crossing test, placed at v_0 and v_5; every branch of 5..12,
        # compound bands included
        ours = [cls.vertex_figure for sols in solutions_5_12.values() for cls in classify(sols)]
        assert len(ours) == 124 and set(ours) == {"simple", "crossed"}
        for base in (0, 5):
            assert [figure_oracle(sol, base) for sols in solutions_5_12.values() for sol in sols] == ours


class TestFullScan:
    """The reduced face pass against the unreduced scan of both prototypes."""

    @pytest.fixture(scope="class")
    def bands_5_24(self):
        bands = [BandSpec(n, s) for n in range(5, 25) for s in range(1, n // 2 + 1)]
        return [sols for sols in solve_band(bands) if sols]

    def test_classify_matches_the_full_scan(self, bands_5_24):
        # every branch of 5..24, compound bands included, at base 0
        checked = hits = 0
        for sols in bands_5_24:
            expected = full_scan_witnesses(sols)
            assert [(cls.intersecting, cls.witness) for cls in classify(sols)] == expected
            checked += len(sols)
            hits += sum(hit for hit, _ in expected)
        assert checked == 1149 and hits > 500

    def test_census_verdicts_are_pinned(self, bands_5_24):
        # verdict, witness and figure of every branch of 5..24 with compounds,
        # classified as a census does, in one call
        branches = [sol for sols in bands_5_24 for sol in sols]
        lines = [
            f"{sol.band.n_strips} {sol.band.shift} {sol.branch_index} {cls.intersecting} {cls.witness} {cls.vertex_figure}"
            for sol, cls in zip(branches, classify(branches), strict=True)
        ]
        assert len(lines) == 1149
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "d8c754220121ffdc45146d3c1a43c8e87b5e20646f2f5727b2f4a7ed26a18a00"

    @pytest.mark.parametrize("base", [-7, 3])
    def test_one_branch_matches_the_full_scan_at_other_bases(self, bands_5_24, base):
        # the unreduced scan at v_base finds each branch's base-0 witness, moved up by base
        for sols in bands_5_24:
            expected = [shifted_witness(classify_face_intersection(sol), base) for sol in sols]
            assert full_scan_witnesses(sols, base) == expected


class TestKeptRow:
    def test_closed_form_matches_the_window_compare(self):
        # every band of 3..64 with a < b (an a = b band has no branches to classify),
        # all in one pass and each alone: the same corners, shared counts and
        # names, in the same order; the codes are decoded by the rule the face
        # pass names its witness with
        bands = [BandSpec(n, s) for n in range(3, 65) for s in range(1, n // 2 + 1)]
        bands = [band for band in bands if band.offsets[0] < band.offsets[1]]
        u0, *rows, sizes = analysis._kept_rows(bands)
        assert len(bands) == 992 and rows[2].dtype.kind == "i"
        ends = np.cumsum(sizes)
        for i, band in enumerate(bands):
            ref = kept_row_oracle(band)
            got = [u0[i], *(row[ends[i] - sizes[i]:ends[i]] for row in rows)]
            alone = analysis._kept_rows([band])
            for x, y, z in zip(got[:3], ref[:3], [alone[0][0], *alone[1:3]]):
                assert x.dtype == y.dtype and x.tolist() == y.tolist() == z.tolist(), band
            assert list(map(analysis._face_id, got[3].tolist())) == ref[3], band
            assert got[3].tolist() == alone[3].tolist() and alone[4].tolist() == [sizes[i]]
            assert sizes[i] == 3 * band.offsets[2] - 2


class TestBandPass:
    def test_band_matches_batches_of_one(self):
        # every band of 5..16, compounds included: the band pass, a batch of
        # one and the per-branch functions give the same result exactly
        checked = 0
        for n in range(5, 17):
            for s in range(1, n // 2 + 1):
                sols = solve_band(BandSpec(n, s))
                band = classify(sols)
                assert len(band) == len(sols)
                for sol, cls in zip(sols, band):
                    [one] = classify([sol])
                    polygon, kind = vertex_figure(sol)
                    got = (cls.intersecting, cls.witness, cls.vertex_figure)
                    assert got == (one.intersecting, one.witness, one.vertex_figure)
                    assert got == (*classify_face_intersection(sol), kind)
                    assert np.array_equal(cls.figure_polygon, one.figure_polygon)
                    assert np.array_equal(cls.figure_polygon, polygon)
                    checked += 1
        assert checked > 300

    def test_band_by_band_matches_one_call_to_n_64(self):
        # the CLI's call shape, one band a call, against one call over every
        # branch of 3..64: the call the pinned 3..64 fingerprint digest covers
        bands = [BandSpec(n, s) for n in range(3, 65) for s in range(1, n // 2 + 1)]
        per_band = [sols for sols in solve_band(bands) if sols]
        whole = classify([sol for sols in per_band for sol in sols])
        alone = [cls for sols in per_band for cls in classify(sols)]
        assert len(alone) == len(whole) == 23_796
        fields = lambda cls: (cls.intersecting, cls.witness, cls.vertex_figure, cls.figure_polygon.tobytes())
        assert list(map(fields, alone)) == list(map(fields, whole))

    def test_band_pass_reproduces_the_witness_pin(self, solutions_5_12):
        _, expected = pinned_witnesses()
        got = {
            (n, s, sol.branch_index): (cls.intersecting, cls.witness)
            for (n, s), sols in solutions_5_12.items()
            for sol, cls in zip(sols, classify(sols), strict=True)
        }
        assert got == expected

    def test_order_follows_the_input(self, solutions_5_12):
        sols = solutions_5_12[(11, 2)]
        forward = classify(sols)
        backward = classify(sols[::-1])[::-1]
        assert [(c.intersecting, c.witness, c.vertex_figure) for c in forward] == [
            (c.intersecting, c.witness, c.vertex_figure) for c in backward
        ]

    def test_empty_band(self):
        assert classify([]) == []

    @pytest.mark.parametrize(
        "bands,count",
        [
            ([BandSpec(n, s) for n in range(5, 25) for s in range(1, n // 2 + 1)], 1149),
            # (10, 4) is the 2-compound of (5, 2): same component, another band
            ([BandSpec(5, 2), BandSpec(10, 4)], 6),
        ],
        ids=["5_to_24", "5_2_with_10_4"],
    )
    def test_shuffled_bands_match_the_band_passes(self, bands, count):
        # branches of many bands in one shuffled call, compounds included
        per_band = [sols for sols in solve_band(bands) if sols]
        branches = [sol for sols in per_band for sol in sols]
        expected = [cls for sols in per_band for cls in classify(sols)]
        oracle = [witness for sols in per_band for witness in full_scan_witnesses(sols)]
        order = random.Random(21).sample(range(len(branches)), len(branches))
        got = classify([branches[i] for i in order])
        assert len(got) == len(branches)
        for i, cls in zip(order, got):
            assert (cls.intersecting, cls.witness) == (expected[i].intersecting, expected[i].witness) == oracle[i]
            assert cls.vertex_figure == expected[i].vertex_figure
            assert cls.figure_polygon.tobytes() == expected[i].figure_polygon.tobytes()
        assert len(branches) == count

    @pytest.mark.parametrize("bad", [1, None, "ab"])
    def test_non_branch_is_refused(self, band52, bad):
        # as an element, after a good branch, and as the argument itself (a str is not a list of its letters)
        for solutions, named in (([bad], r"solutions\[0\]"), ([band52[0], bad], r"solutions\[1\]"), (bad, "solutions")):
            with pytest.raises(ParameterError, match=f"^{named} must be"):
                classify(solutions)

    def test_a_single_branch_is_refused(self, band52):
        with pytest.raises(ParameterError, match=r"^solutions must be a list of BranchSolution, got Branch"):
            classify(band52[0])

    def test_indeterminate_figure_stays_in_its_row(self, band52):
        # r = 0 puts every vertex on the axis: the fan normals vanish and the
        # figure is indeterminate, without a numpy warning, while the other
        # branches of the stack keep their kinds
        p = band52[0].params
        flat = replace(band52[0], params=HelixParams(0.0, p.theta, p.h))
        got = classify([band52[1], flat, band52[0]])
        assert [c.vertex_figure for c in got] == [
            vertex_figure(band52[1])[1], "indeterminate", vertex_figure(band52[0])[1]
        ]
        assert not got[1].intersecting
        assert vertex_figure(flat)[1] == "indeterminate"


class TestStagedScan:
    """The face pass's predicate calls, recorded at _intersect."""

    @pytest.fixture(scope="class")
    def branches_5_24(self):
        bands = [BandSpec(n, s) for n in range(5, 25) for s in range(1, n // 2 + 1)]
        return [sol for sols in solve_band(bands) for sol in sols]

    @staticmethod
    def recorder(monkeypatch):
        """Each predicate call's two triangle stacks, as row-first (m, 3, 3) views of its lanes."""
        calls = []
        real = analysis._intersect

        def record(P, Q, shared, plane1):
            calls.append((P.T, Q.T))
            return real(P, Q, shared, plane1)

        monkeypatch.setattr(analysis, "_intersect", record)
        return calls

    def test_a_census_is_few_calls_of_few_rows(self, branches_5_24, monkeypatch):
        # 5..24 is one block; the rows are the staged scan's,
        # close to the 17,820 that first-hit order needs
        calls = self.recorder(monkeypatch)
        classify(branches_5_24)
        assert sum(len(T1) for T1, _ in calls) == 20_438
        assert len(calls) <= 23

    def test_no_pass_gets_more_than_a_block(self, branches_5_24, monkeypatch):
        # a block holds at most BLOCK_ROWS kept rows (3c - 2 a branch): 5..24 is one
        # block, 5..64 is split, and both passes see every branch once
        seen = {"_face_pass": [], "_figure_pass": []}

        def record(name, blocks):
            def stand_in(helix, bands, band):  # the block's branches and kept rows; no verdicts needed here
                blocks.append((len(helix), sum(3 * bands[i].offsets[2] - 2 for i in band)))
                if name == "_face_pass":
                    return [(False, None)] * len(helix)
                return np.zeros((len(helix), 6, 3)), ["simple"] * len(helix)
            return stand_in

        for name, blocks in seen.items():
            monkeypatch.setattr(analysis, name, record(name, blocks))
        classify(branches_5_24)
        assert seen == {name: [(1149, 62_295)] for name in seen}
        branches_5_64 = [sol for sols in solve_band([BandSpec(n, s) for n in range(5, 65) for s in range(1, n // 2 + 1)])
                         for sol in sols]
        for blocks in seen.values():
            blocks.clear()
        classify(branches_5_64)
        for blocks in seen.values():
            assert len(blocks) > 1 and max(rows for _, rows in blocks) <= BLOCK_ROWS
            assert sum(size for size, _ in blocks) == len(branches_5_64) == 23_793

    def test_calls_fit_the_budget_and_skip_most_rows(self, branches_5_24, monkeypatch):
        calls = self.recorder(monkeypatch)
        classify(branches_5_24)
        full = sum(3 * sol.offsets[2] - 2 for sol in branches_5_24)  # every kept row, to its end
        assert full == 62_295
        assert max(len(T1) for T1, _ in calls) <= ROW_BUDGET
        assert sum(len(T1) for T1, _ in calls) <= 0.4 * full

    def test_long_stages_are_split_at_the_budget(self, monkeypatch):
        # at n = 48 a block's first stage alone needs more than one call
        calls = self.recorder(monkeypatch)
        classify([sol for sols in solve_band([BandSpec(48, s) for s in range(1, 25)]) for sol in sols])
        assert max(len(T1) for T1, _ in calls) == ROW_BUDGET

    def test_free_branches_are_scanned_to_the_end(self, branches_5_24, monkeypatch):
        # a branch's rows carry its own U_0 as first triangle; a branch without
        # a hit must have had every face of its kept row tested
        calls = self.recorder(monkeypatch)
        verdicts = classify(branches_5_24)
        scanned = Counter(tri.tobytes() for T1, _ in calls for tri in T1)
        free = 0
        for sol, cls in zip(branches_5_24, verdicts):
            a, _, c = sol.offsets
            rows = scanned[helix_points(sol.params, [0, a, c]).tobytes()]
            if not cls.intersecting:
                assert rows == 3 * c - 2, sol.band
                free += 1
            else:
                assert 0 < rows <= 3 * c - 2
        assert free == 87

    def test_every_row_is_a_kept_face_of_its_branch(self, solutions_5_12, monkeypatch):
        # both triangles of every row have helix_points's bits: the first is its
        # branch's U_0 = (0, a, c), the second one of that branch's kept faces,
        # U_k for -c <= k <= -1 and D_k for -c <= k <= c but D_0, D_-b and D_a
        branches = [sol for sols in solutions_5_12.values() for sol in sols]
        kept = {}
        for sol in branches:
            a, b, c = sol.band.offsets
            faces = [(k, k + a, k + c) for k in range(-c, 0)]
            faces += [(k, k + c, k + b) for k in range(-c, c + 1) if k not in (0, -b, a)]
            kept[helix_points(sol.params, [0, a, c]).tobytes()] = {helix_points(sol.params, f).tobytes() for f in faces}
        assert len(kept) == len(branches) == 124
        calls = self.recorder(monkeypatch)
        classify(branches)
        rows = [(u0.tobytes(), face.tobytes()) for T1, T2 in calls for u0, face in zip(T1, T2, strict=True)]
        assert rows and all(face in kept[u0] for u0, face in rows)

    def test_a_small_band_is_one_call(self, solutions_5_12, monkeypatch):
        calls = self.recorder(monkeypatch)
        for sols in solutions_5_12.values():
            if sols:
                calls.clear()
                classify(sols)
                assert len(calls) == 1


class TestEmbeddingLaw:
    """ROADMAP items 15 and 18, measured: a branch of a connected band is
    non-intersecting exactly when its meridian winds once, |w| = 1, and each
    band has exactly one such branch. w = s*round(n*theta/2pi) - n*round(s*theta/2pi)
    comes from theta alone, with no analysis code; the verdict is classify's."""

    def test_non_intersecting_exactly_when_w_is_one_on_3_to_40(self):
        bands = [BandSpec(n, s) for n in range(3, 41) for s in range(1, n // 2 + 1) if math.gcd(n, s) == 1]
        branches = solve_band(bands)
        verdicts = iter(classify([sol for sols in branches for sol in sols]))
        for band, sols in zip(bands, branches):
            n, s = band.n_strips, band.shift
            turns = [sol.params.theta / (2.0 * math.pi) for sol in sols]
            w = [s * round(n * t) - n * round(s * t) for t in turns]
            embedded = [not next(verdicts).intersecting for _ in sols]
            assert embedded == [abs(x) == 1 for x in w], (n, s, w)
            assert embedded.count(True) == 1, (n, s, w)
        assert next(verdicts, None) is None
        assert (len(bands), sum(map(len, branches))) == (244, 3671)
