"""Acceptance suite: the eleven headline checks, one test each.

Run with -v to get one pass/fail line per criterion. The shared catalog
fixture covers strips 5..12 with compounds included; oracles live in
helpers.py and are independent of the code paths they judge.
"""

import io
import math
import time

import numpy as np
import pytest

import helistar as hs
from helpers import brute_force_intersecting, oracle_intersecting, refold_max_error

# named star objects: (n, s) -> winding m, all expected connected,
# intersecting, and simple-figured
NAMED_STARS = {
    ("5-2(1)"): (5, 1, 2),
    ("5-2(2)"): (5, 2, 2),
    ("7-2(2)"): (7, 2, 2),
    ("7-3(3)"): (7, 3, 3),
    ("8-3(1)"): (8, 1, 3),
    ("8-3(3)"): (8, 3, 3),
    ("9-4(1)"): (9, 1, 4),
    ("9-4(2)"): (9, 2, 4),
    ("9-4(4)"): (9, 4, 4),
    ("11-2(2)"): (11, 2, 2),
}


def test_c01_tetrahelix_closed_form():
    t0 = time.perf_counter()
    sols = hs.solve_band(hs.BandSpec(3, 1))
    elapsed = time.perf_counter() - t0
    assert len(sols) == 1
    p = sols[0].params
    assert abs(p.theta - math.acos(-2.0 / 3.0)) < 1e-9
    assert abs(p.r - 3.0 * math.sqrt(3.0) / 10.0) < 1e-9
    assert abs(p.h - 1.0 / math.sqrt(10.0)) < 1e-9
    assert elapsed < 1.0


def test_c02_uniformity_sweep(entry_solutions):
    t0 = time.perf_counter()
    assert entry_solutions
    for entry, sol in entry_solutions:
        seg = hs.realize(sol, 6)
        rep = hs.verify_uniform(seg, sol.offsets)
        assert rep.passed, f"{entry.name}: {rep.as_dict()}"
        assert rep.edge_length_max_dev < 1e-9
        assert rep.face_angle_max_dev < 1e-9
        assert rep.constellation_max_dev < 1e-9
        assert rep.bad_interior_edges == 0
    assert time.perf_counter() - t0 < 60.0


def test_c03_branch_count_stable_under_grid_doubling():
    fine = hs.SolverOptions(grid_points=400000)
    for n in range(3, 17):
        for s in range(1, n // 2 + 1):
            band = hs.BandSpec(n, s)
            base_sols = hs.solve_band(band)
            fine_sols = hs.solve_band(band, fine)
            assert len(base_sols) == len(fine_sols), f"band ({n},{s})"
            for x, y in zip(base_sols, fine_sols):
                assert abs(x.params.theta - y.params.theta) < 1e-8


def test_c04_named_objects_present(catalog_entries):
    for name, (n, s, m) in NAMED_STARS.items():
        hits = [
            e
            for e in catalog_entries
            if (e.n_strips, e.shift, e.winding_m) == (n, s, m) and e.components == 1
        ]
        assert hits, f"no connected branch for {name}"
        assert any(e.intersecting for e in hits), f"{name} not intersecting"
    # the 12-5(3) label falls on a compound band and is reported as such
    rep = hs.build_report(catalog_entries)
    assert any("12-5(3)" in line for line in rep.compound_star_labels)


def test_c05_shift_and_compound_laws(solutions_5_12, catalog_entries):
    # five strips admit exactly two shifts, both with branches
    five = [(n, s) for (n, s) in solutions_5_12 if n == 5 and solutions_5_12[(n, s)]]
    assert five == [(5, 1), (5, 2)]
    # six strips yield exactly one star entry
    six_stars = [e for e in catalog_entries if e.n_strips == 6 and e.is_star]
    assert len(six_stars) == 1
    assert (six_stars[0].shift, six_stars[0].winding_m) == (1, 2)
    # (6,2) splits into two tetrahelices
    tet = (math.acos(-2.0 / 3.0), 3.0 * math.sqrt(3.0) / 10.0, 1.0 / math.sqrt(10.0))
    branches = solutions_5_12[(6, 2)]
    assert len(branches) == 2
    for sol in branches:
        g, comp, cp = hs.component_params(sol)
        assert g == 2 and comp == hs.BandSpec(3, 1)
        assert abs(cp.theta - tet[0]) < 1e-9
        assert abs(cp.r - tet[1]) < 1e-9
        assert abs(cp.h - tet[2]) < 1e-9


def test_c06_enumeration_breakdown(catalog_entries):
    rep = hs.build_report(catalog_entries)
    covered = {(r["n"], r["s"]) for r in rep.rows}
    expected = {(n, s) for n in range(5, 13) for s in range(1, n // 2 + 1)}
    # a = b bands have no branches and so no row; everything else is present
    assert covered == {k for k in expected if k[0] != 2 * k[1]}
    text = hs.format_report(rep)
    assert str(hs.catalog.REFERENCE_STAR_TALLY) in text
    print()  # the table is the deliverable; run with -s to see it inline
    print(text)
    # soft criterion: the computed total is reported against 64, not forced
    assert rep.star_total == 56


def test_c07_classifier_matches_brute_force(entry_solutions):
    checked = 0
    for entry, sol in entry_solutions:
        if entry.n_strips > 9:
            continue
        assert entry.intersecting == brute_force_intersecting(sol, periods=3), entry.name
        assert entry.intersecting == oracle_intersecting(sol, periods=3), entry.name
        checked += 1
    assert checked >= 30


def test_c08_vertex_figures(catalog_entries):
    assert all(
        e.vertex_figure in ("simple", "crossed", "indeterminate") for e in catalog_entries
    )
    for name, (n, s, m) in NAMED_STARS.items():
        hits = [
            e
            for e in catalog_entries
            if (e.n_strips, e.shift, e.winding_m) == (n, s, m)
            and e.components == 1
            and e.intersecting
        ]
        assert any(e.vertex_figure == "simple" for e in hits), name
    # soft criterion: crossed-family size reported against the published 12
    rep = hs.build_report(catalog_entries)
    assert rep.crossed_total == 15


def test_c09_net_refold_round_trip(entry_solutions):
    checked = 0
    for entry, sol in entry_solutions:
        if entry.n_strips > 9:
            continue
        err = refold_max_error(sol, rows=2)
        assert err < 1e-6, f"{entry.name}: refold error {err:.3e}"
        checked += 1
    assert checked >= 30


def test_c10_antiprism_closed_form():
    seg = hs.antiprism_tower(4, 3)
    assert abs(float(seg.vertices[4][2]) - 2.0 ** -0.25) < 1e-12
    for tri in seg.faces:
        pts = seg.vertices[list(tri)]
        for u in range(3):
            assert abs(np.linalg.norm(pts[u] - pts[(u + 1) % 3]) - 1.0) < 1e-12


def test_c11_determinism(catalog_entries, tmp_path):
    opts = {"n_min": 5, "n_max": 12, "include_compounds": True}
    # enumerate twice from scratch, write twice: identical bytes
    again = hs.enumerate_catalog(5, 12, include_compounds=True)
    bufs = []
    for entries in (catalog_entries, again):
        buf = io.StringIO()
        hs.write_catalog(entries, buf, opts)
        bufs.append(buf.getvalue())
    assert bufs[0] == bufs[1]

    sol = hs.solve_band(hs.BandSpec(5, 2))[0]
    seg = hs.realize(sol, 3)
    pairs = []
    for _ in range(2):
        obj, frame, net_svg, mod_svg, csv_out = (io.StringIO() for _ in range(5))
        hs.export_obj(seg, obj)
        hs.export_obj(seg, frame, frame=True)
        hs.export_net_svg(hs.unfold_net(sol, rows=2), net_svg)
        hs.export_modules_svg(sol, hs.ModuleOptions(), mod_svg)
        hs.write_catalog_csv(catalog_entries, csv_out)
        pairs.append(
            (obj.getvalue(), frame.getvalue(), net_svg.getvalue(),
             mod_svg.getvalue(), csv_out.getvalue())
        )
    assert pairs[0] == pairs[1]

    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    hs.write_catalog(catalog_entries, str(path_a), opts)
    hs.write_catalog(catalog_entries, str(path_b), opts)
    assert path_a.read_bytes() == path_b.read_bytes()
