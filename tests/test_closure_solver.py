"""Closure solver against closed forms and an independent determinant."""

import math

import numpy as np
import pytest

from helistar import (
    BandSpec,
    HelixParams,
    OffsetTriple,
    ParameterError,
    SolverOptions,
    chord,
    closure_determinant,
    helix_points,
    offsets_from_band,
    solve_band,
    solve_branches,
    winding_estimate,
)

# Boerdijk-Coxeter helix of regular tetrahedra: the classical closed form.
TET_THETA = math.acos(-2.0 / 3.0)
TET_R = 3.0 * math.sqrt(3.0) / 10.0
TET_H = 1.0 / math.sqrt(10.0)


class TestTetrahelixOracle:
    def test_single_branch_matches_closed_form(self):
        sols = solve_band(BandSpec(3, 1))
        assert len(sols) == 1
        p = sols[0].params
        assert abs(p.theta - TET_THETA) < 1e-12
        assert abs(p.r - TET_R) < 1e-12
        assert abs(p.h - TET_H) < 1e-12
        assert sols[0].winding_m == 1
        assert sols[0].branch_index == 1
        assert sols[0].residual <= 1e-9

    def test_closed_form_satisfies_chord_equations(self):
        # direct substitution, independent of the solver
        p = HelixParams(r=TET_R, theta=TET_THETA, h=TET_H)
        for d in (1, 2, 3):
            assert abs(chord(p, d) - 1.0) < 1e-12


class TestDeterminant:
    @pytest.mark.parametrize("abc", [(1, 2, 3), (2, 3, 5), (3, 5, 8), (1, 6, 7)])
    def test_matches_matrix_determinant(self, abc):
        a, b, c = abc
        off = OffsetTriple(a, b, c)
        rng = np.random.default_rng(7)
        for th in rng.uniform(0.05, 3.1, 50):
            m = np.array(
                [
                    [1.0 - math.cos(a * th), a * a, 1.0],
                    [1.0 - math.cos(b * th), b * b, 1.0],
                    [1.0 - math.cos(c * th), c * c, 1.0],
                ]
            )
            assert abs(closure_determinant(off, float(th)) - np.linalg.det(m)) < 1e-9

    def test_vectorized_matches_scalar(self):
        off = OffsetTriple(2, 3, 5)
        grid = np.linspace(0.1, 3.0, 11)
        vec = closure_determinant(off, grid)
        for t, v in zip(grid, vec):
            assert v == closure_determinant(off, float(t))

    def test_sign_change_brackets_tetrahelix_root(self):
        off = OffsetTriple(1, 2, 3)
        assert closure_determinant(off, 2.0) * closure_determinant(off, 2.5) < 0.0

    def test_vanishes_identically_when_a_equals_b(self):
        off = OffsetTriple(3, 3, 6)
        grid = np.linspace(0.1, 3.0, 100)
        assert np.all(closure_determinant(off, grid) == 0.0)


class TestBranches:
    def test_five_two_has_two_branches(self, band52):
        # frozen values, confirmed by two independent implementations
        assert [s.winding_m for s in band52] == [2, 4]
        assert abs(band52[0].params.theta - 1.387561) < 1e-5
        assert abs(band52[1].params.theta - 2.475644) < 1e-5
        assert band52[0].params.theta < band52[1].params.theta
        for s in band52:
            assert s.residual <= 1e-9
            assert s.params.r > 0 and s.params.h > 0

    def test_mirror_twist_also_closes(self, band52):
        for s in band52:
            p = s.params
            q = HelixParams(r=p.r, theta=2.0 * math.pi - p.theta, h=p.h)
            for d in (s.offsets.a, s.offsets.b, s.offsets.c):
                assert abs(chord(q, d) - 1.0) < 1e-9

    def test_restricted_window_is_empty(self):
        opts = SolverOptions(theta_max=1.0)
        assert solve_band(BandSpec(3, 1), opts) == []

    def test_a_equals_b_bands_have_no_branches(self):
        assert solve_band(BandSpec(4, 2)) == []
        assert solve_band(BandSpec(6, 3)) == []
        assert solve_band(BandSpec(10, 5)) == []

    def test_deterministic(self):
        s1 = solve_band(BandSpec(7, 3))
        s2 = solve_band(BandSpec(7, 3))
        assert len(s1) == len(s2)
        for x, y in zip(s1, s2):
            assert x.params.theta == y.params.theta
            assert x.params.r == y.params.r
            assert x.params.h == y.params.h
            assert x.residual == y.residual

    def test_grid_doubling_stable(self):
        base = solve_band(BandSpec(7, 3))
        fine = solve_band(BandSpec(7, 3), SolverOptions(grid_points=400000))
        assert len(base) == len(fine)
        for x, y in zip(base, fine):
            assert abs(x.params.theta - y.params.theta) < 1e-8

    def test_free_offsets_have_no_winding(self):
        sols = solve_branches(OffsetTriple(1, 2, 3))
        assert len(sols) == 1
        assert sols[0].winding_m is None
        assert sols[0].band is None

    def test_band_must_reduce_to_offsets(self):
        with pytest.raises(ParameterError):
            solve_branches(OffsetTriple(1, 2, 3), band=BandSpec(5, 2))

    def test_winding_estimate(self, tetrahelix):
        assert winding_estimate(tetrahelix.band, tetrahelix.params) == 1
        b2 = solve_band(BandSpec(5, 1))[1]
        assert winding_estimate(b2.band, b2.params) == 2


class TestOptions:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"grid_points": 500},
            {"theta_min": 2.0, "theta_max": 1.0},
            {"bisection_tol": 0.0},
            {"residual_tol": -1.0},
            {"min_A": 0.0},
        ],
    )
    def test_rejects_bad_options(self, kwargs):
        with pytest.raises(ParameterError):
            SolverOptions(**kwargs)

    @pytest.mark.parametrize("field", ["theta_min", "theta_max", "residual_tol", "min_B"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_options(self, field, value):
        with pytest.raises(ParameterError, match=field):
            SolverOptions(**{field: value})

    def test_defaults(self):
        o = SolverOptions()
        assert o.grid_points == 200000
        assert o.residual_tol == 1e-9


class TestHelixPoints:
    def test_screw_law(self):
        p = HelixParams(r=0.7, theta=1.1, h=0.3)
        ks = np.arange(0, 9)
        pts = helix_points(p, ks)
        ct, st = math.cos(p.theta), math.sin(p.theta)
        rot = np.array([[ct, -st, 0.0], [st, ct, 0.0], [0.0, 0.0, 1.0]])
        for k in range(8):
            step = rot @ pts[k] + np.array([0.0, 0.0, p.h])
            assert np.linalg.norm(step - pts[k + 1]) < 1e-12

    def test_chord_is_even_in_offset(self):
        p = HelixParams(r=0.7, theta=1.1, h=0.3)
        for d in (1, 2, 5):
            assert math.isclose(chord(p, d), chord(p, -d), rel_tol=1e-15)

    def test_chord_matches_point_distance(self):
        p = HelixParams(r=0.7, theta=1.1, h=0.3)  # not a closure, chords != 1
        for d in (1, 2, 5):
            pts = helix_points(p, [0, d])
            assert abs(chord(p, d) - float(np.linalg.norm(pts[1] - pts[0]))) < 1e-12
