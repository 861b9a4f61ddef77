"""Closure solver against closed forms and an independent determinant."""

import io
import math
import re

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import bisect

from helistar import (
    BandSpec,
    HelixParams,
    ModuleOptions,
    ParameterError,
    chord,
    classify,
    closure_determinant,
    enumerate_catalog,
    export_modules_svg,
    export_net_svg,
    export_obj,
    helix_points,
    realize,
    solve_band,
    unfold_net,
    verify_uniform,
    winding_estimate,
)
from helistar import cli
from helistar import closure_solver as cs
from helpers import colleague_brackets

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
        band = BandSpec(c, a)
        rng = np.random.default_rng(7)
        for th in rng.uniform(0.05, 3.1, 50):
            m = np.array(
                [
                    [1.0 - math.cos(a * th), a * a, 1.0],
                    [1.0 - math.cos(b * th), b * b, 1.0],
                    [1.0 - math.cos(c * th), c * c, 1.0],
                ]
            )
            assert abs(closure_determinant(band, float(th)) - np.linalg.det(m)) < 1e-9

    def test_vectorized_matches_scalar(self):
        band = BandSpec(5, 2)
        grid = np.linspace(0.1, 3.0, 11)
        vec = closure_determinant(band, grid)
        for t, v in zip(grid, vec):
            assert v == closure_determinant(band, float(t))

    def test_sign_change_brackets_tetrahelix_root(self):
        band = BandSpec(3, 1)
        assert closure_determinant(band, 2.0) * closure_determinant(band, 2.5) < 0.0

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(
        n=st.integers(3, 40),
        s=st.integers(1, 39),
        g=st.integers(2, 8),
        theta=st.floats(cs.THETA_MIN, cs.THETA_MAX),
    )
    def test_compound_is_its_component_at_g_theta(self, n, s, g, theta):
        # D_{g (a, b, c)}(theta) = g^2 D_{(a, b, c)}(g theta), to rounding: each
        # cosine's argument is rounded once either way, then one product and
        # two sums round
        s = s % (n - 1) + 1
        band, big = BandSpec(n, s), BandSpec(g * n, g * s)
        a, b, c = big.offsets
        assert (a, b, c) == tuple(g * d for d in band.offsets)
        coef = [abs(c**2 - b**2), abs(a**2 - c**2), abs(b**2 - a**2)]
        bound = 4.0 * np.finfo(float).eps * sum(
            cf * (k * theta + 2.0) for cf, k in zip(coef, (a, b, c))
        )
        diff = closure_determinant(big, theta) - g * g * closure_determinant(band, g * theta)
        assert abs(diff) <= bound

    def test_vanishes_identically_when_a_equals_b(self):
        band = BandSpec(6, 3)
        grid = np.linspace(0.1, 3.0, 100)
        assert np.all(closure_determinant(band, grid) == 0.0)


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
            for d in s.offsets:
                assert abs(chord(q, d) - 1.0) < 1e-9

    def test_a_equals_b_bands_have_no_branches(self):
        assert solve_band(BandSpec(4, 2)) == []
        assert solve_band(BandSpec(6, 3)) == []
        assert solve_band(BandSpec(10, 5)) == []

    def test_deterministic(self):
        s1 = solve_band(BandSpec(7, 3))
        s2 = _solved_alone(BandSpec(7, 3))
        assert len(s1) == len(s2)
        for x, y in zip(s1, s2):
            assert x.params.theta == y.params.theta
            assert x.params.r == y.params.r
            assert x.params.h == y.params.h
            assert x.residual == y.residual

    def test_grid_doubling_stable(self):
        base = solve_band(BandSpec(7, 3))
        (fine,) = cs._solve_fresh([BandSpec(7, 3)], 400000)
        assert len(base) == len(fine)
        for x, y in zip(base, fine):
            assert abs(x.params.theta - y.params.theta) < 1e-8

    def test_offsets_are_the_band_image(self):
        for n in range(3, 13):
            for s in range(1, n // 2 + 1):
                for sol in solve_band(BandSpec(n, s)):
                    assert sol.offsets == sol.band.offsets

    def test_the_package_never_reads_offsets(self, monkeypatch, capsys):
        # BranchSolution.offsets is kept for outside callers: enumeration,
        # classification, realization and verification, every export and
        # the CLI all read band.offsets instead
        def refuse(branch):
            raise AssertionError(f"BranchSolution.offsets read on {branch}")

        monkeypatch.setattr(cs.BranchSolution, "offsets", property(refuse))
        assert len(enumerate_catalog(5, 8, include_compounds=True)) > 0
        branches = [sol for sols in solve_band([BandSpec(7, 3), BandSpec(8, 2)]) for sol in sols]
        assert [c.vertex_figure for c in classify(branches)]
        for sol in branches:
            assert verify_uniform(realize(sol, 4)).passed
        export_obj(realize(branches[0], 2), io.StringIO(), frame=True)
        export_net_svg(unfold_net(branches[0]), io.StringIO())
        export_modules_svg(branches[0], ModuleOptions(), io.StringIO())
        assert cli.main(["solve", "--strips", "7", "--shift", "3", "--json"]) == 0
        assert capsys.readouterr().err == ""

    def test_winding_estimate(self, tetrahelix):
        assert winding_estimate(tetrahelix.band, tetrahelix.params) == 1
        b2 = solve_band(BandSpec(5, 1))[1]
        assert winding_estimate(b2.band, b2.params) == 2


class TestBisection:
    def test_matches_scipy_bisect_on_every_bracket(self):
        # scipy's scalar bisect is the reference: every bracket of every band
        # with 3..24 strips, compounds included, at the default grid, all
        # bisected in one call
        grid = np.linspace(cs.THETA_MIN, cs.THETA_MAX, cs.GRID_POINTS)
        bands, abc, lo, width, flo, ref = [], [], [], [], [], []
        for n in range(3, 25):
            for s in range(1, n // 2 + 1):
                band = BandSpec(n, s)
                dval = closure_determinant(band, grid)
                flips = np.flatnonzero(dval[:-1] * dval[1:] < 0.0)
                f = lambda t, band=band: closure_determinant(band, t)
                ref += [bisect(f, grid[i], grid[i + 1], xtol=cs.BISECTION_TOL) for i in flips]
                bands += [(n, s)] * flips.size
                abc += [band.offsets] * flips.size
                lo.append(grid[flips])
                width.append(grid[flips + 1] - grid[flips])
                flo.append(dval[flips])
        ours = cs._bisect(np.array(abc, dtype=float).T, *map(np.concatenate, (lo, width, flo)))
        assert len(ref) > 1000
        assert [band for band, x, y in zip(bands, ours.tolist(), ref) if x != y] == []

    def test_no_brackets(self):
        empty = np.empty(0)
        assert cs._bisect(np.empty((3, 0)), empty, empty, empty).size == 0

    def test_a_census_bisects_once(self, monkeypatch):
        # guards against a return to one bisection loop per band, or to a
        # second bisection path: a census is one _bisect call of all its
        # lanes, and one small band alone is one call too
        lanes = []
        bisect_all = cs._bisect

        def counting(abc, *args):
            lanes.append(abc.shape[1])
            return bisect_all(abc, *args)

        monkeypatch.setattr(cs, "_bisect", counting)
        assert len(enumerate_catalog(5, 12, include_compounds=True)) == 124
        assert len(lanes) == 1 and lanes[0] > 124
        lanes.clear()
        cs._SOLVED.clear()
        assert len(solve_band(BandSpec(7, 3))) == 3
        assert lanes == [3]

    def test_a_zero_at_a_midpoint_stops_the_lane(self, monkeypatch):
        # D(mid) == 0 ends a lane at that mid, and leaves the other lanes alone
        abc, lo, width, flo = _lanes(BandSpec(7, 3))
        mids = []
        determinant = cs._determinant
        monkeypatch.setattr(cs, "_determinant", lambda a, b, c, t: (mids.append(t.copy()), determinant(a, b, c, t))[1])
        ref = cs._bisect(abc, lo, width, flo)
        target = mids[9][0]  # lane 0's tenth mid
        monkeypatch.setattr(cs, "_determinant", lambda a, b, c, t: np.where(t == target, 0.0, determinant(a, b, c, t)))
        stopped = cs._bisect(abc, lo, width, flo)
        assert stopped[0] == target and stopped[1:].tolist() == ref[1:].tolist()


def _bracket_pass(bands, points):
    """(flips, zeros) of each band's D from one call of the solver's bracket pass."""
    band, cell, zero = cs._brackets(bands, points)
    return [(cell[(band == i) & ~zero], cell[(band == i) & zero]) for i in range(len(bands))]


def _lanes(band, points=200000):
    """(abc, lo, width, flo) of one band's flips, as _solve_fresh bisects them."""
    ((flips, _),) = _bracket_pass([band], points)
    assert flips.tolist() == colleague_brackets(band, points)[0].tolist()
    lo = cs._grid_point(flips, points)
    width = cs._grid_point(flips + 1, points) - lo
    abc = np.repeat(np.array(band.offsets, dtype=float)[:, None], flips.size, axis=1)
    return abc, lo, width, closure_determinant(band, lo)


def _dense_scan(band, points):
    """Reference: the flips and exact zeros of D at every grid point."""
    dval = closure_determinant(band, np.linspace(cs.THETA_MIN, cs.THETA_MAX, points))
    return np.flatnonzero(dval[:-1] * dval[1:] < 0.0), np.flatnonzero(dval == 0.0)


def _scanned_bands(n_max):
    """Every band with 3..n_max strips, compounds included, whose D is not 0."""
    bands = [BandSpec(n, s) for n in range(3, n_max + 1) for s in range(1, n // 2 + 1)]
    return [b for b in bands if b.offsets[0] != b.offsets[1]]


class TestScan:
    @pytest.mark.parametrize("points", [1000, 4321, 200000])
    def test_grid_point_is_linspace(self, points):
        ours = cs._grid_point(np.arange(points), points)
        assert ours.tobytes() == np.linspace(cs.THETA_MIN, cs.THETA_MAX, points).tobytes()

    @pytest.mark.parametrize("points", [1000, 200000])
    def test_matches_dense_scan(self, points):
        # connected bands: exactly the dense grid's flips and zeros; compound
        # bands: a subset, missing only the rounding flips of the quadruple
        # roots at theta = 2 pi k / g, which were never branches
        bands = _scanned_bands(32)
        for band, (flips, zeros) in zip(bands, _bracket_pass(bands, points)):
            ref_flips, ref_zeros = _dense_scan(band, points)
            if band.components == 1:
                assert flips.tolist() == ref_flips.tolist(), band
                assert zeros.tolist() == ref_zeros.tolist(), band
                continue
            g = band.components
            assert set(flips.tolist()) <= set(ref_flips.tolist()), band
            assert set(zeros.tolist()) <= set(ref_zeros.tolist()), band
            omitted = np.concatenate(
                [np.setdiff1d(ref_flips, flips), np.setdiff1d(ref_zeros, zeros)]
            )
            theta = cs._grid_point(omitted, points)
            near = np.abs(theta - 2.0 * math.pi * np.rint(theta * g / (2.0 * math.pi)) / g)
            assert np.all(near < 1e-4), band

    def test_evaluates_a_small_share_of_the_grid(self, monkeypatch):
        # guards against a return to evaluating D at every grid point
        evaluated = []
        determinant = cs._determinant

        def counting(a, b, c, theta):
            evaluated.append(np.size(theta))
            return determinant(a, b, c, theta)

        monkeypatch.setattr(cs, "_determinant", counting)
        assert len(solve_band(BandSpec(24, 5))) > 0
        assert sum(evaluated) < cs.GRID_POINTS // 10


def _connected_bands(n_max):
    """Every connected band (gcd(n, s) = 1) with 3..n_max strips and a < b."""
    return [b for b in _scanned_bands(n_max) if b.components == 1]


def _raw_roots(band, points):
    """Every root solve_band tests, before any acceptance check, theta ascending."""
    ((flips, zeros),) = _bracket_pass([band], points)
    oracle = colleague_brackets(band, points)
    assert (flips.tolist(), zeros.tolist()) == (oracle[0].tolist(), oracle[1].tolist())
    lo = cs._grid_point(flips, points)
    width = cs._grid_point(flips + 1, points) - lo
    abc = np.repeat(np.array(band.offsets, dtype=float)[:, None], flips.size, axis=1)
    bisected = cs._bisect(abc, lo, width, closure_determinant(band, lo))
    return np.sort(np.concatenate([cs._grid_point(zeros, points), bisected]))


def _floats(sol):
    """A branch as text, its floats by float.hex."""
    p = sol.params
    return (
        f"{sol.band} {sol.branch_index} {sol.winding_m} "
        f"{p.r.hex()} {p.theta.hex()} {p.h.hex()} {sol.residual.hex()}"
    )


def _solved_alone(band):
    """band's branches from a call made with no band remembered."""
    cs._SOLVED.clear()
    return solve_band(band)


def _bands_64():
    """Every band with 3..64 strips, compounds and a = b included."""
    return [BandSpec(n, s) for n in range(3, 65) for s in range(1, n // 2 + 1)]


@pytest.fixture(scope="module")
def solved_64():
    """band -> its branches at the default grid, every band with 3..64 strips, from one solve_band call."""
    bands = _bands_64()
    return dict(zip(bands, _solved_alone(bands)))


class TestRootAccounting:
    @pytest.mark.parametrize("points", [1000, 200000])
    def test_scan_finds_b_minus_1_roots_of_every_connected_band(self, points):
        # D / (x - 1)^2, x = cos theta, has exactly b - 1 = n - s - 1 roots in
        # (-1, 1), all simple, as the colleague matrix counts them; each is one
        # flip or one zero on the grid, the ones the colleague roots snap to
        bands = _connected_bands(40)
        assert len(bands) == 244
        for band, (flips, zeros) in zip(bands, _bracket_pass(bands, points)):
            assert flips.size + zeros.size == band.n_strips - band.shift - 1, band
            oracle = colleague_brackets(band, points)
            assert (flips.tolist(), zeros.tolist()) == (oracle[0].tolist(), oracle[1].tolist()), band

    def test_exact_root_count_is_b_minus_1(self):
        # D as a polynomial in x = cos theta: cos(k theta) is the Chebyshev T_k(x)
        x = sympy.symbols("x")
        for band in _connected_bands(20):
            a, b, c = band.offsets
            d = sympy.Poly(
                (c * c - b * b) * sympy.chebyshevt(a, x)
                + (a * a - c * c) * sympy.chebyshevt(b, x)
                + (b * b - a * a) * sympy.chebyshevt(c, x),
                x,
            )
            q, rem = sympy.div(d, sympy.Poly((x - 1) ** 2, x))
            assert rem.is_zero, band
            # count_roots counts the closed interval [-1, 1]
            inside = q.count_roots(-1, 1) - (q.eval(-1) == 0) - (q.eval(1) == 0)
            assert inside == b - 1, band

    def test_theta_is_strictly_increasing(self, solved_64):
        for band, sols in solved_64.items():
            thetas = [sol.params.theta for sol in sols]
            assert all(t0 < t1 for t0, t1 in zip(thetas, thetas[1:])), band

    def test_b_minus_g_roots_of_every_band(self):
        # the count certificate: g components of b / g - 1 roots each, the
        # colleague matrix's count, and the same flips and zeros
        points = cs.GRID_POINTS
        bands = _scanned_bands(64)
        for band, (flips, zeros) in zip(bands, _bracket_pass(bands, points)):
            assert flips.size + zeros.size == band.offsets[1] - band.components, band
            oracle = colleague_brackets(band, points)
            assert (flips.tolist(), zeros.tolist()) == (oracle[0].tolist(), oracle[1].tolist()), band

    @pytest.mark.parametrize("points", [1000, 200000, 10**11])
    def test_bracket_pass_matches_the_colleague_oracle(self, points):
        # every band of 3..64, in one call and one band per call: the flips
        # and zeros that the colleague-matrix roots snap to
        bands = _scanned_bands(64)
        oracle = [colleague_brackets(band, points) for band in bands]
        alone = [_bracket_pass([band], points)[0] for band in bands]
        for band, ref, one, batched in zip(bands, oracle, alone, _bracket_pass(bands, points)):
            for got in (one, batched):
                assert (got[0].tolist(), got[1].tolist()) == (ref[0].tolist(), ref[1].tolist()), band
        assert sum(ref[0].size + ref[1].size for ref in oracle) == 30130

    def test_no_raw_root_is_singular(self):
        # the quadruple roots at theta = 2 pi k / g never reach _solve_AB
        roots = [
            (band, theta)
            for band in _scanned_bands(40)
            for theta in _raw_roots(band, cs.GRID_POINTS).tolist()
        ]
        assert len(roots) == 7062
        assert [(band, t) for band, t in roots if cs._solve_AB(band, t) is None] == []

    @staticmethod
    def _spoil_the_brackets(monkeypatch, spoil):
        """Make _determinant hand spoil(f) for the bracket samples, shape (brackets, SUBGRID)."""
        determinant = cs._determinant

        def spoiled(a, b, c, theta):
            f = determinant(a, b, c, theta)
            return spoil(f.copy()) if np.shape(theta)[-1:] == (cs.SUBGRID,) else f

        monkeypatch.setattr(cs, "_determinant", spoiled)

    def test_a_bracket_whose_end_signs_agree_raises(self, monkeypatch):
        # a bracket's end signs are proved to differ; if they agree, its
        # root is an error, not one branch fewer. The tetrahelix band has
        # the one bracket (pi/2, pi)
        def agree(f):
            f[:, -1] = f[:, 0]
            return f

        self._spoil_the_brackets(monkeypatch, agree)
        with pytest.raises(RuntimeError, match=r"2 sign changes .* in \(pi 1/2, pi 2/2\), expected 1"):
            solve_band(BandSpec(3, 1))

    def test_a_bracket_with_three_sign_changes_raises(self, monkeypatch):
        def three(f):
            f[:, 5:8] = -f[:, 5:8]
            return f

        self._spoil_the_brackets(monkeypatch, three)
        with pytest.raises(RuntimeError, match="3 sign changes"):
            solve_band(BandSpec(3, 1))

    def test_connected_bands_keep_floor_of_2n_minus_s_minus_1_over_3(self, solved_64):
        bands = _connected_bands(40)
        assert len(bands) == 244
        for band in bands:
            n, s = band.n_strips, band.shift
            assert len(solved_64[band]) == (2 * n - s - 1) // 3, band

    @pytest.mark.xfail(
        strict=True,
        reason="a genuine root is dropped by the residual check: the bisected theta's "
        "1e-13 error, amplified by A = 142 to 237, gives residuals of 1.02e-9 to 2.18e-9",
    )
    @pytest.mark.parametrize("n,s", [(61, 30), (63, 31), (77, 38), (79, 39)])
    def test_kept_count_rule_beyond_n_40(self, n, s):
        assert len(solve_band(BandSpec(n, s))) == (2 * n - s - 1) // 3

    def test_compound_bands_keep_g_times_their_component(self, solved_64):
        bands = [band for band in _scanned_bands(40) if band.components > 1]
        assert len(bands) == 136
        for band in bands:
            g = band.components
            assert len(solved_64[band]) == g * len(solved_64[BandSpec(band.n_strips // g, band.shift // g)]), band


class TestBandList:
    def test_list_equals_one_call_per_band(self, solved_64):
        # every band of 3..64 strips; the a = b bands are those without branches.
        # A band alone bisects its few lanes in one loop, and the batch its
        # thousands of lanes in another
        empty = [band for band, sols in solved_64.items() if not sols]
        assert len(empty) == 31
        assert all(band.offsets[0] == band.offsets[1] for band in empty)
        assert cs._SOLVED == {}  # so each band below is solved, not looked up
        for band, sols in solved_64.items():
            assert [_floats(sol) for sol in sols] == [_floats(sol) for sol in solve_band(band)], band

    def test_order_follows_the_input(self):
        bands = [BandSpec(7, 3), BandSpec(4, 2), BandSpec(5, 2), BandSpec(7, 3)]
        got = solve_band(bands)
        assert [[_floats(sol) for sol in sols] for sols in got] == [
            [_floats(sol) for sol in _solved_alone(band)] for band in bands
        ]
        assert [len(sols) for sols in got] == [3, 0, 2, 3]

    @pytest.mark.parametrize(
        "bands",
        [
            pytest.param([band for band in _bands_64() if band.n_strips >= 5], id="5..64"),
            pytest.param([BandSpec(24, 7), BandSpec(5, 2), BandSpec(12, 5)], id="out-of-order"),
        ],
    )
    def test_each_band_is_theta_ascending_and_numbered_from_1(self, bands):
        # the acceptance pass numbers the roots in the order the bracket pass
        # and the bisection leave them, by band, then theta, and sorts nothing
        for band, sols in zip(bands, _solved_alone(bands)):
            thetas = [sol.params.theta for sol in sols]
            assert all(t0 < t1 for t0, t1 in zip(thetas, thetas[1:])), band
            assert [sol.branch_index for sol in sols] == list(range(1, len(sols) + 1)), band
            assert {sol.band for sol in sols} <= {band}

    def test_empty_list(self):
        assert solve_band([]) == []

    def test_one_dihedral_stack_per_call(self, monkeypatch):
        # every band of 3..16 in one call: one stack for all bands, whose row
        # for each kept branch is the same bits as the dihedrals it computes alone
        stacks = []
        real = cs._interior_dihedrals

        def stack(bands, params):
            rows = real(bands, params)
            stacks.append(dict(zip(zip(bands, params), rows)))
            return rows

        monkeypatch.setattr(cs, "_interior_dihedrals", stack)
        bands = [BandSpec(n, s) for n in range(3, 17) for s in range(1, n // 2 + 1)]
        solved = [sol for sols in solve_band(bands) for sol in sols]
        monkeypatch.undo()
        assert len(stacks) == 1 and len(stacks[0]) >= len(solved) > 300
        for sol in solved:
            row = stacks[0][sol.band, sol.params]
            assert [v.hex() for v in sol.dihedrals] == [v.hex() for v in row], sol.band

    @pytest.mark.parametrize("bad", [[BandSpec(5, 2), (5, 2)], [(2, 3, 5)], 5, None])
    def test_non_band_is_refused(self, bad):
        with pytest.raises(ParameterError, match="BandSpec"):
            solve_band(bad)


class TestRemembered:
    def test_a_repeat_does_no_solver_work(self, monkeypatch):
        band = BandSpec(7, 3)
        first = [_floats(sol) for sol in solve_band(band)]

        def unreachable(*args):
            raise AssertionError("a remembered band was solved again")

        monkeypatch.setattr(cs, "_brackets", unreachable)
        assert [_floats(sol) for sol in solve_band(band)] == first
        assert [[_floats(sol) for sol in sols] for sols in solve_band([band, band])] == [first, first]

    def test_each_call_returns_a_new_list(self):
        band = BandSpec(7, 3)
        whole = [_floats(sol) for sol in solve_band(band)]
        solve_band(band).clear()
        solve_band(band).append(None)
        twice = solve_band([band, band])
        twice[0].clear()
        assert [_floats(sol) for sol in twice[1]] == whole
        assert [_floats(sol) for sol in solve_band(band)] == whole

    def test_a_mixed_call_equals_one_made_with_nothing_remembered(self, monkeypatch):
        # held bands, new bands and one new band twice: the fresh pass sees
        # each new band once, and every band gets the bits of an empty memo
        bands = [BandSpec(9, 2), BandSpec(7, 3), BandSpec(11, 5), BandSpec(5, 1), BandSpec(9, 2), BandSpec(12, 4)]
        ref = [[_floats(sol) for sol in sols] for sols in _solved_alone(bands)]
        cs._SOLVED.clear()
        solve_band([BandSpec(12, 4), BandSpec(7, 3), BandSpec(5, 1)])
        passes = []
        fresh = cs._solve_fresh
        monkeypatch.setattr(cs, "_solve_fresh", lambda bs: (passes.append(bs), fresh(bs))[1])
        got = solve_band(bands)
        assert passes == [[BandSpec(9, 2), BandSpec(11, 5)]]
        assert [[_floats(sol) for sol in sols] for sols in got] == ref
        assert got[0] is not got[4]

    def test_a_call_that_raises_stores_nothing(self, monkeypatch):
        def three(f):
            f[:, 5:8] = -f[:, 5:8]
            return f

        held = BandSpec(7, 3)
        solve_band(held)
        TestRootAccounting._spoil_the_brackets(monkeypatch, three)
        for _ in range(2):
            with pytest.raises(RuntimeError, match="3 sign changes"):
                solve_band([BandSpec(7, 3), BandSpec(3, 1)])
            assert list(cs._SOLVED) == [held]

    def test_a_hit_is_the_most_recently_used(self, monkeypatch):
        # at a bound of 5 branches: (7, 3) holds 3 and (5, 2) and (5, 1) 2 each
        monkeypatch.setattr(cs, "SOLVED_BRANCHES", 5)
        for band in (BandSpec(7, 3), BandSpec(5, 2), BandSpec(7, 3), BandSpec(5, 1)):
            solve_band(band)
        assert list(cs._SOLVED) == [BandSpec(7, 3), BandSpec(5, 1)]

    def test_the_held_branches_stay_within_the_bound(self, solved_64, monkeypatch):
        # 3..64 in one call holds far more branches than the bound: every band
        # comes back, the most recent bands stay, and an evicted one solves
        # again to the same bits
        bands = _bands_64()
        got = solve_band(bands)
        assert sum(map(len, got)) > 2 * cs.SOLVED_BRANCHES
        assert [[_floats(sol) for sol in sols] for sols in got] == [
            [_floats(sol) for sol in solved_64[band]] for band in bands
        ]
        held = list(cs._SOLVED)
        assert sum(len(sols) or 1 for sols in cs._SOLVED.values()) <= cs.SOLVED_BRANCHES
        assert held == bands[-len(held):]
        passes = []
        fresh = cs._solve_fresh
        monkeypatch.setattr(cs, "_solve_fresh", lambda bs: (passes.append(bs), fresh(bs))[1])
        assert [_floats(sol) for sol in solve_band(bands[0])] == [_floats(sol) for sol in got[0]]
        assert passes == [[bands[0]]]


class TestOptions:
    def test_every_band_to_n_64_solves_at_the_maximum_grid(self):
        # at 10**15 points some cells fall below D's rounding noise
        with pytest.raises(RuntimeError, match="no sign change"):
            cs._brackets([BandSpec(56, 15)], 10**15)

    def test_defaults(self):
        assert cs.GRID_POINTS == 200000
        assert (cs.THETA_MIN, cs.THETA_MAX) == (1e-3, math.pi - 1e-3)
        assert cs.BISECTION_TOL == 1e-13
        assert cs.BISECTION_RTOL == 4.0 * np.finfo(float).eps
        assert cs.RESIDUAL_TOL == 1e-9
        assert cs.MIN_A == cs.MIN_B == 1e-9
        assert cs.COPLANAR_GAP == 1e-6


class TestHelixParams:
    @pytest.mark.parametrize(
        "field,value",
        [("r", "1"), ("theta", math.nan), ("h", math.inf), ("theta", True), ("r", None), ("h", 1j), ("theta", 10**400)],
        ids=["text_r", "nan_theta", "inf_h", "bool_theta", "none_r", "complex_h", "huge_theta"],
    )
    def test_a_field_that_is_not_a_finite_real_is_refused(self, field, value):
        # HelixParams(r="1", ...) used to be built and fail later in chord with a TypeError
        fields = {"r": 0.7, "theta": 1.1, "h": 0.3, field: value}
        with pytest.raises(ParameterError, match=rf"^{field} must be a finite real, got {re.escape(repr(value))}"):
            HelixParams(**fields)

    def test_any_finite_real_is_taken(self):
        # no range: a flat helix (r = 0) and a mirror image (theta > pi) are built by tests and analysis
        for r, theta, h in [(0, 2.0 * math.pi - 1.1, -0.3), (np.float64(0.7), 7, 0.0)]:
            p = HelixParams(r=r, theta=theta, h=h)
            assert (p.r, p.theta, p.h) == (r, theta, h)


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

    @pytest.mark.parametrize(
        "ks,count",
        [(3, 1), ([0, 2, 5], 3), (range(-2, 3), 5), (np.arange(4), 4), ([], 0)],
        ids=["int", "list", "range", "array", "empty"],
    )
    def test_shape_and_layout(self, ks, count):
        p = HelixParams(r=0.7, theta=1.1, h=0.3)
        pts = helix_points(p, ks)
        assert pts.shape == (count, 3) and pts.dtype == float and pts.flags.c_contiguous
        assert pts.tobytes() == b"".join(helix_points(p, [k]).tobytes() for k in np.atleast_1d(ks).tolist())

    @pytest.mark.parametrize("ks", [[[0, 1], [2, 3]], np.zeros((2, 1, 1)), [[]]], ids=["2x2", "3-d", "nested_empty"])
    def test_index_arrays_of_more_dimensions_are_refused(self, ks):
        # a (2, 2) index array used to give v_0 and v_1 only
        with pytest.raises(ParameterError, match="1-D"):
            helix_points(HelixParams(r=0.7, theta=1.1, h=0.3), ks)

    def test_chord_matches_point_distance(self):
        p = HelixParams(r=0.7, theta=1.1, h=0.3)  # not a closure, chords != 1
        for d in (1, 2, 5):
            pts = helix_points(p, [0, d])
            assert abs(chord(p, d) - float(np.linalg.norm(pts[1] - pts[0]))) < 1e-12


class TestRowDot:
    """_dot sums each row as np.dot does on that pair of 3-vectors, bit for bit.

    Every stacked geometry step (normals, planes, dihedrals, face angles)
    relies on this: a dot that adds in another order, such as an elementwise
    product summed along the row or einsum, changes last bits of pinned output.
    """

    rng = np.random.default_rng(2013)
    # components of very different sizes, so that the order of the sum shows in the last bit
    U = rng.normal(size=(3000, 3)) * 10.0 ** rng.uniform(-4, 4, size=(3000, 3))
    V = rng.normal(size=(3000, 3)) * 10.0 ** rng.uniform(-4, 4, size=(3000, 3))
    T = rng.normal(size=(3000, 3, 3)) * 10.0 ** rng.uniform(-4, 4, size=(3000, 3, 3))

    @staticmethod
    def same_bits(got, want) -> bool:
        return got.shape == np.shape(want) and got.tobytes() == np.asarray(want, dtype=float).tobytes()

    def test_stacks_of_rows(self):
        assert self.same_bits(cs._dot(self.U, self.V), [np.dot(u, v) for u, v in zip(self.U, self.V)])

    def test_one_row_against_three(self):
        got = cs._dot(self.U[:, None], self.T)
        assert self.same_bits(got, [[np.dot(u, t) for t in tri] for u, tri in zip(self.U, self.T)])

    @pytest.mark.parametrize("view", ["fancy", "reversed", "strided"])
    def test_views_that_are_not_contiguous(self, view):
        # rows gathered, rows in reverse, and components at a stride of two; a
        # negative stride along the components is left out, since there numpy's
        # dot loop, in _dot and np.dot alike, can take another path than on a copy
        order = self.rng.permutation(len(self.U))
        wide = np.concatenate([self.U, self.V], axis=1)
        u, v, T = {
            "fancy": (self.U[order], self.V[order[::-1]], self.T[order]),
            "reversed": (self.U[::-1], self.V, self.T[::-1]),
            "strided": (wide[:, ::2], wide[:, 1::2], np.concatenate([self.T, self.T], axis=2)[..., 1::2]),
        }[view]
        assert self.same_bits(cs._dot(u, v), [np.dot(a, b) for a, b in zip(u, v)])
        assert self.same_bits(cs._dot(u[:, None], T), [[np.dot(a, t) for t in tri] for a, tri in zip(u, T)])
