"""Combinatorics of the strip band: the index map, faces, edges, compounds."""

import math

import numpy as np
import pytest

from helistar import (
    BandSpec,
    ParameterError,
    prototype_faces,
    vertex_neighbor_cycle,
)
from helistar.band_combinatorics import MAX_STRIPS


def phi(i, j, n, s):
    # independent copy of the seam identification map
    return i * s + j * n


class TestBandSpec:
    def test_basic(self):
        b = BandSpec(5, 2)
        assert (b.n_strips, b.shift) == (5, 2)
        assert b.components == 1

    def test_mirror_shift_canonicalized(self):
        b = BandSpec(5, 3)
        assert b.shift == 2
        assert b == BandSpec(5, 2)

    def test_components_is_gcd(self):
        assert BandSpec(6, 2).components == 2
        assert BandSpec(9, 3).components == 3
        assert BandSpec(12, 4).components == 4
        assert BandSpec(7, 3).components == 1

    @pytest.mark.parametrize("n,s", [(5, 0), (5, 5), (5, -1), (1, 1), (0, 0)])
    def test_rejects_bad_ranges(self, n, s):
        with pytest.raises(ParameterError):
            BandSpec(n, s)

    @pytest.mark.parametrize("n,s", [(5, 5), (5, 9), (2, 2), (5, 0)])
    def test_a_shift_outside_one_to_n_minus_one_is_named_with_its_range(self, n, s):
        with pytest.raises(ParameterError, match=rf"^shift must be an integer >= 1 and <= {n - 1}, got {s}$"):
            BandSpec(n, s)

    def test_strips_are_bounded(self):
        assert BandSpec(MAX_STRIPS, 1).n_strips == MAX_STRIPS == 1000
        with pytest.raises(ParameterError, match="n_strips must be an integer >= 2 and <= 1000"):
            BandSpec(MAX_STRIPS + 1, 1)

    def test_rejects_non_integers(self):
        with pytest.raises(ParameterError):
            BandSpec(5.0, 2)
        with pytest.raises(ParameterError):
            BandSpec(5, 2.5)
        with pytest.raises(ParameterError, match="shift"):
            BandSpec(5, True)


class TestOffsets:
    def test_from_band(self):
        assert BandSpec(5, 2).offsets == BandSpec(5, 3).offsets == (2, 3, 5)
        assert BandSpec(3, 1).offsets == (1, 2, 3)
        # every shift, mirrored ones included
        for n in range(2, 65):
            for s in range(1, n):
                assert BandSpec(n, s).offsets == (min(s, n - s), max(s, n - s), n)

    def test_components(self):
        assert BandSpec(12, 8).components == 4

    def test_every_triple_is_a_band(self):
        for a in range(1, 21):
            for b in range(a, 21):
                assert BandSpec(a + b, a).offsets == (a, b, a + b)


class TestIndexMap:
    def test_bijective_when_coprime(self):
        n, s = 5, 2
        vals = [phi(i, j, n, s) for i in range(n) for j in range(-4, 5)]
        assert len(vals) == len(set(vals))
        # every index in a middle window is hit exactly once
        middle = [v for v in vals if 0 <= v < 10]
        assert sorted(middle) == list(range(10))

    def test_image_is_gcd_multiples(self):
        n, s = 6, 2
        g = math.gcd(n, s)
        vals = {phi(i, j, n, s) for i in range(n) for j in range(-4, 5)}
        assert all(v % g == 0 for v in vals)


def window_faces(band, kmax):
    """Faces U_k and D_k for k in [0, kmax), as (kmax, 2, 3) rows."""
    return np.arange(kmax)[:, None, None] + prototype_faces(band)


def fan(band, k):
    """The faces (k, k + w_i, k + w_(i+1)) at vertex k, as (6, 3) rows."""
    w = np.array(vertex_neighbor_cycle(band))
    return np.column_stack([np.full(6, k), k + w, k + np.roll(w, -1)])


def rotations(tri):
    """The three rotations of an oriented triangle: the same face."""
    u, v, w = (int(x) for x in tri)
    return {(u, v, w), (v, w, u), (w, u, v)}


class TestFaces:
    def test_prototype_vertices(self):
        band = BandSpec(5, 2)
        proto = prototype_faces(band)
        assert proto.dtype == np.intp and proto.shape == (2, 3)
        assert proto.tolist() == [[0, 2, 5], [0, 5, 3]]
        assert (proto + 7).tolist() == [[7, 9, 12], [7, 12, 10]]

    @pytest.mark.parametrize("n,s", [(3, 1), (5, 2), (7, 3), (8, 3)])
    def test_interior_edge_in_exactly_two_faces(self, n, s):
        band = BandSpec(n, s)
        c = band.offsets[2]
        kmax = 40
        count = {}
        directed = set()
        for tri in window_faces(band, kmax).reshape(-1, 3).tolist():
            for u in range(3):
                e = (tri[u], tri[(u + 1) % 3])
                assert e not in directed, "duplicate directed edge"
                directed.add(e)
                count[frozenset(e)] = count.get(frozenset(e), 0) + 1
        for e, cnt in count.items():
            if min(e) >= c and max(e) <= kmax - c:
                assert cnt == 2, f"interior edge {sorted(e)} in {cnt} faces"
                u, w = sorted(e)
                # orientation consistency: traversed once each way
                assert (u, w) in directed and (w, u) in directed

    @pytest.mark.parametrize("n,s", [(3, 1), (5, 2), (9, 4)])
    def test_incident_faces_matches_brute_force(self, n, s):
        # the fan is the set of faces at vertex k, each in its own orientation
        band = BandSpec(n, s)
        v = 20
        brute = [tri for tri in window_faces(band, 40).reshape(-1, 3) if v in tri]
        assert len(brute) == 6
        listed = {min(rotations(tri)) for tri in fan(band, v)}
        assert listed == {min(rotations(tri)) for tri in brute}
        assert len(listed) == 6

    def test_edge_faces_share_the_class_edge(self):
        # edge (0, w_j) lies in fan faces j-1 and j, opposite w_(j-1) and w_(j+1)
        for n, s in [(3, 1), (5, 2), (7, 3), (11, 4)]:
            band = BandSpec(n, s)
            w = vertex_neighbor_cycle(band)
            faces = fan(band, 0)
            for j in range(6):
                assert set(faces[j - 1]) & set(faces[j]) == {0, w[j]}
                assert set(faces[j - 1]) - {0, w[j]} == {w[j - 1]}
                assert set(faces[j]) - {0, w[j]} == {w[(j + 1) % 6]}
            # the a, b and c class edges are (0, w_5), (0, w_1) and (0, w_0)
            assert (w[5], w[1], w[0]) == band.offsets


def cyclic_equal(seq, ref):
    """Equality of cyclic sequences up to rotation and reflection."""
    n = len(ref)
    if len(seq) != n:
        return False
    doubled = list(ref) + list(ref)
    fwd = any(doubled[i : i + n] == list(seq) for i in range(n))
    rev = list(reversed(seq))
    bwd = any(doubled[i : i + n] == rev for i in range(n))
    return fwd or bwd


class TestVertexCycle:
    @pytest.mark.parametrize("n,s", [(3, 1), (5, 2), (7, 3), (11, 4)])
    def test_cycle_agrees_with_face_fan_walk(self, n, s):
        band = BandSpec(n, s)
        v = 0
        # each face at v (found by brute force) links the two neighbors it
        # contains; the links close into one hexagon, which must be the
        # published cycle
        links = {}
        for tri in window_faces(band, 40).reshape(-1, 3) - 20:
            if v not in tri:
                continue
            others = [int(w) for w in tri if w != v]
            assert len(others) == 2
            p, q = others
            links.setdefault(p, []).append(q)
            links.setdefault(q, []).append(p)
        assert len(links) == 6
        assert all(len(nb) == 2 for nb in links.values())
        start = next(iter(links))
        walk = [start]
        prev = None
        while True:
            nxt = [w for w in links[walk[-1]] if w != prev]
            prev = walk[-1]
            walk.append(nxt[0])
            if walk[-1] == start:
                break
        hexagon = walk[:-1]
        assert cyclic_equal(hexagon, vertex_neighbor_cycle(band))

    def test_cycle_offsets(self):
        assert vertex_neighbor_cycle(BandSpec(5, 2)) == [5, 3, -2, -5, -3, 2]


class TestCompounds:
    def test_components(self):
        # g copies of the component (n/g, s/g)
        for (n, s), g, comp in [((6, 2), 2, (3, 1)), ((6, 3), 3, (2, 1)), ((12, 4), 4, (3, 1))]:
            assert BandSpec(n, s).components == g
            assert BandSpec(n // g, s // g) == BandSpec(*comp)

    def test_connected_band_is_its_own_component(self):
        assert BandSpec(5, 2).components == 1
        assert BandSpec(12, 7).components == 1  # canonical shift 5

    @pytest.mark.parametrize("n,s", [(6, 2), (9, 3), (12, 4)])
    def test_component_map_scales_back(self, n, s):
        # g * phi_component(i, j) == phi_parent(i, j) on the component's strips
        g = BandSpec(n, s).components
        comp = BandSpec(n // g, s // g)
        for i in range(comp.n_strips):
            for j in range(-3, 4):
                assert g * phi(i, j, comp.n_strips, comp.shift) == phi(i, j, n, s)
