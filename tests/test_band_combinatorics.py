"""Combinatorics of the strip band: the index map, faces, edges, compounds."""

import math

import pytest

from helistar import (
    BandSpec,
    NotACompoundError,
    OffsetTriple,
    ParameterError,
    edge_faces,
    face_vertices,
    incident_faces,
    offsets_from_band,
    split_compound,
    vertex_neighbor_cycle,
)


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

    def test_rejects_non_integers(self):
        with pytest.raises(ParameterError):
            BandSpec(5.0, 2)
        with pytest.raises(ParameterError):
            BandSpec(5, 2.5)
        with pytest.raises(ParameterError, match="shift"):
            BandSpec(5, True)


class TestOffsetTriple:
    def test_from_band(self):
        assert offsets_from_band(BandSpec(5, 2)) == OffsetTriple(2, 3, 5)
        assert offsets_from_band(BandSpec(5, 3)) == OffsetTriple(2, 3, 5)
        assert offsets_from_band(BandSpec(3, 1)) == OffsetTriple(1, 2, 3)

    def test_invariants(self):
        with pytest.raises(ParameterError):
            OffsetTriple(2, 1, 3)  # a > b
        with pytest.raises(ParameterError):
            OffsetTriple(1, 2, 4)  # c != a + b
        with pytest.raises(ParameterError):
            OffsetTriple(0, 1, 1)

    def test_components(self):
        assert BandSpec(12, 8).components == 4

    def test_every_triple_is_a_band(self):
        for a in range(1, 21):
            for b in range(a, 21):
                assert offsets_from_band(BandSpec(a + b, a)) == OffsetTriple(a, b, a + b)


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


def window_faces(off, kmax):
    faces = {}
    for k in range(kmax):
        faces[("U", k)] = face_vertices("U", k, off)
        faces[("D", k)] = face_vertices("D", k, off)
    return faces


class TestFaces:
    def test_prototype_vertices(self):
        off = OffsetTriple(2, 3, 5)
        assert face_vertices("U", 0, off) == (0, 2, 5)
        assert face_vertices("D", 0, off) == (0, 5, 3)
        assert face_vertices("U", 7, off) == (7, 9, 12)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ParameterError):
            face_vertices("X", 0, OffsetTriple(1, 2, 3))

    @pytest.mark.parametrize("n,s", [(3, 1), (5, 2), (7, 3), (8, 3)])
    def test_interior_edge_in_exactly_two_faces(self, n, s):
        off = offsets_from_band(BandSpec(n, s))
        kmax = 40
        count = {}
        directed = set()
        for tri in window_faces(off, kmax).values():
            for u in range(3):
                e = (tri[u], tri[(u + 1) % 3])
                assert e not in directed, "duplicate directed edge"
                directed.add(e)
                count[frozenset(e)] = count.get(frozenset(e), 0) + 1
        for e, cnt in count.items():
            if min(e) >= off.c and max(e) <= kmax - off.c:
                assert cnt == 2, f"interior edge {sorted(e)} in {cnt} faces"
                u, w = sorted(e)
                # orientation consistency: traversed once each way
                assert (u, w) in directed and (w, u) in directed

    @pytest.mark.parametrize("n,s", [(3, 1), (5, 2), (9, 4)])
    def test_incident_faces_matches_brute_force(self, n, s):
        off = offsets_from_band(BandSpec(n, s))
        v = 20
        listed = set(incident_faces(off, v))
        brute = {
            fid for fid, tri in window_faces(off, 40).items() if v in tri
        }
        assert listed == brute
        assert len(listed) == 6

    def test_edge_faces_share_the_class_edge(self):
        off = OffsetTriple(2, 3, 5)
        for cls, d in (("a", off.a), ("b", off.b), ("c", off.c)):
            f1, f2 = edge_faces(off, cls)
            s1 = set(face_vertices(f1[0], f1[1], off))
            s2 = set(face_vertices(f2[0], f2[1], off))
            assert s1 & s2 == {0, d}


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
        off = offsets_from_band(BandSpec(n, s))
        v = 0
        # each incident face links the two neighbors it contains; the links
        # close into one hexagon, which must be the published cycle
        links = {}
        for kind, k in incident_faces(off, v):
            others = [w for w in face_vertices(kind, k, off) if w != v]
            assert len(others) == 2
            p, q = others
            links.setdefault(p, []).append(q)
            links.setdefault(q, []).append(p)
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
        assert cyclic_equal(hexagon, vertex_neighbor_cycle(off))

    def test_cycle_offsets(self):
        off = OffsetTriple(2, 3, 5)
        assert vertex_neighbor_cycle(off) == [5, 3, -2, -5, -3, 2]


class TestCompounds:
    def test_split(self):
        assert split_compound(BandSpec(6, 2)) == (2, BandSpec(3, 1))
        assert split_compound(BandSpec(6, 3)) == (3, BandSpec(2, 1))
        assert split_compound(BandSpec(12, 4)) == (4, BandSpec(3, 1))

    def test_split_rejects_connected(self):
        with pytest.raises(NotACompoundError):
            split_compound(BandSpec(5, 2))

    @pytest.mark.parametrize("n,s", [(6, 2), (9, 3), (12, 4)])
    def test_component_map_scales_back(self, n, s):
        # g * phi_component(i, j) == phi_parent(i, j) on the component's strips
        g, comp = split_compound(BandSpec(n, s))
        for i in range(comp.n_strips):
            for j in range(-3, 4):
                assert g * phi(i, j, comp.n_strips, comp.shift) == phi(i, j, n, s)
