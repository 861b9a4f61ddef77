"""Band combinatorics: strips, shifts, and their image on the integer line.

A band is n side-by-side strips of equilateral triangles, closed into a tube
by gluing the outer strip boundary to the inner one with a shift of s steps.
Label the lattice vertices (i, j), where i in [0, n] is the strip-boundary
line and j counts steps along that line; the gluing identifies (n, j) with
(0, j + s). The whole combinatorial structure then projects onto the integer
line by

    phi(i, j) = i*s + j*n

which is a bijection from one fundamental domain of the gluing onto Z exactly
when gcd(n, s) = 1. Under phi the three lattice edge directions become index
offsets a = s, b = n - s, c = n, and the triangles become two face families
per base index k:

    U_k = (k, k+a, k+c)        D_k = (k, k+c, k+b)

with orientations chosen so every shared edge is traversed oppositely by its
two faces. Every vertex lies in exactly 6 faces and every edge in exactly 2,
so one integer index and one offset triple carry the entire combinatorics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NotACompoundError, ParameterError, check_int

__all__ = [
    "BandSpec",
    "OffsetTriple",
    "offsets_from_band",
    "split_compound",
    "face_vertices",
    "incident_faces",
    "edge_faces",
    "vertex_neighbor_cycle",
]


@dataclass(frozen=True)
class BandSpec:
    """n side-by-side strips glued with a shift of s steps: a branch's identity.

    Stored in canonical form with shift <= floor(n/2); a shift of n - s is the
    mirror image of s and is normalized away. Every offset triple is a band's
    image: OffsetTriple(a, b, a + b) is offsets_from_band(BandSpec(a + b, a)).
    n = 2 is accepted only so that compound components such as
    (6,3) -> 3 x (2,1) are representable; it is degenerate (a = b) and has no
    geometric branches.
    """

    n_strips: int
    shift: int

    def __post_init__(self) -> None:
        n, s = self.n_strips, self.shift
        check_int("n_strips", n, 2)
        check_int("shift", s, 1)
        if s > n - 1:
            raise ParameterError(f"shift must be in [1, {n - 1}], got {s}")
        if s > n // 2:
            object.__setattr__(self, "shift", n - s)

    @property
    def components(self) -> int:
        return math.gcd(self.n_strips, self.shift)


@dataclass(frozen=True)
class OffsetTriple:
    """Index-line image of the band: edge offsets a <= b and c = a + b."""

    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        if not 1 <= self.a <= self.b:
            raise ParameterError(f"need 1 <= a <= b, got a={self.a} b={self.b}")
        if self.c != self.a + self.b:
            raise ParameterError(f"need c = a + b, got {self.c} != {self.a + self.b}")


def offsets_from_band(spec: BandSpec) -> OffsetTriple:
    """Edge offsets (min(s, n-s), max(s, n-s), n) of a band."""
    n, s = spec.n_strips, spec.shift
    return OffsetTriple(min(s, n - s), max(s, n - s), n)


def split_compound(spec: BandSpec) -> tuple[int, BandSpec]:
    """Split a compound band into (g, component band (n/g, s/g)).

    The component's index line embeds in the parent's as every g-th index:
    g * phi_component(i, j) = phi_parent(i, j) on the shared labels.
    """
    g = spec.components
    if g == 1:
        raise NotACompoundError(f"band ({spec.n_strips},{spec.shift}) is connected")
    return g, BandSpec(spec.n_strips // g, spec.shift // g)


def face_vertices(kind: str, k: int, offsets: OffsetTriple) -> tuple[int, int, int]:
    """Vertex indices of face U_k or D_k, in orientation order."""
    a, b, c = offsets.a, offsets.b, offsets.c
    if kind == "U":
        return (k, k + a, k + c)
    if kind == "D":
        return (k, k + c, k + b)
    raise ParameterError(f"face kind must be 'U' or 'D', got {kind!r}")


def incident_faces(offsets: OffsetTriple, k: int = 0) -> list[tuple[str, int]]:
    """The 6 faces containing vertex k, as (kind, base) pairs."""
    a, b, c = offsets.a, offsets.b, offsets.c
    return [
        ("U", k), ("U", k - a), ("U", k - c),
        ("D", k), ("D", k - b), ("D", k - c),
    ]


def edge_faces(offsets: OffsetTriple, cls: str) -> list[tuple[str, int]]:
    """The 2 faces sharing the class-a/b/c edge at vertex 0.

    Class a is edge (0, a), class b is (0, b), class c is (0, c). By screw
    symmetry these prototypes stand for every edge of their class.
    """
    a, b = offsets.a, offsets.b
    if cls == "a":
        return [("U", 0), ("D", -b)]
    if cls == "b":
        return [("U", -a), ("D", 0)]
    if cls == "c":
        return [("U", 0), ("D", 0)]
    raise ParameterError(f"edge class must be 'a', 'b', or 'c', got {cls!r}")


def vertex_neighbor_cycle(offsets: OffsetTriple) -> list[int]:
    """Neighbor offsets of vertex 0 in face-adjacency cyclic order.

    Walking the 6 incident faces so consecutive ones share an edge through the
    vertex visits the neighbors as [c, b, -a, -c, -b, a]. The cycle is what the
    vertex figure is built on.
    """
    a, b, c = offsets.a, offsets.b, offsets.c
    return [c, b, -a, -c, -b, a]
