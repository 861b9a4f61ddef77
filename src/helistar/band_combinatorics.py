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
two faces. Every vertex lies in exactly 6 faces and every edge in exactly 2:
with w = [c, b, -a, -c, -b, a] the neighbour cycle, the faces at vertex k are
the fan (k, k + w_i, k + w_(i+1)), i mod 6, in orientation order, and the
class edge (0, w_j) lies in fan faces j-1 and j, opposite w_(j-1) and w_(j+1).
So one integer index and BandSpec.offsets carry the entire combinatorics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import check_int

__all__ = [
    "BandSpec",
    "prototype_faces",
    "vertex_neighbor_cycle",
]

# Largest n accepted. It marks the reach of double precision (ROADMAP item 3):
# near n = 1000 some genuine roots already fail the residual check, since half
# an ulp of theta, amplified by the radius, is of order 1e-9.
MAX_STRIPS = 1000


@dataclass(frozen=True)
class BandSpec:
    """n side-by-side strips glued with a shift of s steps: a branch's identity.

    Stored in canonical form with shift <= floor(n/2); a shift of n - s is the
    mirror image of s and is normalized away, so the offsets (a, b, c) =
    (s, n - s, n) have a <= b; BandSpec(a + b, a) is the band of (a, b, a + b).
    n = 2 is accepted only so that compound components such as
    (6,3) -> 3 x (2,1) are representable; it is degenerate (a = b) and has no
    geometric branches. n is at most MAX_STRIPS.
    """

    n_strips: int
    shift: int

    def __post_init__(self) -> None:
        n, s = self.n_strips, self.shift
        check_int("n_strips", n, 2, MAX_STRIPS)
        check_int("shift", s, 1, n - 1)
        if s > n // 2:
            object.__setattr__(self, "shift", n - s)

    @property
    def components(self) -> int:
        """g = gcd(n, s): the band is g interleaved copies of its component (n/g, s/g).

        The component's index line embeds in the parent's as every g-th index:
        g * phi_component(i, j) = phi_parent(i, j) on the shared labels. g = 1
        is a connected band, its own component.
        """
        return math.gcd(self.n_strips, self.shift)

    @property
    def offsets(self) -> tuple[int, int, int]:
        """The band's image on the index line: edge offsets a <= b and c = a + b."""
        return self.shift, self.n_strips - self.shift, self.n_strips


def prototype_faces(band: BandSpec) -> np.ndarray:
    """Rows U_0 = (0, a, c) and D_0 = (0, c, b), in orientation order.

    A (2, 3) intp array; face U_k or D_k is its row plus k.
    """
    a, b, c = band.offsets
    return np.array([(0, a, c), (0, c, b)], dtype=np.intp)


def vertex_neighbor_cycle(band: BandSpec) -> list[int]:
    """Neighbor offsets of vertex 0 in face-adjacency cyclic order.

    Walking the 6 incident faces so consecutive ones share an edge through the
    vertex visits the neighbors as [c, b, -a, -c, -b, a]. The vertex figure,
    the face fan and the faces at each class edge are read off the cycle.
    """
    a, b, c = band.offsets
    return [c, b, -a, -c, -b, a]
