"""
Antiprism towers
================

Stacked antiprisms are the degenerate cousins of the helical bands: the
twist is locked to pi/gon and the triangles close into rings instead of
a helix. The square tower has the famously tidy rise of 2**(-1/4).
"""

import math

from helistar import antiprism_tower, verify_uniform

for gon in (3, 4, 5, 6, 8):
    seg = antiprism_tower(gon, rings=4)
    # Read the ring radius and rise straight off the mesh: vertex 0 sits
    # on ring 0, vertex gon directly above it on ring 1.
    r = math.hypot(*seg.vertices[0][:2])
    h = float(seg.vertices[gon][2])
    print(
        f"{gon}-gonal tower: r={r:.9f} h={h:.9f}"
        f"  vertices={len(seg.vertices)} faces={len(seg.faces)}"
    )

seg = antiprism_tower(4, rings=2)
print()
print("square tower rise vs 2**(-1/4):",
      abs(float(seg.vertices[4][2]) - 2.0 ** -0.25))

# The towers pass the same uniformity gate as the helical bands; only
# the screw parameters differ.
report = verify_uniform(antiprism_tower(4, rings=5))
print("square tower uniform:", report.passed)

# Unit edges, checked the blunt way.
seg = antiprism_tower(4, rings=5)
worst = 0.0
for u, v in seg.edges:
    worst = max(worst, abs(math.dist(seg.vertices[u], seg.vertices[v]) - 1.0))
print("worst edge deviation:", worst)

# Octahedron fact: the 3-gonal tower's rise equals sqrt(2/3), the
# distance between opposite faces of a regular octahedron.
seg = antiprism_tower(3, rings=2)
print("3-gonal rise vs sqrt(2/3):",
      abs(float(seg.vertices[3][2]) - math.sqrt(2.0 / 3.0)))
