"""
The three-strip helix
=====================

Three strips of triangles with a shift of one close into the classic
tetrahelix, the tightest helical deltahedron there is. Here we solve for
it numerically and compare against the exact values.
"""

import math

from helistar import BandSpec, dihedral_angles, realize, solve_band, verify_uniform

# One band, one branch. The solver finds the roots of the closure
# determinant in the twist angle from a Chebyshev eigenvalue problem and
# polishes each with bisection.
branch = solve_band(BandSpec(3, 1))[0]

params = branch.params
print("twist   ", params.theta)
print("radius  ", params.r)
print("rise    ", params.h)

# The exact solution is known in closed form: cos(theta) = -2/3,
# r = 3*sqrt(3)/10, h = 1/sqrt(10).
print()
print("closed-form deviations:")
print("  twist ", abs(params.theta - math.acos(-2.0 / 3.0)))
print("  radius", abs(params.r - 3.0 * math.sqrt(3.0) / 10.0))
print("  rise  ", abs(params.h - 1.0 / math.sqrt(10.0)))

# All three fold angles are multiples of the regular tetrahedron's
# dihedral, a nice sanity check that the strips really wrap a stack of
# tetrahedra.
t = math.acos(1.0 / 3.0)
for cls, angle in sorted(dihedral_angles(branch).items()):
    print(f"dihedral {cls}: {angle:.9f}  ({angle / t:.6f} x tetra)")

# Finally realize a window of the infinite object and check uniformity:
# every edge unit length, every face equilateral, every interior vertex
# seeing the same constellation of neighbours.
mesh = realize(branch, periods=4)
report = verify_uniform(mesh)
print()
print(f"{len(mesh.vertices)} vertices, {len(mesh.faces)} faces")
print("uniform:", report.passed)
