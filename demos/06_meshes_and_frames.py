"""
Meshes for rendering
====================

Realize a window of an infinite object and write it out as Wavefront
OBJ, once as solid faces and once as a wireframe of its edges.
"""

import pathlib

from helistar import BandSpec, component_params, export_obj, realize, solve_band

out = pathlib.Path(__file__).parent / "output"
out.mkdir(exist_ok=True)

# 8-3(1), a star with a long reach.
branch = solve_band(BandSpec(8, 3))[0]
mesh = realize(branch, periods=3)
export_obj(mesh, out / "star_8_3.obj")
export_obj(mesh, out / "star_8_3_frame.obj", frame=True)
print(f"8-3 star: {len(mesh.vertices)} vertices, {len(mesh.faces)} faces,"
      f" {len(mesh.edges)} edges")

# A band with gcd(n, s) > 1 is a compound: congruent copies of a
# smaller band's object, interleaved. (6,2) is two tetrahelices.
# Each copy lives on every g-th vertex, so its twist and rise are g
# times the compound's. Here that recovers the tetrahelix exactly.
compound = solve_band(BandSpec(6, 2))[0]
g, sub, sub_params = component_params(compound)
print(f"compound (6,2): {g} copies of band n={sub.n_strips} s={sub.shift}")
print(f"component twist {sub_params.theta:.9f} rise {sub_params.h:.9f}")
