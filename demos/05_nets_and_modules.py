"""
Paper nets and strip modules
============================

Every helical deltahedron unrolls into a flat parallelogram of
triangles. The SVG export draws the cut outline, the mountain and
valley folds with their angles, and the seam labels that tell you which
edge glues to which.
"""

import math
import pathlib

from helistar import (
    BandSpec,
    ModuleOptions,
    export_modules_svg,
    export_net_svg,
    solve_band,
    unfold_net,
)

out = pathlib.Path(__file__).parent / "output"
out.mkdir(exist_ok=True)

# The first five-strip star, three periods tall.
branch = solve_band(BandSpec(5, 2))[0]
net = unfold_net(branch, rows=3)

print(f"net: {len(net.triangles)} triangles, {len(net.fold_angles)} folds,"
      f" {len(net.seam_pairs)} seam pairs")

# Mountain folds close toward you, valleys away. A reflex dihedral
# (> pi) flips the direction, which is exactly what makes the star
# models fold back through themselves.
mountains = int((net.fold_angles < math.pi).sum())
print(f"{mountains} mountain folds, {len(net.fold_angles) - mountains} valley folds")

export_net_svg(net, out / "star_5_2_net.svg", edge_mm=30.0)
print("wrote", out / "star_5_2_net.svg")

# The rhombic module sheet is the other construction route: identical
# two-triangle tiles with slits, woven together without glue.
export_modules_svg(branch, ModuleOptions(edge_mm=36.0, periods=2),
                   out / "star_5_2_modules.svg")
print("wrote", out / "star_5_2_modules.svg")
