"""
Five strips, two stars
======================

Five strips admit two shifts, and each shift closes in two ways. Two of
the four branches self-intersect while keeping a simple vertex figure:
the first two helical star deltahedra.
"""

from helistar import BandSpec, classify, solve_band

# Walk both shifts. shift and n - shift give mirror twists of the same
# object, so only shift <= n // 2 is worth scanning.
for s in (1, 2):
    spec = BandSpec(5, s)
    a, b, c = spec.offsets
    print(f"band n=5 s={s}   chord offsets a={a} b={b} c={c}")
    # classify takes the whole band and tests all its branches in one pass
    branches = solve_band(spec)
    for branch, verdict in zip(branches, classify(branches)):
        tag = "star" if verdict.intersecting else "plain"
        if verdict.vertex_figure == "crossed":
            tag = "crossed"
        print(
            f"  branch {branch.branch_index}: theta={branch.params.theta:.6f}"
            f"  winding={branch.winding_m}  figure={verdict.vertex_figure}"
            f"  -> {tag}"
        )
        # For an intersecting branch the classifier records one concrete
        # pair of crossing faces as a witness.
        if verdict.witness is not None:
            print(f"    witness faces: {verdict.witness[0]} x {verdict.witness[1]}")
    print()

# Both stars wind twice around the axis per period; the names 5-2(1)
# and 5-2(2) record the winding and the shift. The non-intersecting
# branches are an ordinary helical deltahedron (winding 1) and a very
# loose winding-4 helix.
