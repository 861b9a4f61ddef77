"""Shared test oracles.

refold_max_error folds a net forward by its annotated dihedrals and compares
against the helix coordinates; brute_force_intersecting checks a realized
window by testing every face pair with the package predicate, and
oracle_intersecting checks the same window with a segment-triangle test that
shares no code with helistar.analysis. All are deliberately independent of
the implementation paths they check.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial.transform import Rotation

from helistar import (
    BranchSolution,
    helix_points,
    realize,
    triangles_properly_intersect,
    unfold_net,
)

# Rotation sign for folding an attached triangle out of its parent's plane,
# about the parent-directed shared edge, by (pi - dihedral). Calibrated on the
# tetrahelix (where the folded strip must land on the closed-form helix) and
# used unchanged for every band.
FOLD_SIGN = 1.0


def _phi(label: tuple[int, int], n: int, s: int) -> int:
    i, j = label
    return i * s + j * n


def refold_max_error(solution: BranchSolution, rows: int = 2) -> float:
    """Fold the net forward and return the max vertex error against the helix.

    The first net triangle is anchored at its true position, so the rigid
    alignment is the identity. Every other triangle is attached across a fold
    edge at the annotated interior dihedral, walking breadth-first.
    """
    net = unfold_net(solution, rows=rows)
    n, s = net.n_strips, net.shift
    params = solution.params

    fold_angle = {frozenset(f.edge): f.angle for f in net.folds}
    tris = net.triangles
    by_edge: dict[frozenset, list[int]] = {}
    for t_idx, tri in enumerate(tris):
        for u in range(3):
            by_edge.setdefault(frozenset((tri[u], tri[(u + 1) % 3])), []).append(t_idx)

    def true_pos(label):
        return helix_points(params, [_phi(label, n, s)])[0]

    placed: dict[tuple[int, int], np.ndarray] = {}
    seed = tris[0]
    for lbl in seed:
        placed[lbl] = true_pos(lbl)

    extra_err = 0.0  # disagreement when a label is reached along two paths
    seen = {0}
    queue = [0]
    while queue:
        t_idx = queue.pop(0)
        tri = tris[t_idx]
        for u in range(3):
            edge = (tri[u], tri[(u + 1) % 3])
            key = frozenset(edge)
            if key not in fold_angle:
                continue
            others = [o for o in by_edge[key] if o != t_idx]
            assert len(others) == 1
            nxt = others[0]
            if nxt in seen:
                continue
            seen.add(nxt)
            queue.append(nxt)

            apex = next(l for l in tris[nxt] if l not in key)
            p_from, p_to = placed[edge[0]], placed[edge[1]]
            q_from = net.points[edge[0]]
            e2 = net.points[edge[1]] - q_from
            n2 = np.array([-e2[1], e2[0]])
            q = net.points[apex] - q_from
            alpha, beta = float(np.dot(q, e2)), float(np.dot(q, n2))
            assert beta < 0.0  # attached apex sits right of the parent edge

            axis = p_to - p_from
            axis = axis / np.linalg.norm(axis)
            p_par_apex = placed[next(l for l in tri if l not in key)]
            w = p_par_apex - p_from
            w = w - np.dot(w, axis) * axis
            w = w / np.linalg.norm(w)
            flat = p_from + alpha * axis + beta * w
            rot = Rotation.from_rotvec(FOLD_SIGN * (math.pi - fold_angle[key]) * axis)
            pos = p_from + rot.apply(flat - p_from)
            if apex in placed:
                extra_err = max(extra_err, float(np.linalg.norm(pos - placed[apex])))
            else:
                placed[apex] = pos

    assert len(seen) == len(tris)
    err = max(float(np.linalg.norm(p - true_pos(lbl))) for lbl, p in placed.items())
    return max(err, extra_err)


def brute_force_intersecting(solution: BranchSolution, periods: int = 3) -> bool:
    """All-pairs proper-intersection test over a realized window."""
    seg = realize(solution, periods)
    verts = seg.vertices
    faces = seg.faces
    hit = False
    for ia in range(len(faces)):
        for ib in range(ia + 1, len(faces)):
            fa, fb = faces[ia], faces[ib]
            shared = len(set(fa) & set(fb))
            t1 = verts[list(fa)]
            t2 = verts[list(fb)]
            if triangles_properly_intersect(t1, t2, shared=shared):
                hit = True
                return hit
    return hit


ORACLE_EPS = 1e-9  # margin from every boundary for a crossing to count


def oracle_intersecting(solution: BranchSolution, periods: int = 3) -> bool:
    """Moeller-Trumbore crossing test over a realized window.

    True when, for some pair of faces sharing fewer than 2 vertices, an edge
    of one face passes through the other face strictly inside: barycentric
    coordinates and segment parameter all beyond ORACLE_EPS from 0 and 1.
    Edges parallel to the face plane (coplanar contact) never count.
    """
    seg = realize(solution, periods)
    verts = np.asarray(seg.vertices, dtype=float)
    faces = np.asarray(seg.faces)
    ia, ib = np.triu_indices(len(faces), k=1)
    shared = (faces[ia][:, :, None] == faces[ib][:, None, :]).any(axis=2).sum(axis=1)
    ia, ib = ia[shared < 2], ib[shared < 2]
    # every edge of face ia against face ib, and every edge of ib against ia
    starts = verts[faces[np.concatenate([ia, ib])]]  # (p, 3, 3): edge i runs from corner i to i+1
    tri = verts[faces[np.concatenate([ib, ia])]][:, None]  # (p, 1, 3, 3)
    seg_dir = np.roll(starts, -1, axis=1) - starts
    e1 = tri[:, :, 1] - tri[:, :, 0]
    e2 = tri[:, :, 2] - tri[:, :, 0]
    pvec = np.cross(seg_dir, e2)
    det = np.sum(e1 * pvec, axis=-1)
    tvec = starts - tri[:, :, 0]
    qvec = np.cross(tvec, e1)
    with np.errstate(divide="ignore", invalid="ignore"):  # parallel edges masked below
        u = np.sum(tvec * pvec, axis=-1) / det
        v = np.sum(seg_dir * qvec, axis=-1) / det
        t = np.sum(e2 * qvec, axis=-1) / det
    inside = (
        (np.abs(det) > ORACLE_EPS)
        & (u > ORACLE_EPS)
        & (v > ORACLE_EPS)
        & (u + v < 1.0 - ORACLE_EPS)
        & (t > ORACLE_EPS)
        & (t < 1.0 - ORACLE_EPS)
    )
    return bool(inside.any())
