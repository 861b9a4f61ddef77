"""Helical deltahedra and helical star deltahedra.

A band of n triangle strips joined with seam shift s closes into a screw-
symmetric deltahedron for particular twist angles theta. This package solves
the closure equations, realizes mesh windows, classifies self-intersection
and vertex figures, enumerates catalogs over strip ranges, and exports OBJ
meshes, unfolding nets, and slide-together module sheets.
"""

# set before the submodule imports: catalog reads it while the package loads
__version__ = "0.1.0"

from .analysis import Classification, classify, triangles_properly_intersect, vertex_figure
from .band_combinatorics import (
    BandSpec,
    OffsetTriple,
    edge_faces,
    face_vertices,
    incident_faces,
    offsets_from_band,
    split_compound,
    vertex_neighbor_cycle,
)
from .catalog import (
    CatalogEntry,
    CatalogReport,
    build_report,
    component_params,
    enumerate_catalog,
    format_report,
    read_catalog,
    write_catalog,
    write_catalog_csv,
)
from .closure_solver import (
    BranchSolution,
    HelixParams,
    SolverOptions,
    chord,
    closure_determinant,
    helix_points,
    solve_band,
    solve_branches,
    winding_estimate,
)
from .errors import (
    CatalogFormatError,
    HelistarError,
    MissingBandError,
    NotACompoundError,
    ParameterError,
    WindowError,
)
from .export import (
    Fold,
    ModuleOptions,
    NetLayout,
    export_modules_svg,
    export_net_svg,
    export_obj,
    unfold_net,
)
from .realization import (
    MeshSegment,
    UniformityReport,
    antiprism_tower,
    dihedral_angles,
    realize,
    verify_uniform,
)

__all__ = [
    "BandSpec",
    "BranchSolution",
    "CatalogEntry",
    "CatalogFormatError",
    "CatalogReport",
    "Classification",
    "Fold",
    "HelistarError",
    "HelixParams",
    "MeshSegment",
    "MissingBandError",
    "ModuleOptions",
    "NetLayout",
    "NotACompoundError",
    "OffsetTriple",
    "ParameterError",
    "SolverOptions",
    "UniformityReport",
    "WindowError",
    "antiprism_tower",
    "build_report",
    "chord",
    "classify",
    "closure_determinant",
    "component_params",
    "dihedral_angles",
    "edge_faces",
    "enumerate_catalog",
    "export_modules_svg",
    "export_net_svg",
    "export_obj",
    "face_vertices",
    "format_report",
    "helix_points",
    "incident_faces",
    "offsets_from_band",
    "read_catalog",
    "realize",
    "solve_band",
    "solve_branches",
    "split_compound",
    "triangles_properly_intersect",
    "unfold_net",
    "verify_uniform",
    "vertex_figure",
    "vertex_neighbor_cycle",
    "winding_estimate",
]
