"""Helical deltahedra and helical star deltahedra.

A band of n triangle strips joined with seam shift s closes into a screw-
symmetric deltahedron for particular twist angles theta. This package solves
the closure equations, realizes mesh windows, classifies self-intersection
and vertex figures, enumerates catalogs over strip ranges, and exports OBJ
meshes, unfolding nets, and slide-together module sheets.
"""

from types import ModuleType as _ModuleType

# set before the submodule imports: catalog reads it while the package loads
__version__ = "0.1.0"

from .analysis import Classification, classify, triangles_properly_intersect
from .band_combinatorics import (
    BandSpec,
    prototype_faces,
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
    chord,
    closure_determinant,
    helix_points,
    solve_band,
    winding_estimate,
)
from .errors import (
    CatalogFormatError,
    HelistarError,
    ParameterError,
    WindowError,
)
from .export import (
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
    realize,
    verify_uniform,
)

# every public name bound above, the submodules themselves aside
__all__ = [name for name, value in list(vars().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
