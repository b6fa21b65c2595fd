"""Piecewise-linear mixed finite elements for the biharmonic equation
on triangle meshes approximating curved surfaces.

The package solves Delta^2 u = f with clamped boundary conditions
(u = du/dn = 0) on bounded surfaces, and the zero-mean problem on
closed surfaces, using the mixed formulation with an auxiliary variable
u2 = Delta u1 (positive semidefinite Laplacian convention).  It ships
analytic reference surfaces with manufactured solutions, mesh
generators for the spherical cap, icosphere and Schwarz lantern
experiment families, error norms, mesh-quality certification and
convergence-rate fitting, plus a CLI (``biharm``) wrapping the studies.
"""

from .mesh import (TriMesh, build_mesh, component_labels, max_edge_length,
                   read_obj, write_obj, MeshError, DegenerateFaceError,
                   NonManifoldEdgeError, InconsistentOrientationError,
                   UnreferencedVertexError, ComponentError)
from .linalg import (SolveReport, build_csr, dense_solve_oracle,
                     export_matrix_market, DimensionMismatchError,
                     NotConvergedError, SingularError)
from .fem import (DofPartition, partition_dofs, assemble_stiffness,
                  assemble_mass, interpolate, p1_gradients,
                  discrete_laplacian)
from .surfaces import (SurfaceCase, RefinementFamily, cap_case,
                       cylinder_case, sphere_case, real_harmonic,
                       gen_cap_mesh, gen_icosphere,
                       gen_schwarz_lantern, cap_family, sphere_family,
                       lantern_family, OutsideReachError, InvalidAngleError,
                       InvalidDimensionError, InvalidDegreeError,
                       TooFewRingsError, InvalidCountsError)
from .biharmonic import (MixedSolution, solve_mixed_dirichlet,
                         solve_mixed_closed, saddle_system, NoBoundaryError,
                         HasBoundaryError)
from .analysis import (ErrorRecord, QualityRecord, ConvergenceReport,
                       RateFit, triangle_quadrature, l2_error, h1_error,
                       certify_quality, fit_rates, fit_quality_rates,
                       solve_mixed, run_level, run_study,
                       write_report_csv, read_report_csv, write_quality_csv,
                       read_quality_csv, write_rates_csv, read_rates_csv,
                       lantern_highres_reference, InsufficientLevelsError)

__version__ = "0.1.0"

__all__ = [
    "TriMesh", "build_mesh", "component_labels", "max_edge_length",
    "read_obj", "write_obj", "MeshError", "DegenerateFaceError",
    "NonManifoldEdgeError", "InconsistentOrientationError",
    "UnreferencedVertexError", "ComponentError",
    "SolveReport", "build_csr", "dense_solve_oracle",
    "export_matrix_market", "DimensionMismatchError", "NotConvergedError",
    "SingularError",
    "DofPartition", "partition_dofs", "assemble_stiffness", "assemble_mass",
    "interpolate", "p1_gradients", "discrete_laplacian",
    "SurfaceCase", "RefinementFamily", "cap_case", "cylinder_case",
    "sphere_case", "real_harmonic",
    "gen_cap_mesh", "gen_icosphere", "gen_schwarz_lantern", "cap_family",
    "sphere_family", "lantern_family", "OutsideReachError",
    "InvalidAngleError", "InvalidDimensionError", "InvalidDegreeError",
    "TooFewRingsError", "InvalidCountsError",
    "MixedSolution", "solve_mixed_dirichlet", "solve_mixed_closed",
    "saddle_system", "NoBoundaryError", "HasBoundaryError",
    "ErrorRecord", "QualityRecord", "ConvergenceReport", "RateFit",
    "triangle_quadrature", "l2_error", "h1_error", "certify_quality",
    "fit_rates", "fit_quality_rates", "solve_mixed", "run_level",
    "run_study", "write_report_csv",
    "read_report_csv", "write_quality_csv", "read_quality_csv",
    "write_rates_csv", "read_rates_csv", "lantern_highres_reference",
    "InsufficientLevelsError",
]
