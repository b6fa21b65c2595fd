"""Piecewise-linear mixed finite elements for the biharmonic equation
on triangle meshes approximating curved surfaces.

The package solves Delta^2 u = f with clamped boundary conditions
(u = du/dn = 0) on bounded surfaces, and the zero-mean problem on
closed surfaces, using the mixed formulation with an auxiliary variable
u2 = Delta u1 (positive semidefinite Laplacian convention); each solve
reads one bundle of assembled operators and factors per mesh, and
``solve_mixed`` is the one solve for every mesh.  It ships analytic
reference surfaces with manufactured solutions, mesh generators for the
spherical cap, icosphere and Schwarz lantern experiment families, error
norms under one 6-point quadrature rule, mesh-quality certification and
convergence-rate fitting, plus a CLI (``biharm``) wrapping the studies.
"""

from .mesh import (TriMesh, build_mesh, component_labels, max_edge_length,
                   read_obj, write_obj)
from .linalg import SolveReport, NotConvergedError, SingularError
from .fem import (MeshOperators, assemble_stiffness, assemble_mass,
                  interpolate, p1_gradients)
from .surfaces import (SurfaceCase, RefinementFamily, cap_case,
                       cylinder_case, sphere_case, real_harmonic,
                       gen_cap_mesh, gen_icosphere,
                       gen_schwarz_lantern, cap_family, sphere_family,
                       lantern_family)
from .biharmonic import MixedSolution, solve_mixed
from .analysis import (LevelRecord, ConvergenceReport, RateFit, measure,
                       fit_rates, run_level, run_study, write_levels_csv,
                       write_rates_csv, lantern_highres_reference)

__version__ = "0.1.0"

# Old names of solve_mixed, kept while benchmark/test_harness.py calls them.
solve_mixed_dirichlet = solve_mixed_closed = solve_mixed

__all__ = [
    "TriMesh", "build_mesh", "component_labels", "max_edge_length",
    "read_obj", "write_obj",
    "SolveReport", "NotConvergedError", "SingularError",
    "MeshOperators", "assemble_stiffness", "assemble_mass", "interpolate",
    "p1_gradients",
    "SurfaceCase", "RefinementFamily", "cap_case", "cylinder_case",
    "sphere_case", "real_harmonic",
    "gen_cap_mesh", "gen_icosphere", "gen_schwarz_lantern", "cap_family",
    "sphere_family", "lantern_family",
    "MixedSolution", "solve_mixed",
    "LevelRecord", "ConvergenceReport", "RateFit", "measure", "fit_rates",
    "run_level", "run_study", "write_levels_csv", "write_rates_csv",
    "lantern_highres_reference",
]
