"""Discrete mixed solver for the biharmonic equation Delta^2 u = f.

The mixed problem is one symmetric saddle point system in (u1, u2) on
every mesh,

    [ 0   B ] [u1]   [ M[interior, :] f ]
    [ B^T -M ] [u2] = [        0         ]

with S the cotangent stiffness, M the consistent mass, B the interior
row slice of S, and u2 = Delta u1 in the positive semidefinite
convention: u1 lives in the interior hat space, u2 in the full hat
space.  With boundary this is the clamped problem (u = du/dn = 0): the
Neumann condition is not imposed explicitly; it is encoded by testing
the second equation against all hat functions, including the boundary
ones.  The system is solved by static condensation onto the boundary
values of u2: one factorization of the interior stiffness, and
preconditioned conjugate gradients on the boundary Schur complement
(Glowinski & Pironneau, SIAM Review 21, 1979).  The lumped-mass variant
is the same system with the lumped mass matrix in place of the
consistent one in the second equation, and is solved the same way.

A closed mesh is the same problem with an empty boundary: B = S, there
is nothing to condense, and the system decouples into two Poisson
solves.  The constants in the kernel of S add one rule, kept by
:class:`~biharm.fem.MeshOperators`: the load loses its M-weighted mean,
each right-hand side is projected onto range(S) along M 1, and each
solve, by multilevel CG on S itself, removes the mean from its result.

:func:`solve_mixed`, the one solve of the studies and the CLI, reads
S, M, the dof split and the one Poisson solver from one bundle built
inside the solve.  It checks the two variational identities apart by
:func:`~biharm.linalg.check_residual`, so ``tol`` does not depend on the
unit of length, and reports the larger residual.
"""

import numpy as np

from .fem import (MeshOperators, assemble_boundary_mass, assemble_mass,
                  nodal_field)
from .linalg import DEFAULT_TOL, SolveReport, check_residual, pcg
from .mesh import component_labels


# Weight of the boundary-curve mass in the boundary preconditioner, in
# units of one over the boundary length.
_DTN_SHIFT = 10.0


class MixedSolution:
    """Solution pair of the discrete mixed biharmonic problem.

    Attributes
    ----------
    u1 : ndarray, shape (n,)
        Primal solution; exactly zero on boundary dofs.
    u2 : ndarray, shape (n,)
        Auxiliary variable approximating Delta u1 (positive
        semidefinite convention), unconstrained on the boundary.
    solve_report : SolveReport
        Worst-case report over the underlying linear solves.
    mass_mode : str
        "consistent" or "lumped".
    f_mean_removed : float
        M-weighted mean subtracted from f on closed surfaces (0 for
        meshes with boundary).
    """

    def __init__(self, u1, u2, solve_report, mass_mode,
                 f_mean_removed=0.0):
        self.u1 = u1
        self.u2 = u2
        self.solve_report = solve_report
        self.mass_mode = mass_mode
        self.f_mean_removed = float(f_mean_removed)


def _check_field(mesh, f):
    f = nodal_field(mesh, f)
    if not np.all(np.isfinite(f)):
        raise ValueError("right-hand side contains non-finite entries")
    return f


def _check_components(mesh):
    """Reject a mesh of more than one component unless each has
    boundary vertices: a closed second component would leave its
    constants free and the factored stiffness singular."""
    count, labels = component_labels(mesh)
    if count > 1:
        closed = count - np.unique(labels[mesh.boundary_vertices]).size
        if closed:
            raise ValueError(
                f"mesh has {count} connected components and {closed} of "
                f"them have no boundary vertices; a mesh of more than one "
                f"component needs a boundary on each")


def _condensed_clamped(ops, mass, load, tol):
    """Static condensation of the clamped saddle system onto lam = u2_B.

    With I the interior and B the boundary dofs and E lam =
    [-S_II^{-1} S_IB lam; lam] the discrete harmonic extension, the
    first equation gives u2 = u2_0 + E lam with u2_0 = [S_II^{-1} M_I:
    f; 0], the interior rows of the second give u1_I = S_II^{-1}
    (M u2)_I, and the boundary rows of the second leave the nb x nb
    system T lam = c with T = -E^T M E symmetric negative definite and
    c = E^T M u2_0.  CG runs on E^T M E lam = -c; each step costs two
    S_II solves for the product and one for the preconditioner.
    That is the Dirichlet-to-Neumann map S_BB - S_BI S_II^{-1} S_IB plus
    (10 / |Gamma|) times the boundary-curve mass, |Gamma| the boundary
    length; both terms are unchanged when the mesh is scaled.  On a
    closed mesh there is no lam, and u2 is the first Poisson solve.

    The first identity B u2 = M_I: f and the interior rows of the
    second, B^T u1 = M u2, hold up to the accuracy of the factor; the
    CG residual is exactly the boundary block of the second.  CG stops
    at a hundredth of ``tol`` times |M u2_0|, 2.1-2.35 times |M u2|, the
    scale :func:`check_residual` gives the second identity, on caps and
    lanterns of every size (|c| / |M u2| grows with the mesh).  The
    margin leaves u1 and u2 closer to the exact discrete solution of the
    cap family than a sparse LU of the saddle matrix does.

    ``mass`` is M or M_L, and ``load`` is M f over all vertices, as
    :meth:`~biharm.fem.MeshOperators.project` leaves it.

    Returns
    -------
    u2 : ndarray, shape (n,)
    iterations : int
    """
    u2 = ops.solve(load)
    interior, boundary = ops.interior, ops.boundary
    if not boundary.size:
        return u2, 0
    n = ops.mesh.n_vertices
    s_ib = ops.b_block[:, boundary]
    s_bi = s_ib.T.tocsr()
    s_bb = ops.stiffness[boundary, :][:, boundary]
    curve_mass = assemble_boundary_mass(ops.mesh)
    shift = (_DTN_SHIFT / curve_mass.sum()) * curve_mass
    factor = ops.factor

    def extend(lam):
        u = np.zeros(n)
        u[interior] = -factor.solve(s_ib @ lam)
        u[boundary] = lam
        return u

    def extend_adjoint(v):
        return v[boundary] - s_bi @ factor.solve(v[interior])

    def precondition(r):
        return s_bb @ r - s_bi @ factor.solve(s_ib @ r) + shift @ r

    mass_u2 = mass @ u2
    lam, iterations = pcg(
        lambda p: extend_adjoint(mass @ extend(p)), -extend_adjoint(mass_u2),
        precondition, tol, np.sqrt(np.sum(mass_u2 * mass_u2)),
        f"boundary CG of the clamped solve on {boundary.size} boundary dofs "
        f"of {n}")
    return u2 + extend(lam), iterations


def solve_mixed(mesh, f, tol=DEFAULT_TOL, mass_mode="consistent"):
    """Solve the mixed biharmonic problem on any mesh.

    The saddle system of the module docstring is condensed onto the
    boundary values of u2, none on a closed mesh (see
    :func:`_condensed_clamped`).  Both variational identities,
    B u2 = M[interior, :] f and B^T u1 = M u2, their right-hand sides
    taken through the bundle's constant rule, are then recomputed from
    the assembled blocks and checked to ``tol`` by
    :func:`check_residual`.  A mesh without interior vertices has the
    solution u1 = u2 = 0.

    Parameters
    ----------
    mesh : TriMesh
    f : ndarray, shape (n,)
        Nodal samples of the right-hand side.
    tol : float
        Largest relative residual allowed in either identity.
    mass_mode : {"consistent", "lumped"}
        Mass matrix in the second equation.  The load keeps the
        consistent mass in both modes, so the lumped solution solves
        B M_L^{-1} B^T u1 = M[interior, :] f with u2 = M_L^{-1} B^T u1.
        M_L has the row sums of M, so M 1 projects both modes' loads.

    Returns
    -------
    MixedSolution
        Its ``solve_report`` has method "condensed_cg", the boundary CG
        iteration count (0 on a closed mesh) and the larger residual of
        the two identities.

    Raises
    ------
    ValueError
        If the mesh has more than one connected component and one of
        them has no boundary vertices.
    SingularError
        If the interior stiffness S_II, or the coarsest multilevel
        matrix of a closed mesh, cannot be factored.
    NotConvergedError
        If the boundary CG or either identity misses ``tol``.
    """
    _check_components(mesh)
    f = _check_field(mesh, f)
    ops = MeshOperators(mesh, tol)
    mass = (ops.mass if mass_mode == "consistent"
            else assemble_mass(mesh, mass_mode))
    mean = ops.mean(f)
    load = ops.project(ops.mass @ (f - mean))
    u2, iterations = _condensed_clamped(ops, mass, load, tol)
    rhs = ops.project(mass @ u2)
    u1 = ops.solve(rhs)

    what = f"identity of the clamped solve on {mesh.n_vertices} vertices"
    res = max(check_residual(ops.b_block @ u2, load[ops.interior], tol,
                             "first " + what),
              check_residual(ops.b_block.T @ u1[ops.interior], rhs, tol,
                             "second " + what))
    return MixedSolution(u1, u2, SolveReport("condensed_cg", iterations, res),
                         mass_mode, f_mean_removed=mean)
