"""Discrete mixed solvers for the biharmonic equation Delta^2 u = f.

On meshes with boundary the clamped problem (u = du/dn = 0) is the
coupled symmetric saddle point system in (u1, u2) of
:func:`saddle_system`, with u2 = Delta u1 in the positive semidefinite
convention: u1 lives in the interior hat space, u2 in the full hat
space, and the Neumann condition is not imposed explicitly; it is
encoded by testing the second equation against all hat functions,
including the boundary ones.  The system is solved by static
condensation onto the boundary values of u2: one factorization of the
interior stiffness, and preconditioned conjugate gradients on the
boundary Schur complement (Glowinski & Pironneau, SIAM Review 21,
1979).  The lumped-mass variant is the same system with the lumped
mass matrix in place of the consistent one in the second equation, and
is solved the same way.

On closed meshes the problem decouples into two Poisson solves for
fields of zero mass-weighted mean.  Both use one factorization of the
stiffness grounded at vertex 0, which is positive definite: each
right-hand side is first projected onto the range of the stiffness,
and the mean is removed from each result.

Every solver reads S, M, the dof split and the one factor from one
:class:`~biharm.fem.MeshOperators` bundle built inside the solve.
:func:`solve_mixed` is the one dispatch to the solver a mesh calls
for, which the studies and the CLI share.

Each solve checks its two equations (the variational identities of the
clamped problem, the Poisson identities of the closed one) apart by
:func:`~biharm.linalg.check_residual`, so ``tol`` does not depend on the
unit of length, and reports the larger residual.
"""

import numpy as np
import scipy.sparse as sp

from .fem import (MeshOperators, assemble_boundary_mass, assemble_mass,
                  nodal_field)
from .linalg import DEFAULT_TOL, SolveReport, check_residual, NotConvergedError
from .mesh import ComponentError, component_labels


class NoBoundaryError(ValueError):
    """Dirichlet solver called on a closed mesh."""


class HasBoundaryError(ValueError):
    """Closed-surface solver called on a mesh with boundary."""


# The boundary CG of the clamped solve takes 7-19 iterations on caps and
# lanterns of every size up to 197k vertices, and 18-20 with lumped mass
# on caps up to 49k; one that has not converged after this many fails.
_BOUNDARY_CG_MAXITER = 100
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
            raise ComponentError(
                f"mesh has {count} connected components and {closed} of "
                f"them have no boundary vertices; a mesh of more than one "
                f"component needs a boundary on each")


def saddle_system(mesh, f):
    """Assemble the coupled saddle matrix and right-hand side.

    With S the cotangent stiffness, M the consistent mass and B the
    interior row slice of S, the system is

        [ 0   B ] [u1]   [ M[interior, :] f ]
        [ B^T -M ] [u2] = [        0         ]

    Returns
    -------
    matrix : scipy.sparse.csr_matrix, shape (ni + n, ni + n)
    rhs : ndarray
    ops : MeshOperators
        The operators it is built from; u1 is ordered by ``ops.interior``.
    """
    f = _check_field(mesh, f)
    ops = MeshOperators(mesh)
    b_block, mass = ops.b_block, ops.mass
    matrix = sp.bmat([[None, b_block], [b_block.T, -mass]], format="csr")
    rhs = np.concatenate([mass[ops.interior, :] @ f,
                          np.zeros(mesh.n_vertices)])
    return matrix, rhs, ops


def _condensed_clamped(ops, mass, load, tol):
    """Static condensation of the clamped saddle system onto lam = u2_B.

    With I the interior and B the boundary dofs and E lam =
    [-S_II^{-1} S_IB lam; lam] the discrete harmonic extension, the
    first equation gives u2 = [S_II^{-1} M_I: f; 0] + E lam, the
    interior rows of the second give u1_I = S_II^{-1} (M u2)_I, and the
    boundary rows of the second leave the nb x nb system T lam = c
    with T = -E^T M E symmetric negative definite and c = E^T M
    [S_II^{-1} M_I: f; 0].  CG runs on E^T M E lam = -c; each step costs
    two S_II solves for the product and one for the preconditioner.
    That is the Dirichlet-to-Neumann map S_BB - S_BI S_II^{-1} S_IB plus
    (10 / |Gamma|) times the boundary-curve mass, |Gamma| the boundary
    length; both terms are unchanged when the mesh is scaled.

    The first identity B u2 = M_I: f and the interior rows of the
    second, B^T u1 = M u2, hold up to the accuracy of the factor; the
    CG residual is exactly the boundary block of the second.  CG stops
    once it is at most a hundredth of ``tol`` times |M u2|, the scale
    :func:`check_residual` gives the second identity, so the stop does
    not depend on the unit of length.  The margin costs about one step;
    on the cap family it leaves u1 and u2 closer to the exact discrete
    solution than a sparse LU of the saddle matrix does.

    ``mass`` is M or M_L, and ``load`` is M_I: f.

    Returns
    -------
    u1, u2 : ndarray, shape (n,)
    iterations : int
    """
    interior, boundary = ops.interior, ops.boundary
    n = ops.mesh.n_vertices
    s_ib = ops.b_block[:, boundary]
    s_bi = s_ib.T.tocsr()
    s_bb = ops.stiffness[boundary, :][:, boundary]
    curve_mass = assemble_boundary_mass(ops.mesh)[boundary, :][:, boundary]
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

    u2 = np.zeros(n)
    u2[interior] = factor.solve(load)
    mass_u2 = mass @ u2
    r = -extend_adjoint(mass_u2)
    z = precondition(r)
    p = z
    rz = r @ z
    target = 0.01 * tol
    for iterations in range(_BOUNDARY_CG_MAXITER + 1):
        res = np.linalg.norm(r) / max(np.linalg.norm(mass_u2), 1e-300)
        if res <= target:
            break
        if iterations == _BOUNDARY_CG_MAXITER or not np.isfinite(res):
            raise NotConvergedError(
                f"boundary CG of the clamped solve stopped at relative "
                f"residual {res:.3e} (target {target:.1e}) after "
                f"{iterations} iterations on {boundary.shape[0]} boundary "
                f"dofs of {n}")
        ext_p = extend(p)
        mass_p = mass @ ext_p
        t_p = extend_adjoint(mass_p)
        alpha = rz / (p @ t_p)
        u2 += alpha * ext_p
        mass_u2 += alpha * mass_p
        r -= alpha * t_p
        z = precondition(r)
        rz, rz_old = r @ z, rz
        p = z + (rz / rz_old) * p
    u1 = np.zeros(n)
    u1[interior] = factor.solve((mass @ u2)[interior])
    return u1, u2, iterations


def solve_mixed_dirichlet(mesh, f, tol=DEFAULT_TOL, mass_mode="consistent"):
    """Solve the clamped mixed biharmonic problem on a bounded mesh.

    The saddle system of :func:`saddle_system` is condensed onto the
    boundary values of u2: the interior stiffness S_II is factored
    once, and the boundary Schur complement is solved by CG
    preconditioned with the Dirichlet-to-Neumann map of the same factor
    (see :func:`_condensed_clamped`).  Both variational identities,
    B u2 = M[interior, :] f and B^T u1 = M u2, are then recomputed from
    the assembled blocks and checked to ``tol`` by
    :func:`check_residual`.  A mesh without interior vertices has the
    solution u1 = u2 = 0.

    Parameters
    ----------
    mesh : TriMesh
        Mesh with nonempty boundary.
    f : ndarray, shape (n,)
        Nodal samples of the right-hand side.
    tol : float
        Largest relative residual allowed in either identity.
    mass_mode : {"consistent", "lumped"}
        Mass matrix in the second equation.  The load keeps the
        consistent mass in both modes, so the lumped solution solves
        B M_L^{-1} B^T u1 = M[interior, :] f with u2 = M_L^{-1} B^T u1.

    Returns
    -------
    MixedSolution
        Its ``solve_report`` has method "condensed_cg", the boundary CG
        iteration count and the larger residual of the two identities.

    Raises
    ------
    NoBoundaryError
        On closed meshes; use :func:`solve_mixed_closed`.
    ComponentError
        If a connected component of the mesh has no boundary vertices.
    SingularError
        If the interior stiffness cannot be factored.
    NotConvergedError
        If the boundary CG or either identity misses ``tol``.
    """
    if mesh.is_closed:
        raise NoBoundaryError(
            "mesh has no boundary; use solve_mixed_closed")
    _check_components(mesh)
    f = _check_field(mesh, f)
    ops = MeshOperators(mesh)
    load = ops.mass[ops.interior, :] @ f
    mass = (ops.mass if mass_mode == "consistent"
            else assemble_mass(mesh, mass_mode))
    if ops.interior.size:
        u1, u2, iterations = _condensed_clamped(ops, mass, load, tol)
    else:
        u1, u2, iterations = (np.zeros(mesh.n_vertices),
                              np.zeros(mesh.n_vertices), 0)

    what = f"identity of the clamped solve on {mesh.n_vertices} vertices"
    res = max(check_residual(ops.b_block @ u2, load, tol, "first " + what),
              check_residual(ops.b_block.T @ u1[ops.interior], mass @ u2, tol,
                             "second " + what))
    return MixedSolution(u1, u2, SolveReport("condensed_cg", iterations, res),
                         mass_mode)


def solve_mixed_closed(mesh, f, tol=DEFAULT_TOL):
    """Solve the biharmonic problem on a closed mesh by double Poisson.

    The right-hand side is projected onto zero M-weighted mean (the
    problem quotients out constants); the removed component is recorded
    in the returned solution.  Each Poisson problem S u = b is solved
    with one shared factor of the stiffness grounded at vertex 0,
    S[1:, 1:], after b is projected onto range(S) along M 1,

        b <- b - (1^T b / 1^T M 1) M 1,

    which is what the Lagrange row of the bordered system
    [[S, M 1], [(M 1)^T, 0]] does.  The M-weighted mean is then removed
    from u, so that 1^T M u = 0.  Each Poisson identity S u = b, with
    the projected b, is checked to ``tol`` by :func:`check_residual`.

    Raises
    ------
    HasBoundaryError
        On meshes with boundary; use :func:`solve_mixed_dirichlet`.
    ComponentError
        If the mesh has more than one connected component.
    SingularError
        If the grounded stiffness cannot be factored.
    NotConvergedError
        If either Poisson identity misses ``tol``.
    """
    if not mesh.is_closed:
        raise HasBoundaryError(
            "mesh has a boundary; use solve_mixed_dirichlet")
    _check_components(mesh)
    f = _check_field(mesh, f)
    ops = MeshOperators(mesh)
    # Means are taken with numpy's pairwise sums, not BLAS dot products,
    # whose summation order depends on the OpenBLAS thread count.
    border = ops.mass @ np.ones(mesh.n_vertices)
    total = float(border.sum())
    mean = float(np.sum(border * f)) / total
    f_tilde = f - mean

    def poisson(rhs, label):
        rhs = rhs - (rhs.sum() / total) * border
        u = np.zeros(mesh.n_vertices)
        u[ops.free] = ops.factor.solve(rhs[ops.free])
        u -= np.sum(border * u) / total
        return u, check_residual(ops.stiffness @ u, rhs, tol,
                                 f"{label} identity of the closed solve "
                                 f"on {mesh.n_vertices} vertices")

    u2, res2 = poisson(ops.mass @ f_tilde, "first Poisson")
    u1, res1 = poisson(ops.mass @ u2, "second Poisson")
    return MixedSolution(u1, u2, SolveReport("spd_factor", 0, max(res1, res2)),
                         "consistent", f_mean_removed=mean)


def solve_mixed(mesh, f, tol=DEFAULT_TOL, mass_mode="consistent"):
    """Solve the mixed problem with the solver the mesh calls for.

    Meshes with boundary get the clamped solve of
    :func:`solve_mixed_dirichlet` in ``mass_mode``, closed meshes the
    double-Poisson solve of :func:`solve_mixed_closed`.

    Raises
    ------
    ValueError
        For the lumped mode on a closed mesh, which has no lumped path;
        and the errors of the solver.
    """
    if not mesh.is_closed:
        return solve_mixed_dirichlet(mesh, f, tol=tol, mass_mode=mass_mode)
    if mass_mode == "lumped":
        raise ValueError("the lumped mass mode needs a bounded mesh")
    return solve_mixed_closed(mesh, f, tol=tol)
