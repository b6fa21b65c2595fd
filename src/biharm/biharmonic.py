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
values of u2: Poisson solves with the interior stiffness S_II, and
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
S, M and the dof split from one bundle built inside the solve, and
solves only by its :meth:`~biharm.fem.MeshOperators.solve`, which picks
the solver of each kind of mesh.  It checks the two variational
identities apart by :func:`~biharm.linalg.check_residual`, so ``tol``
does not depend on the unit of length, and reports the larger residual.
"""

from collections import namedtuple
import math

import numpy as np

from .fem import (MeshOperators, assemble_boundary_mass, assemble_mass,
                  nodal_field)
from .linalg import DEFAULT_TOL, SolveReport, check_residual, pcg
from .mesh import component_labels


# Weight of the boundary-curve mass in the boundary preconditioner, in
# units of one over the boundary length.
_DTN_SHIFT = 10.0


class MixedSolution(namedtuple("MixedSolution",
                               "u1 u2 solve_report f_mean_removed")):
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
    f_mean_removed : float
        M-weighted mean subtracted from f, the one change the solve
        makes to its load (0 on meshes with boundary).
    """

    __slots__ = ()


def _scaled_back(name, u, exponent):
    """``u`` 2^``exponent``; ValueError if its largest entry, not zero,
    would leave the normal float64 range."""
    info = np.finfo(float)
    top = math.frexp(np.abs(u).max(initial=0.0))[1] + exponent
    if np.any(u) and not info.minexp < top <= info.maxexp:
        raise ValueError(f"{name} of the solve is about 2^{top}, outside "
                         f"the normal float64 range")
    return np.ldexp(u, exponent)


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

    With I the interior and B the boundary dofs, S_B = S[B, :] and solve
    the bundle's Poisson solve (zero on B), the discrete harmonic
    extension E lam = [-S_II^{-1} S_IB lam; lam] is -solve(S_B^T lam)
    set to lam on B, and E^T v = v_B - S_B solve(v).  The first equation
    gives u2 = u2_0 + E lam, u2_0 = solve(M f), the interior rows of the
    second u1 = solve(M u2), and its boundary rows the nb x nb symmetric
    positive definite system E^T M E lam = -E^T M u2_0.  Each CG step
    makes two Poisson solves for the product and one for the
    preconditioner S_B E + (``_DTN_SHIFT`` / |Gamma|) M_Gamma: the
    Dirichlet-to-Neumann map plus the boundary-curve mass over the
    boundary length, both unchanged when the mesh is scaled.  On a
    closed mesh there is no lam, and u2 is the first Poisson solve.

    The first identity (S u2)_I = (M f)_I and the interior rows of the
    second, S u1 = M u2, hold up to the accuracy of the Poisson solve;
    the CG residual is exactly the boundary block of the second.  CG
    stops at a hundredth of ``tol`` times |M u2_0|, 2.1-2.35 times
    |M u2|, the scale :func:`check_residual` gives the second identity,
    on caps and lanterns of every size (|E^T M u2_0| / |M u2| grows with
    the mesh).  The margin leaves u1 and u2 closer to the exact discrete
    solution of the cap family than a sparse LU of the saddle matrix
    does.

    ``mass`` is M or M_L, and ``load`` is M f over all vertices, as
    :meth:`~biharm.fem.MeshOperators.project` leaves it.

    Returns
    -------
    u2 : ndarray, shape (n,)
    iterations : int
    """
    u2 = ops.solve(load)
    boundary = ops.boundary
    if not boundary.size:
        return u2, 0
    s_b = ops.stiffness[boundary, :]
    s_bt = s_b.T
    curve_mass = assemble_boundary_mass(ops.mesh)
    shift = (_DTN_SHIFT / curve_mass.sum()) * curve_mass

    def extend(lam):
        u = -ops.solve(s_bt @ lam)
        u[boundary] = lam
        return u

    def extend_adjoint(v):
        return v[boundary] - s_b @ ops.solve(v)

    mass_u2 = mass @ u2
    lam, iterations = pcg(
        lambda p: extend_adjoint(mass @ extend(p)), -extend_adjoint(mass_u2),
        lambda r: s_b @ extend(r) + shift @ r, tol, mass_u2,
        f"boundary CG of the clamped solve on {boundary.size} boundary dofs "
        f"of {ops.mesh.n_vertices}")
    return u2 + extend(lam), iterations


def solve_mixed(mesh, f, tol=DEFAULT_TOL, mass_mode="consistent"):
    """Solve the mixed biharmonic problem on any mesh.

    The saddle system of the module docstring is condensed onto the
    boundary values of u2, none on a closed mesh (see
    :func:`_condensed_clamped`).  Both variational identities,
    (S u2)_I = (M f)_I and S u1 = M u2 (u1 is zero on the boundary),
    their right-hand sides taken through the bundle's constant rule, are
    then recomputed from S and checked to ``tol`` by
    :func:`check_residual`.  A mesh without interior vertices has the
    solution u1 = u2 = 0.  The solve runs in units of 2^k and 2^j, the
    mesh's largest coordinate extent and max|f| rounded up to powers of
    two, on M 2^-2k and f 2^-j (S is unit-free), and scales u1 by
    2^(4k+j), u2 by 2^(2k+j) and ``f_mean_removed`` by 2^j back exactly.

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
        them has no boundary vertices, or if u1 or u2, not zero, has a
        largest entry outside the normal float64 range.
    SingularError
        If the interior stiffness S_II, or the coarsest multilevel
        matrix of a closed mesh, cannot be factored.
    NotConvergedError
        If the boundary CG or either identity misses ``tol``.
    """
    _check_components(mesh)
    f = nodal_field(mesh, f)
    if not np.all(np.isfinite(f)):
        raise ValueError("right-hand side contains non-finite entries")
    k = math.frexp(max(map(np.ptp, mesh.vertices.T)))[1]
    j = math.frexp(np.abs(f).max(initial=0.0))[1]
    ops = MeshOperators(mesh, tol)
    # In place: the bundle is this solve's own, and M 1 enters only ratios.
    np.ldexp(ops.mass.data, -2 * k, out=ops.mass.data)
    mass = (ops.mass if mass_mode == "consistent"
            else assemble_mass(mesh, mass_mode) * math.ldexp(1.0, -2 * k))
    f = np.ldexp(f, -j)
    mean = ops.mean(f)
    load = ops.project(ops.mass @ (f - mean))
    u2, iterations = _condensed_clamped(ops, mass, load, tol)
    rhs = ops.project(mass @ u2)
    u1 = ops.solve(rhs)

    what = f"identity of the clamped solve on {mesh.n_vertices} vertices"
    res = max(check_residual((ops.stiffness @ u2)[ops.interior],
                             load[ops.interior], tol, "first " + what),
              check_residual(ops.stiffness @ u1, rhs, tol, "second " + what))
    return MixedSolution(_scaled_back("u1", u1, 4 * k + j),
                         _scaled_back("u2", u2, 2 * k + j),
                         SolveReport("condensed_cg", iterations, res),
                         math.ldexp(mean, j))
