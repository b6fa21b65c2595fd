"""Piecewise-linear finite element assembly on triangle meshes.

Provides the cotangent stiffness matrix, consistent and lumped mass
matrices, the mass matrix of the boundary curve, the operator bundle of
one mesh (stiffness, consistent mass, interior/boundary dof split and
the one sparse stiffness factor the solvers share), nodal interpolation
and per-face gradients of piecewise-linear fields.

Sign convention: the stiffness matrix S is positive semidefinite, so the
weak form pairs with the geometric Laplacian -div grad.  The constant
vector spans the kernel of S on a closed mesh.
"""

from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .linalg import build_csr, factor_spd


def assemble_stiffness(mesh):
    """Cotangent stiffness matrix of the piecewise-linear basis.

    Entry (i, j), i != j, is -(cot a + cot b) / 2 with a, b the angles
    opposite edge (i, j) in its one or two incident triangles; diagonal
    entries make the rows sum to zero.  The result is symmetric positive
    semidefinite with the constant vector in its kernel.

    Returns
    -------
    scipy.sparse.csr_matrix, shape (n, n)
    """
    f = mesh.faces
    c = mesh.face_cotangents
    i0, i1, i2 = f[:, 0], f[:, 1], f[:, 2]
    c0, c1, c2 = 0.5 * c[:, 0], 0.5 * c[:, 1], 0.5 * c[:, 2]
    rows = np.concatenate([i1, i2, i2, i0, i0, i1, i0, i1, i2])
    cols = np.concatenate([i2, i1, i0, i2, i1, i0, i0, i1, i2])
    vals = np.concatenate([-c0, -c0, -c1, -c1, -c2, -c2,
                           c1 + c2, c2 + c0, c0 + c1])
    return build_csr(rows, cols, vals, (mesh.n_vertices, mesh.n_vertices))


def assemble_mass(mesh, mode="consistent"):
    """Mass matrix of the piecewise-linear basis.

    Parameters
    ----------
    mesh : TriMesh
    mode : {"consistent", "lumped"}
        "consistent" integrates products of hat functions exactly
        (element matrix area/12 * [[2,1,1],[1,2,1],[1,1,2]]); "lumped"
        assigns each vertex a third of the area of its incident faces,
        giving a diagonal matrix with the same row sums.

    Returns
    -------
    scipy.sparse.csr_matrix, shape (n, n)
        Symmetric positive definite; entries sum to the total surface
        area in both modes.
    """
    n = mesh.n_vertices
    f = mesh.faces
    a = mesh.face_areas
    if mode == "lumped":
        lumped = np.bincount(f.ravel(), weights=np.repeat(a / 3.0, 3),
                             minlength=n)
        return sp.diags(lumped, format="csr")
    if mode != "consistent":
        raise ValueError(f"unknown mass mode {mode!r}")
    i0, i1, i2 = f[:, 0], f[:, 1], f[:, 2]
    off = a / 12.0
    diag = a / 6.0
    rows = np.concatenate([i0, i1, i1, i2, i2, i0, i0, i1, i2])
    cols = np.concatenate([i1, i0, i2, i1, i0, i2, i0, i1, i2])
    vals = np.concatenate([off, off, off, off, off, off, diag, diag, diag])
    return build_csr(rows, cols, vals, (n, n))


def assemble_boundary_mass(mesh):
    """Mass matrix of the hat-function traces on the boundary curve.

    Each boundary edge of length l contributes the 1D element matrix
    l/6 * [[2,1],[1,2]].  Rows and columns of interior vertices are
    empty; the entries sum to the boundary length.

    Returns
    -------
    scipy.sparse.csr_matrix, shape (n, n)
    """
    n = mesh.n_vertices
    i0, i1 = mesh.boundary_edges[:, 0], mesh.boundary_edges[:, 1]
    length = np.linalg.norm(mesh.vertices[i1] - mesh.vertices[i0], axis=1)
    off = length / 6.0
    diag = length / 3.0
    rows = np.concatenate([i0, i1, i0, i1])
    cols = np.concatenate([i1, i0, i0, i1])
    vals = np.concatenate([off, off, diag, diag])
    return build_csr(rows, cols, vals, (n, n))


class MeshOperators:
    """The assembled operators of one mesh, shared by every solver.

    ``stiffness`` S, consistent ``mass`` M, the sorted ``interior`` and
    ``boundary`` vertex indices and ``b_block`` B = S[interior, :] (S
    itself on a closed mesh).  The :func:`factor_spd` ``factor`` of
    S[free, free], ``free`` the interior vertices (every vertex but the
    grounded vertex 0 on a closed mesh), is built on first use.  The
    bundle alone decides which matrix is ordered by which points; a
    solve builds its own and drops it on return, so no factor outlives it.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        self.stiffness = assemble_stiffness(mesh)
        self.mass = assemble_mass(mesh, "consistent")
        self.boundary = mesh.boundary_vertices
        interior = np.ones(mesh.n_vertices, dtype=bool)
        interior[self.boundary] = False
        self.interior = np.flatnonzero(interior)
        self.b_block = (self.stiffness[self.interior, :]
                        if self.boundary.size else self.stiffness)
        self.free = self.interior if self.boundary.size else self.interior[1:]

    @cached_property
    def factor(self):
        return factor_spd(self.stiffness[self.free, :][:, self.free],
                          self.mesh.vertices[self.free])


def nodal_field(mesh, u):
    """``u`` as a float array, checked to hold one value per vertex."""
    u = np.asarray(u, dtype=float)
    if u.shape != (mesh.n_vertices,):
        raise ValueError(
            f"field shape {u.shape} does not match vertex count "
            f"{mesh.n_vertices}")
    return u


def interpolate(mesh, fn):
    """Nodal interpolation: evaluate a function at the mesh vertices.

    ``fn`` is called once, on the (n, 3) array of vertices; a result
    not of shape (n,) raises ValueError.
    """
    return nodal_field(mesh, fn(mesh.vertices))


def p1_gradients(mesh, u, faces=slice(None)):
    """Per-face gradients of a piecewise-linear nodal field.

    The gradient of the hat function of corner k is
    (normal x e_k) / (2 area) with e_k the edge opposite corner k.

    Parameters
    ----------
    mesh : TriMesh
    u : ndarray, shape (n,)
    faces : slice, optional
        The faces to evaluate, all of them by default.

    Returns
    -------
    ndarray, shape (F, 3)
        Constant tangential gradient on each selected face.
    """
    u = nodal_field(mesh, u)
    tri = mesh.faces[faces]
    p = mesh.vertices[tri]                             # (F, 3, 3)
    e = p[:, [2, 0, 1], :] - p[:, [1, 2, 0], :]        # edge opp. corner k
    rot = np.cross(mesh.face_normals[faces][:, None, :], e)   # (F, 3, 3)
    coeff = u[tri] / (2.0 * mesh.face_areas[faces])[:, None]
    return np.sum(coeff[:, :, None] * rot, axis=1)
