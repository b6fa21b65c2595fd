"""Piecewise-linear finite element assembly on triangle meshes.

Provides the cotangent stiffness matrix, consistent and lumped mass
matrices, the mass matrix of the boundary curve, the interior/boundary
dof split for homogeneous Dirichlet conditions, nodal interpolation,
per-face gradients of piecewise-linear fields, and the discrete
(positive semidefinite) Laplace operator v = M^{-1} S u.

Sign convention: the stiffness matrix S is positive semidefinite, so the
weak form pairs with the geometric Laplacian -div grad.  The constant
vector spans the kernel of S on a closed mesh.
"""

import numpy as np
import scipy.sparse as sp

from .linalg import DEFAULT_TOL, build_csr, check_residual, factor_spd


class DofPartition:
    """Interior/boundary split of the vertex degrees of freedom.

    Attributes
    ----------
    interior : ndarray
        Sorted indices of interior vertices.
    boundary : ndarray
        Sorted indices of boundary vertices.
    full_to_interior : ndarray, shape (n,)
        Position of each vertex in ``interior``, or -1 on the boundary.
    """

    def __init__(self, interior, boundary, full_to_interior):
        self.interior = interior
        self.boundary = boundary
        self.full_to_interior = full_to_interior

    @property
    def n_interior(self):
        return self.interior.shape[0]


def partition_dofs(mesh):
    """Split the vertex dofs of a mesh into interior and boundary sets.

    On a closed mesh every vertex is interior.
    """
    n = mesh.n_vertices
    boundary = mesh.boundary_vertices
    mask = np.ones(n, dtype=bool)
    mask[boundary] = False
    interior = np.flatnonzero(mask)
    full_to_interior = np.full(n, -1, dtype=np.int64)
    full_to_interior[interior] = np.arange(interior.shape[0])
    return DofPartition(interior, boundary, full_to_interior)


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


def interpolate(mesh, fn):
    """Nodal interpolation: evaluate a function at the mesh vertices.

    ``fn`` may be vectorized (mapping an (n, 3) array to (n,)) or accept
    a single point; the vectorized form is tried first.
    """
    try:
        values = np.asarray(fn(mesh.vertices), dtype=float)
        if values.shape == (mesh.n_vertices,):
            return values
    except Exception:
        pass
    return np.array([float(fn(p)) for p in mesh.vertices])


def p1_gradients(mesh, u):
    """Per-face gradients of a piecewise-linear nodal field.

    The gradient of the hat function of corner k is
    (normal x e_k) / (2 area) with e_k the edge opposite corner k.

    Returns
    -------
    ndarray, shape (F, 3)
        Constant tangential gradient on each face.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (mesh.n_vertices,):
        raise ValueError(
            f"field shape {u.shape} does not match vertex count "
            f"{mesh.n_vertices}")
    p = mesh.vertices[mesh.faces]                      # (F, 3, 3)
    e = p[:, [2, 0, 1], :] - p[:, [1, 2, 0], :]        # edge opp. corner k
    rot = np.cross(mesh.face_normals[:, None, :], e)   # (F, 3, 3)
    coeff = u[mesh.faces] / (2.0 * mesh.face_areas)[:, None]
    return np.sum(coeff[:, :, None] * rot, axis=1)


def discrete_laplacian(mesh, u1, tol=DEFAULT_TOL):
    """Apply the discrete Laplace operator: solve M v = S u.

    M is the consistent mass matrix and S the cotangent stiffness, so v
    is the nodal representation of the (positive semidefinite) Laplacian
    of the piecewise-linear field u.  Boundary entries of ``u1`` are
    treated as zero (the field is extended by zero outside the interior).
    M is factored by :func:`factor_spd`, and M v = S u is checked to
    ``tol`` by :func:`check_residual`.

    Returns
    -------
    ndarray, shape (n,)

    Raises
    ------
    NotConvergedError
        If the mass solve misses ``tol``.
    """
    u = np.array(u1, dtype=float)
    if u.shape != (mesh.n_vertices,):
        raise ValueError(
            f"field shape {u.shape} does not match vertex count "
            f"{mesh.n_vertices}")
    if mesh.boundary_vertices.size:
        u[mesh.boundary_vertices] = 0.0
    mass = assemble_mass(mesh, "consistent")
    rhs = assemble_stiffness(mesh) @ u
    v = factor_spd(mass, mesh.vertices).solve(rhs)
    check_residual(mass @ v, rhs, tol, f"mass solve of the discrete "
                   f"Laplacian on {mesh.n_vertices} vertices")
    return v
