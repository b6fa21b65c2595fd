"""Piecewise-linear finite element assembly on triangle meshes.

Provides the cotangent stiffness matrix and the consistent mass matrix,
filled on one pattern per mesh (the diagonal and both directions of each
edge, per-edge values summed over the faces through ``mesh.face_edges``),
the lumped mass matrix, the mass matrix of the boundary curve, the
operator bundle of one mesh (stiffness, consistent mass, interior/
boundary dof split and ``solve``, the one Poisson solve of every other
module: it alone picks a factor of S_II or multilevel CG on S), nodal
interpolation and per-face gradients of piecewise-linear fields.

Sign convention: the stiffness matrix S is positive semidefinite, so the
weak form pairs with the geometric Laplacian -div grad.  The constant
vector spans the kernel of S on a closed mesh.
"""

from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .linalg import DEFAULT_TOL, MultilevelCG, factor_spd


class _EdgePattern:
    """The CSR structure of S and M: the diagonal and both directions of
    every edge of ``mesh.edges``, each row's columns in increasing order.
    Entry k takes value ``slot[k]`` of the per-edge values followed by
    the per-vertex ones."""

    def __init__(self, mesh):
        n, m, (lo, hi) = mesh.n_vertices, mesh.edges.shape[0], mesh.edges.T
        vertex, edge = np.arange(n), np.arange(m)
        # The entries are distinct, so the conversion only sorts each row.
        slots = sp.csr_matrix(
            (np.concatenate([edge, edge, m + vertex]),
             (np.concatenate([lo, hi, vertex]),
              np.concatenate([hi, lo, vertex]))), shape=(n, n))
        self.slot, self.indices, self.indptr = (slots.data, slots.indices,
                                                slots.indptr)
        self.edges = mesh.edges
        self.shape = (n, n)

    def fill(self, on_edges, on_vertices):
        """The matrix with value ``on_edges[e]`` at both (i, j) and (j, i)
        of edge e = (i, j) and ``on_vertices[i]`` at (i, i).  It owns its
        index arrays, so dropping its zeros leaves the pattern intact."""
        data = np.concatenate([on_edges, on_vertices])[self.slot]
        return sp.csr_matrix((data, self.indices.copy(), self.indptr.copy()),
                             shape=self.shape)

    def row_sums(self, on_edges):
        """Sum over each vertex's edges of a per-edge array."""
        n = self.shape[0]
        return (np.bincount(self.edges[:, 0], on_edges, n)
                + np.bincount(self.edges[:, 1], on_edges, n))


def _stiffness_on(pattern, mesh):
    """S on ``pattern``, its exact zeros dropped."""
    on_edges = np.bincount(mesh.face_edges.ravel(),
                           mesh.face_cotangents.ravel(),
                           mesh.edges.shape[0])
    on_edges *= -0.5
    stiffness = pattern.fill(on_edges, -pattern.row_sums(on_edges))
    stiffness.eliminate_zeros()
    return stiffness


def _mass_on(pattern, mesh):
    """The consistent M on ``pattern``."""
    on_edges = np.bincount(mesh.face_edges.ravel(),
                           np.repeat(mesh.face_areas / 12.0, 3),
                           mesh.edges.shape[0])
    return pattern.fill(on_edges, pattern.row_sums(on_edges))


def assemble_stiffness(mesh):
    """Cotangent stiffness matrix of the piecewise-linear basis.

    Entry (i, j), i != j, is -(cot a + cot b) / 2 with a, b the angles
    opposite edge (i, j) in its one or two incident triangles; diagonal
    entries make the rows sum to zero.  The result is symmetric positive
    semidefinite with the constant vector in its kernel.  Entries that
    are exactly zero (two right angles opposite an edge) are not stored.

    Returns
    -------
    scipy.sparse.csr_matrix, shape (n, n)
    """
    return _stiffness_on(_EdgePattern(mesh), mesh)


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
    if mode == "lumped":
        lumped = np.bincount(mesh.faces.ravel(),
                             weights=np.repeat(mesh.face_areas / 3.0, 3),
                             minlength=mesh.n_vertices)
        return sp.diags(lumped, format="csr")
    if mode != "consistent":
        raise ValueError(f"unknown mass mode {mode!r}")
    return _mass_on(_EdgePattern(mesh), mesh)


def assemble_boundary_mass(mesh):
    """Mass matrix of the hat-function traces on the boundary curve.

    Each boundary edge of length l contributes the 1D element matrix
    l/6 * [[2,1],[1,2]].  Rows and columns are the sorted
    ``mesh.boundary_vertices``; the entries sum to the boundary length.

    Returns
    -------
    scipy.sparse.csr_matrix, shape (nb, nb)
    """
    nb = mesh.boundary_vertices.size
    i0, i1 = np.searchsorted(mesh.boundary_vertices, mesh.boundary_edges).T
    ends = mesh.vertices[mesh.boundary_edges]
    length = np.linalg.norm(ends[:, 1] - ends[:, 0], axis=1)
    off = length / 6.0
    diag = length / 3.0
    rows = np.concatenate([i0, i1, i0, i1])
    cols = np.concatenate([i1, i0, i0, i1])
    vals = np.concatenate([off, off, diag, diag])
    return sp.csr_matrix((vals, (rows, cols)), shape=(nb, nb))


class MeshOperators:
    """The assembled operators of one mesh, shared by every solver.

    ``stiffness`` S and consistent ``mass`` M, filled on one pattern, and
    the sorted ``interior`` and ``boundary`` vertex indices.  :meth:`solve`
    is the one Poisson solve, and the bundle alone picks its solver,
    built on first use: with a boundary the :func:`factor_spd` factor of
    S free on ``interior``, which slices S_II itself, on a closed mesh
    the :class:`~biharm.linalg.MultilevelCG` of S to ``tol`` / 100.  Both
    solve over all vertices, so :meth:`solve` has one path.  A solve
    builds its own bundle and drops it on return, so no factor outlives it.

    On a closed mesh the constants span the kernel of S; :meth:`mean`,
    :meth:`project` and :meth:`solve` hold the one rule for them, which
    does nothing on a mesh with boundary.
    """

    def __init__(self, mesh, tol=DEFAULT_TOL):
        self.mesh = mesh
        self.tol = tol
        pattern = _EdgePattern(mesh)
        self.stiffness = _stiffness_on(pattern, mesh)
        self.mass = _mass_on(pattern, mesh)
        self.boundary = mesh.boundary_vertices
        interior = np.ones(mesh.n_vertices, dtype=bool)
        interior[self.boundary] = False
        self.interior = np.flatnonzero(interior)
        # M 1 on a closed mesh, None with a boundary.
        self._border = (None if self.boundary.size
                        else self.mass @ np.ones(mesh.n_vertices))

    @cached_property
    def _solver(self):
        if self._border is None:
            return factor_spd(self.stiffness, self.mesh.vertices,
                              self.interior)
        return MultilevelCG(self.stiffness, self.mesh.vertices, self.tol)

    def mean(self, u):
        """The M-weighted mean 1^T M u / 1^T M 1 of a nodal field on a
        closed mesh, 0 with a boundary.  Its sums are numpy's pairwise
        ones, not BLAS dot products, whose order depends on the
        OpenBLAS thread count."""
        if self._border is None:
            return 0.0
        return float(np.sum(self._border * u)) / float(self._border.sum())

    def project(self, b):
        """A load vector projected onto range(S) along M 1 on a closed
        mesh, b - (1^T b / 1^T M 1) M 1; ``b`` itself with a boundary."""
        if self._border is None:
            return b
        return b - (b.sum() / float(self._border.sum())) * self._border

    def solve(self, b):
        """The Poisson solve of a load ``b`` over all vertices: u, zero on
        the boundary, with S_II u_I = b_I; on a closed mesh, for b in
        range(S), the solution of S u = b with 1^T M u = 0."""
        u = self._solver.solve(b)
        return u - self.mean(u)


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
    p = mesh.vertices[tri].T              # p[c, k]: coordinate c of corner k
    n0, n1, n2 = mesh.face_normals[faces].T
    coeff = (u[tri] / (2.0 * mesh.face_areas[faces])[:, None]).T

    def term(k):
        """coeff_k (normal x e_k), one coordinate of every face at a
        time."""
        e0, e1, e2 = p[:, (k + 2) % 3] - p[:, (k + 1) % 3]   # edge opp. k
        return coeff[k] * np.stack([n1 * e2 - n2 * e1, n2 * e0 - n0 * e2,
                                    n0 * e1 - n1 * e0])

    return (term(0) + term(1) + term(2)).T
