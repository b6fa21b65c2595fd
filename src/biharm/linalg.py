"""Sparse linear algebra kernels for the finite element solvers.

Thin layer over scipy.sparse: CSR assembly from triplets and a sparse
factor of symmetric positive definite matrices, ordered by geometric
nested dissection of the unknowns' coordinates.  The factor's accuracy
is not checked here: its callers verify each equation they solve with
:func:`check_residual`.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class DimensionMismatchError(ValueError):
    """Operands of a product or solve have incompatible shapes."""


class NotConvergedError(RuntimeError):
    """A solver failed to reach the requested residual tolerance."""


class SingularError(RuntimeError):
    """The system matrix is singular (or numerically so)."""


class SolveReport:
    """Outcome of a linear solve.

    Attributes
    ----------
    method : str
        Identifier of the algorithm used: "condensed_cg" (the clamped
        mixed solve: boundary CG over one factor of the interior
        stiffness) or "spd_factor" (the closed mixed solve: one factor
        of the grounded stiffness, see :func:`factor_spd`).
    iterations : int
        Iteration count; 0 for direct methods.
    relative_residual : float
        The largest :func:`check_residual` of the equations the solve
        checked, each recomputed from the returned solution.
    """

    def __init__(self, method, iterations, relative_residual):
        self.method = method
        self.iterations = int(iterations)
        self.relative_residual = float(relative_residual)

    def __repr__(self):
        return (f"SolveReport(method={self.method!r}, "
                f"iterations={self.iterations}, "
                f"relative_residual={self.relative_residual:.3e})")


def build_csr(rows, cols, values, shape):
    """Assemble a canonical CSR matrix from triplets.

    Duplicate entries are summed, explicit zeros dropped and column
    indices sorted, so the result is unique for a given input.
    """
    mat = sp.coo_matrix((values, (rows, cols)), shape=shape).tocsr()
    mat.sum_duplicates()
    mat.eliminate_zeros()
    mat.sort_indices()
    return mat


# Default relative residual target of every solve.
DEFAULT_TOL = 1e-10


def check_residual(lhs, rhs, tol, what):
    """Return the relative residual |lhs - rhs| / max(|lhs|, |rhs|, tiny)
    of the equation ``what``, raising NotConvergedError if it exceeds
    ``tol`` or is not finite.  Both sides carry one unit, so the
    residual does not depend on the unit of length."""
    scale = max(np.linalg.norm(lhs), np.linalg.norm(rhs), 1e-300)
    res = float(np.linalg.norm(lhs - rhs) / scale)
    if not res <= tol:
        raise NotConvergedError(
            f"{what} has relative residual {res:.3e} (tol {tol:.1e})")
    return res


# Subdomains of at most this many vertices are not dissected further.
# On the cap's S_II at rings 128 (49k unknowns) leaves of 16 to 64 gave
# about the same order-plus-factor time (fill 3.9M to 4.3M); leaves of
# 256 gave 5.5M fill and slower solves.
_ND_LEAF = 64


def nested_dissection(matrix, points):
    """Fill-reducing symmetric ordering by geometric nested dissection.

    Every subdomain (initially all vertices) with more than ``_ND_LEAF``
    vertices is split at the median of its coordinates along its axis
    of largest variance.  The separator is one-sided: the low-side
    vertices with a high-side neighbour in the graph of ``matrix``.  A
    subdomain is ordered as its low part, then its high part, then its
    separator; leaves keep their index order.  All subdomains of one
    level are split together, so the work per level is a few passes
    over the vertices and edges (A. George, "Nested dissection of a
    regular finite element mesh", SIAM J. Numer. Anal. 10, 1973).

    The order is a permutation for any ``points``, including repeated
    coordinates and disconnected graphs; the points only decide how
    much fill the factor of the permuted matrix gets.

    Parameters
    ----------
    matrix : scipy sparse matrix, shape (n, n)
        Structurally symmetric; the structure of its strict upper
        triangle is the graph to dissect.
    points : ndarray, shape (n, d)
        Coordinates of the n unknowns.

    Returns
    -------
    perm : ndarray of int, shape (n,)
        ``matrix[perm][:, perm]`` is the reordered matrix.
    """
    points = np.asarray(points, dtype=float)
    n = matrix.shape[0]
    if matrix.shape[1] != n or points.ndim != 2 or points.shape[0] != n:
        raise DimensionMismatchError(
            f"cannot order a {matrix.shape} matrix by points of shape "
            f"{points.shape}")
    graph = sp.triu(matrix, k=1, format="coo")
    rows, cols = graph.row, graph.col
    # dom: subdomain of each vertex still to be dissected, -1 once it is
    # in a separator or a leaf.  key: base-3 digits (0 low, 1 high,
    # 2 separator) of the vertex's path through the dissection tree.
    dom = np.zeros(n, dtype=np.int64) if n > _ND_LEAF else np.full(n, -1)
    key = np.zeros(n, dtype=np.int64)
    while True:
        active = np.flatnonzero(dom >= 0)
        if active.size == 0:
            break
        d = dom[active]
        count = np.bincount(d)
        pts = points[active]
        mean = np.stack([np.bincount(d, weights=c) for c in pts.T],
                        axis=1) / np.maximum(count, 1)[:, None]
        spread = np.stack([np.bincount(d, weights=c * c)
                           for c in (pts - mean[d]).T], axis=1)
        coord = pts[np.arange(active.size), np.argmax(spread, axis=1)[d]]
        order = np.lexsort((coord, d))
        rank = np.empty(active.size, dtype=np.int64)
        rank[order] = np.arange(active.size) - (np.cumsum(count)
                                                - count)[d[order]]
        side = np.full(n, -1, dtype=np.int64)
        side[active] = rank >= count[d] // 2
        # Edges inside one subdomain of this level; edges already cut
        # never join a subdomain again.
        dom_rows = dom[rows]
        inside = (dom_rows >= 0) & (dom_rows == dom[cols])
        rows, cols = rows[inside], cols[inside]
        cut = side[rows] != side[cols]
        u, v = rows[cut], cols[cut]
        separator = np.zeros(n, dtype=bool)
        separator[np.where(side[u] == 0, u, v)] = True
        digit = side[active]
        digit[separator[active]] = 2
        key *= 3
        key[active] += digit
        child = 2 * d + digit
        split = digit < 2
        size = np.bincount(child[split], minlength=child.max() + 1)
        dom[active] = np.where(split & (size[child] > _ND_LEAF), child, -1)
    return np.argsort(key, kind="stable")


class _PermutedFactor:
    """SuperLU factor of P A P^T that solves with A itself."""

    def __init__(self, lu, perm):
        self.lu = lu
        self.perm = perm

    def solve(self, b):
        b = np.asarray(b, dtype=float)
        x = np.empty_like(b)
        x[self.perm] = self.lu.solve(b[self.perm])
        return x


def factor_spd(matrix, points):
    """Sparse factor of a symmetric positive definite matrix.

    The matrix is permuted by :func:`nested_dissection` of ``points``
    and factored by SuperLU in symmetric mode with diagonal pivots
    only, which is stable for SPD matrices and keeps the sparsity the
    ordering buys.  The factor's ``solve`` applies the inverse of the
    unpermuted matrix; its accuracy is not checked here, so callers
    must verify the residual of what they build from it.

    Parameters
    ----------
    matrix : scipy sparse matrix, shape (n, n)
    points : ndarray, shape (n, d)
        Coordinates of the unknowns, e.g. the mesh vertices they sit on.

    Returns
    -------
    factor
        With ``solve(b)`` for b of shape (n,) or (n, k), the ordering
        ``perm`` and the SuperLU factor ``lu`` of the permuted matrix.

    Raises
    ------
    SingularError
        If SuperLU meets an exactly zero pivot.
    """
    if matrix.shape[0] != matrix.shape[1]:
        raise DimensionMismatchError(f"matrix is not square: {matrix.shape}")
    perm = nested_dissection(matrix, points)
    permuted = sp.csc_matrix(sp.csr_matrix(matrix)[perm][:, perm])
    try:
        lu = spla.splu(permuted, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SingularError(
            f"sparse LU factorization of a {matrix.shape[0]} x "
            f"{matrix.shape[0]} SPD matrix failed: {exc}") from exc
    return _PermutedFactor(lu, perm)

