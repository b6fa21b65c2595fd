"""Sparse linear algebra kernels for the finite element solvers.

Thin layer over scipy.sparse: CSR assembly from triplets, matrix-vector
products, a Jacobi-preconditioned conjugate gradient solve for symmetric
positive (semi)definite systems, a sparse LU factor of symmetric
positive definite matrices for callers that reuse it across many
solves, a sparse LU solve for symmetric indefinite saddle point
systems, and a dense reference solver used to cross-check the sparse
paths on small problems.  Every iterative or factored solve re-verifies
the relative residual of the returned vector instead of trusting the
backend's convergence flag; callers of the bare factor verify their own.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.io import mmwrite


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
        Identifier of the algorithm used: "cg" (Jacobi-preconditioned
        CG), "sparse_lu" (factored solve), or "condensed_cg" (the
        clamped mixed solve: boundary CG over one factor of the
        interior stiffness).
    iterations : int
        Iteration count; 0 for direct methods.
    relative_residual : float
        |A x - b| / max(|b|, tiny), recomputed from the returned x.
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


def finalize_csr(matrix):
    """Return a canonical copy of a CSR matrix (sorted, no stored zeros)."""
    mat = sp.csr_matrix(matrix, copy=True)
    mat.sum_duplicates()
    mat.eliminate_zeros()
    mat.sort_indices()
    return mat


def spmv(matrix, x):
    """Sparse matrix-vector product with an explicit shape check."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or matrix.shape[1] != x.shape[0]:
        raise DimensionMismatchError(
            f"cannot multiply {matrix.shape} matrix with vector of "
            f"shape {x.shape}")
    return matrix @ x


def relative_residual(matrix, x, b):
    """|A x - b| / max(|b|, tiny) in the Euclidean norm."""
    r = matrix @ x - b
    return float(np.linalg.norm(r) / max(np.linalg.norm(b), 1e-300))


def _check_square(matrix, b):
    b = np.asarray(b, dtype=float)
    n, m = matrix.shape
    if n != m:
        raise DimensionMismatchError(f"matrix is not square: {matrix.shape}")
    if b.ndim != 1 or b.shape[0] != n:
        raise DimensionMismatchError(
            f"right-hand side shape {b.shape} does not match matrix "
            f"shape {matrix.shape}")
    return b


def solve_spd(matrix, b, tol=1e-10):
    """Solve A x = b for symmetric positive (semi)definite A by CG.

    Uses Jacobi (diagonal) preconditioning and at most 20 n iterations.
    For a semidefinite A the right-hand side must lie in the range of A
    (CG then converges to a particular solution).  The residual of the
    returned vector is recomputed; failure to meet ``tol`` raises.

    Parameters
    ----------
    matrix : scipy.sparse.csr_matrix
        Symmetric positive (semi)definite system matrix.
    b : ndarray
        Right-hand side.
    tol : float
        Target for the relative residual |A x - b| / |b|.

    Returns
    -------
    x : ndarray
    report : SolveReport
    """
    b = _check_square(matrix, b)
    n = matrix.shape[0]
    if np.linalg.norm(b) == 0.0:
        return np.zeros(n), SolveReport("cg", 0, 0.0)
    diag = matrix.diagonal().astype(float)
    inv_diag = np.where(diag > 0.0, 1.0 / np.where(diag > 0.0, diag, 1.0),
                        1.0)
    precond = spla.LinearOperator((n, n), matvec=lambda v: inv_diag * v)
    count = [0]

    def tick(_):
        count[0] += 1

    x, _info = spla.cg(matrix, b, rtol=0.1 * tol, atol=0.0,
                       maxiter=20 * n, M=precond, callback=tick)
    res = relative_residual(matrix, x, b)
    if not np.isfinite(res) or res > tol:
        raise NotConvergedError(
            f"cg stalled at relative residual {res:.3e} after "
            f"{count[0]} iterations (tol {tol:.1e})")
    return x, SolveReport("cg", count[0], res)


def factor_spd(matrix):
    """Sparse LU factor of a symmetric positive definite matrix.

    SuperLU runs in symmetric mode with diagonal pivots only, which is
    stable for SPD matrices and keeps the sparsity that its default
    COLAMD column ordering buys.  The factor's ``solve`` applies the
    inverse; its accuracy is not checked here, so callers must verify
    the residual of what they build from it.

    Returns
    -------
    scipy.sparse.linalg.SuperLU

    Raises
    ------
    SingularError
        If SuperLU meets an exactly zero pivot.
    """
    matrix = sp.csc_matrix(matrix)
    if matrix.shape[0] != matrix.shape[1]:
        raise DimensionMismatchError(f"matrix is not square: {matrix.shape}")
    try:
        return spla.splu(matrix, diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SingularError(
            f"sparse LU factorization of a {matrix.shape[0]} x "
            f"{matrix.shape[0]} SPD matrix failed: {exc}") from exc


def solve_symmetric_indefinite(matrix, b, tol=1e-10, next_rhs=None):
    """Solve A x = b for symmetric indefinite A by sparse LU.

    Intended for saddle point systems.  The factorization is verified a
    posteriori: the relative residual of the solution must not exceed
    ``tol``.

    Parameters
    ----------
    next_rhs : callable, optional
        Maps x to the right-hand side c of a second system A y = c,
        solved with the same factor and verified the same way.  The
        pair (x, y) is then returned in place of x, and the report is
        the worse of the two solves.

    Returns
    -------
    x : ndarray, or the pair (x, y) when ``next_rhs`` is given
    report : SolveReport
    """
    b = _check_square(matrix, b)
    try:
        factor = spla.splu(sp.csc_matrix(matrix))
    except RuntimeError as exc:
        raise SingularError(f"sparse LU factorization failed: {exc}") from exc

    def solve(rhs):
        x = factor.solve(rhs)
        res = relative_residual(matrix, x, rhs)
        if not np.isfinite(res) or res > tol:
            raise NotConvergedError(
                f"sparse LU solution has relative residual {res:.3e} "
                f"(tol {tol:.1e}); matrix may be near singular")
        return x, res

    x, res = solve(b)
    if next_rhs is None:
        return x, SolveReport("sparse_lu", 0, res)
    y, res_y = solve(_check_square(matrix, next_rhs(x)))
    return (x, y), SolveReport("sparse_lu", 0, max(res, res_y))


def dense_solve_oracle(matrix, b):
    """Reference dense solve for small systems (n <= 2000).

    Accepts a dense array or any scipy sparse matrix, densifies it and
    calls LAPACK.  Used to validate the sparse solvers on problems small
    enough for an O(n^3) method.
    """
    if sp.issparse(matrix):
        dense = matrix.toarray()
    else:
        dense = np.asarray(matrix, dtype=float)
    if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
        raise DimensionMismatchError(f"matrix is not square: {dense.shape}")
    n = dense.shape[0]
    if n > 2000:
        raise ValueError(f"dense oracle limited to n <= 2000, got {n}")
    b = np.asarray(b, dtype=float)
    if b.ndim != 1 or b.shape[0] != n:
        raise DimensionMismatchError(
            f"right-hand side shape {b.shape} does not match matrix "
            f"shape {dense.shape}")
    try:
        x = np.linalg.solve(dense, b)
    except np.linalg.LinAlgError as exc:
        raise SingularError(str(exc)) from exc
    if not np.all(np.isfinite(x)):
        raise SingularError("dense solve produced non-finite entries")
    return x


def export_matrix_market(matrix, path, symmetric=True):
    """Write a sparse matrix in MatrixMarket coordinate format.

    With ``symmetric=True`` the file declares symmetric storage
    (header ``%%MatrixMarket matrix coordinate real symmetric``).
    """
    mmwrite(str(path), sp.coo_matrix(matrix),
            symmetry="symmetric" if symmetric else "general")
