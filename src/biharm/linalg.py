"""Sparse linear algebra kernels for the finite element solvers.

Thin layer over scipy.sparse: a sparse factor of symmetric positive
definite matrices, ordered by geometric nested dissection of the
unknowns' coordinates, the one preconditioned CG, and multilevel CG on
the stiffness of every closed mesh.  A factor's accuracy is not checked
here: callers verify each equation they solve by :func:`check_residual`.
"""

from collections import namedtuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class NotConvergedError(RuntimeError):
    """A solver failed to reach the requested residual tolerance."""


class SingularError(RuntimeError):
    """The system matrix is singular (or numerically so)."""


class SolveReport(namedtuple("SolveReport",
                             "method iterations relative_residual")):
    """Outcome of a linear solve.

    Attributes
    ----------
    method : str
        Identifier of the algorithm used: "condensed_cg" on every mesh
        (boundary CG by :func:`pcg` over one :func:`factor_spd` factor
        of the interior stiffness; on a closed mesh, whose boundary is
        empty, two :class:`MultilevelCG` solves).
    iterations : int
        Iteration count of the boundary CG; 0 on a closed mesh.
    relative_residual : float
        The largest :func:`check_residual` of the equations the solve
        checked, each recomputed from the returned solution.
    """

    __slots__ = ()


# Default relative residual target of every solve.
DEFAULT_TOL = 1e-10


def check_residual(lhs, rhs, tol, what):
    """Return the relative residual |lhs - rhs| / max(|lhs|, |rhs|, tiny)
    of the equation ``what``, raising NotConvergedError if it exceeds
    ``tol`` or is not finite.  Both sides carry one unit, so the
    residual does not depend on the unit of length.  Sums are pairwise
    ``np.sum``, as in :func:`pcg`."""
    scale = max(np.sqrt(np.sum(lhs * lhs)), np.sqrt(np.sum(rhs * rhs)),
                1e-300)
    res = float(np.sqrt(np.sum(np.square(lhs - rhs))) / scale)
    if not res <= tol:
        raise NotConvergedError(
            f"{what} has relative residual {res:.3e} (tol {tol:.1e})")
    return res


def _points_of(matrix, points):
    """``points`` as floats, one row per unknown of the square ``matrix``."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or matrix.shape != (points.shape[0],) * 2:
        raise ValueError(f"cannot order a {matrix.shape} matrix by points "
                         f"of shape {points.shape}")
    return points


# Subdomains of at most this many vertices are not dissected further.
# On the cap's S_II at rings 128 (49k unknowns) leaves of 16 to 64 gave
# about the same order-plus-factor time (fill 3.9M to 4.3M); leaves of
# 256 gave 5.5M fill and slower solves.
_ND_LEAF = 64


def nested_dissection(matrix, points):
    """Fill-reducing symmetric ordering by geometric nested dissection.

    Every subdomain (initially all vertices) with more than ``_ND_LEAF``
    vertices is split at the median of its coordinates along its axis
    of largest variance, ties between equal coordinates broken by
    vertex index.  The separator is one-sided: the low-side vertices
    with a high-side neighbour in the graph of ``matrix``.  A subdomain
    is ordered as its low part, then its high part, then its separator;
    leaves keep their index order.  All subdomains of one level are
    split together, so the work per level is a few passes over the
    vertices still being dissected and over the edges (A. George,
    "Nested dissection of a regular finite element mesh", SIAM J.
    Numer. Anal. 10, 1973).  Each axis is ranked once, so a level finds
    its medians with one sort of integer keys.

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
    points = _points_of(matrix, points)
    n = matrix.shape[0]
    graph = sp.coo_matrix(matrix)
    upper = graph.row < graph.col
    rows = graph.row[upper].astype(np.intp)
    cols = graph.col[upper].astype(np.intp)
    # rank[a * n + i]: position of vertex i in the order of axis a, so
    # comparing ranks compares (coordinate, index).
    rank = np.empty(points.shape[::-1], dtype=np.int64)
    for r, c in zip(rank, points.T):
        r[np.argsort(c, kind="stable")] = np.arange(n)
    rank = rank.ravel()
    # key: base-3 digits (0 low, 1 high, 2 separator) of each vertex's
    # path through the dissection tree.  code: 2 dom + side of each
    # vertex still to be dissected, -1 once it is in a separator or a
    # leaf, so an edge joins the two sides of one subdomain exactly
    # when its end codes differ in the last bit only.  A separator
    # vertex leaves the dissection, so its flag is never read again.
    key = np.zeros(n, dtype=np.int64)
    code = np.full(n, -1, dtype=np.intp)
    separator = np.zeros(n, dtype=bool)
    # The vertices still to be dissected, their subdomains, the
    # subdomain sizes and the vertices' coordinates, one row per axis.
    active = np.arange(n if n > _ND_LEAF else 0)
    dom = np.zeros(active.size, dtype=np.intp)
    count = np.array([active.size])
    pts = points[active].T.copy()
    while active.size:
        mean = np.stack([np.bincount(dom, weights=c, minlength=count.size)
                         for c in pts], axis=1) / np.maximum(count, 1)[:, None]
        spread = np.stack([np.bincount(dom, weights=(c - m[dom]) ** 2,
                                       minlength=count.size)
                           for c, m in zip(pts, mean.T)], axis=1)
        keys = dom * n + rank[np.argmax(spread, axis=1)[dom] * n + active]
        median = np.sort(keys)[np.cumsum(count) - count + count // 2]
        high = keys >= median[dom]
        code[active] = 2 * dom + high
        ends = code[rows]
        pair = (ends ^ 1) == code[cols]
        separator[np.where(ends[pair] & 1, cols[pair], rows[pair])] = True
        digit = high.astype(np.intp)
        digit[separator[active]] = 2
        key *= 3
        key[active] += digit
        child = 2 * dom + digit
        split = digit < 2
        count = np.bincount(child[split], minlength=child.max() + 1)
        keep = split & (count[child] > _ND_LEAF)
        code[active[~keep]] = -1
        active, dom = active[keep], child[keep]
        count = np.where(count > _ND_LEAF, count, 0)[:dom.max(initial=-1) + 1]
        pts = np.compress(keep, pts, axis=1)
    return np.argsort(key, kind="stable")


class _PermutedFactor(namedtuple("_PermutedFactor", "lu index")):
    """SuperLU factor ``lu`` of a matrix on its unknowns ``index``."""

    __slots__ = ()

    def solve(self, b):
        b = np.asarray(b, dtype=float)
        x = np.zeros_like(b)
        x[self.index] = self.lu.solve(b[self.index])
        return x


def factor_spd(matrix, points, free):
    """Sparse factor of the SPD block ``matrix[free][:, free]``.

    The block is ordered by :func:`nested_dissection` of ``points[free]``
    and factored by SuperLU (``lu``) in symmetric mode with diagonal
    pivots only, which is stable for SPD matrices and keeps the sparsity
    the ordering buys.  ``solve(b)``, b of shape (n,) or (n, k), returns
    x, zero off ``free``, that meets the block's equations on ``free``,
    by one gather and one scatter through ``index``, the free unknowns
    in factor order.  Its accuracy is not checked here, so callers must
    verify the residual of what they build from it.

    Parameters
    ----------
    matrix : scipy sparse matrix, shape (n, n)
    points : ndarray, shape (n, d)
        Coordinates of the unknowns, e.g. the mesh vertices they sit on.
    free : ndarray of int
        The distinct unknowns to solve for.

    Raises
    ------
    ValueError
        If the matrix is not square or ``points`` has not one row per
        unknown.
    SingularError
        If SuperLU meets an exactly zero pivot.
    """
    block = sp.csr_matrix(matrix)[free][:, free]
    perm = nested_dissection(block, _points_of(matrix, points)[free])
    try:
        lu = spla.splu(sp.csc_matrix(block[perm][:, perm]),
                       permc_spec="NATURAL", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SingularError(
            f"sparse LU factorization of a {perm.size} x {perm.size} SPD "
            f"matrix failed: {exc}") from exc
    return _PermutedFactor(lu, np.asarray(free)[perm])


# At most this many unknowns are factored: at icosphere 4 (2,561) a factor
# beats multilevel CG, at icosphere 5 they tie, at icosphere 6 it loses.
_COARSE_SIZE = 4096
# A CG fails after this many steps: the boundary CG takes at most 20 on caps
# and lanterns up to 197k vertices, multilevel CG 15 at icosphere 5 and
# 6, 20 on a jittered icosphere 5 and 38-39 on one stretched fourfold.
_CG_MAXITER = 200
# It also fails this many steps after its smallest residual: at the
# default tol that of icosphere 5 to 7 falls at least every third step,
# and below rounding level it drifts between 1e-15 and 1e-6.
_CG_STALL = 10


def pcg(apply, b, precondition, tol, scale_by, what):
    """(x, iterations) of preconditioned CG for apply(x) = b, stopped at
    |b - apply(x)| <= tol / 100 * |``scale_by``|, the scale the caller's
    :func:`check_residual` gives the equation it builds from x.
    NotConvergedError names ``what`` after ``_CG_MAXITER`` steps, at a
    non-finite residual, ``_CG_STALL`` steps after the smallest one, or
    when a step breaks down: r.z or p.Ap, positive in exact arithmetic,
    is zero.  Sums are pairwise ``np.sum``: a BLAS dot rounds by the
    OpenBLAS thread count."""
    target = 0.01 * tol
    x, r, p, rz_old = np.zeros_like(b), b.copy(), 0.0, 1.0
    scale = max(np.sqrt(np.sum(scale_by * scale_by)), 1e-300)
    best, best_at = np.inf, 0
    for iterations in range(_CG_MAXITER + 1):
        res = np.sqrt(np.sum(r * r)) / scale
        if res <= target:
            return x, iterations
        if res < best:
            best, best_at = res, iterations
        if (iterations == _CG_MAXITER or not np.isfinite(res)
                or iterations - best_at == _CG_STALL):
            raise NotConvergedError(
                f"{what} stopped at relative residual {res:.3e} (target "
                f"{target:.1e}) after {iterations} iterations; the "
                f"smallest was {best:.3e}, at iteration {best_at}")
        z = precondition(r)
        rz = np.sum(r * z)
        p = z + (rz / rz_old) * p
        q = apply(p)
        pq = np.sum(p * q)
        if not (rz and pq):
            raise NotConvergedError(
                f"{what} broke down at iteration {iterations}: r.z or p.Ap "
                f"is zero")
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        rz_old = rz


def _aggregate(matrix, rng):
    """Aggregate index of each unknown of a symmetric CSR matrix with a
    nonzero diagonal.  The roots, a maximal distance-2 independent set
    chosen by random priority in Luby rounds, take their neighbours; each
    unknown left joins the aggregate of its strongest neighbour."""
    def widen(x):       # the maximum of x over each unknown and neighbours
        return np.maximum.reduceat(x[matrix.indices], matrix.indptr[:-1])

    priority = rng.permutation(matrix.shape[0]) + 1
    undecided, root = priority > 0, np.zeros(priority.size, dtype=bool)
    while undecided.any():
        live = np.where(undecided, priority, 0)
        new = undecided & (widen(widen(live)) == live)
        root |= new
        undecided &= ~widen(widen(new))
    label = widen(np.where(root, np.cumsum(root) - 1, -1))
    rows = np.repeat(np.arange(label.size), np.diff(matrix.indptr))
    weight = np.where(label[matrix.indices] >= 0, np.abs(matrix.data), -1.0)
    strongest = np.maximum.reduceat(weight, matrix.indptr[:-1])[rows]
    join = (label[rows] < 0) & (weight == strongest)
    label[rows[join]] = label[matrix.indices[join]]
    return label


def _chebyshev(matrix, inv_diag, lmax, b, x=None):
    """x (zero if None) after two Chebyshev steps for matrix x = b over
    [lmax / 8, lmax] preconditioned by the diagonal (Saad, Alg. 12.1)."""
    theta, delta = 0.5625 * lmax, 0.4375 * lmax
    r = inv_diag * (b if x is None else b - matrix @ x)
    d = r / theta
    r -= inv_diag * (matrix @ d)
    rho = 1.0 / (2.0 * theta / delta - delta / theta)
    step = (1.0 + rho * delta / theta) * d + (2.0 * rho / delta) * r
    return step if x is None else x + step


class MultilevelCG:
    """CG for S x = b to ``tol``, S symmetric positive semidefinite with
    the constants as its kernel, preconditioned by a smoothed-aggregation
    V-cycle (Vanek, Mandel & Brezina, Computing 56, 1996).  Each level
    aggregates, smooths the tentative prolongator of the kernel by one
    Jacobi step damped by 4 / (3 lmax), lmax from ten power steps of
    D^-1 A, and takes P^T A P as the next matrix, down to at most
    ``_COARSE_SIZE`` unknowns: the :func:`factor_spd` factor of that one,
    free on all its unknowns but the first and ordered by aggregate
    centroids, solves off its kernel (a matrix that small has no level,
    so CG stops after one step).  Two Chebyshev steps smooth before and
    after each coarse correction, so the V-cycle is symmetric.  The
    aggregation is seeded, and sums are pairwise ``np.sum``: a BLAS dot
    rounds by the OpenBLAS thread count."""

    def __init__(self, matrix, points, tol):
        rng = np.random.default_rng(0)
        self.tol = tol
        self.matrix = matrix = sp.csr_matrix(matrix)
        kernel = np.ones(matrix.shape[0])
        self.levels = []
        while matrix.shape[0] > _COARSE_SIZE:
            inv_diag = 1.0 / matrix.diagonal()
            x = rng.random(matrix.shape[0])
            for _ in range(10):
                x = inv_diag * (matrix @ (x / np.sqrt(np.sum(x * x))))
            lmax = 1.05 * np.sqrt(np.sum(x * x))
            agg = _aggregate(matrix, rng)
            norm = np.sqrt(np.bincount(agg, weights=kernel * kernel))
            tentative = sp.csr_matrix(
                (kernel / norm[agg], agg, np.arange(agg.size + 1)),
                shape=(agg.size, norm.size))
            prolong = (tentative - sp.diags(4.0 / (3.0 * lmax) * inv_diag)
                       @ (matrix @ tentative)).tocsr()
            self.levels.append((matrix, inv_diag, lmax, prolong))
            matrix = (prolong.T @ (matrix @ prolong)).tocsr()
            points = (np.stack([np.bincount(agg, weights=c) for c in points.T],
                               axis=1) / np.bincount(agg)[:, None])
            kernel = norm
        self.kernel = kernel / np.sqrt(np.sum(kernel * kernel))
        self.coarse = factor_spd(matrix, points, np.arange(1, len(points)))

    def _cycle(self, level, b):
        """One V-cycle from ``level`` down, applied to the residual b."""
        if level == len(self.levels):
            x = self.coarse.solve(b - np.sum(self.kernel * b) * self.kernel)
            return x - np.sum(self.kernel * x) * self.kernel
        matrix, inv_diag, lmax, prolong = self.levels[level]
        x = _chebyshev(matrix, inv_diag, lmax, b)
        x += prolong @ self._cycle(level + 1, prolong.T @ (b - matrix @ x))
        return _chebyshev(matrix, inv_diag, lmax, b, x)

    def solve(self, b):
        """x with |b - S x| <= |b| tol / 100 for b in range(S), by
        :func:`pcg`; one step when the hierarchy has no level."""
        return pcg(lambda p: self.matrix @ p, b, lambda r: self._cycle(0, r),
                   self.tol, b, f"multilevel CG of the {b.size} x {b.size} "
                   f"stiffness solve")[0]
