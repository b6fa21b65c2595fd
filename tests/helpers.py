"""Reference solvers and readers that only the tests use.

The dense solve and the discrete Laplacian are oracles for the sparse
paths on small problems; the readers parse the CSV files the package
writes back into records, so the tests can compare them.
"""

import csv

import numpy as np
import scipy.sparse as sp

from biharm.analysis import ErrorRecord, QualityRecord
from biharm.fem import MeshOperators, nodal_field
from biharm.linalg import (DEFAULT_TOL, DimensionMismatchError, SingularError,
                           check_residual, factor_spd)


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
    u = nodal_field(mesh, u1).copy()
    u[mesh.boundary_vertices] = 0.0
    ops = MeshOperators(mesh)
    rhs = ops.stiffness @ u
    v = factor_spd(ops.mass, mesh.vertices).solve(rhs)
    check_residual(ops.mass @ v, rhs, tol, f"mass solve of the discrete "
                   f"Laplacian on {mesh.n_vertices} vertices")
    return v


def _quality(row):
    return QualityRecord(float(row["kappa_min"]), float(row["K_max"]),
                         float(row["max_dist"]),
                         float(row["max_normal_angle"]))


def read_report_csv(path):
    """Parse a report CSV back into ErrorRecord objects."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return [ErrorRecord(row["case"], int(row["level"]), float(row["h"]),
                            int(row["dofs"]), float(row["l2_u1"]),
                            float(row["h1_u1"]), float(row["l2_u2"]),
                            _quality(row))
                for row in csv.DictReader(fh)]


def read_quality_csv(path):
    """Parse a quality CSV into (case, level, h, dofs, QualityRecord)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return [(row["case"], int(row["level"]), float(row["h"]),
                 int(row["dofs"]), _quality(row))
                for row in csv.DictReader(fh)]


def read_rates_csv(path):
    """Parse a rates CSV into {norm: (slope, residual or None, flag)}."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return {row["norm"]: (float(row["slope"]),
                              float(row["residual"]) if row["residual"]
                              else None, row["flag"])
                for row in csv.DictReader(fh)}


def read_solution_csv(path):
    """Parse a solution CSV back into (u1, u2) arrays."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "vertex,u1,u2":
            raise ValueError(f"unexpected solution header {header!r}")
        for line in fh:
            _, a, b = line.split(",")
            rows.append((float(a), float(b)))
    arr = np.asarray(rows)
    return arr[:, 0], arr[:, 1]
