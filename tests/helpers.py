"""Reference solvers and readers that only the tests use.

The dense solve, the saddle matrix and the discrete Laplacian are
oracles for the sparse paths on small problems; the lexsort nested
dissection and the per-face geometry in fancy-indexed (F, 3, 3) form
are the references that the package's faster versions must match
exactly; the readers parse the CSV files the package writes back into
records, so the tests can compare them.
"""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.sparse as sp

import biharm
from biharm.analysis import NORMS, QUALITY, LevelRecord
from biharm.fem import MeshOperators, nodal_field
from biharm.linalg import (_ND_LEAF, DEFAULT_TOL, SingularError,
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
        raise ValueError(f"matrix is not square: {dense.shape}")
    n = dense.shape[0]
    if n > 2000:
        raise ValueError(f"dense oracle limited to n <= 2000, got {n}")
    b = np.asarray(b, dtype=float)
    if b.ndim != 1 or b.shape[0] != n:
        raise ValueError(
            f"right-hand side shape {b.shape} does not match matrix "
            f"shape {dense.shape}")
    try:
        x = np.linalg.solve(dense, b)
    except np.linalg.LinAlgError as exc:
        raise SingularError(str(exc)) from exc
    if not np.all(np.isfinite(x)):
        raise SingularError("dense solve produced non-finite entries")
    return x


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
    f = nodal_field(mesh, f)
    ops = MeshOperators(mesh)
    b_block, mass = ops.b_block, ops.mass
    matrix = sp.bmat([[None, b_block], [b_block.T, -mass]], format="csr")
    rhs = np.concatenate([mass[ops.interior, :] @ f,
                          np.zeros(mesh.n_vertices)])
    return matrix, rhs, ops


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


def read_levels_csv(path):
    """Parse a level table (report or quality CSV) back into
    LevelRecord objects; norms the table lacks are None."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return [LevelRecord(
                    row["case"], int(row["level"]), float(row["h"]),
                    int(row["dofs"]),
                    *(float(row[name]) if name in row else None
                      for name in (*NORMS, *QUALITY)))
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


def lexsort_nested_dissection(matrix, points):
    """Reference for :func:`biharm.linalg.nested_dissection`: the same
    dissection, with each level sorting the active vertices by
    ``lexsort((coordinate, subdomain))`` and filtering the edges to
    those inside one subdomain."""
    points = np.asarray(points, dtype=float)
    n = matrix.shape[0]
    graph = sp.triu(matrix, k=1, format="coo")
    rows, cols = graph.row, graph.col
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


def fancy_face_geometry(vertices, faces):
    """Reference for the arithmetic of :func:`biharm.mesh._face_geometry`
    on arrays of shape (F, 3, 3): (areas, unit normals, edge lengths,
    cotangents), without the degeneracy check."""
    p = vertices[faces]
    e = p[:, [2, 0, 1], :] - p[:, [1, 2, 0], :]
    lengths = np.linalg.norm(e, axis=2)
    cross = np.cross(e[:, 1, :], e[:, 2, :])
    doubled = np.linalg.norm(cross, axis=1)
    dots = -np.sum(e[:, [1, 2, 0], :] * e[:, [2, 0, 1], :], axis=2)
    return (0.5 * doubled, cross / doubled[:, None], lengths,
            dots / doubled[:, None])


def loaded_by_import(module):
    """Whether ``import biharm`` in a fresh interpreter loads ``module``."""
    src = str(Path(biharm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c",
         f"import sys, biharm; print({module!r} in sys.modules)"],
        env=env, check=True, capture_output=True, text=True, timeout=60)
    return {"True\n": True, "False\n": False}[done.stdout]
