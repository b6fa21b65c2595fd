"""Correctness checks on the files the program writes.

obj-batch: the discrete equations are rebuilt from the input OBJ with
the package's public assembly (``assemble_stiffness``,
``assemble_mass``) and ``solution.csv`` must satisfy them up to the
solver tolerance plus what printing 12 significant digits can change;
``mesh.obj`` must equal the input OBJ byte for byte.

converge-*: the study must exit 0 under ``--check`` (the acceptance
gate); ``report.csv`` and ``rates.csv`` are digested so that a changed
result shows.  Later rounds of a run must reproduce the first round's
files exactly.
"""

import hashlib
import os

import numpy as np

# The CLI's default residual target.
SOLVE_TOL = 1e-10
# A value printed with 12 significant digits is off by at most 5e-12 of
# itself; twice that leaves room for the norms' own rounding.
CSV_ROUNDING = 1e-11


def digest(paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def dir_bytes(path):
    return sum(entry.stat().st_size for entry in os.scandir(path)
               if entry.is_file())


def read_obj_arrays(path):
    """Vertices and 0-based faces of an OBJ holding only v and f
    records, parsed independently of the package."""
    verts, faces = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            tag, _, rest = line.partition(" ")
            if tag == "v":
                verts.append(rest)
            elif tag == "f":
                faces.append(rest)
    v = np.array(" ".join(verts).split(), dtype=float).reshape(-1, 3)
    f = np.array(" ".join(faces).split(), dtype=np.int64).reshape(-1, 3) - 1
    return v, f


def read_solution(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "vertex,u1,u2":
            raise ValueError(f"unexpected solution header {header!r}")
        data = np.array(fh.read().replace(",", " ").split(), dtype=float)
    data = data.reshape(-1, 3)
    if not np.array_equal(data[:, 0], np.arange(data.shape[0])):
        raise ValueError("solution rows are not numbered 0..n-1")
    return data[:, 1], data[:, 2]


def _within(residual, scale, rounding):
    """|residual| within the solver tolerance of ``scale`` plus the
    CSV rounding bound ``rounding``."""
    return np.linalg.norm(residual) <= (1.01 * SOLVE_TOL * scale
                                        + CSV_ROUNDING * rounding)


def _rhs(biharm, mesh, text):
    kind, _, rest = text.partition(":")
    if kind == "const":
        return np.full(mesh.n_vertices, float(rest))
    degree, order = (int(t) for t in rest.split(","))
    return biharm.interpolate(mesh, biharm.real_harmonic(degree, order))


def solution_satisfies_equations(biharm, mesh, rhs_text, u1, u2):
    """True when (u1, u2) solves the discrete mixed problem on ``mesh``.

    Bounded: u1 = 0 on the boundary, S[I, :] u2 = M[I, :] f and
    S[:, I] u1[I] = M u2.  Closed: S u2 = M (f - mean f),
    S u1 = M u2, with both fields of zero M-weighted mean.
    """
    n = mesh.n_vertices
    if u1.shape != (n,) or u2.shape != (n,):
        return False
    f = _rhs(biharm, mesh, rhs_text)
    stiff = biharm.assemble_stiffness(mesh)
    mass = biharm.assemble_mass(mesh, "consistent")
    abs_stiff, abs_mass = abs(stiff), abs(mass)
    norm = np.linalg.norm
    if mesh.is_closed:
        ones = np.ones(n)
        border = mass @ ones
        f = f - float(border @ f) / float(border @ ones)
        checks = []
        for u, load, rounding in (
                (u2, mass @ f, norm(abs_stiff @ abs(u2))),
                (u1, mass @ u2, norm(abs_stiff @ abs(u1))
                 + norm(abs_mass @ abs(u2)))):
            lhs = stiff @ u
            checks.append(_within(lhs - load, max(norm(lhs), norm(load)),
                                  rounding))
            # The bordered solve meets its zero-mean row to the same
            # tolerance, relative to the load.
            checks.append(abs(border @ u)
                          <= 1.01 * SOLVE_TOL * norm(load)
                          + CSV_ROUNDING * (abs(border) @ abs(u)))
        return all(checks)
    interior = np.ones(n, dtype=bool)
    interior[mesh.boundary_vertices] = False
    if np.any(u1[~interior] != 0.0):
        return False
    b_block, abs_b = stiff[interior, :], abs_stiff[interior, :]
    lhs1, load1 = b_block @ u2, (mass @ f)[interior]
    lhs2, load2 = b_block.T @ u1[interior], mass @ u2
    return (_within(lhs1 - load1, max(norm(lhs1), norm(load1)),
                    norm(abs_b @ abs(u2)))
            and _within(lhs2 - load2, max(norm(lhs2), norm(load2)),
                        norm(abs_b.T @ abs(u1[interior]))
                        + norm(abs_mass @ abs(u2))))


def check_solve_instance(biharm, instance):
    """Check one obj-batch instance's outputs; returns (ok, reason)."""
    out = instance["out"]
    with open(instance["mesh"], "rb") as fh:
        source = fh.read()
    with open(os.path.join(out, "mesh.obj"), "rb") as fh:
        if fh.read() != source:
            return False, "mesh.obj differs from the input OBJ"
    vertices, faces = read_obj_arrays(instance["mesh"])
    mesh = biharm.build_mesh(vertices, faces)
    u1, u2 = read_solution(os.path.join(out, "solution.csv"))
    if not solution_satisfies_equations(biharm, mesh, instance["rhs"],
                                        u1, u2):
        return False, "solution.csv does not satisfy the discrete equations"
    return True, ""


def output_files(instance):
    """The files whose digest pins an instance's result."""
    out = instance["out"]
    if instance["argv"][0] == "solve":
        return [os.path.join(out, "solution.csv"),
                os.path.join(out, "mesh.obj")]
    return [os.path.join(out, "report.csv"), os.path.join(out, "rates.csv")]
