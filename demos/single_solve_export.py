"""Solve one problem instance and export mesh and solution artifacts.

A Schwarz lantern with the constant load f = 24 is solved with the
mixed method; u1 approximates the displacement of a clamped cylinder
shell, u2 its Laplacian.  The mesh goes to OBJ, the nodal fields to
CSV, and the saddle matrix to Matrix Market, so everything can be
inspected with external tools.

Run:  python3 demos/single_solve_export.py
"""

import os

import numpy as np
import scipy.sparse as sp
from scipy.io import mmwrite

from biharm import MeshOperators, gen_schwarz_lantern, solve_mixed, write_obj

out = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(out, exist_ok=True)

mesh = gen_schwarz_lantern(m=32, n=16)
f = np.full(mesh.n_vertices, 24.0)
sol = solve_mixed(mesh, f)

equator = np.abs(mesh.vertices[:, 2]) < 1e-12
print(f"lantern with {mesh.n_vertices} vertices, {mesh.n_faces} faces")
print(f"u1 at the equator: {sol.u1[equator].mean():.5f}  "
      f"(the cylinder limit value is (H/2)^4 = 1)")
print(f"solver: {sol.solve_report.method}, relative residual "
      f"{sol.solve_report.relative_residual:.2e}")

write_obj(mesh, os.path.join(out, "lantern.obj"))
# The clamped saddle matrix [[0, B], [B^T, -M]], with B the interior rows
# of the stiffness and M the consistent mass.
ops = MeshOperators(mesh)
matrix = sp.bmat([[None, ops.b_block], [ops.b_block.T, -ops.mass]], "csr")
mmwrite(os.path.join(out, "saddle.mtx"), matrix, symmetry="symmetric")
with open(os.path.join(out, "solution.csv"), "w", encoding="utf-8") as fh:
    fh.write("vertex,u1,u2\n")
    for i, (a, b) in enumerate(zip(sol.u1, sol.u2)):
        fh.write(f"{i},{a:.12g},{b:.12g}\n")
print(f"wrote lantern.obj, saddle.mtx, solution.csv to {out}")
