"""Seeded inputs of the three workloads.

Each workload is a list of instances, each one ``biharm`` command line
run in process through ``biharm.cli.main``.  The seed draws the inputs;
the amount of work per round does not depend on it (mesh sizes come
from fixed ladders), so that runs with different seeds time the same
work.

converge-cap     one ``converge --case cap --levels 16,32,64,128
                 --check``; the seed draws ``--theta0``.  Clamped
                 saddle-point path, LU-dominated.
converge-sphere  one ``converge --case sphere --levels 3,4,5,6
                 --check``; the seed draws the load's harmonic (l, m).
                 Closed double-Poisson path, two LU solves per level.
obj-batch        100 ``solve --mesh X.obj --rhs ... --write-mesh``
                 calls on randomly rotated and scaled icospheres, caps
                 and lanterns of about 1.5k to 7k vertices, a third of
                 them closed.  OBJ input and output and per-call
                 overhead weigh more here than in the studies.
"""

import json
import os

import numpy as np

NAMES = ("converge-cap", "converge-sphere", "obj-batch")

BATCH_SIZE = 100
_CAP_THETA0 = (0.8, 1.3)
_SPHERE_MAX_DEGREE = 4
_ICOSPHERE_LEVEL = 4          # 2562 vertices


def _random_rotation(rng):
    """Uniformly distributed rotation matrix from a random unit
    quaternion."""
    q = rng.normal(size=4)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)]])


def _write_obj(path, vertices, faces):
    """Write OBJ with 17 significant digits, as ``biharm.write_obj``
    does, so that a read and write by the program must reproduce the
    file byte for byte."""
    lines = [f"v {x:.17g} {y:.17g} {z:.17g}\n"
             for x, y, z in vertices.tolist()]
    lines.extend(f"f {i + 1} {j + 1} {k + 1}\n" for i, j, k in faces.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(lines))


def _ladder(lo, hi, count):
    """``count`` integer generator parameters spaced geometrically."""
    return [int(round(v)) for v in np.geomspace(lo, hi, count)]


def _batch_shapes():
    """(kind, size parameter) per instance; the same for every seed."""
    closed = BATCH_SIZE // 3
    caps = (BATCH_SIZE - closed) // 2
    lanterns = BATCH_SIZE - closed - caps
    # Cap with r rings: 1 + 3 r (r + 1) vertices.  Lantern with n bands
    # and m = 2 n: 2 n (n + 1) vertices.
    cap_rings = _ladder(22, 48, caps)
    lantern_bands = _ladder(27, 59, lanterns)
    return ([("sphere", _ICOSPHERE_LEVEL)] * closed
            + [("cap", r) for r in cap_rings]
            + [("lantern", n) for n in lantern_bands])


def _batch_instances(rng, workdir):
    import biharm

    shapes = _batch_shapes()
    order = rng.permutation(len(shapes))
    mesh_dir = os.path.join(workdir, "meshes")
    os.makedirs(mesh_dir, exist_ok=True)
    instances = []
    for idx, pos in enumerate(order):
        kind, size = shapes[pos]
        radius = float(rng.uniform(0.5, 2.0))
        if kind == "sphere":
            mesh = biharm.gen_icosphere(size, radius)
        elif kind == "cap":
            mesh = biharm.gen_cap_mesh(float(rng.uniform(0.6, 1.8)), size,
                                       radius)
        else:
            mesh = biharm.gen_schwarz_lantern(
                2 * size, size, radius, float(rng.uniform(1.0, 3.0)))
        vertices = mesh.vertices @ _random_rotation(rng).T
        if kind == "sphere" or rng.random() < 0.5:
            degree = int(rng.integers(1, _SPHERE_MAX_DEGREE + 1))
            order = int(rng.integers(-degree, degree + 1))
            rhs = f"harmonic:{degree},{order}"
        else:
            rhs = f"const:{float(rng.uniform(1.0, 50.0)):.6g}"
        path = os.path.join(mesh_dir, f"{idx:03d}.obj")
        _write_obj(path, vertices, mesh.faces)
        out = os.path.join(workdir, "out", f"{idx:03d}")
        instances.append({
            "argv": ["solve", "--mesh", path, "--rhs", rhs, "--write-mesh",
                     "--out", out],
            "mesh": path, "rhs": rhs, "out": out})
    return instances


def make_inputs(name, seed, workdir):
    """Generate the inputs of workload ``name`` under ``workdir`` and
    write their manifest; returns the manifest."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}")
    rng = np.random.default_rng([seed, NAMES.index(name)])
    out = os.path.join(workdir, "out", "study")
    if name == "converge-cap":
        theta0 = float(rng.uniform(*_CAP_THETA0))
        instances = [{"argv": ["converge", "--case", "cap", "--levels",
                               "16,32,64,128", "--theta0", repr(theta0),
                               "--check", "--out", out], "out": out}]
    elif name == "converge-sphere":
        degree = int(rng.integers(1, _SPHERE_MAX_DEGREE + 1))
        order = int(rng.integers(-degree, degree + 1))
        instances = [{"argv": ["converge", "--case", "sphere", "--levels",
                               "3,4,5,6", "--l", str(degree),
                               f"--m={order}", "--check", "--out", out],
                      "out": out}]
    else:
        instances = _batch_instances(rng, workdir)
    manifest = {"workload": name, "seed": seed, "instances": instances}
    with open(os.path.join(workdir, "manifest.json"), "w",
              encoding="utf-8") as fh:
        json.dump(manifest, fh)
    return manifest
