"""Acceptance gate for the package.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line (routed past pytest's capture so the verdicts always appear in the
run log).  The criteria are asserted exactly as stated; a criterion that
the implemented method genuinely does not satisfy fails here rather than
being weakened.
"""

import sys
import time

import numpy as np
import pytest

from biharm.analysis import gate_failures, run_study
from biharm.biharmonic import solve_mixed
from biharm.cli import main
from biharm.fem import (assemble_mass, assemble_stiffness, interpolate,
                        p1_gradients)
from biharm.mesh import max_edge_length
from biharm.surfaces import (cap_case, cap_family, cylinder_case,
                             gen_cap_mesh, gen_icosphere, gen_schwarz_lantern,
                             lantern_family, real_harmonic, sphere_family)

from conftest import grid_mesh, tetrahedron
from fd_oracles import axial_laplacian_fd, polar_laplacian_fd
from helpers import (dense_solve_oracle, discrete_laplacian, read_levels_csv,
                     saddle_system)


def announce(number, name, failures, details=""):
    verdict = "PASS" if not failures else "FAIL"
    line = f"ACCEPTANCE {number} ({name}): {verdict}"
    if details:
        line += f" — {details}"
    for reason in failures:
        line += f"\n    failed: {reason}"
    print(line, file=sys.__stdout__, flush=True)


def check(failures, condition, message):
    if not condition:
        failures.append(message)


def test_criterion_1_cap_convergence():
    start = time.monotonic()
    report = run_study(cap_family(np.pi / 3.0, [8, 16, 32, 64]))
    elapsed = time.monotonic() - start
    slopes = {k: report.rates[k].slope for k in ("l2_u1", "h1_u1", "l2_u2")}

    failures = gate_failures(report, "cap")
    check(failures, elapsed < 120.0, f"runtime {elapsed:.1f}s >= 120s")
    announce(1, "cap convergence", failures,
             f"slopes l2_u1={slopes['l2_u1']:.2f} "
             f"h1_u1={slopes['h1_u1']:.2f} l2_u2={slopes['l2_u2']:.2f}, "
             f"{elapsed:.1f}s")
    assert not failures, "; ".join(failures)


def test_criterion_2_sphere_convergence():
    start = time.monotonic()
    report = run_study(sphere_family(2, 0, [2, 3, 4, 5]))
    elapsed = time.monotonic() - start
    slopes = {k: report.rates[k].slope for k in ("l2_u1", "h1_u1", "l2_u2")}

    failures = gate_failures(report, "sphere")
    check(failures, elapsed < 120.0, f"runtime {elapsed:.1f}s >= 120s")
    announce(2, "closed-sphere convergence", failures,
             f"slopes l2_u1={slopes['l2_u1']:.2f} "
             f"l2_u2={slopes['l2_u2']:.2f} h1_u1={slopes['h1_u1']:.2f}, "
             f"{elapsed:.1f}s")
    assert not failures, "; ".join(failures)


def test_criterion_3_lantern_dichotomy():
    start = time.monotonic()
    linear = run_study(lantern_family("linear", [8, 16, 32, 64]))
    quadratic = run_study(lantern_family("quadratic", [4, 6, 8, 11]))
    elapsed = time.monotonic() - start

    lin_u2 = linear.rates["l2_u2"].slope
    lin_u1 = linear.rates["l2_u1"].slope
    quad_u2 = quadratic.rates["l2_u2"].slope
    quad_eps = quadratic.rates["epsilon"].slope

    # The quadratic gate fails if the solver still converges on the
    # classical lantern, or if its normal angles keep decreasing.
    failures = ([f"linear coupling {msg}"
                 for msg in gate_failures(linear, "lantern-linear")]
                + [f"quadratic coupling {msg}"
                   for msg in gate_failures(quadratic, "lantern-quadratic")])
    check(failures, elapsed < 180.0, f"runtime {elapsed:.1f}s >= 180s")
    announce(3, "Schwarz lantern dichotomy", failures,
             f"linear l2_u2={lin_u2:.2f} l2_u1={lin_u1:.2f}; "
             f"quadratic l2_u2={quad_u2:.2f} epsilon={quad_eps:.2f}, "
             f"{elapsed:.1f}s")
    assert not failures, "; ".join(failures)


def test_criterion_4_operator_properties(rng):
    meshes = [
        ("flat grid", grid_mesh(4)),
        ("obtuse grid", grid_mesh(3, shear=0.9)),
        ("sheared grid", grid_mesh(4, shear=0.6)),
        ("tetrahedron", tetrahedron()),
        ("cap", gen_cap_mesh(np.pi / 3.0, 3)),
        ("icosphere", gen_icosphere(2)),
        ("lantern", gen_schwarz_lantern(9, 3)),
    ]
    failures = []
    for name, mesh in meshes:
        s = assemble_stiffness(mesh)
        m = assemble_mass(mesh)
        n = mesh.n_vertices

        asym = abs(s - s.T).max()
        check(failures, asym <= 1e-13, f"{name}: asymmetry {asym:.2e}")

        s_norm = np.max(np.abs(s).sum(axis=1))
        kernel = np.max(np.abs(s @ np.ones(n)))
        check(failures, kernel <= 1e-12 * s_norm,
              f"{name}: |S 1| = {kernel:.2e} > 1e-12 |S|")

        ok_psd = True
        for _ in range(10):
            x = rng.normal(size=n)
            if x @ (s @ x) < -1e-12 * s_norm * np.dot(x, x):
                ok_psd = False
        check(failures, ok_psd, f"{name}: stiffness not PSD on spot checks")

        area = mesh.face_areas.sum()
        ones = np.ones(n)
        total = ones @ (m @ ones)
        check(failures, abs(total - area) <= 1e-12 * area,
              f"{name}: mass total {total!r} vs area {area!r}")

        u = rng.normal(size=n)
        v = rng.normal(size=n)
        direct = np.sum(mesh.face_areas *
                        np.sum(p1_gradients(mesh, u) * p1_gradients(mesh, v),
                               axis=1))
        bilinear = u @ (s @ v)
        check(failures,
              abs(bilinear - direct) <= 1e-10 * max(1.0, abs(direct)),
              f"{name}: Galerkin mismatch {abs(bilinear - direct):.2e}")

    obtuse = sum(1 for _, mesh in meshes
                 if np.any(mesh.face_cotangents < -1e-12))
    check(failures, len(meshes) >= 5, "fewer than 5 meshes")
    check(failures, obtuse >= 1, "no obtuse-triangle mesh in the suite")
    announce(4, "operator property suite", failures,
             f"{len(meshes)} meshes, {obtuse} with obtuse triangles")
    assert not failures, "; ".join(failures)


def test_criterion_5_oracle_equivalence(rng):
    corpus = [
        gen_cap_mesh(np.pi / 3.0, 2),
        gen_cap_mesh(np.pi / 3.0, 4),
        gen_cap_mesh(np.pi / 2.0, 3),
        gen_schwarz_lantern(6, 3),
        gen_schwarz_lantern(10, 5),
        gen_schwarz_lantern(16, 4),
        tetrahedron(),
        gen_icosphere(0),
        gen_icosphere(1),
        gen_icosphere(2),
        grid_mesh(4),
        grid_mesh(3, shear=0.7),
    ]
    failures = []
    checked = 0
    for mesh in corpus:
        if mesh.n_vertices > 300:
            continue
        checked += 1
        n = mesh.n_vertices
        f = rng.normal(size=n)
        sol = solve_mixed(mesh, f)
        if mesh.is_closed:
            s = assemble_stiffness(mesh)
            m = assemble_mass(mesh)
            ones = np.ones(n)
            border = m @ ones
            f_proj = f - (border @ f) / (border @ ones)
            import scipy.sparse as sp
            bordered = sp.bmat(
                [[s, border[:, None]], [border[None, :], None]],
                format="csr")
            x2 = dense_solve_oracle(bordered, np.append(m @ f_proj, 0.0))
            u2 = x2[:n]
            x1 = dense_solve_oracle(bordered, np.append(m @ u2, 0.0))
            u1 = x1[:n]
        else:
            matrix, rhs, ops = saddle_system(mesh, f)
            x = dense_solve_oracle(matrix, rhs)
            n_i = len(ops.interior)
            u1 = np.zeros(n)
            u1[ops.interior] = x[:n_i]
            u2 = x[n_i:]
        scale = max(np.max(np.abs(u1)), np.max(np.abs(u2)), 1e-30)
        err = max(np.max(np.abs(sol.u1 - u1)), np.max(np.abs(sol.u2 - u2)))
        check(failures, err <= 1e-8 * scale,
              f"{mesh.n_vertices}-vertex mesh: oracle gap {err / scale:.2e}")
    check(failures, checked >= 8, f"only {checked} meshes <= 300 dofs")
    announce(5, "oracle equivalence", failures,
             f"{checked} meshes checked against the dense oracle")
    assert not failures, "; ".join(failures)


def test_criterion_6_manufactured_solution_guards(rng):
    failures = []

    cap = cap_case(1.0, np.pi / 3.0)
    thetas = np.linspace(0.2, np.pi / 3.0, 401)
    pts = np.stack([np.sin(thetas), np.zeros_like(thetas),
                    np.cos(thetas)], axis=1)
    u = cap.exact_u(pts)
    lap = cap.exact_lap_u(pts)
    f_vals = cap.exact_f(pts)
    lap_fd = polar_laplacian_fd(u, thetas)
    err_lap = np.max(np.abs(lap_fd - lap[2:-2])) / np.max(np.abs(lap))
    check(failures, err_lap <= 1e-6, f"cap lap FD gap {err_lap:.2e} > 1e-6")
    f_fd = polar_laplacian_fd(lap, thetas)
    err_f = np.max(np.abs(f_fd - f_vals[2:-2])) / np.max(np.abs(f_vals))
    check(failures, err_f <= 1e-4, f"cap f FD gap {err_f:.2e} > 1e-4")

    cyl = cylinder_case(1.0, 2.0)
    zs = np.linspace(-1.0, 1.0, 401)
    cyl_pts = np.stack([np.ones_like(zs), np.zeros_like(zs), zs], axis=1)
    cu = cyl.exact_u(cyl_pts)
    clap = cyl.exact_lap_u(cyl_pts)
    cf = cyl.exact_f(cyl_pts)
    clap_fd = axial_laplacian_fd(cu, zs)
    err_clap = np.max(np.abs(clap_fd - clap[2:-2])) / np.max(np.abs(clap))
    check(failures, err_clap <= 1e-6,
          f"cylinder lap FD gap {err_clap:.2e} > 1e-6")
    cf_fd = axial_laplacian_fd(clap, zs)
    err_cf = np.max(np.abs(cf_fd - cf[2:-2])) / np.max(np.abs(cf))
    check(failures, err_cf <= 1e-4, f"cylinder f FD gap {err_cf:.2e} > 1e-4")

    phis = rng.uniform(0.0, 2.0 * np.pi, size=100)
    ring = np.stack([np.sin(np.pi / 3.0) * np.cos(phis),
                     np.sin(np.pi / 3.0) * np.sin(phis),
                     np.full(100, np.cos(np.pi / 3.0))], axis=1)
    bc_u = np.max(np.abs(cap.exact_u(ring)))
    bc_g = np.max(np.abs(cap.exact_grad_u(ring)))
    check(failures, bc_u <= 1e-10 and bc_g <= 1e-10,
          f"cap boundary conditions violated: u {bc_u:.2e}, grad {bc_g:.2e}")
    for z in (-1.0, 1.0):
        rim = np.stack([np.cos(phis), np.sin(phis), np.full(100, z)], axis=1)
        bc_u = np.max(np.abs(cyl.exact_u(rim)))
        bc_g = np.max(np.abs(cyl.exact_grad_u(rim)))
        check(failures, bc_u <= 1e-10 and bc_g <= 1e-10,
              f"cylinder boundary conditions violated at z={z}")

    errors = []
    for level in (2, 3, 4):
        mesh = gen_icosphere(level)
        y = interpolate(mesh, real_harmonic(2, 0))
        v = discrete_laplacian(mesh, y)
        m = assemble_mass(mesh)
        diff = v - 6.0 * y
        errors.append(float(np.sqrt(diff @ (m @ diff))))
    check(failures, errors[1] < errors[0] and errors[2] < errors[1],
          f"harmonic eigen-trend not decreasing: {errors}")

    announce(6, "manufactured-solution guards", failures,
             f"FD gaps lap {max(err_lap, err_clap):.1e}, "
             f"f {max(err_f, err_cf):.1e}")
    assert not failures, "; ".join(failures)


def test_criterion_7_determinism(tmp_path):
    args = ["converge", "--case", "cap", "--levels", "2,4,8"]
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    failures = []
    check(failures, main(args + ["--out", str(out1)]) == 0, "first run failed")
    check(failures, main(args + ["--out", str(out2)]) == 0,
          "second run failed")
    if not failures:
        for name in ("report.csv", "rates.csv"):
            same = (out1 / name).read_bytes() == (out2 / name).read_bytes()
            check(failures, same, f"{name} differs between runs")
        records = read_levels_csv(out1 / "report.csv")
        check(failures, len(records) == 3, "report.csv does not parse back")
    announce(7, "determinism", failures,
             "repeated converge runs compared byte for byte")
    assert not failures, "; ".join(failures)
