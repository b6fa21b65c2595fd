"""The one mixed solve, ``solve_mixed``, on meshes with and without
boundary and in both mass modes.  Where a behaviour holds for every
mesh kind or mass mode, one test runs it over all of them."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import biharm.biharmonic as biharmonic
from biharm import linalg
from biharm.biharmonic import solve_mixed
from biharm.fem import (MeshOperators, assemble_mass, assemble_stiffness,
                        interpolate)
from biharm.linalg import NotConvergedError
from biharm.mesh import ComponentError, build_mesh
from biharm.surfaces import (cap_case, gen_cap_mesh, gen_icosphere,
                             gen_schwarz_lantern, real_harmonic)

from conftest import single_triangle, tetrahedron
from helpers import dense_solve_oracle, discrete_laplacian, saddle_system

MASS_MODES = ("consistent", "lumped")


def disjoint_union(*meshes):
    """One mesh made of the given meshes side by side, 3 units apart."""
    vertices, faces, offset = [], [], 0
    for shift, mesh in enumerate(meshes):
        vertices.append(mesh.vertices + 3.0 * shift)
        faces.append(mesh.faces + offset)
        offset += mesh.n_vertices
    return build_mesh(np.concatenate(vertices), np.concatenate(faces))


def l2m(mesh, field, mode="consistent"):
    m = assemble_mass(mesh, mode=mode)
    return np.sqrt(max(field @ (m @ field), 0.0))


def skew_load(mesh):
    """A load without rotational symmetry.  An axisymmetric load excites
    few boundary modes, so the boundary CG can finish in a step or two."""
    x, y, z = mesh.vertices.T
    return np.cos(3.0 * np.arctan2(y, x)) + np.exp(x) * y + z


class TestDirichlet:
    def test_zero_rhs(self):
        mesh = gen_cap_mesh(np.pi / 3.0, 3)
        for mode in MASS_MODES:
            sol = solve_mixed(mesh, np.zeros(mesh.n_vertices),
                              mass_mode=mode)
            assert np.all(sol.u1 == 0.0)
            assert np.all(sol.u2 == 0.0)
            assert sol.mass_mode == mode

    def test_matches_dense_oracle(self, rng):
        mesh = gen_cap_mesh(np.pi / 3.0, 2)
        f = rng.normal(size=mesh.n_vertices)
        sol = solve_mixed(mesh, f)
        matrix, rhs, ops = saddle_system(mesh, f)
        x = dense_solve_oracle(matrix, rhs)
        n_i = len(ops.interior)
        u1 = np.zeros(mesh.n_vertices)
        u1[ops.interior] = x[:n_i]
        u2 = x[n_i:]
        scale = max(np.max(np.abs(u1)), np.max(np.absolute(u2)))
        assert np.max(np.abs(sol.u1 - u1)) <= 1e-9 * scale
        assert np.max(np.abs(sol.u2 - u2)) <= 1e-9 * scale

    def test_lantern_equator_value(self):
        rel_errors = []
        for n in (8, 16, 32):
            mesh = gen_schwarz_lantern(2 * n, n)
            sol = solve_mixed(mesh, np.full(mesh.n_vertices, 24.0))
            equator = np.abs(mesh.vertices[:, 2]) < 1e-9
            assert equator.any()
            value = sol.u1[equator].mean()
            rel_errors.append(abs(value - 1.0))
        assert rel_errors[1] < rel_errors[0]
        assert rel_errors[2] < rel_errors[1]
        assert rel_errors[-1] < 0.01

    def test_boundary_entries_exactly_zero(self, rng):
        mesh = gen_cap_mesh(np.pi / 3.0, 3)
        f = rng.normal(size=mesh.n_vertices)
        sol = solve_mixed(mesh, f)
        assert np.all(sol.u1[mesh.boundary_vertices] == 0.0)

    def test_energy_identity(self, rng):
        mesh = gen_cap_mesh(np.pi / 3.0, 4)
        f = rng.normal(size=mesh.n_vertices)
        sol = solve_mixed(mesh, f)
        s = assemble_stiffness(mesh)
        m = assemble_mass(mesh)
        lhs = sol.u1 @ (s @ sol.u1)
        rhs = sol.u1 @ (m @ sol.u2)
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) <= 1e-8 * scale

    def test_u2_norm_stable_across_levels(self):
        norms = []
        case = cap_case(1.0, np.pi / 3.0)
        for rings in (16, 32):
            mesh = gen_cap_mesh(np.pi / 3.0, rings)
            sol = solve_mixed(mesh, interpolate(mesh, case.exact_f))
            norms.append(l2m(mesh, sol.u2))
        assert abs(norms[1] - norms[0]) < 0.2 * norms[0]

    def test_disjoint_bounded_components_solve_apart(self, rng):
        cap = gen_cap_mesh(np.pi / 3.0, 3)
        f = rng.normal(size=2 * cap.n_vertices)
        both = solve_mixed(disjoint_union(cap, cap), f)
        for half in (slice(0, cap.n_vertices), slice(cap.n_vertices, None)):
            alone = solve_mixed(cap, f[half])
            assert np.allclose(both.u1[half], alone.u1, rtol=0, atol=1e-12)

    def test_deterministic(self, rng):
        mesh = gen_cap_mesh(np.pi / 3.0, 3)
        f = rng.normal(size=mesh.n_vertices)
        a = solve_mixed(mesh, f)
        b = solve_mixed(mesh, f)
        assert np.array_equal(a.u1, b.u1)
        assert np.array_equal(a.u2, b.u2)


class TestCondensedDirichlet:
    """The solve condenses the saddle system onto the boundary values of
    u2 and runs CG there; these tests use loads that keep CG busy."""

    @pytest.mark.parametrize("mesh_fn", [
        lambda: gen_cap_mesh(np.pi / 3.0, 24),
        lambda: gen_schwarz_lantern(24, 12),
    ], ids=["cap-rings-24", "lantern-linear-12"])
    def test_matches_direct_saddle_solve(self, mesh_fn, rng):
        mesh = mesh_fn()
        f = rng.normal(size=mesh.n_vertices)
        sol = solve_mixed(mesh, f)
        assert sol.solve_report.method == "condensed_cg"
        assert sol.solve_report.iterations > 1
        matrix, rhs, ops = saddle_system(mesh, f)
        x = spla.spsolve(matrix.tocsc(), rhs)
        n_i = len(ops.interior)
        u1_i, u2 = x[:n_i], x[n_i:]
        assert (np.linalg.norm(sol.u1[ops.interior] - u1_i)
                <= 1e-10 * np.linalg.norm(u1_i))
        assert np.linalg.norm(sol.u2 - u2) <= 1e-10 * np.linalg.norm(u2)

    def test_no_interior_vertex(self):
        mesh = single_triangle()
        sol = solve_mixed(mesh, np.array([1.0, -2.0, 3.0]))
        assert np.all(sol.u1 == 0.0)
        assert np.all(sol.u2 == 0.0)
        assert sol.solve_report.relative_residual == 0.0

    def test_iterations_do_not_grow_with_refinement(self):
        # The cap study levels, in both mass modes.
        for mode in MASS_MODES:
            for rings in (8, 16, 32, 64):
                mesh = gen_cap_mesh(np.pi / 3.0, rings)
                report = solve_mixed(mesh, skew_load(mesh),
                                     mass_mode=mode).solve_report
                assert report.method == "condensed_cg"
                assert 1 < report.iterations <= 25, (mode, rings)
                assert report.relative_residual <= 1e-10, (mode, rings)

    def test_scaled_mesh_same_iterations(self):
        # Both sides of each identity scale alike under x -> c x, so
        # neither the residuals nor the boundary CG may see the unit of
        # length; u2 scales like c^2 and u1 like c^4.
        for mesh in (gen_cap_mesh(np.pi / 3.0, 16),
                     gen_schwarz_lantern(32, 16), gen_icosphere(3)):
            f = skew_load(mesh)
            base = solve_mixed(mesh, f)
            for scale in (1e-3, 1.0, 1e2, 1e3):
                sol = solve_mixed(build_mesh(scale * mesh.vertices,
                                             mesh.faces), f)
                report = sol.solve_report
                assert abs(report.iterations
                           - base.solve_report.iterations) <= 1, scale
                assert report.relative_residual <= 1e-10, scale
                for got, want in ((sol.u2, scale ** 2 * base.u2),
                                  (sol.u1, scale ** 4 * base.u1)):
                    assert (np.linalg.norm(got - want)
                            <= 1e-8 * np.linalg.norm(want)), scale

    def test_failed_boundary_cg_names_solve(self, monkeypatch):
        monkeypatch.setattr(biharmonic, "_BOUNDARY_CG_MAXITER", 5)
        mesh = gen_cap_mesh(np.pi / 3.0, 8)
        with pytest.raises(NotConvergedError) as info:
            solve_mixed(mesh, skew_load(mesh), tol=1e-20)
        msg = str(info.value)
        assert "boundary CG" in msg
        assert "after 5 iterations" in msg
        assert "relative residual" in msg
        n_boundary = mesh.boundary_vertices.shape[0]
        assert f"{n_boundary} boundary dofs of {mesh.n_vertices}" in msg


class TestClosed:
    def test_factors_once(self, monkeypatch):
        calls = []
        real_splu = linalg.spla.splu

        def counting_splu(*args, **kwargs):
            calls.append(args[0].shape)
            return real_splu(*args, **kwargs)

        monkeypatch.setattr(linalg.spla, "splu", counting_splu)
        mesh = gen_icosphere(2)
        solve_mixed(mesh, interpolate(mesh, real_harmonic(2, 1)))
        assert calls == [(mesh.n_vertices - 1, mesh.n_vertices - 1)]

    def test_matches_dense_bordered_oracle(self, rng):
        # The grounded factor with projected loads solves the bordered
        # system [[S, M 1], [(M 1)^T, 0]] in both mass modes: M_L has
        # the row sums of M, so M 1 projects the lumped loads too.
        mesh = gen_icosphere(2)
        n = mesh.n_vertices
        m = assemble_mass(mesh)
        border = m @ np.ones(n)
        bordered = np.block([[assemble_stiffness(mesh).toarray(),
                              border[:, None]],
                             [border[None, :], np.zeros((1, 1))]])

        def poisson(b):
            """u with S u = P b and 1^T M u = 0, P the projection onto
            range(S) along M 1."""
            projected = b - (b.sum() / border.sum()) * border
            return dense_solve_oracle(bordered, np.append(projected, 0.0))[:n]

        for mode in MASS_MODES:
            mass = assemble_mass(mesh, mode=mode)
            for _ in range(3):
                f = rng.normal(size=n)
                sol = solve_mixed(mesh, f, mass_mode=mode)
                assert sol.mass_mode == mode
                u2 = poisson(m @ f)
                u1 = poisson(mass @ u2)
                for got, want in ((sol.u1, u1), (sol.u2, u2)):
                    assert (np.max(np.abs(got - want))
                            <= 1e-10 * np.max(np.abs(want))), mode

    def test_constant_rhs_projected_to_zero(self):
        # For 0.1, 1/3 and 7.77 the removed mean is inexact, so f minus
        # its mean is roundoff that the load projection must absorb.
        mesh = gen_icosphere(2)
        for value in (3.0, 0.1, 1.0 / 3.0, 7.77):
            sol = solve_mixed(mesh, np.full(mesh.n_vertices, value))
            assert np.max(np.abs(sol.u1)) <= 1e-10
            assert np.max(np.abs(sol.u2)) <= 1e-10
            assert sol.f_mean_removed == pytest.approx(value, rel=1e-10)

    def test_harmonic_eigen_solution_converges(self):
        errs_u1 = []
        errs_u2 = []
        for level in (2, 3, 4):
            mesh = gen_icosphere(level)
            y = interpolate(mesh, real_harmonic(2, 0))
            sol = solve_mixed(mesh, y)
            scale = l2m(mesh, y)
            errs_u1.append(l2m(mesh, sol.u1 - y / 36.0) / scale)
            errs_u2.append(l2m(mesh, sol.u2 - y / 6.0) / scale)
        for errs in (errs_u1, errs_u2):
            assert errs[1] < 0.35 * errs[0]
            assert errs[2] < 0.35 * errs[1]

    def test_zero_mean_invariants(self, rng):
        mesh = gen_icosphere(2)
        f = rng.normal(size=mesh.n_vertices)
        sol = solve_mixed(mesh, f)
        m = assemble_mass(mesh)
        ones = np.ones(mesh.n_vertices)
        for field in (sol.u1, sol.u2):
            mean = ones @ (m @ field)
            assert abs(mean) <= 1e-10 * max(l2m(mesh, field), 1e-30)

    def test_rotation_equivariance(self, rng):
        mesh = gen_icosphere(2)
        y_fn = real_harmonic(2, 0)
        f = interpolate(mesh, y_fn)
        sol = solve_mixed(mesh, f)

        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        rotated = build_mesh(mesh.vertices @ q.T, mesh.faces)
        sol_rot = solve_mixed(rotated, f)
        scale = max(np.max(np.abs(sol.u1)), np.max(np.abs(sol.u2)))
        assert np.max(np.abs(sol_rot.u1 - sol.u1)) <= 1e-9 * scale
        assert np.max(np.abs(sol_rot.u2 - sol.u2)) <= 1e-9 * scale

    def test_tetrahedron_runs(self):
        mesh = tetrahedron()
        f = np.array([1.0, -1.0, 0.5, -0.5])
        sol = solve_mixed(mesh, f)
        assert sol.u1.shape == (4,)
        assert np.isfinite(sol.u1).all()


class TestComponentRule:
    @pytest.mark.parametrize("closed", [1, 2],
                             ids=["cap-and-sphere", "two-spheres"])
    def test_both_solvers_raise_one_message(self, rng, closed):
        # A closed component beside a cap leaves S_II singular on its
        # block, and grounding one vertex fixes the constant of one
        # sphere only; one rule rejects both meshes in both mass modes.
        first = (gen_cap_mesh(np.pi / 3.0, 3) if closed == 1
                 else gen_icosphere(1))
        mesh = disjoint_union(first, gen_icosphere(1))
        f = rng.normal(size=mesh.n_vertices)
        for mode in MASS_MODES:
            with pytest.raises(ComponentError) as info:
                solve_mixed(mesh, f, mass_mode=mode)
            assert str(info.value) == (
                f"mesh has 2 connected components and {closed} of them "
                f"have no boundary vertices; a mesh of more than one "
                f"component needs a boundary on each")


def eliminated_lumped_system(mesh, f):
    """The lumped clamped problem with u2 = M_L^{-1} B^T u1 eliminated:
    B M_L^{-1} B^T u1 = M[interior, :] f, with B the interior rows of
    the stiffness.  Returns the matrix, the right-hand side, B, the
    lumped mass diagonal and the interior vertices."""
    interior = MeshOperators(mesh).interior
    b = assemble_stiffness(mesh)[interior, :]
    lumped = assemble_mass(mesh, mode="lumped").diagonal()
    schur = (b.multiply(1.0 / lumped[None, :]) @ b.T).tocsr()
    rhs = (assemble_mass(mesh) @ f)[interior]
    return schur, rhs, b, lumped, interior


class TestLumpedSchur:
    """The lumped mode runs the condensed clamped solve with M_L in
    place of M; the eliminated system is its oracle."""

    def test_matches_dense_oracle_of_eliminated_system(self, rng):
        mesh = gen_cap_mesh(np.pi / 3.0, 2)
        f = rng.normal(size=mesh.n_vertices)
        sol = solve_mixed(mesh, f, mass_mode="lumped")

        schur, rhs, b, lumped, interior = eliminated_lumped_system(mesh, f)
        u1_i = dense_solve_oracle(schur, rhs)
        u1 = np.zeros(mesh.n_vertices)
        u1[interior] = u1_i
        u2 = (b.T @ u1_i) / lumped
        scale = max(np.max(np.abs(u1)), np.max(np.abs(u2)))
        assert np.max(np.abs(sol.u1 - u1)) <= 1e-9 * scale
        assert np.max(np.abs(sol.u2 - u2)) <= 1e-9 * scale

    @pytest.mark.parametrize("rings", [8, 16, 32])
    def test_matches_sparse_solve_of_eliminated_system(self, rings):
        # Rings 32 has 2,977 interior unknowns, beyond the dense oracle;
        # Jacobi-CG on this system, whose condition grows like h^-4,
        # stalled there.
        mesh = gen_cap_mesh(np.pi / 3.0, rings)
        f = skew_load(mesh)
        sol = solve_mixed(mesh, f, mass_mode="lumped")
        schur, rhs, _, _, interior = eliminated_lumped_system(mesh, f)
        u1_i = spla.spsolve(schur.tocsc(), rhs)
        assert (np.linalg.norm(sol.u1[interior] - u1_i)
                <= 1e-10 * np.linalg.norm(u1_i))

    def test_difference_to_consistent_shrinks(self):
        case = cap_case(1.0, np.pi / 3.0)
        diffs = []
        for rings in (4, 8, 16):
            mesh = gen_cap_mesh(np.pi / 3.0, rings)
            f = interpolate(mesh, case.exact_f)
            a = solve_mixed(mesh, f)
            b = solve_mixed(mesh, f, mass_mode="lumped")
            diffs.append(l2m(mesh, a.u1 - b.u1) / max(l2m(mesh, a.u1), 1e-30))
        assert diffs[1] < 0.5 * diffs[0]
        assert diffs[2] < 0.5 * diffs[1]


class TestVariationalIdentities:
    def test_dirichlet_identities_hold(self, rng):
        mesh = gen_cap_mesh(np.pi / 3.0, 3)
        f = rng.normal(size=mesh.n_vertices)
        sol = solve_mixed(mesh, f, tol=1e-10)
        s = assemble_stiffness(mesh)
        m = assemble_mass(mesh)
        interior = MeshOperators(mesh).interior
        b = s[interior, :]

        r1 = b @ sol.u2 - (m @ f)[interior]
        scale1 = max(np.linalg.norm((m @ f)[interior]), 1e-30)
        assert np.linalg.norm(r1) <= 1e-9 * scale1

        r2 = b.T @ sol.u1[interior] - m @ sol.u2
        scale2 = max(np.linalg.norm(m @ sol.u2), 1e-30)
        assert np.linalg.norm(r2) <= 1e-8 * scale2

    @pytest.mark.parametrize("mesh_fn, solve", [
        (lambda: gen_cap_mesh(np.pi / 3.0, 4), solve_mixed),
        (lambda: gen_icosphere(1), solve_mixed),
        (lambda: gen_icosphere(1), discrete_laplacian),
    ], ids=["clamped", "closed", "discrete-laplacian"])
    def test_non_finite_solve_raises(self, mesh_fn, solve, monkeypatch):
        # A factor that returns NaN must not pass for a converged solve.
        mesh = mesh_fn()
        monkeypatch.setattr(linalg._PermutedFactor, "solve",
                            lambda self, b: np.full(np.shape(b), np.nan))
        with pytest.raises(NotConvergedError, match="relative residual"):
            solve(mesh, mesh.vertices[:, 0] + 1.0)

    @pytest.mark.parametrize("mesh_fn", [
        lambda: gen_cap_mesh(np.pi / 3.0, 8),
        lambda: gen_icosphere(2),
    ], ids=["cap", "icosphere"])
    def test_second_identity_checked(self, mesh_fn, monkeypatch):
        # The second Poisson solve gives u1; scaling it by 1 + 1e-6
        # leaves the first identity exact and breaks the second.
        real_solve = MeshOperators.solve
        calls = []

        def faulty_solve(self, b):
            calls.append(b)
            u = real_solve(self, b)
            return u * (1.0 + 1e-6) if len(calls) == 2 else u

        monkeypatch.setattr(MeshOperators, "solve", faulty_solve)
        mesh = mesh_fn()
        with pytest.raises(NotConvergedError, match="second identity"):
            solve_mixed(mesh, skew_load(mesh))
        assert len(calls) == 2

    def test_solve_report_populated(self, rng):
        mesh = gen_cap_mesh(np.pi / 3.0, 2)
        f = rng.normal(size=mesh.n_vertices)
        for mode in MASS_MODES:
            sol = solve_mixed(mesh, f, mass_mode=mode)
            assert sol.solve_report.relative_residual <= 1e-9
        sphere = gen_icosphere(1)
        sol = solve_mixed(sphere, interpolate(
            sphere, real_harmonic(2, 0)))
        assert sol.solve_report.method == "condensed_cg"
        assert sol.solve_report.iterations == 0
        assert sol.solve_report.relative_residual <= 1e-9
