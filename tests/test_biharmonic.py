"""The one mixed solve, ``solve_mixed``, on meshes with and without
boundary and in both mass modes.  Where a behaviour holds for every
mesh kind or mass mode, one test runs it over all of them."""

import re

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from biharm import linalg
from biharm.biharmonic import solve_mixed
from biharm.cli import main
from biharm.fem import (MeshOperators, assemble_mass, assemble_stiffness,
                        interpolate)
from biharm.linalg import NotConvergedError
from biharm.mesh import build_mesh, max_edge_length
from biharm.surfaces import (cap_case, cap_family, gen_cap_mesh,
                             gen_icosphere, gen_schwarz_lantern,
                             lantern_family, real_harmonic)

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


def jittered_icosphere(level):
    """gen_icosphere(level) with each vertex moved by 0.3 h in a random
    direction and projected back onto the sphere: an obtuse angle pair
    gives its stiffness positive off-diagonal entries."""
    mesh = gen_icosphere(level)
    step = np.random.default_rng(5).normal(size=mesh.vertices.shape)
    step *= 0.3 * max_edge_length(mesh) / np.linalg.norm(step, axis=1)[:, None]
    moved = mesh.vertices + step
    return build_mesh(moved / np.linalg.norm(moved, axis=1)[:, None],
                      mesh.faces)


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

    def test_solution_is_frozen_plain_data(self, rng):
        mesh = gen_cap_mesh(np.pi / 3.0, 3)
        sol = solve_mixed(mesh, rng.normal(size=mesh.n_vertices))
        report = sol.solve_report
        assert report.method == "condensed_cg"
        assert type(report.iterations) is int and report.iterations > 0
        assert type(report.relative_residual) is float
        assert type(sol.f_mean_removed) is float
        with pytest.raises(AttributeError):
            sol.u1 = np.zeros(mesh.n_vertices)
        with pytest.raises(AttributeError):
            report.iterations = 0

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

    @pytest.mark.parametrize("theta0", [0.8, 1.05, 1.3])
    def test_iterations_at_other_cap_angles(self, theta0):
        family = cap_family(theta0, [16, 32, 64])
        for rings, mesh in family.meshes():
            f = interpolate(mesh, family.case.exact_f)
            assert solve_mixed(mesh, f).solve_report.iterations <= 10, rings

    def test_nearly_whole_sphere_cap(self):
        # The rim of the cap at theta0 = 3.14159 is a circle of radius
        # 2.7e-6 and the faces next to it are needles (inradius over
        # longest edge 4.4e-7), yet the boundary CG converges.
        theta0 = 3.14159
        mesh = gen_cap_mesh(theta0, 16)
        report = solve_mixed(
            mesh, interpolate(mesh, cap_case(1.0, theta0).exact_f)
        ).solve_report
        assert report.iterations <= 20
        assert report.relative_residual <= 1e-10

    def test_one_factor_and_three_solves_per_step(self, monkeypatch):
        # Each clamped solve factors S_II once and makes three Poisson
        # solves per boundary-CG step (the product's extension and its
        # adjoint, the preconditioner's extension) plus four: u2_0, the
        # CG right-hand side, the final extension and u1.
        counts = {"factors": 0, "solves": 0}
        real_splu, real_solve = linalg.spla.splu, linalg._PermutedFactor.solve

        def counting_splu(*args, **kwargs):
            counts["factors"] += 1
            return real_splu(*args, **kwargs)

        def counting_solve(self, b):
            counts["solves"] += 1
            return real_solve(self, b)

        monkeypatch.setattr(linalg.spla, "splu", counting_splu)
        monkeypatch.setattr(linalg._PermutedFactor, "solve", counting_solve)
        # Boundary-CG iterations per mass mode at each level.
        expected = [(cap_family(np.pi / 3.0, [16, 32, 64]),
                     {"consistent": [9, 9, 9], "lumped": [16, 18, 19]}),
                    (lantern_family("linear", [32]),
                     {"consistent": [1], "lumped": [1]})]
        for family, iterations in expected:
            for i, (level, mesh) in enumerate(family.meshes()):
                f = interpolate(mesh, family.case.exact_f)
                for mode in MASS_MODES:
                    counts.update(factors=0, solves=0)
                    report = solve_mixed(mesh, f, mass_mode=mode).solve_report
                    want = iterations[mode][i]
                    assert report.iterations == want, (level, mode)
                    assert counts == {"factors": 1, "solves": 3 * want + 4}, (
                        level, mode)

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

    @pytest.mark.parametrize("mesh_fn", [
        lambda: gen_cap_mesh(np.pi / 3.0, 32), lambda: gen_icosphere(4),
        lambda: gen_schwarz_lantern(40, 20),
    ], ids=["cap", "icosphere", "lantern"])
    def test_power_of_two_scaling_is_exact(self, mesh_fn):
        # The solve runs in a power-of-two unit of length and of load,
        # so scaling the mesh by 2^k and the load by 2^j scales u2 by
        # 2^(2k+j) and u1 by 2^(4k+j) bit for bit, even where the
        # products of the caller's unit leave the float64 range.
        mesh = mesh_fn()
        f = np.random.default_rng(7).normal(size=mesh.n_vertices)
        base = solve_mixed(mesh, f)
        for k in (-200, -60, 60, 200):
            scaled = build_mesh(np.ldexp(mesh.vertices, k), mesh.faces)
            for j in (-100, 0, 100):
                sol = solve_mixed(scaled, np.ldexp(f, j))
                assert np.array_equal(sol.u1, np.ldexp(base.u1, 4 * k + j))
                assert np.array_equal(sol.u2, np.ldexp(base.u2, 2 * k + j))
                assert sol.f_mean_removed == np.ldexp(base.f_mean_removed, j)
                assert sol.solve_report == base.solve_report, (k, j)

    def test_failed_boundary_cg_names_solve(self, monkeypatch):
        monkeypatch.setattr(linalg, "_CG_MAXITER", 5)
        mesh = gen_cap_mesh(np.pi / 3.0, 8)
        with pytest.raises(NotConvergedError) as info:
            solve_mixed(mesh, skew_load(mesh), tol=1e-20)
        msg = str(info.value)
        assert "boundary CG" in msg
        assert "after 5 iterations; the smallest was " in msg
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

    @pytest.mark.parametrize("mesh_fn, expected", [
        (lambda: gen_icosphere(4), lambda calls: calls == [(2561, 2561)]),
        (lambda: gen_icosphere(5),
         lambda calls: len(calls) == 1 and max(calls[0]) <= 4096),
        (lambda: jittered_icosphere(5),
         lambda calls: len(calls) == 1 and max(calls[0]) <= 4096),
        (lambda: gen_cap_mesh(np.pi / 3.0, 64),
         lambda calls: calls == [(12097, 12097)]),
    ], ids=["icosphere-4", "icosphere-5", "icosphere-5-jittered", "cap-64"])
    def test_factored_matrices(self, mesh_fn, expected, monkeypatch):
        # The whole grounded stiffness of a closed mesh of at most 4,096
        # vertices, the interior stiffness of a bounded one, and only one
        # coarse matrix on a larger closed mesh, Delaunay or not.
        calls = []
        real_splu = linalg.spla.splu

        def counting_splu(*args, **kwargs):
            calls.append(args[0].shape)
            return real_splu(*args, **kwargs)

        monkeypatch.setattr(linalg.spla, "splu", counting_splu)
        mesh = mesh_fn()
        solve_mixed(mesh, skew_load(mesh))
        assert expected(calls), calls

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


def stretched_icosphere(level):
    """gen_icosphere(level) stretched fourfold along x: its stiffness has
    positive off-diagonal entries, so it is not intrinsically Delaunay."""
    mesh = gen_icosphere(level)
    return build_mesh(mesh.vertices * [4.0, 1.0, 1.0], mesh.faces)


@pytest.fixture(scope="module")
def large_icospheres():
    return {level: gen_icosphere(level) for level in (5, 6)}


@pytest.fixture
def vcycles(monkeypatch):
    """The V-cycles of each multilevel CG solve, one per iteration,
    counted from here on."""
    counts = []
    real_cycle = linalg.MultilevelCG._cycle
    real_solve = linalg.MultilevelCG.solve

    def counting_cycle(self, level, b):
        counts[-1] += level == 0
        return real_cycle(self, level, b)

    def counting_solve(self, b, tol):
        counts.append(0)
        return real_solve(self, b, tol)

    monkeypatch.setattr(linalg.MultilevelCG, "_cycle", counting_cycle)
    monkeypatch.setattr(linalg.MultilevelCG, "solve", counting_solve)
    return counts


class TestMultilevel:
    """The multilevel CG of every closed mesh."""

    def test_matches_grounded_factor(self, large_icospheres, vcycles,
                                     monkeypatch):
        # The oracle factors S[1:, 1:] itself, which no solve does above
        # 4,096 unknowns, Delaunay or not.
        factored = []
        real_splu = linalg.spla.splu

        def counting_splu(matrix, *args, **kwargs):
            factored.append(matrix.shape[0])
            return real_splu(matrix, *args, **kwargs)

        monkeypatch.setattr(linalg.spla, "splu", counting_splu)
        counts = vcycles
        iterations = {}
        meshes = dict(large_icospheres, stretched=stretched_icosphere(5))
        for level, mesh in meshes.items():
            f = skew_load(mesh)
            ops = MeshOperators(mesh)
            grounded = linalg.factor_spd(ops.stiffness[1:, 1:],
                                         mesh.vertices[1:])

            def poisson(b):
                u = np.append(0.0, grounded.solve(b[1:]))
                return u - ops.mean(u)

            u2 = poisson(ops.project(ops.mass @ (f - ops.mean(f))))
            counts.clear()
            factored.clear()
            for mode in MASS_MODES:
                sol = solve_mixed(mesh, f, mass_mode=mode)
                u1 = poisson(ops.project(assemble_mass(mesh, mode) @ u2))
                for got, want in ((sol.u1, u1), (sol.u2, u2)):
                    assert (np.max(np.abs(got - want))
                            <= 1e-10 * np.max(np.abs(want))), (level, mode)
            assert len(counts) == 4
            assert len(factored) == 2 and max(factored) <= 4096, factored
            iterations[level] = max(counts)
        assert iterations[6] <= iterations[5] <= 25, iterations
        assert iterations["stretched"] <= 60, iterations

    def test_stretched_mesh_is_not_delaunay(self):
        stiffness = assemble_stiffness(stretched_icosphere(5))
        assert (sp.triu(stiffness, 1) > 0).nnz == 6952

    def test_small_mesh_takes_one_vcycle(self, vcycles):
        # At most 4,096 vertices the hierarchy has no level: the V-cycle
        # is the grounded factor, and CG stops after one step.
        mesh = gen_icosphere(3)
        for mode in MASS_MODES:
            solve_mixed(mesh, skew_load(mesh), mass_mode=mode)
        assert vcycles == [1, 1, 1, 1]

    def test_repeats_bit_for_bit(self, large_icospheres):
        mesh = large_icospheres[5]
        first, second = (solve_mixed(mesh, skew_load(mesh)) for _ in range(2))
        assert np.array_equal(first.u1, second.u1)
        assert np.array_equal(first.u2, second.u2)

    def test_stops_when_the_residual_stagnates(self, tmp_path, capsys,
                                               vcycles):
        # tol 1e-14 asks the CG for 1e-16, below rounding level: the
        # residual of the first solve reaches about 1e-15 and then drifts.
        code = main(["solve", "--case", "sphere", "--n", "5", "--tol",
                     "1e-14", "--out", str(tmp_path / "out")])
        assert code == 3
        assert len(vcycles) == 1 and vcycles[0] < 50, vcycles
        stop, best = map(int, re.search(
            r"after (\d+) iterations; the smallest was \S+, at iteration "
            r"(\d+)", capsys.readouterr().err).groups())
        assert stop == vcycles[0] == best + linalg._CG_STALL

    def test_not_converged_names_the_solve(self, large_icospheres,
                                           monkeypatch):
        monkeypatch.setattr(linalg, "_CG_MAXITER", 2)
        mesh = large_icospheres[5]
        with pytest.raises(NotConvergedError,
                           match=r"multilevel CG of the 10242 x 10242 "
                                 r"stiffness solve stopped at relative "
                                 r"residual .* after 2 iterations"):
            solve_mixed(mesh, skew_load(mesh))


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
            with pytest.raises(ValueError) as info:
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
        # The last Poisson solve gives u1 (the second on a closed mesh,
        # about the 40th on a cap); scaling it by 1 + 1e-6 leaves the
        # first identity exact and breaks the second.
        real_solve = MeshOperators.solve
        calls, faulty = [], []

        def counting_solve(self, b):
            calls.append(b)
            u = real_solve(self, b)
            return u * (1.0 + 1e-6) if len(calls) in faulty else u

        monkeypatch.setattr(MeshOperators, "solve", counting_solve)
        mesh = mesh_fn()
        solve_mixed(mesh, skew_load(mesh))
        faulty.append(len(calls))
        calls.clear()
        with pytest.raises(NotConvergedError, match="second identity"):
            solve_mixed(mesh, skew_load(mesh))
        assert len(calls) == faulty[0]

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
