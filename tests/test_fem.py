import numpy as np
import pytest

from biharm import linalg
from biharm.fem import (MeshOperators, assemble_mass, assemble_stiffness,
                        interpolate, p1_gradients)
from biharm.linalg import NotConvergedError
from biharm.surfaces import gen_icosphere, real_harmonic

from conftest import grid_mesh, single_triangle, tetrahedron
from helpers import discrete_laplacian


class TestStiffness:
    def test_right_triangle_entries(self):
        s = assemble_stiffness(single_triangle()).toarray()
        expected = np.array([[1.0, -0.5, -0.5],
                             [-0.5, 0.5, 0.0],
                             [-0.5, 0.0, 0.5]])
        assert s == pytest.approx(expected, abs=1e-14)

    def test_constant_in_kernel(self):
        for mesh in (grid_mesh(4), tetrahedron(), grid_mesh(3, shear=0.6)):
            s = assemble_stiffness(mesh)
            r = s @ np.ones(mesh.n_vertices)
            assert np.max(np.abs(r)) <= 1e-12

    def test_dirichlet_energy_of_linear_field(self):
        mesh = grid_mesh(5)
        u = mesh.vertices[:, 0].copy()
        s = assemble_stiffness(mesh)
        assert u @ (s @ u) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self):
        s = assemble_stiffness(grid_mesh(4, shear=0.4))
        assert abs(s - s.T).max() <= 1e-14

    def test_positive_semidefinite(self, rng):
        s = assemble_stiffness(grid_mesh(4, shear=0.7))
        for _ in range(20):
            x = rng.normal(size=s.shape[0])
            assert x @ (s @ x) >= -1e-12 * np.dot(x, x)

    def test_obtuse_gives_positive_offdiagonal(self):
        s = assemble_stiffness(grid_mesh(3, shear=0.9)).toarray()
        off = s - np.diag(np.diag(s))
        assert off.max() > 0.0

    def test_galerkin_consistency(self, rng):
        mesh = grid_mesh(4, shear=0.3)
        s = assemble_stiffness(mesh)
        u = rng.normal(size=mesh.n_vertices)
        v = rng.normal(size=mesh.n_vertices)
        grads_u = p1_gradients(mesh, u)
        grads_v = p1_gradients(mesh, v)
        direct = np.sum(mesh.face_areas * np.sum(grads_u * grads_v, axis=1))
        assert u @ (s @ v) == pytest.approx(direct, abs=1e-10)


class TestMass:
    def test_right_triangle_consistent(self):
        m = assemble_mass(single_triangle()).toarray()
        expected = np.array([[2.0, 1.0, 1.0],
                             [1.0, 2.0, 1.0],
                             [1.0, 1.0, 2.0]]) / 24.0
        assert m == pytest.approx(expected, abs=1e-15)

    def test_right_triangle_lumped(self):
        m = assemble_mass(single_triangle(), mode="lumped").toarray()
        assert m == pytest.approx(np.eye(3) / 6.0, abs=1e-15)

    def test_total_mass_is_area(self):
        for mesh in (grid_mesh(4), tetrahedron(), gen_icosphere(2)):
            area = mesh.face_areas.sum()
            for mode in ("consistent", "lumped"):
                m = assemble_mass(mesh, mode=mode)
                ones = np.ones(mesh.n_vertices)
                assert ones @ (m @ ones) == pytest.approx(area, rel=1e-12)

    def test_lumped_equals_consistent_row_sums(self):
        mesh = grid_mesh(3, shear=0.5)
        mc = assemble_mass(mesh, mode="consistent")
        ml = assemble_mass(mesh, mode="lumped")
        row_sums = np.asarray(mc.sum(axis=1)).ravel()
        lumped_diag = ml.diagonal()
        assert lumped_diag == pytest.approx(row_sums, rel=1e-14)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            assemble_mass(single_triangle(), mode="diagonal")


class TestPartition:
    def test_grid_partition(self):
        mesh = grid_mesh(2)
        ops = MeshOperators(mesh)
        assert len(ops.interior) == 1
        assert len(ops.boundary) == 8
        interior = int(ops.interior[0])
        assert mesh.vertices[interior] == pytest.approx([0.5, 0.5, 0.0])

    def test_closed_mesh_all_interior(self):
        ops = MeshOperators(tetrahedron())
        assert len(ops.interior) == 4
        assert len(ops.boundary) == 0
        assert ops.b_block is ops.stiffness


class TestMeshOperators:
    def test_operators_match_assembly(self):
        mesh = grid_mesh(3, shear=0.4)
        ops = MeshOperators(mesh)
        s = assemble_stiffness(mesh)
        assert (ops.stiffness != s).nnz == 0
        assert (ops.mass != assemble_mass(mesh, "consistent")).nnz == 0
        assert (ops.b_block != s[ops.interior, :]).nnz == 0

    def test_factors_built_once_on_first_use(self, monkeypatch, rng):
        calls = []
        real_factor = linalg.factor_spd

        def counting_factor(matrix, points):
            calls.append(matrix.shape)
            return real_factor(matrix, points)

        monkeypatch.setattr("biharm.fem.factor_spd", counting_factor)
        # The interior stiffness of a bounded mesh, the stiffness
        # grounded at vertex 0 of a closed one.
        for mesh, closed in ((grid_mesh(4), False), (gen_icosphere(2), True)):
            calls.clear()
            ops = MeshOperators(mesh)
            assert calls == []
            n = mesh.n_vertices
            free = np.arange(1, n) if closed else ops.interior
            assert np.array_equal(ops.free, free)
            b = rng.normal(size=free.size)
            for _ in range(2):
                x = ops.factor.solve(b)
            assert calls == [(free.size, free.size)]
            s_ff = ops.stiffness[free, :][:, free]
            assert np.linalg.norm(s_ff @ x - b) <= 1e-12 * np.linalg.norm(b)


class TestInterpolate:
    def test_coordinate_field(self):
        mesh = grid_mesh(3)
        u = interpolate(mesh, lambda p: p[..., 0])
        assert np.array_equal(u, mesh.vertices[:, 0])

    def test_scalar_callable(self):
        # A function of one point is called once on all the vertices
        # and gives one number, which is no nodal field.
        mesh = grid_mesh(2)
        with pytest.raises(ValueError, match=r"field shape \(\) does not "
                                             r"match vertex count 9"):
            interpolate(mesh, lambda p: float(p[0, 0] + 2.0 * p[0, 1]))

    @pytest.mark.parametrize("fn", [lambda p: p[:, :2], lambda p: p[1:, 0]],
                             ids=["two-columns", "too-short"])
    def test_wrong_shape_raises(self, fn):
        mesh = grid_mesh(2)
        with pytest.raises(ValueError, match=r"field shape .* does not "
                                             r"match vertex count 9"):
            interpolate(mesh, fn)

    def test_harmonic_range(self):
        mesh = gen_icosphere(3)
        y = interpolate(mesh, real_harmonic(2, 0))
        assert y.min() >= -0.5 - 1e-12
        assert y.max() <= 1.0 + 1e-12
        assert y.max() == pytest.approx(1.0, abs=1e-12)


class TestGradients:
    def test_constant_field(self):
        mesh = grid_mesh(3)
        g = p1_gradients(mesh, np.full(mesh.n_vertices, 7.0))
        assert np.max(np.abs(g)) <= 1e-13

    def test_linear_field(self):
        mesh = grid_mesh(3)
        g = p1_gradients(mesh, mesh.vertices[:, 0].copy())
        expected = np.tile([1.0, 0.0, 0.0], (mesh.n_faces, 1))
        assert g == pytest.approx(expected, abs=1e-13)

    def test_edge_directional_derivative(self, rng):
        mesh = gen_icosphere(1)
        u = rng.normal(size=mesh.n_vertices)
        g = p1_gradients(mesh, u)
        for f in range(0, mesh.n_faces, 7):
            tri = mesh.faces[f]
            for k in range(3):
                a, b = int(tri[k]), int(tri[(k + 1) % 3])
                edge = mesh.vertices[b] - mesh.vertices[a]
                assert np.dot(g[f], edge) == pytest.approx(
                    u[b] - u[a], abs=1e-12)


class TestDiscreteLaplacian:
    def test_zero_field(self):
        mesh = grid_mesh(3)
        v = discrete_laplacian(mesh, np.zeros(mesh.n_vertices))
        assert np.all(v == 0.0)

    def test_flat_sine_weak_convergence(self):
        # The operator encodes natural boundary data, so v2 is compared
        # with 2 pi^2 u in the weak sense, paired against a field with
        # zero Cauchy data.  The pairing error shrinks at second order.
        errors = []
        for n in (8, 16, 32):
            mesh = grid_mesh(n)
            x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
            u = np.sin(np.pi * x) * np.sin(np.pi * y)
            v = discrete_laplacian(mesh, u)
            m = assemble_mass(mesh)
            mu = (x * (1.0 - x) * y * (1.0 - y)) ** 2
            errors.append(abs((v - 2.0 * np.pi ** 2 * u) @ (m @ mu)))
        assert errors[1] < 0.35 * errors[0]
        assert errors[2] < 0.35 * errors[1]

    def test_sphere_harmonic_eigenvalue(self):
        errors = []
        for level in (2, 3, 4):
            mesh = gen_icosphere(level)
            y = interpolate(mesh, real_harmonic(2, 0))
            v = discrete_laplacian(mesh, y)
            m = assemble_mass(mesh)
            err = v - 6.0 * y
            ref = 6.0 * y
            rel = np.sqrt(err @ (m @ err)) / np.sqrt(ref @ (m @ ref))
            errors.append(rel)
        assert errors[1] < 0.7 * errors[0]
        assert errors[2] < 0.7 * errors[1]

    def test_weak_identity(self, rng):
        mesh = tetrahedron()
        u = rng.normal(size=4)
        v = discrete_laplacian(mesh, u)
        s = assemble_stiffness(mesh)
        m = assemble_mass(mesh)
        eta = rng.normal(size=4)
        assert v @ (m @ eta) == pytest.approx(u @ (s @ eta), abs=1e-10)

    def test_boundary_values_ignored(self, rng):
        mesh = grid_mesh(3)
        boundary = mesh.boundary_vertices
        u = rng.normal(size=mesh.n_vertices)
        u_mod = u.copy()
        u_mod[boundary] += rng.normal(size=len(boundary))
        v_a = discrete_laplacian(mesh, u)
        v_b = discrete_laplacian(mesh, u_mod)
        assert v_a == pytest.approx(v_b, abs=1e-9)

    def test_unreachable_tolerance_raises(self, rng):
        mesh = grid_mesh(3)
        with pytest.raises(NotConvergedError, match="discrete Laplacian"):
            discrete_laplacian(mesh, rng.normal(size=mesh.n_vertices),
                               tol=1e-30)
