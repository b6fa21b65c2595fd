import warnings

import numpy as np
import pytest

from biharm.mesh import max_edge_length
from biharm.surfaces import (InvalidAngleError, InvalidCountsError,
                             InvalidDegreeError, InvalidDimensionError,
                             OutsideReachError, TooFewRingsError, cap_case,
                             cap_family, cylinder_case, gen_cap_mesh,
                             gen_icosphere, gen_schwarz_lantern,
                             lantern_family, real_harmonic, sphere_case,
                             sphere_family)

from fd_oracles import axial_laplacian_fd, polar_laplacian_fd


def cap_point(theta, phi=0.0, radius=1.0):
    return radius * np.array([np.sin(theta) * np.cos(phi),
                              np.sin(theta) * np.sin(phi),
                              np.cos(theta)])


class TestClosestPoint:
    def test_sphere_radial(self):
        case = sphere_case(1.0, 2, 0)
        assert case.closest_point(np.array([0.0, 0.0, 2.0])) == pytest.approx(
            [0.0, 0.0, 1.0])

    def test_cylinder_cross_section(self):
        case = cylinder_case(1.0, 2.0)
        p = case.closest_point(np.array([2.0, 0.0, 0.3]))
        assert p == pytest.approx([1.0, 0.0, 0.3])

    def test_cylinder_axial_clamp(self):
        case = cylinder_case(1.0, 2.0)
        p = case.closest_point(np.array([2.0, 0.0, 5.0]))
        assert p == pytest.approx([1.0, 0.0, 1.0])

    def test_idempotent(self, rng):
        cases = [cap_case(1.0, np.pi / 3.0), sphere_case(1.0, 2, 0),
                 cylinder_case(1.0, 2.0)]
        for case in cases:
            pts = rng.normal(size=(1000, 3)) + np.array([0.5, 0.0, 0.0])
            projected = case.closest_point(pts)
            again = case.closest_point(projected)
            assert np.max(np.abs(again - projected)) <= 1e-12

    def test_sphere_center_outside_reach(self):
        case = sphere_case(1.0, 2, 0)
        with pytest.raises(OutsideReachError):
            case.closest_point(np.zeros(3))

    def test_cylinder_axis_outside_reach(self):
        case = cylinder_case(1.0, 2.0)
        with pytest.raises(OutsideReachError):
            case.closest_point(np.array([0.0, 0.0, 0.5]))

    def test_normal_at_unit_length(self, rng):
        case = sphere_case(1.0, 2, 0)
        pts = case.closest_point(rng.normal(size=(50, 3)))
        normals = case.normal_at(pts)
        assert np.linalg.norm(normals, axis=1) == pytest.approx(
            np.ones(50), abs=1e-12)
        assert normals == pytest.approx(pts, abs=1e-12)


class TestLeadingShape:
    """Every field maps points of any leading shape, one point included,
    to one value or vector per point."""

    CASES = {"cap": cap_case(1.0, np.pi / 3.0),
             "cylinder": cylinder_case(1.0, 2.0),
             "sphere": sphere_case(1.0, 3, -2)}

    @pytest.mark.parametrize("field", [
        "closest_point", "normal_at", "exact_u", "exact_grad_u",
        "exact_lap_u", "exact_f"])
    @pytest.mark.parametrize("kind", list(CASES))
    def test_grid_matches_rows_and_points(self, rng, kind, field):
        evaluate = getattr(self.CASES[kind], field)
        points = rng.normal(size=(5, 6, 3)) + np.array([0.5, 0.0, 0.0])
        rows = evaluate(points.reshape(30, 3))
        grid = evaluate(points)
        assert grid.shape == (5, 6) + rows.shape[1:]
        assert grid.reshape(rows.shape).tobytes() == rows.tobytes()
        for point, row in zip(points.reshape(30, 3), rows):
            assert np.asarray(evaluate(point)).tobytes() == row.tobytes()


class TestCapCase:
    def test_pole_values(self):
        case = cap_case(1.0, np.pi / 3.0)
        pole = np.array([0.0, 0.0, 1.0])
        assert case.exact_u(pole) == pytest.approx(0.25)
        assert case.exact_f(pole) == pytest.approx(20.0)

    def test_boundary_f_value(self):
        case = cap_case(1.0, np.pi / 3.0)
        p = cap_point(np.pi / 3.0)
        assert case.exact_f(p) == pytest.approx(-5.0)

    def test_clamped_boundary_conditions(self, rng):
        case = cap_case(1.0, np.pi / 3.0)
        phis = rng.uniform(0.0, 2.0 * np.pi, size=100)
        pts = np.stack([cap_point(np.pi / 3.0, phi) for phi in phis])
        assert np.max(np.abs(case.exact_u(pts))) <= 1e-10
        grads = case.exact_grad_u(pts)
        assert np.max(np.abs(grads)) <= 1e-10

    def test_radius_scaling(self):
        theta = 0.4
        unit = cap_case(1.0, np.pi / 3.0)
        big = cap_case(2.0, np.pi / 3.0)
        p1 = cap_point(theta)
        p2 = cap_point(theta, radius=2.0)
        assert big.exact_u(p2) == pytest.approx(unit.exact_u(p1))
        assert big.exact_lap_u(p2) == pytest.approx(unit.exact_lap_u(p1) / 4.0)
        assert big.exact_f(p2) == pytest.approx(unit.exact_f(p1) / 16.0)

    def test_fd_oracle_laplacian(self):
        case = cap_case(1.0, np.pi / 3.0)
        thetas = np.linspace(0.2, np.pi / 3.0, 401)
        pts = np.stack([cap_point(t) for t in thetas])
        g = case.exact_u(pts)
        lap_fd = polar_laplacian_fd(g, thetas)
        lap_exact = case.exact_lap_u(pts)[2:-2]
        scale = np.max(np.abs(lap_exact))
        assert np.max(np.abs(lap_fd - lap_exact)) <= 1e-6 * scale

    def test_fd_oracle_bilaplacian(self):
        case = cap_case(1.0, np.pi / 3.0)
        thetas = np.linspace(0.2, np.pi / 3.0, 401)
        pts = np.stack([cap_point(t) for t in thetas])
        lap = case.exact_lap_u(pts)
        f_fd = polar_laplacian_fd(lap, thetas)
        f_exact = case.exact_f(pts)[2:-2]
        scale = np.max(np.abs(f_exact))
        assert np.max(np.abs(f_fd - f_exact)) <= 1e-4 * scale

    def test_invalid_angle(self):
        with pytest.raises(InvalidAngleError):
            cap_case(1.0, 0.0)
        with pytest.raises(InvalidAngleError):
            cap_case(1.0, np.pi)


class TestCylinderCase:
    def test_midplane_values(self):
        case = cylinder_case(1.0, 2.0)
        p = np.array([1.0, 0.0, 0.0])
        assert case.exact_u(p) == pytest.approx(1.0)
        assert case.exact_lap_u(p) == pytest.approx(4.0)
        assert case.exact_f(p) == pytest.approx(24.0)

    def test_f_constant(self, rng):
        case = cylinder_case(1.0, 2.0)
        phis = rng.uniform(0.0, 2.0 * np.pi, size=40)
        zs = rng.uniform(-1.0, 1.0, size=40)
        pts = np.stack([np.cos(phis), np.sin(phis), zs], axis=1)
        assert case.exact_f(pts) == pytest.approx(np.full(40, 24.0))

    def test_clamped_boundary_conditions(self, rng):
        case = cylinder_case(1.0, 2.0)
        for z in (-1.0, 1.0):
            phis = rng.uniform(0.0, 2.0 * np.pi, size=100)
            pts = np.stack([np.cos(phis), np.sin(phis),
                            np.full(100, z)], axis=1)
            assert np.max(np.abs(case.exact_u(pts))) <= 1e-10
            assert np.max(np.abs(case.exact_grad_u(pts))) <= 1e-10

    def test_fd_oracle_laplacian(self):
        case = cylinder_case(1.0, 2.0)
        zs = np.linspace(-1.0, 1.0, 401)
        pts = np.stack([np.ones_like(zs), np.zeros_like(zs), zs], axis=1)
        g = case.exact_u(pts)
        lap_fd = axial_laplacian_fd(g, zs)
        lap_exact = case.exact_lap_u(pts)[2:-2]
        scale = np.max(np.abs(lap_exact))
        assert np.max(np.abs(lap_fd - lap_exact)) <= 1e-6 * scale

    def test_fd_oracle_bilaplacian(self):
        case = cylinder_case(1.0, 2.0)
        zs = np.linspace(-1.0, 1.0, 401)
        pts = np.stack([np.ones_like(zs), np.zeros_like(zs), zs], axis=1)
        lap = case.exact_lap_u(pts)
        f_fd = axial_laplacian_fd(lap, zs)
        f_exact = case.exact_f(pts)[2:-2]
        assert np.max(np.abs(f_fd - f_exact)) <= 1e-4 * 24.0

    def test_invalid_dimensions(self):
        with pytest.raises(InvalidDimensionError):
            cylinder_case(0.0, 2.0)
        with pytest.raises(InvalidDimensionError):
            cylinder_case(1.0, -1.0)


class TestSphereCase:
    def test_degree_two_fields(self, rng):
        case = sphere_case(1.0, 2, 0)
        y = real_harmonic(2, 0)
        pts = case.closest_point(rng.normal(size=(30, 3)))
        vals = y(pts)
        assert case.exact_u(pts) == pytest.approx(vals / 36.0, abs=1e-13)
        assert case.exact_lap_u(pts) == pytest.approx(vals / 6.0, abs=1e-13)
        assert case.exact_f(pts) == pytest.approx(vals, abs=1e-13)

    def test_degree_one_eigenrelation(self, rng):
        case = sphere_case(1.0, 1, 0)
        pts = case.closest_point(rng.normal(size=(30, 3)))
        assert case.exact_f(pts) == pytest.approx(4.0 * case.exact_u(pts))

    def test_harmonic_zero_mean(self):
        mesh = gen_icosphere(4)
        from biharm.fem import assemble_mass, interpolate
        y = interpolate(mesh, real_harmonic(2, 0))
        m = assemble_mass(mesh)
        mean = np.ones(mesh.n_vertices) @ (m @ y) / mesh.face_areas.sum()
        assert abs(mean) <= 1e-4

    def test_nonaxisymmetric_fd_oracle(self):
        case = sphere_case(1.0, 2, 1)
        thetas = np.linspace(0.3, np.pi - 0.3, 401)
        pts = np.stack([cap_point(t) for t in thetas])
        g = case.exact_u(pts)
        lap_fd = polar_laplacian_fd(g, thetas, azimuthal_order=1)
        lap_exact = case.exact_lap_u(pts)[2:-2]
        scale = np.max(np.abs(lap_exact))
        assert np.max(np.abs(lap_fd - lap_exact)) <= 1e-6 * scale

    def test_invalid_degree(self):
        with pytest.raises(InvalidDegreeError, match="l >= 1"):
            sphere_case(1.0, 0, 0)
        with pytest.raises(InvalidDegreeError, match=r"\|m\| <= l"):
            sphere_case(1.0, 2, 3)

    @pytest.mark.parametrize("degree, order", [(2, 5), (2, -3), (-3, 0),
                                               (-1, -1)])
    def test_harmonic_rejects_invalid_degree(self, degree, order):
        with pytest.raises(InvalidDegreeError,
                           match=f"got l={degree}, m={order}"):
            real_harmonic(degree, order)

    def test_harmonic_degree_zero_is_constant(self):
        pts = np.random.default_rng(3).normal(size=(20, 3))
        assert np.all(real_harmonic(0, 0)(pts) == 1.0)


class TestCapMesh:
    def test_matches_ring_by_ring_stitching(self):
        # Reference: each ring built on its own, ring pairs stitched by
        # walking both rings' next angles, the outer ring first on ties.
        def reference(theta0, rings, radius):
            vertices = [np.array([0.0, 0.0, radius])]
            ring_start = [None]
            ring_phis = [None]
            for j in range(1, rings + 1):
                theta = theta0 * j / rings
                count = 6 * j
                phis = 2.0 * np.pi * np.arange(count) / count
                ring_start.append(len(vertices))
                ring_phis.append(phis)
                st, ct = np.sin(theta), np.cos(theta)
                vertices.extend(np.stack([radius * st * np.cos(phis),
                                          radius * st * np.sin(phis),
                                          np.full(count, radius * ct)],
                                         axis=1))
            faces = [[0, 1 + k, 1 + (k + 1) % 6] for k in range(6)]
            for j in range(1, rings):
                inner_phis, outer_phis = ring_phis[j], ring_phis[j + 1]
                n_in, n_out = len(inner_phis), len(outer_phis)
                s_in, s_out = ring_start[j], ring_start[j + 1]
                i = k = 0
                while i < n_in or k < n_out:
                    next_in = (inner_phis[i + 1] if i + 1 < n_in
                               else 2.0 * np.pi)
                    next_out = (outer_phis[k + 1] if k + 1 < n_out
                                else 2.0 * np.pi)
                    if k < n_out and (i == n_in or next_out <= next_in):
                        faces.append([s_out + k, s_out + (k + 1) % n_out,
                                      s_in + i % n_in])
                        k += 1
                    else:
                        faces.append([s_in + i, s_out + k % n_out,
                                      s_in + (i + 1) % n_in])
                        i += 1
            return np.asarray(vertices), np.asarray(faces)

        for theta0, radius in [(np.pi / 3.0, 1.0), (0.8, 2.5), (1.3, 0.7),
                               (3.0, 1.0)]:
            for rings in list(range(2, 20)) + [31, 64, 128]:
                vertices, faces = reference(theta0, rings, radius)
                mesh = gen_cap_mesh(theta0, rings, radius)
                assert np.array_equal(mesh.faces, faces)
                assert (mesh.vertices.tobytes()
                        == np.ascontiguousarray(vertices).tobytes())

    def test_counts_and_inscription(self):
        mesh = gen_cap_mesh(np.pi / 3.0, 2)
        assert mesh.n_vertices == 1 + 3 * 2 * 3
        assert mesh.n_faces == 6 * 4
        assert len(mesh.boundary_vertices) == 12
        norms = np.linalg.norm(mesh.vertices, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-14

    def test_outer_ring_on_boundary_circle(self):
        mesh = gen_cap_mesh(np.pi / 3.0, 4)
        z_boundary = mesh.vertices[mesh.boundary_vertices, 2]
        assert np.max(np.abs(z_boundary - np.cos(np.pi / 3.0))) <= 1e-14

    def test_boundary_triangles_single_boundary_edge(self):
        mesh = gen_cap_mesh(np.pi / 3.0, 3)
        boundary = set(map(tuple, np.sort(mesh.boundary_edges, axis=1)))
        for face in mesh.faces:
            count = 0
            for k in range(3):
                a, b = int(face[k]), int(face[(k + 1) % 3])
                if (min(a, b), max(a, b)) in boundary:
                    count += 1
            assert count <= 1

    def test_h_ratio_under_doubling(self):
        h = [max_edge_length(gen_cap_mesh(np.pi / 3.0, r))
             for r in (8, 16, 32)]
        assert 0.45 <= h[1] / h[0] <= 0.55
        assert 0.45 <= h[2] / h[1] <= 0.55

    def test_aspect_ratio_bounded(self):
        from biharm.mesh import circumradius_ratios, inradius_ratios
        for rings in (2, 4, 8, 16):
            mesh = gen_cap_mesh(np.pi / 3.0, rings)
            aspect = circumradius_ratios(mesh) / (2.0 * inradius_ratios(mesh))
            assert np.max(aspect) <= 4.0

    def test_too_few_rings(self):
        with pytest.raises(TooFewRingsError):
            gen_cap_mesh(np.pi / 3.0, 1)


class TestIcosphere:
    def test_base_counts(self):
        mesh = gen_icosphere(0)
        assert mesh.n_vertices == 12
        assert mesh.n_faces == 20
        assert mesh.is_closed

    def test_subdivided_counts(self):
        for k in (1, 2, 3):
            mesh = gen_icosphere(k)
            assert mesh.n_faces == 20 * 4 ** k
            assert mesh.n_vertices == 10 * 4 ** k + 2

    def test_reprojection_radius(self):
        mesh = gen_icosphere(2, radius=2.0)
        norms = np.linalg.norm(mesh.vertices, axis=1)
        assert np.max(np.abs(norms - 2.0)) <= 2.0 * 1e-14

    def test_h_halves_per_level(self):
        h = [max_edge_length(gen_icosphere(k)) for k in (1, 2, 3)]
        assert 0.45 <= h[1] / h[0] <= 0.55
        assert 0.45 <= h[2] / h[1] <= 0.55

    def test_matches_edge_by_edge_subdivision(self):
        # Reference: one midpoint per edge, numbered when the edge is
        # first met in face order, each vertex scaled on its own.
        from biharm.surfaces import _ICO_FACES, _ICO_VERTS
        for radius in (1.0, 2.5):
            verts = [v * (radius / np.linalg.norm(v)) for v in _ICO_VERTS]
            faces = [tuple(face) for face in _ICO_FACES]
            for k in range(1, 4):
                midpoint = {}

                def mid(a, b):
                    key = (a, b) if a < b else (b, a)
                    if key not in midpoint:
                        p = 0.5 * (verts[a] + verts[b])
                        verts.append(p * (radius / np.linalg.norm(p)))
                        midpoint[key] = len(verts) - 1
                    return midpoint[key]

                refined = []
                for v0, v1, v2 in faces:
                    a, b, c = mid(v0, v1), mid(v1, v2), mid(v2, v0)
                    refined.extend([(v0, a, c), (a, v1, b), (c, b, v2),
                                    (a, b, c)])
                faces = refined
                mesh = gen_icosphere(k, radius)
                assert np.array_equal(mesh.faces, np.asarray(faces))
                assert np.array_equal(mesh.vertices, np.asarray(verts))


def lantern_loops(m, n, radius=1.0, height=2.0):
    """Vertices and faces of the Schwarz lantern built ring by ring and
    face by face, the oracle of the vectorized generator."""
    a = 0.5 * height
    verts = np.empty(((n + 1) * m, 3))
    for j in range(n + 1):
        phis = (2.0 * np.pi * np.arange(m) + np.pi * (j % 2)) / m
        verts[j * m:(j + 1) * m, 0] = radius * np.cos(phis)
        verts[j * m:(j + 1) * m, 1] = radius * np.sin(phis)
        verts[j * m:(j + 1) * m, 2] = -a + height * j / n

    faces = []
    for j in range(n):
        lo, hi = j * m, (j + 1) * m
        for k in range(m):
            k1 = (k + 1) % m
            if j % 2 == 0:
                faces.append([lo + k, lo + k1, hi + k])
                faces.append([hi + k, lo + k1, hi + k1])
            else:
                faces.append([lo + k, lo + k1, hi + k1])
                faces.append([lo + k, hi + k1, hi + k])
    return verts, np.asarray(faces)


class TestSchwarzLantern:
    @pytest.mark.parametrize("args", [(3, 2), (4, 3), (5, 25), (7, 49),
                                      (256, 128), (8, 4, 1.3, 2.7)])
    def test_matches_loop_oracle_bitwise(self, args):
        mesh = gen_schwarz_lantern(*args)
        verts, faces = lantern_loops(*args)
        assert mesh.vertices.dtype == verts.dtype
        assert np.array_equal(mesh.vertices, verts)
        assert mesh.faces.dtype == faces.dtype
        assert np.array_equal(mesh.faces, faces)

    def test_counts(self):
        mesh = gen_schwarz_lantern(3, 2)
        assert mesh.n_vertices == 9
        assert mesh.n_faces == 12

    def test_inscribed(self):
        mesh = gen_schwarz_lantern(8, 5, radius=1.0, height=2.0)
        r = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
        assert np.max(np.abs(r - 1.0)) <= 1e-14

    def test_boundary_is_two_rings(self):
        m, n = 7, 4
        mesh = gen_schwarz_lantern(m, n)
        assert len(mesh.boundary_vertices) == 2 * m
        z = mesh.vertices[mesh.boundary_vertices, 2]
        assert np.all(np.isclose(np.abs(z), 1.0))

    def test_quadratic_coupling_needle_degeneration(self):
        # On the m = n^2 needle lantern the triangle normals still
        # approach the cylinder normal (the faces flatten onto the
        # surface), but the triangles degenerate into needles: the
        # inradius ratio collapses.  This is the mechanism that breaks
        # shape regularity for this family.
        from biharm.mesh import inradius_ratios
        angles = []
        kappas = []
        for n in (4, 8, 16):
            mesh = gen_schwarz_lantern(n * n, n)
            case = cylinder_case(1.0, 2.0)
            centroids = mesh.vertices[mesh.faces].mean(axis=1)
            on_surface = case.closest_point(centroids)
            exact_normals = case.normal_at(on_surface)
            cosines = np.sum(mesh.face_normals * exact_normals, axis=1)
            angles.append(np.max(np.arccos(np.clip(cosines, -1.0, 1.0))))
            kappas.append(inradius_ratios(mesh).min())
        assert angles[1] < angles[0]
        assert angles[2] < angles[1]
        assert kappas[1] < 0.75 * kappas[0]
        assert kappas[2] < 0.75 * kappas[1]

    def test_linear_coupling_keeps_shape_regularity(self):
        from biharm.mesh import inradius_ratios
        kappas = [inradius_ratios(gen_schwarz_lantern(2 * n, n)).min()
                  for n in (8, 16, 32)]
        assert min(kappas) > 0.2

    def test_invalid_counts(self):
        with pytest.raises(InvalidCountsError):
            gen_schwarz_lantern(2, 4)
        with pytest.raises(InvalidCountsError):
            gen_schwarz_lantern(6, 1)


class TestGeneratorRadius:
    @pytest.mark.parametrize("radius", [-1.0, 0.0, np.nan, np.inf])
    @pytest.mark.parametrize("generate", [
        lambda radius: gen_icosphere(2, radius),
        lambda radius: gen_cap_mesh(1.0, 4, radius)],
        ids=["icosphere", "cap"])
    def test_invalid_radius(self, generate, radius):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidDimensionError,
                               match="radius must be positive and finite"):
                generate(radius)


class TestRefinementFamilies:
    def test_h_strictly_decreasing(self):
        families = [cap_family(np.pi / 3.0, [2, 4, 8]),
                    sphere_family(2, 0, [0, 1, 2]),
                    lantern_family("linear", [4, 8, 16]),
                    lantern_family("quadratic", [4, 6, 8])]
        for family in families:
            hs = [max_edge_length(mesh) for _, mesh in family.meshes()]
            assert all(b < a for a, b in zip(hs, hs[1:]))

    def test_labels(self):
        assert cap_family(np.pi / 3.0, [2, 4]).label == "cap"
        assert sphere_family(2, 0, [1, 2]).label == "sphere"
        assert lantern_family("linear", [4, 8]).label == "lantern-linear"
        assert lantern_family("quadratic", [4, 6]).label == \
            "lantern-quadratic"

    def test_lantern_coupling_parameters(self):
        linear = lantern_family("linear", [4, 8])
        quadratic = lantern_family("quadratic", [4, 8])
        assert linear.build(4).n_vertices == (4 + 1) * 8
        mesh = quadratic.build(4)
        assert mesh.n_vertices == 4 * (16 + 1)
        assert len(mesh.boundary_vertices) == 2 * 4
        assert mesh.n_faces == 2 * 4 * 16

    def test_quadratic_lantern_normals_keep_their_tilt(self):
        # Each face of the classical lantern leans off the cylinder by
        # alpha with tan(alpha) = R (1 - cos(pi/n)) n^2 / H, which tends
        # to pi^2 / 4 for R = 1, H = 2: the normals do not converge.
        case = cylinder_case(1.0, 2.0)
        family = lantern_family("quadratic", [4, 8, 16])
        for n, mesh in family.meshes():
            centroids = mesh.vertices[mesh.faces].mean(axis=1)
            normals = case.normal_at(case.closest_point(centroids))
            cosines = np.sum(mesh.face_normals * normals, axis=1)
            angles = np.arccos(np.clip(cosines, -1.0, 1.0))
            tilt = np.arctan(n * n * (1.0 - np.cos(np.pi / n)) / 2.0)
            assert angles.min() == pytest.approx(tilt, rel=1e-9)
            assert angles.max() == pytest.approx(tilt, rel=1e-9)
        assert tilt == pytest.approx(np.arctan(np.pi ** 2 / 4.0), abs=2e-3)

    def test_lantern_level_too_small(self):
        with pytest.raises(InvalidCountsError, match="quadratic.*got 2"):
            lantern_family("quadratic", [2]).build(2)
        with pytest.raises(InvalidCountsError, match="linear.*got 1"):
            lantern_family("linear", [1]).build(1)

    def test_bad_coupling(self):
        with pytest.raises(ValueError):
            lantern_family("cubic", [4, 8])
