import math
import tracemalloc
import warnings

import numpy as np
import pytest

from biharm import surfaces
from biharm.mesh import max_edge_length
from biharm.surfaces import (cap_case, cap_family, cylinder_case,
                             gen_cap_mesh, gen_icosphere, gen_schwarz_lantern,
                             lantern_family, real_harmonic, sphere_case,
                             sphere_family)

from conftest import flat_case
from fd_oracles import axial_laplacian_fd, polar_laplacian_fd
from helpers import closest_point, exact_u


def cap_point(theta, phi=0.0, radius=1.0):
    return radius * np.array([np.sin(theta) * np.cos(phi),
                              np.sin(theta) * np.sin(phi),
                              np.cos(theta)])


class TestClosestPoint:
    def test_sphere_radial(self):
        case = sphere_case(1.0, 2, 0)
        assert closest_point(case, np.array([0.0, 0.0, 2.0])) == pytest.approx(
            [0.0, 0.0, 1.0])

    def test_cylinder_cross_section(self):
        case = cylinder_case(1.0, 2.0)
        p = closest_point(case, np.array([2.0, 0.0, 0.3]))
        assert p == pytest.approx([1.0, 0.0, 0.3])

    def test_cylinder_keeps_height_beyond_rims(self):
        # The distance is that of the infinite cylinder, as the cap's is
        # that of the whole sphere.
        case = cylinder_case(1.0, 2.0)
        p = closest_point(case, np.array([2.0, 0.0, 5.0]))
        assert p == pytest.approx([1.0, 0.0, 5.0])

    def test_idempotent(self, rng):
        cases = [cap_case(1.0, np.pi / 3.0), sphere_case(1.0, 2, 0),
                 cylinder_case(1.0, 2.0)]
        for case in cases:
            pts = rng.normal(size=(1000, 3)) + np.array([0.5, 0.0, 0.0])
            projected = closest_point(case, pts)
            again = closest_point(case, projected)
            assert np.max(np.abs(again - projected)) <= 1e-12

    def test_sphere_center_outside_reach(self):
        case = sphere_case(1.0, 2, 0)
        with pytest.raises(ValueError, match=r"p/\|p\| is undefined at the "
                                             r"origin \(0, 0, 0\)"):
            closest_point(case, np.zeros(3))

    def test_cylinder_axis_outside_reach(self):
        case = cylinder_case(1.0, 2.0)
        with pytest.raises(ValueError, match="cylinder axis"):
            closest_point(case, np.array([0.0, 0.0, 0.5]))

    def test_normal_at_unit_length(self, rng):
        case = sphere_case(1.0, 2, 0)
        pts = closest_point(case, rng.normal(size=(50, 3)))
        normals = case.distance(pts)[1]
        assert np.linalg.norm(normals, axis=1) == pytest.approx(
            np.ones(50), abs=1e-12)
        assert normals == pytest.approx(pts, abs=1e-12)


class TestDistance:
    """The signed distance d of each surface, at points up to a few
    radii away and off the center and the axis, with R its length
    scale."""

    CASES = {"sphere": (sphere_case(2.5, 2, 0), 2.5),
             "cap": (cap_case(2.5, 1.0), 2.5),
             "cylinder": (cylinder_case(2.5, 2.0), 2.5),
             "flat": (flat_case(None, None, None, None), 1.0)}

    @pytest.fixture(params=list(CASES))
    def surface(self, request, rng):
        case, radius = self.CASES[request.param]
        pts = radius * rng.normal(size=(400, 3))
        pts = pts[np.hypot(pts[:, 0], pts[:, 1]) > 0.2 * radius]
        return case, radius, pts

    def test_gradient_matches_central_differences(self, surface):
        case, radius, pts = surface
        step = 1e-6 * radius
        fd = np.stack([
            (case.distance(pts + step * e)[0]
             - case.distance(pts - step * e)[0]) / (2.0 * step)
            for e in np.eye(3)], axis=-1)
        assert np.max(np.abs(fd - case.distance(pts)[1])) <= 1e-8

    def test_gradient_unit_length(self, surface):
        case, _, pts = surface
        lengths = np.linalg.norm(case.distance(pts)[1], axis=-1)
        assert np.max(np.abs(lengths - 1.0)) <= 1e-14

    def test_closest_point_on_surface(self, surface):
        case, radius, pts = surface
        d = case.distance(closest_point(case, pts))[0]
        assert np.max(np.abs(d)) <= 1e-12 * radius

    def test_gradient_constant_along_normal_lines(self, surface, rng):
        case, radius, pts = surface
        normals = case.distance(pts)[1]
        t = radius * rng.uniform(-0.1, 1.0, size=(len(pts), 1))
        moved = case.distance(pts + t * normals)[1]
        assert np.max(np.abs(moved - normals)) <= 1e-14


class TestLeadingShape:
    """Every field maps points of any leading shape, one point included,
    to one value or vector per point; the distance to a pair of them."""

    CASES = {"cap": cap_case(1.0, np.pi / 3.0),
             "cylinder": cylinder_case(1.0, 2.0),
             "sphere": sphere_case(1.0, 3, -2)}
    # The case's three functions, and the fields read off them.
    FIELDS = {"distance": lambda case, p: case.distance(p),
              "closest_point": closest_point,
              "normal_at": lambda case, p: case.distance(p)[1],
              "solution": lambda case, p: case.solution(p),
              "exact_u": lambda case, p: case.solution(p)[0],
              "exact_grad_u": lambda case, p: case.solution(p)[1],
              "exact_lap_u": lambda case, p: case.solution(p)[2],
              "exact_f": lambda case, p: case.exact_f(p)}

    @pytest.mark.parametrize("field", list(FIELDS))
    @pytest.mark.parametrize("kind", list(CASES))
    def test_grid_matches_rows_and_points(self, rng, kind, field):
        def evaluate(p):
            value = self.FIELDS[field](self.CASES[kind], p)
            return value if isinstance(value, tuple) else (value,)

        points = rng.normal(size=(5, 6, 3)) + np.array([0.5, 0.0, 0.0])
        for part, (rows, grid) in enumerate(
                zip(evaluate(points.reshape(30, 3)), evaluate(points))):
            assert grid.shape == (5, 6) + rows.shape[1:]
            assert grid.reshape(rows.shape).tobytes() == rows.tobytes()
            for point, row in zip(points.reshape(30, 3), rows):
                single = np.asarray(evaluate(point)[part])
                assert single.tobytes() == row.tobytes()


class TestCapCase:
    def test_pole_values(self):
        case = cap_case(1.0, np.pi / 3.0)
        pole = np.array([0.0, 0.0, 1.0])
        assert case.solution(pole)[0] == pytest.approx(0.25)
        assert case.exact_f(pole) == pytest.approx(20.0)

    def test_boundary_f_value(self):
        case = cap_case(1.0, np.pi / 3.0)
        p = cap_point(np.pi / 3.0)
        assert case.exact_f(p) == pytest.approx(-5.0)

    def test_clamped_boundary_conditions(self, rng):
        case = cap_case(1.0, np.pi / 3.0)
        phis = rng.uniform(0.0, 2.0 * np.pi, size=100)
        pts = np.stack([cap_point(np.pi / 3.0, phi) for phi in phis])
        assert np.max(np.abs(case.solution(pts)[0])) <= 1e-10
        grads = case.solution(pts)[1]
        assert np.max(np.abs(grads)) <= 1e-10

    def test_radius_scaling(self):
        theta = 0.4
        unit = cap_case(1.0, np.pi / 3.0)
        big = cap_case(2.0, np.pi / 3.0)
        p1 = cap_point(theta)
        p2 = cap_point(theta, radius=2.0)
        assert big.solution(p2)[0] == pytest.approx(unit.solution(p1)[0])
        assert big.solution(p2)[2] == pytest.approx(unit.solution(p1)[2] / 4.0)
        assert big.exact_f(p2) == pytest.approx(unit.exact_f(p1) / 16.0)

    def test_fd_oracle_laplacian(self):
        case = cap_case(1.0, np.pi / 3.0)
        thetas = np.linspace(0.2, np.pi / 3.0, 401)
        pts = np.stack([cap_point(t) for t in thetas])
        g = case.solution(pts)[0]
        lap_fd = polar_laplacian_fd(g, thetas)
        lap_exact = case.solution(pts)[2][2:-2]
        scale = np.max(np.abs(lap_exact))
        assert np.max(np.abs(lap_fd - lap_exact)) <= 1e-6 * scale

    def test_fd_oracle_bilaplacian(self):
        case = cap_case(1.0, np.pi / 3.0)
        thetas = np.linspace(0.2, np.pi / 3.0, 401)
        pts = np.stack([cap_point(t) for t in thetas])
        lap = case.solution(pts)[2]
        f_fd = polar_laplacian_fd(lap, thetas)
        f_exact = case.exact_f(pts)[2:-2]
        scale = np.max(np.abs(f_exact))
        assert np.max(np.abs(f_fd - f_exact)) <= 1e-4 * scale

    def test_invalid_angle(self):
        with pytest.raises(ValueError, match=r"opening angle must lie in "
                                             r"\(0, pi\), got 0.0$"):
            cap_case(1.0, 0.0)
        with pytest.raises(ValueError, match=r"opening angle must lie in "
                                             r"\(0, pi\), got 3.14159"):
            cap_case(1.0, np.pi)


class TestCylinderCase:
    def test_midplane_values(self):
        case = cylinder_case(1.0, 2.0)
        p = np.array([1.0, 0.0, 0.0])
        assert case.solution(p)[0] == pytest.approx(1.0)
        assert case.solution(p)[2] == pytest.approx(4.0)
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
            assert np.max(np.abs(case.solution(pts)[0])) <= 1e-10
            assert np.max(np.abs(case.solution(pts)[1])) <= 1e-10

    def test_fd_oracle_laplacian(self):
        case = cylinder_case(1.0, 2.0)
        zs = np.linspace(-1.0, 1.0, 401)
        pts = np.stack([np.ones_like(zs), np.zeros_like(zs), zs], axis=1)
        g = case.solution(pts)[0]
        lap_fd = axial_laplacian_fd(g, zs)
        lap_exact = case.solution(pts)[2][2:-2]
        scale = np.max(np.abs(lap_exact))
        assert np.max(np.abs(lap_fd - lap_exact)) <= 1e-6 * scale

    def test_fd_oracle_bilaplacian(self):
        case = cylinder_case(1.0, 2.0)
        zs = np.linspace(-1.0, 1.0, 401)
        pts = np.stack([np.ones_like(zs), np.zeros_like(zs), zs], axis=1)
        lap = case.solution(pts)[2]
        f_fd = axial_laplacian_fd(lap, zs)
        f_exact = case.exact_f(pts)[2:-2]
        assert np.max(np.abs(f_fd - f_exact)) <= 1e-4 * 24.0

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError, match="radius must be positive and "
                                             "finite, got 0.0"):
            cylinder_case(0.0, 2.0)
        with pytest.raises(ValueError, match="height must be positive and "
                                             "finite, got -1.0"):
            cylinder_case(1.0, -1.0)


class TestSphereCase:
    def test_degree_two_fields(self, rng):
        case = sphere_case(1.0, 2, 0)
        y = real_harmonic(2, 0)
        pts = closest_point(case, rng.normal(size=(30, 3)))
        vals = y(pts)
        assert case.solution(pts)[0] == pytest.approx(vals / 36.0, abs=1e-13)
        assert case.solution(pts)[2] == pytest.approx(vals / 6.0, abs=1e-13)
        assert case.exact_f(pts) == pytest.approx(vals, abs=1e-13)

    def test_degree_one_eigenrelation(self, rng):
        case = sphere_case(1.0, 1, 0)
        pts = closest_point(case, rng.normal(size=(30, 3)))
        assert case.exact_f(pts) == pytest.approx(4.0 * case.solution(pts)[0])

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
        g = case.solution(pts)[0]
        lap_fd = polar_laplacian_fd(g, thetas, azimuthal_order=1)
        lap_exact = case.solution(pts)[2][2:-2]
        scale = np.max(np.abs(lap_exact))
        assert np.max(np.abs(lap_fd - lap_exact)) <= 1e-6 * scale

    @pytest.mark.parametrize("radius", [1.0, 2.5])
    def test_gradient_at_poles_matches_central_differences(self, radius):
        # exact_u is constant along rays, so on the sphere its ambient
        # gradient is the surface gradient.  At the poles that of order
        # |m| = 1 is not zero.
        h = 1e-6 * radius
        for degree, order in [(1, 1), (1, -1), (1, 0), (2, 1), (2, -1),
                              (3, 2), (4, -3), (5, 1)]:
            case = sphere_case(radius, degree, order)
            u = exact_u(case)
            for pole in ([0.0, 0.0, radius], [0.0, 0.0, -radius]):
                pole = np.array(pole)
                fd = [(u(pole + h * e) - u(pole - h * e)) / (2.0 * h)
                      for e in np.eye(3)]
                assert case.solution(pole)[1] == pytest.approx(
                    fd, abs=1e-7 * radius**3)

    def test_harmonic_matches_lpmv(self, rng):
        from scipy.special import lpmv
        pts = rng.normal(size=(500, 3))
        unit = pts / np.linalg.norm(pts, axis=1)[:, None]
        theta = np.arccos(np.clip(unit[:, 2], -1.0, 1.0))
        phi = np.arctan2(unit[:, 1], unit[:, 0])
        pairs = [(l, m) for l in range(9) for m in range(-l, l + 1)]
        for degree, order in pairs + [(60, 60), (60, -60)]:
            trig = (np.cos(order * phi) if order >= 0
                    else np.sin(-order * phi))
            expected = lpmv(abs(order), degree, np.cos(theta)) * trig
            got = real_harmonic(degree, order)(pts)
            assert (np.max(np.abs(got - expected))
                    <= 1e-12 * np.max(np.abs(expected)))

    def test_harmonic_of_high_order_near_the_pole(self):
        # (2m - 1)!! alone overflows a double at m = 200, the harmonic
        # Y_m^m = (-1)^m (2m - 1)!! sin^m(theta) cos(m phi) near the
        # pole does not.
        m, s = 200, 0.01
        p = np.array([s, 0.0, np.sqrt(1.0 - s * s)])
        expected = math.exp(math.lgamma(2 * m + 1) - m * math.log(2.0)
                            - math.lgamma(m + 1) + m * math.log(s))
        assert real_harmonic(m, m)(p) == pytest.approx(expected, rel=1e-11)

    def test_invalid_degree(self):
        with pytest.raises(ValueError, match="l >= 1"):
            sphere_case(1.0, 0, 0)
        with pytest.raises(ValueError, match=r"\|m\| <= l"):
            sphere_case(1.0, 2, 3)

    @pytest.mark.parametrize("degree, order", [(2, 5), (2, -3), (-3, 0),
                                               (-1, -1)])
    def test_harmonic_rejects_invalid_degree(self, degree, order):
        with pytest.raises(ValueError, match=f"got l={degree}, m={order}"):
            real_harmonic(degree, order)

    def test_harmonic_at_origin_outside_reach(self):
        pts = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="origin"):
                real_harmonic(2, 0)(pts)

    def test_harmonic_degree_zero_is_constant(self):
        pts = np.random.default_rng(3).normal(size=(20, 3))
        assert np.all(real_harmonic(0, 0)(pts) == 1.0)


class TestCapMesh:
    @pytest.mark.parametrize("theta0, shown", [(0.0, "0.0"),
                                               (np.pi, "3.14159"),
                                               (0, "0.0"), (4, "4.0")])
    def test_invalid_angle(self, theta0, shown):
        with pytest.raises(ValueError, match=r"opening angle must lie in "
                                             rf"\(0, pi\), got {shown}"):
            gen_cap_mesh(theta0, 4)

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
        with pytest.raises(ValueError, match="need at least 2 rings, got 1"):
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

    def test_level_beyond_int64_rejected_before_any_allocation(self):
        # 4^k alone would exhaust memory at this level.
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="faces to fit in int64, "
                                                 "got 1000000000000$"):
                gen_icosphere(10 ** 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_level_too_large_to_hold_fails_at_once(self):
        # Its 10*4^25 + 2 vertices take 2.7e17 bytes, more than the user
        # address space of x86-64 Linux (128 TiB, or 64 PiB with 5-level
        # paging), so reserving them fails before the first pass under
        # every overcommit setting.
        with pytest.raises(MemoryError):
            gen_icosphere(25)

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
            on_surface = closest_point(case, centroids)
            exact_normals = case.distance(on_surface)[1]
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
        with pytest.raises(ValueError, match="lantern needs m >= 3 and "
                                             "n >= 2, got m=2, n=4"):
            gen_schwarz_lantern(2, 4)
        with pytest.raises(ValueError, match="lantern needs m >= 3 and "
                                             "n >= 2, got m=6, n=1"):
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
            with pytest.raises(ValueError,
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
            normals = case.distance(closest_point(case, centroids))[1]
            cosines = np.sum(mesh.face_normals * normals, axis=1)
            angles = np.arccos(np.clip(cosines, -1.0, 1.0))
            tilt = np.arctan(n * n * (1.0 - np.cos(np.pi / n)) / 2.0)
            assert angles.min() == pytest.approx(tilt, rel=1e-9)
            assert angles.max() == pytest.approx(tilt, rel=1e-9)
        assert tilt == pytest.approx(np.arctan(np.pi ** 2 / 4.0), abs=2e-3)

    def test_lantern_level_too_small(self):
        with pytest.raises(ValueError, match="quadratic.*got 2"):
            lantern_family("quadratic", [2])
        with pytest.raises(ValueError, match="linear.*got 1"):
            lantern_family("linear", [1])

    @pytest.mark.parametrize("make, generator, message", [
        (lambda: cap_family(np.pi / 3.0, [8, 16, 1]), "gen_cap_mesh",
         "need at least 2 rings, got 1"),
        (lambda: sphere_family(2, 0, [1, 2, -1]), "gen_icosphere",
         "subdivisions must be >= 0, got -1"),
        (lambda: lantern_family("quadratic", [4, 8, 2]),
         "gen_schwarz_lantern",
         "quadratic lantern level n must be at least 3, got 2"),
    ], ids=["cap", "sphere", "lantern"])
    def test_bad_level_raises_before_any_mesh(self, monkeypatch, make,
                                              generator, message):
        built = []
        monkeypatch.setattr(surfaces, generator,
                            lambda *args: built.append(args))
        with pytest.raises(ValueError, match=message):
            make()
        assert built == []

    def test_bad_coupling(self):
        with pytest.raises(ValueError, match="coupling must be linear or "
                                             "quadratic, got 'cubic'"):
            lantern_family("cubic", [4, 8])
