import math
import tracemalloc

import numpy as np
import pytest

from biharm import analysis
from biharm.analysis import (NORMS, ConvergenceReport, LevelRecord,
                             fit_rates, lantern_highres_reference, measure,
                             run_level, run_study, write_levels_csv,
                             write_rates_csv)
from biharm.biharmonic import solve_mixed
from biharm.fem import interpolate
from biharm.mesh import build_mesh
from biharm.surfaces import (RefinementFamily, cap_case, cap_family,
                             cylinder_case, gen_cap_mesh, gen_icosphere,
                             gen_schwarz_lantern, lantern_family, sphere_case,
                             sphere_family)

from conftest import flat_case, grid_mesh, single_triangle
from helpers import exact_u, read_levels_csv, read_rates_csv


def bary_integral(a, b, c):
    """Exact integral of lambda0^a lambda1^b lambda2^c over a unit-area
    triangle: 2 a! b! c! / (a+b+c+2)!."""
    return (2.0 * math.factorial(a) * math.factorial(b) * math.factorial(c)
            / math.factorial(a + b + c + 2))


class TestQuadrature:
    @pytest.mark.parametrize("degree", [4])
    def test_polynomial_exactness(self, degree):
        pts, w = analysis._QUAD_POINTS, analysis._QUAD_WEIGHTS
        assert w.sum() == pytest.approx(1.0, abs=1e-14)
        for total in range(degree + 1):
            for a in range(total + 1):
                for b in range(total - a + 1):
                    c = total - a - b
                    approx = np.sum(
                        w * pts[:, 0] ** a * pts[:, 1] ** b * pts[:, 2] ** c)
                    assert approx == pytest.approx(
                        bary_integral(a, b, c), abs=1e-14), (a, b, c)


def linear_flat_case():
    return flat_case(
        u=lambda p: 1.0 + 2.0 * p[..., 0] - p[..., 1],
        grad_u=lambda p: np.broadcast_to(
            np.array([2.0, -1.0, 0.0]), p.shape).copy(),
        lap_u=lambda p: np.zeros(p.shape[:-1]),
        f=lambda p: np.zeros(p.shape[:-1]))


def constant_one_case():
    return flat_case(
        u=lambda p: np.ones(p.shape[:-1]),
        grad_u=lambda p: np.zeros(p.shape),
        lap_u=lambda p: np.zeros(p.shape[:-1]),
        f=lambda p: np.zeros(p.shape[:-1]))


class TestL2Error:
    def test_linear_reproduction(self):
        mesh = grid_mesh(3, shear=0.2)
        case = linear_flat_case()
        u_h = interpolate(mesh, exact_u(case))
        assert measure(mesh, case, u_h)["l2_u1"] <= 1e-12

    def test_zero_field_against_one(self):
        mesh = grid_mesh(4)
        case = constant_one_case()
        err = measure(mesh, case, np.zeros(mesh.n_vertices))["l2_u1"]
        assert err == pytest.approx(1.0, abs=1e-12)

    def test_interpolant_beats_zero_field(self):
        case = cap_case(1.0, np.pi / 3.0)
        mesh = gen_cap_mesh(np.pi / 3.0, 4)
        u_i = interpolate(mesh, exact_u(case))
        assert measure(mesh, case, u_i)["l2_u1"] <= measure(
            mesh, case, np.zeros(mesh.n_vertices))["l2_u1"]

    def test_cap_interpolant_second_order(self):
        case = cap_case(1.0, np.pi / 3.0)
        errors = [measure(mesh, case,
                          interpolate(mesh, exact_u(case)))["l2_u1"]
                  for _, mesh in cap_family(np.pi / 3.0, [4, 8, 16]).meshes()]
        assert errors[1] < 0.35 * errors[0]
        assert errors[2] < 0.35 * errors[1]

    def test_lap_reference_field(self):
        mesh = grid_mesh(3)
        case = flat_case(
            u=lambda p: p[..., 0] ** 2,
            grad_u=lambda p: np.stack(
                [2.0 * p[..., 0], np.zeros(p.shape[:-1]),
                 np.zeros(p.shape[:-1])], axis=-1),
            lap_u=lambda p: np.full(p.shape[:-1], -2.0),
            f=lambda p: np.zeros(p.shape[:-1]))
        u_h = np.full(mesh.n_vertices, -2.0)
        assert measure(mesh, case, u2=u_h)["l2_u2"] <= 1e-12


class TestH1Error:
    def test_linear_reproduction(self):
        mesh = grid_mesh(3, shear=0.1)
        case = linear_flat_case()
        u_h = interpolate(mesh, exact_u(case))
        assert measure(mesh, case, u_h)["h1_u1"] <= 1e-12

    def test_zero_field_gives_gradient_norm(self):
        mesh = grid_mesh(4)
        case = flat_case(
            u=lambda p: p[..., 0],
            grad_u=lambda p: np.broadcast_to(
                np.array([1.0, 0.0, 0.0]), p.shape).copy(),
            lap_u=lambda p: np.zeros(p.shape[:-1]),
            f=lambda p: np.zeros(p.shape[:-1]))
        err = measure(mesh, case, np.zeros(mesh.n_vertices))["h1_u1"]
        assert err == pytest.approx(1.0, abs=1e-12)

    def test_cap_interpolant_first_order(self):
        case = cap_case(1.0, np.pi / 3.0)
        errors = [measure(mesh, case,
                          interpolate(mesh, exact_u(case)))["h1_u1"]
                  for _, mesh in cap_family(np.pi / 3.0, [4, 8, 16]).meshes()]
        assert errors[1] < 0.65 * errors[0]
        assert errors[2] < 0.65 * errors[1]


class TestCertifyQuality:
    def test_equilateral_kappa(self):
        mesh = single_triangle((0.0, 0.0, 0.0), (1.0, 0.0, 0.0),
                               (0.5, np.sqrt(3.0) / 2.0, 0.0))
        q = measure(mesh, constant_one_case())
        assert q["kappa_min"] == pytest.approx(1.0 / (2.0 * np.sqrt(3.0)),
                                               abs=1e-12)
        assert q["K_max"] == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-12)
        assert q["max_dist"] <= 1e-14
        assert q["max_normal_angle"] <= 1e-7

    def test_icosphere_distance_and_normal_decay(self):
        case = sphere_case(1.0, 2, 0)
        dists = []
        angles = []
        for level in (1, 2, 3):
            q = measure(gen_icosphere(level), case)
            dists.append(q["max_dist"])
            angles.append(q["max_normal_angle"])
        assert dists[1] < 0.35 * dists[0]
        assert dists[2] < 0.35 * dists[1]
        assert angles[1] < 0.65 * angles[0]
        assert angles[2] < 0.65 * angles[1]

    def test_lantern_quadratic_normals_still_decay(self):
        # The m = n^2 needle lantern ruins shape regularity
        # (kappa_min collapses) yet the face normals keep approaching
        # the cylinder normals, because the faces flatten onto the
        # surface while degenerating into needles.
        case = cylinder_case(1.0, 2.0)
        angles = []
        kappas = []
        for n in (4, 8, 16):
            q = measure(gen_schwarz_lantern(n * n, n), case)
            angles.append(q["max_normal_angle"])
            kappas.append(q["kappa_min"])
        assert angles[1] < angles[0]
        assert angles[2] < angles[1]
        assert kappas[2] < 0.6 * kappas[0]

    def test_rigid_motion_invariance(self, rng):
        case = sphere_case(1.0, 2, 0)
        mesh = gen_icosphere(2)
        q1 = measure(mesh, case)
        rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(rot) < 0:
            rot[:, 0] = -rot[:, 0]
        moved = build_mesh(mesh.vertices @ rot.T, mesh.faces)
        q2 = measure(moved, case)
        for name in ("kappa_min", "K_max", "max_dist"):
            assert q2[name] == pytest.approx(q1[name], abs=1e-10)
        assert q2["max_normal_angle"] == pytest.approx(
            q1["max_normal_angle"], abs=1e-8)


def synthetic_records(hs, slopes, case="synthetic"):
    """LevelRecords following exact power laws err = h^slope per norm."""
    records = []
    for i, h in enumerate(hs):
        records.append(LevelRecord(
            case, i, h, 100 * (i + 1),
            h ** slopes.get("l2_u1", 1.0),
            h ** slopes.get("h1_u1", 0.75),
            h ** slopes.get("l2_u2", 0.5),
            kappa_min=0.3, K_max=0.6,
            max_dist=h ** slopes.get("gamma", 2.0),
            max_normal_angle=h ** slopes.get("epsilon", 1.0)))
    return records


class TestFitRates:
    def test_exact_first_order(self):
        records = synthetic_records([0.1, 0.05, 0.025], {"l2_u1": 1.0})
        report = fit_rates(records)
        assert report.rates["l2_u1"].slope == pytest.approx(1.0, abs=1e-12)
        assert report.rates["l2_u1"].residual == pytest.approx(0.0, abs=1e-12)

    def test_exact_second_order(self):
        records = synthetic_records([0.1, 0.05, 0.025], {"l2_u2": 2.0})
        report = fit_rates(records)
        assert report.rates["l2_u2"].slope == pytest.approx(2.0, abs=1e-12)

    def test_sigma_combines_quality_slopes(self):
        records = synthetic_records([0.1, 0.05, 0.025],
                                    {"gamma": 2.0, "epsilon": 1.0})
        report = fit_rates(records)
        assert report.rates["gamma"].slope == pytest.approx(2.0, abs=1e-12)
        assert report.rates["epsilon"].slope == pytest.approx(1.0, abs=1e-12)
        assert report.sigma_estimate == pytest.approx(2.0, abs=1e-12)

    def test_finest_subset_ignores_preasymptotic_levels(self):
        records = synthetic_records([0.4, 0.2, 0.1, 0.05, 0.025],
                                    {"l2_u1": 2.0})
        records[0] = records[0]._replace(l2_u1=10.0)
        report = fit_rates(records)
        assert report.rates["l2_u1"].slope == pytest.approx(2.0, abs=1e-10)

    def test_too_few_levels(self):
        records = synthetic_records([0.1, 0.05], {})
        with pytest.raises(ValueError,
                           match="rate fitting needs >= 3 levels, got 2"):
            fit_rates(records)

    def test_duplicate_h_rejected(self):
        records = synthetic_records([0.1, 0.1, 0.05], {})
        with pytest.raises(ValueError, match="mesh sizes h must be distinct, "
                                             "got h = 0.1 at more than one"):
            fit_rates(records)

    def test_cap_study_meets_theoretical_rates(self):
        report = run_study(cap_family(np.pi / 3.0, [4, 8, 16]))
        assert analysis.gate_failures(report, "cap") == []
        for name in ("l2_u1", "h1_u1", "l2_u2"):
            assert report.rates[name].slope <= 3.0

    def test_certified_only_records(self):
        records = [LevelRecord("synthetic", i, h, 10, None, None, None,
                               0.3, 0.6, h ** 2, h)
                   for i, h in enumerate([0.1, 0.05, 0.025])]
        report = fit_rates(records)
        assert list(report.rates) == ["gamma", "epsilon"]
        assert report.rates["gamma"].slope == pytest.approx(2.0, abs=1e-12)
        assert report.rates["epsilon"].slope == pytest.approx(1.0, abs=1e-12)
        assert report.sigma_estimate == pytest.approx(2.0, abs=1e-12)
        assert report.case == "synthetic"

    def test_zero_value_left_out_of_its_fit(self):
        # The icosahedron's faces are tangent to the sphere at their
        # centroids, so its max_normal_angle is exactly 0; clamping it to
        # a tiny positive value instead drives epsilon to about -565.
        records = run_study(sphere_family(2, 0, [0, 1, 2])).records
        assert records[0].max_normal_angle == 0.0
        report = fit_rates(records)
        fine = records[1:]
        expected = (math.log(fine[1].max_normal_angle
                             / fine[0].max_normal_angle)
                    / math.log(fine[1].h / fine[0].h))
        assert report.rates["epsilon"].slope == pytest.approx(expected,
                                                              rel=1e-12)
        assert report.rates["epsilon"].slope == pytest.approx(0.729, abs=1e-3)
        assert report.sigma_estimate == pytest.approx(
            2.0 * report.rates["epsilon"].slope, rel=1e-12)

    def test_column_with_one_nonzero_value_rejected(self):
        records = synthetic_records([0.1, 0.05, 0.025], {})
        records = [r._replace(max_normal_angle=0.0)
                   for r in records[:2]] + records[2:]
        with pytest.raises(ValueError, match="max_normal_angle"):
            fit_rates(records)

    @pytest.mark.parametrize("column, value", [("l2_u1", math.inf),
                                               ("max_dist", math.nan)])
    def test_column_not_finite_rejected(self, column, value):
        records = synthetic_records([0.1, 0.05, 0.025], {})
        records[1] = records[1]._replace(**{column: value})
        with pytest.raises(ValueError, match=f"{column} must be finite to "
                           f"fit a rate, got {value} at level 1"):
            fit_rates(records)

    def test_norms_fitted_only_where_every_record_carries_them(self):
        records = synthetic_records([0.1, 0.05, 0.025], {})
        records[1] = records[1]._replace(h1_u1=None)
        report = fit_rates(records)
        assert list(report.rates) == ["l2_u1", "l2_u2", "gamma", "epsilon"]


class TestRunStudy:
    def test_records_in_level_order(self):
        family = sphere_family(2, 0, [1, 2, 3])
        report = run_study(family)
        assert [r.level for r in report.records] == [1, 2, 3]
        hs = [r.h for r in report.records]
        assert all(b < a for a, b in zip(hs, hs[1:]))
        assert report.case == "sphere"

    def test_lumped_mass_mode(self):
        # The CLI's default levels; Jacobi-CG on the eliminated lumped
        # system stalled at rings 32.
        family = cap_family(np.pi / 3.0, [8, 16, 32, 64])
        report = run_study(family, mass_mode="lumped")
        assert all(np.isfinite(r.l2_u1) for r in report.records)

    @pytest.mark.parametrize("levels, message", [
        ((8, 4, 16), "strictly increasing levels, got [8, 4, 16]"),
        ((8, 16), "at least 3 levels, got [8, 16]"),
    ], ids=["not-increasing", "too-few"])
    def test_levels_checked_before_any_mesh(self, levels, message):
        built = []

        def builder(rings):
            built.append(rings)
            return gen_cap_mesh(np.pi / 3.0, rings)

        family = RefinementFamily("cap", cap_case(1.0, np.pi / 3.0), levels,
                                  builder)
        with pytest.raises(ValueError) as excinfo:
            run_study(family)
        assert message in str(excinfo.value)
        assert built == []

    def test_run_level_single(self):
        family = lantern_family("linear", [4, 8, 16])
        record = run_level(family, 8)
        assert record.case == "lantern-linear"
        assert record.level == 8
        assert record.dofs == 9 * 16


# One level of each family, with the cases the error pass handles.
BLOCKED_LEVELS = {
    "cap": (cap_family(np.pi / 3.0, [8]), 8),
    "sphere": (sphere_family(3, -2, [2]), 2),
    "lantern": (lantern_family("linear", [8]), 8),
    "lantern-highres": (lantern_family("linear", [4])._replace(
        case=lantern_highres_reference(n_ref=16),
        label="lantern-linear-highres"), 4),
}
# Each level with the solved fields it is measured on: both, as a study
# measures them, u1 alone, or none, as `quality` certifies a mesh.
BLOCKED_MEASURES = {
    **{name: (*at, ("u1", "u2")) for name, at in BLOCKED_LEVELS.items()},
    "cap-u1": (*BLOCKED_LEVELS["cap"], ("u1",)),
    "sphere-certify": (*BLOCKED_LEVELS["sphere"], ()),
}


class TestBlockedPass:
    """The norms and the certificate stream over blocks of faces."""

    @pytest.mark.parametrize("family, level, fields",
                             BLOCKED_MEASURES.values(),
                             ids=BLOCKED_MEASURES.keys())
    def test_records_independent_of_block_size(self, monkeypatch, family,
                                               level, fields):
        mesh = family.build(level)
        sol = solve_mixed(mesh, interpolate(mesh, family.case.exact_f))
        given = {name: getattr(sol, name) for name in fields}
        expected = measure(mesh, family.case, **given)
        monkeypatch.setattr(analysis, "_FACE_BLOCK", 7)
        # Many blocks, the last one partial.
        assert mesh.n_faces % 7 != 0
        assert measure(mesh, family.case, **given) == expected

    def test_record_matches_public_functions(self):
        for family, level in BLOCKED_LEVELS.values():
            record = run_level(family, level)
            mesh, case = family.build(level), family.case
            sol = solve_mixed(mesh, interpolate(mesh, case.exact_f))
            row, u1 = measure(mesh, case), measure(mesh, case, u1=sol.u1)
            row.update(l2_u1=u1["l2_u1"], h1_u1=u1["h1_u1"],
                       l2_u2=measure(mesh, case, u2=sol.u2)["l2_u2"])
            assert record == LevelRecord(family.label, level, **row), (
                family.label)

    @pytest.mark.parametrize("family, level", BLOCKED_LEVELS.values(),
                             ids=BLOCKED_LEVELS.keys())
    def test_one_distance_and_one_solution_per_block(self, monkeypatch,
                                                     family, level):
        calls = dict.fromkeys(("distance", "solution"), 0)

        def counted(name):
            field = getattr(family.case, name)

            def wrapper(p):
                calls[name] += 1
                return field(p)
            return wrapper

        case = family.case._replace(**{name: counted(name) for name in calls})
        monkeypatch.setattr(analysis, "_FACE_BLOCK", 16)
        blocks = -(-family.build(level).n_faces // 16)
        assert blocks > 1
        run_level(family._replace(case=case), level)
        assert calls == {"distance": blocks, "solution": blocks}

    def test_h1_error_memory_bounded_per_face(self):
        # Holding every quadrature point of the mesh at once took about
        # 985 bytes per face here.
        case = cap_case(1.0, np.pi / 3.0)
        mesh = gen_cap_mesh(np.pi / 3.0, 128)
        u_h = interpolate(mesh, exact_u(case))
        tracemalloc.start()
        try:
            measure(mesh, case, u_h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 400 * mesh.n_faces


class TestCsvRoundTrips:
    def test_report_round_trip(self, tmp_path):
        records = synthetic_records([0.1, 0.05, 0.025], {})
        records[0] = records[0]._replace(l2_u1=1.0 / 3.0)
        path = tmp_path / "report.csv"
        write_levels_csv(path, records)
        back = read_levels_csv(path)
        assert len(back) == 3
        for a, b in zip(records, back):
            assert b.case == a.case
            assert b.level == a.level
            assert b.h == pytest.approx(a.h, rel=1e-11)
            assert b.dofs == a.dofs
            assert b.l2_u1 == pytest.approx(a.l2_u1, rel=1e-11)
            assert b.kappa_min == pytest.approx(a.kappa_min, rel=1e-11)

    def test_twelve_significant_digits(self, tmp_path):
        records = synthetic_records([1.0 / 3.0, 0.05, 0.025], {})
        path = tmp_path / "report.csv"
        write_levels_csv(path, records)
        text = path.read_text()
        assert "0.333333333333" in text

    def test_report_header(self, tmp_path):
        records = synthetic_records([0.1, 0.05, 0.025], {})
        path = tmp_path / "report.csv"
        write_levels_csv(path, records)
        first = path.read_text().splitlines()[0]
        assert first == ("case,level,h,dofs,l2_u1,h1_u1,l2_u2,"
                         "kappa_min,K_max,max_dist,max_normal_angle")

    def test_quality_round_trip(self, tmp_path):
        records = [r._replace(**dict.fromkeys(NORMS))
                   for r in synthetic_records([0.1, 0.05, 0.025], {})]
        path = tmp_path / "quality.csv"
        write_levels_csv(path, records)
        assert path.read_text().splitlines()[0] == (
            "case,level,h,dofs,kappa_min,K_max,max_dist,max_normal_angle")
        back = read_levels_csv(path)
        assert len(back) == 3
        assert back[1].case == "synthetic"
        assert back[1].level == 1
        assert back[1].h == pytest.approx(0.05, rel=1e-11)
        assert back[1].l2_u1 is None
        assert back[1].max_normal_angle == pytest.approx(
            0.05, rel=1e-11)

    def test_rates_flags(self, tmp_path):
        good = fit_rates(synthetic_records(
            [0.1, 0.05, 0.025],
            {"l2_u1": 1.0, "h1_u1": 0.75, "l2_u2": 0.5,
             "gamma": 2.0, "epsilon": 1.0}))
        path = tmp_path / "rates.csv"
        write_rates_csv(path, good)
        flags = read_rates_csv(path)
        assert flags["l2_u1"][2] == "ok"
        assert flags["l2_u2"][2] == "ok"
        assert flags["sigma"][2] == "ok"
        assert flags["sigma"][1] is None

    def test_rates_nonconvergent_and_warning_flags(self, tmp_path):
        bad = fit_rates(synthetic_records(
            [0.1, 0.05, 0.025],
            {"l2_u2": 0.2, "gamma": 1.0, "epsilon": 0.5}))
        path = tmp_path / "rates.csv"
        write_rates_csv(path, bad)
        flags = read_rates_csv(path)
        assert flags["l2_u2"][2] == "non-convergent"
        assert flags["sigma"][0] == pytest.approx(1.0, abs=1e-10)
        assert flags["sigma"][2] == "warning"


class TestHighresReference:
    def test_fields_match_manufactured_solution(self):
        case = lantern_highres_reference(n_ref=16)
        base = cylinder_case(1.0, 2.0)

        phi = np.linspace(0.0, 2.0 * np.pi, 10, endpoint=False) + 0.13
        equator = np.stack([np.cos(phi), np.sin(phi), np.zeros(10)], axis=1)
        mid = np.stack([np.cos(phi), np.sin(phi), np.full(10, 0.5)], axis=1)

        u_eq, g_eq, lap_eq = case.solution(equator)
        u_mid, g_mid, _ = case.solution(mid)
        base_eq, base_mid = base.solution(equator), base.solution(mid)
        assert u_eq == pytest.approx(base_eq[0], rel=0.01)
        assert u_mid == pytest.approx(base_mid[0], rel=0.01)
        assert lap_eq == pytest.approx(base_eq[2], rel=0.02)
        assert g_mid[:, 2] == pytest.approx(base_mid[1][:, 2], rel=0.05)
        assert np.max(np.abs(g_eq)) <= 0.3

    def test_usable_for_error_measurement(self):
        case = lantern_highres_reference(n_ref=24)
        mesh = gen_schwarz_lantern(16, 8)
        sol = solve_mixed(mesh, np.full(mesh.n_vertices, 24.0))
        err = measure(mesh, case, sol.u1)["l2_u1"]
        base_err = measure(mesh, cylinder_case(1.0, 2.0), sol.u1)["l2_u1"]
        assert err == pytest.approx(base_err, abs=0.05)


class TestHighresProfile:
    """The ring profile equals the chart P1 interpolant of the fine
    solution, because that solution is constant on each ring."""

    def test_profile_matches_chart_interpolant(self, rng):
        n_ref, m_ref, radius, a = 8, 16, 1.0, 1.0
        case = lantern_highres_reference(n_ref=n_ref)
        fine = gen_schwarz_lantern(m_ref, n_ref)
        sol = solve_mixed(fine, np.full(fine.n_vertices, 24.0))

        # Random points off the surface, plus points next to the
        # phi = +-pi seam and on and next to both rims.
        phi = np.concatenate([rng.uniform(-np.pi, np.pi, 200),
                              [np.pi - 1e-9, -np.pi + 1e-9, np.pi, 3.1,
                               -3.1, 0.2, 1.7]])
        z = np.concatenate([rng.uniform(-a, a, 200),
                            [0.3, -0.7, 0.05, -a, a, a - 1e-9, -a + 1e-9]])
        rho = radius * rng.uniform(0.7, 1.3, phi.size)
        pts = np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)

        # Brute-force location in the (R phi, z) chart: every fine face,
        # each with its vertices unwrapped to within half a turn and
        # tried at three periodic shifts.
        v_phi = np.arctan2(fine.vertices[:, 1], fine.vertices[:, 0])
        tri_phi = v_phi[fine.faces]
        tri_phi -= 2 * np.pi * np.round((tri_phi - tri_phi[:, :1])
                                        / (2 * np.pi))
        tri = np.stack([radius * tri_phi, fine.vertices[fine.faces][..., 2]],
                       axis=2)                               # (F, 3, 2)
        edges = np.stack([tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]],
                         axis=2)                             # columns B-A, C-A
        shifts = 2 * np.pi * radius * np.array([-1.0, 0.0, 1.0])
        q = np.stack([np.broadcast_to(radius * phi[:, None] + shifts,
                                      (phi.size, 3)),
                      np.broadcast_to(z[:, None], (phi.size, 3))], axis=2)
        rel = q[:, :, None, :] - tri[None, None, :, 0, :]    # (P, 3, F, 2)
        wbc = np.linalg.solve(edges, rel[..., None])[..., 0]
        bary = np.concatenate([1.0 - wbc.sum(axis=-1, keepdims=True), wbc],
                              axis=-1)                        # (P, 3, F, 3)
        flat = bary.min(axis=-1).reshape(phi.size, -1)
        best = np.argmax(flat, axis=1)
        assert flat[np.arange(phi.size), best].min() > -1e-9
        face = best % fine.n_faces
        w = bary.reshape(phi.size, -1, 3)[np.arange(phi.size), best]
        verts = fine.faces[face]

        u1 = np.sum(w * sol.u1[verts], axis=1)
        u2 = np.sum(w * sol.u2[verts], axis=1)
        du = sol.u1[verts[:, 1:]] - sol.u1[verts[:, :1]]
        g_chart = np.linalg.solve(np.transpose(edges[face], (0, 2, 1)),
                                  du[..., None])[..., 0]
        phi_hat = np.stack([-np.sin(phi), np.cos(phi), np.zeros_like(phi)],
                           axis=1)
        grad = g_chart[:, :1] * phi_hat
        grad[:, 2] += g_chart[:, 1]

        u, g, lap = case.solution(pts)
        assert np.max(np.abs(u - u1)) <= 1e-12
        assert np.max(np.abs(lap - u2)) <= 1e-12
        assert np.max(np.abs(g - grad)) <= 1e-12
        u, g, _ = case.solution(pts[0])
        assert u == pytest.approx(u1[0], abs=1e-12)
        assert g.shape == (3,)

    def test_fine_solution_constant_on_rings(self):
        n_ref = 64
        fine = gen_schwarz_lantern(2 * n_ref, n_ref)
        sol = solve_mixed(fine, np.full(fine.n_vertices, 24.0))
        for u in (sol.u1, sol.u2):
            rings = u.reshape(n_ref + 1, 2 * n_ref)
            spread = np.ptp(rings, axis=1).max()
            assert spread <= 1e-10 * np.abs(u).max()
