import argparse
import csv
import json
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import biharm
from biharm import analysis, cli, surfaces
from biharm.analysis import ACCEPTANCE_GATES
from biharm.cli import main
from biharm.mesh import build_mesh, read_obj, write_obj
from biharm.surfaces import LANTERN_COUPLINGS

from conftest import grid_mesh, tetrahedron
from helpers import read_levels_csv, read_rates_csv, read_solution_csv


@pytest.fixture
def tet_obj(tmp_path):
    path = tmp_path / "tet.obj"
    write_obj(tetrahedron(), path)
    return path


class TestSolve:
    def test_lantern_equator_value(self, tmp_path):
        out = tmp_path / "out"
        code = main(["solve", "--case", "lantern", "--n", "16",
                     "--coupling", "linear", "--rhs", "const:24",
                     "--out", str(out)])
        assert code == 0
        u1, u2 = read_solution_csv(out / "solution.csv")
        assert np.max(u1) == pytest.approx(1.0, rel=0.05)
        assert np.isfinite(u2).all()

    def test_closed_mesh_from_obj(self, tmp_path, tet_obj):
        out = tmp_path / "out"
        code = main(["solve", "--mesh", str(tet_obj), "--rhs", "const:1",
                     "--out", str(out)])
        assert code == 0
        u1, u2 = read_solution_csv(out / "solution.csv")
        assert abs(u1.mean()) <= 1e-8
        assert np.max(np.abs(u1)) <= 1e-8

    def test_obj_with_byte_order_mark(self, tmp_path):
        path, out = tmp_path / "marked.obj", tmp_path / "out"
        write_obj(surfaces.gen_cap_mesh(1.0, 3), path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        code = main(["solve", "--mesh", str(path), "--rhs", "const:1",
                     "--out", str(out)])
        assert code == 0
        u1, u2 = read_solution_csv(out / "solution.csv")
        assert len(u1) == 37

    def test_harmonic_rhs(self, tmp_path):
        out = tmp_path / "out"
        code = main(["solve", "--case", "sphere", "--n", "2",
                     "--rhs", "harmonic:2,0", "--out", str(out)])
        assert code == 0
        u1, u2 = read_solution_csv(out / "solution.csv")
        assert len(u1) == 162
        assert np.max(np.abs(u1)) > 0.0

    def test_harmonic_rhs_on_mesh_through_origin_exit_2(self, tmp_path,
                                                         capsys):
        path = tmp_path / "flat.obj"
        write_obj(grid_mesh(2), path)
        code = main(["solve", "--mesh", str(path), "--rhs", "harmonic:2,0",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "undefined at the origin (0, 0, 0)" in capsys.readouterr().err

    def test_write_mesh(self, tmp_path):
        out = tmp_path / "out"
        code = main(["solve", "--case", "cap", "--n", "4",
                     "--rhs", "const:1", "--write-mesh", "--out", str(out)])
        assert code == 0
        mesh = read_obj(out / "mesh.obj")
        assert mesh.n_vertices == 1 + 3 * 4 * 5

    def test_consecutive_calls_do_not_share_arguments(self, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        args = ["solve", "--case", "cap", "--n", "4", "--rhs", "const:1"]
        assert main(args + ["--write-mesh", "--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert (first / "mesh.obj").exists()
        assert (second / "solution.csv").exists()
        assert not (second / "mesh.obj").exists()

    def test_quadratic_lantern_mesh_matches_family(self, tmp_path):
        from biharm.surfaces import lantern_family
        out = tmp_path / "out"
        code = main(["solve", "--case", "lantern", "--coupling", "quadratic",
                     "--n", "4", "--write-mesh", "--out", str(out)])
        assert code == 0
        mesh = read_obj(out / "mesh.obj")
        expected = lantern_family("quadratic", [4]).build(4)
        assert mesh.n_vertices == 68
        assert np.array_equal(mesh.faces, expected.faces)
        assert np.array_equal(mesh.vertices, expected.vertices)

    def test_quadratic_lantern_level_below_3_exit_2(self, tmp_path, capsys):
        code = main(["solve", "--case", "lantern", "--coupling", "quadratic",
                     "--n", "2", "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "quadratic lantern level" in err
        assert "got 2" in err

    def test_missing_mesh_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.obj"
        code = main(["solve", "--mesh", str(missing), "--rhs", "const:1",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert str(missing) in capsys.readouterr().err

    def test_lumped_on_closed_mesh(self, tmp_path, tet_obj):
        out = tmp_path / "out"
        code = main(["solve", "--mesh", str(tet_obj), "--rhs", "const:1",
                     "--mass", "lumped", "--out", str(out)])
        assert code == 0
        u1, u2 = read_solution_csv(out / "solution.csv")
        assert np.max(np.abs(u1)) <= 1e-8
        assert np.max(np.abs(u2)) <= 1e-8

    def test_obj_without_faces_exit_2(self, tmp_path, capsys):
        path = tmp_path / "points.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\n")
        code = main(["solve", "--mesh", str(path), "--rhs", "const:1",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"{path}: no faces found" in capsys.readouterr().err

    def test_unreferenced_vertex_exit_2(self, tmp_path, tet_obj, capsys):
        path = tmp_path / "extra.obj"
        path.write_text(tet_obj.read_text() + "v 9 9 9\n")
        code = main(["solve", "--mesh", str(path), "--rhs", "const:1",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert ("vertex 4 belongs to no face (1 unreferenced vertices)"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("text, message", [
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n",
         "{path}:4: face index 9 is out of range: the file has 3 vertices"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nf 1 2 3\n",
         "{path}: vertex 3 belongs to no face (1 unreferenced vertices)"),
    ], ids=["face-index-out-of-range", "unused-vertex"])
    def test_mesh_error_names_file(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.obj"
        path.write_text(text)
        code = main(["solve", "--mesh", str(path), "--rhs", "const:1",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert message.format(path=path) in capsys.readouterr().err

    def test_negative_face_indices_exit_2(self, tmp_path, capsys):
        # Relative OBJ indices are rejected, not resolved.
        path = tmp_path / "relative.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\n")
        code = main(["solve", "--mesh", str(path), "--rhs", "const:1",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert (f"{path}:4: face indices must be positive"
                in capsys.readouterr().err)

    def test_disconnected_closed_mesh_exit_2(self, tmp_path, capsys):
        tet = tetrahedron()
        path = tmp_path / "two.obj"
        write_obj(biharm.build_mesh(
            np.concatenate([tet.vertices, tet.vertices + 3.0]),
            np.concatenate([tet.faces, tet.faces + 4])), path)
        code = main(["solve", "--mesh", str(path), "--rhs", "const:1",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "2 connected components" in capsys.readouterr().err

    def test_bad_rhs_exit_2(self, tmp_path):
        code = main(["solve", "--case", "cap", "--n", "4",
                     "--rhs", "bogus:1", "--out", str(tmp_path / "out")])
        assert code == 2

    @pytest.mark.parametrize("rhs", ["harmonic:2,5", "harmonic:2,-3",
                                     "harmonic:-3,0"])
    def test_invalid_harmonic_rhs_exit_2(self, tmp_path, capsys, rhs):
        code = main(["solve", "--case", "cap", "--n", "4", "--rhs", rhs,
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "need degree l >= 0 and |m| <= l" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unreachable_tolerance_exit_3(self, tmp_path):
        code = main(["solve", "--case", "cap", "--n", "4",
                     "--rhs", "const:1", "--tol", "1e-30",
                     "--out", str(tmp_path / "out")])
        assert code == 3

    @pytest.mark.parametrize("args, max_u1", [
        (["lantern", "--R", "1e77"], "2.20213e+302"),
        (["sphere", "--R", "1e60"], "2.71566e+238"),
        (["lantern", "--R", "1e37"], "2.20213e+142"),
        (["sphere", "--n", "3", "--R", "1e-36"], "2.71566e-146"),
        (["sphere", "--n", "3", "--R", "1e-40"], "2.71566e-162"),
        (["lantern", "--R", "1e-33", "--H", "2e-33"], "1.00297e-132"),
    ], ids=["lantern-1e77", "sphere-1e60", "lantern-1e37", "sphere-1e-36",
            "sphere-1e-40", "lantern-1e-33"])
    def test_extreme_radius_solves(self, tmp_path, capsys, args, max_u1):
        # The solve runs in a power-of-two unit, so u1 is the R = 1
        # solution times R^4 wherever that is a normal float64.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["solve", "--case", *args,
                         "--out", str(tmp_path / "out")])
        assert code == 0
        assert f"max|u1| = {max_u1}," in capsys.readouterr().out
        assert caught == []

    @pytest.mark.parametrize("exponent, rhs, code, message", [
        (-130, "const:1", 0, None),
        (-200, "const:1e-300", 2, "error: u1 of the solve is about "
         "2^-1802, outside the normal float64 range\n"),
        (200, "const:1e300", 2, "error: u1 of the solve is about "
         "2^1791, outside the normal float64 range\n"),
    ], ids=["tiny-cap", "u1-below-range", "u1-above-range"])
    def test_scaled_mesh_solves_or_names_field(self, tmp_path, capsys,
                                               exponent, rhs, code,
                                               message):
        # u1 of a cap scaled by 2^-200 under a load of 1e-300 is about
        # 1e-541, beyond float64: it must not come out as exact zeros.
        mesh = surfaces.gen_cap_mesh(np.pi / 3.0, 16)
        path = tmp_path / "cap.obj"
        write_obj(build_mesh(mesh.vertices * 2.0 ** exponent, mesh.faces),
                  path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = main(["solve", "--mesh", str(path), "--rhs", rhs,
                        "--out", str(tmp_path / "out")])
        assert got == code
        assert caught == []
        if message is None:
            u1 = read_solution_csv(tmp_path / "out" / "solution.csv")[0]
            assert 0.0 < np.max(np.abs(u1)) < np.inf
        else:
            assert capsys.readouterr().err == message
            assert not (tmp_path / "out").exists()


class TestDimensions:
    @pytest.mark.parametrize("args, name", [
        (["solve", "--case", "cap", "--R", "nan"], "radius"),
        (["solve", "--case", "sphere", "--R", "nan"], "radius"),
        (["solve", "--case", "lantern", "--H", "inf"], "height"),
        (["converge", "--case", "cap", "--levels", "8,16,32", "--R", "inf"],
         "radius"),
    ], ids=["cap-R-nan", "sphere-R-nan", "lantern-H-inf", "converge-R-inf"])
    def test_nonfinite_dimension_exit_2(self, tmp_path, capsys, args, name):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(args + ["--out", str(tmp_path / "out")])
        assert code == 2
        assert (f"error: {name} must be positive and finite"
                in capsys.readouterr().err)
        assert caught == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("radius, message", [
        ("1e78", "radius 1e+78 is too large: R^4 overflows float64"),
        ("1e-78", "radius 1e-78 is too small: 64 / R^4 overflows float64"),
        ("1.3e-77",
         "radius 1.3e-77 is too small: 64 / R^4 overflows float64"),
    ], ids=["large", "small", "load-bound"])
    @pytest.mark.parametrize("case", ["cap", "sphere", "lantern"])
    def test_radius_with_r4_beyond_float64_exit_2(self, tmp_path, capsys,
                                                   case, radius, message):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["solve", "--case", case, "--R", radius,
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert caught == []
        assert not (tmp_path / "out").exists()


class TestConverge:
    def test_cap_study_artifacts(self, tmp_path):
        out = tmp_path / "out"
        code = main(["converge", "--case", "cap", "--levels", "2,4,8",
                     "--out", str(out)])
        assert code == 0
        records = read_levels_csv(out / "report.csv")
        assert len(records) == 3
        assert all(r.case == "cap" for r in records)
        rates = read_rates_csv(out / "rates.csv")
        assert set(rates) == {"l2_u1", "h1_u1", "l2_u2", "gamma", "epsilon",
                              "sigma"}
        tree = ET.parse(out / "plot.svg")
        assert tree.getroot().tag.endswith("svg")

    def test_failure_keeps_out_dir_with_files(self, tmp_path, capsys,
                                              monkeypatch):
        def fail(*args):
            raise ValueError("no plot")

        monkeypatch.setattr(cli, "_svg_loglog", fail)
        out = tmp_path / "out"
        code = main(["converge", "--case", "cap", "--levels", "2,3,4",
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: no plot\n"
        assert sorted(os.listdir(out)) == ["rates.csv", "report.csv"]

    def test_sphere_rates(self, tmp_path):
        out = tmp_path / "out"
        code = main(["converge", "--case", "sphere", "--levels", "1,2,3",
                     "--out", str(out)])
        assert code == 0
        rates = read_rates_csv(out / "rates.csv")
        assert rates["l2_u1"][0] > 1.5
        assert rates["l2_u2"][0] > 1.5

    def test_byte_identical_reruns(self, tmp_path):
        args = ["converge", "--case", "cap", "--levels", "2,4,8"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        for name in ("report.csv", "rates.csv", "plot.svg"):
            assert (out2 / name).read_bytes() == (out1 / name).read_bytes()

    @pytest.mark.parametrize("case", ["cap", "lantern"])
    def test_lumped_default_levels(self, tmp_path, case):
        out = tmp_path / "out"
        code = main(["converge", "--case", case, "--mass", "lumped",
                     "--out", str(out)])
        assert code == 0
        assert len(read_levels_csv(out / "report.csv")) == 4

    def test_lumped_on_sphere_check(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["converge", "--case", "sphere", "--mass", "lumped",
                     "--check", "--out", str(out)])
        assert code == 0
        assert "acceptance gate passed" in capsys.readouterr().out
        assert len(read_levels_csv(out / "report.csv")) == 4

    def test_outputs_independent_of_blas_threads(self, tmp_path):
        # OpenBLAS splits dot products of more than 10^4 entries over
        # its threads, which reorders their sums; level 5 (10,242
        # vertices) is the first above that size.
        src = str(Path(biharm.__file__).resolve().parents[1])
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           [src, os.environ.get("PYTHONPATH", "")]))
            out = tmp_path / f"threads-{threads}"
            subprocess.run(
                [sys.executable, "-m", "biharm", "converge", "--case",
                 "sphere", "--levels", "2,3,4,5", "--out", str(out)],
                env=env, check=True, capture_output=True, timeout=300)
            outs.append(out)
        for name in ("report.csv", "rates.csv"):
            assert ((outs[0] / name).read_bytes()
                    == (outs[1] / name).read_bytes())

    def test_quadratic_lantern_check_exits_4(self, tmp_path, capsys,
                                             monkeypatch):
        # The classical lantern does not converge, so it passes its own
        # gate and misses the linear lantern's convergence gate.
        args = ["converge", "--case", "lantern", "--coupling", "quadratic",
                "--levels", "4,6,8,11", "--check"]
        assert main(args + ["--out", str(tmp_path / "shipped")]) == 0
        monkeypatch.setitem(ACCEPTANCE_GATES, "lantern-quadratic",
                            ACCEPTANCE_GATES["lantern-linear"])
        assert main(args + ["--out", str(tmp_path / "linear-gate")]) == 4
        assert "gate" in capsys.readouterr().err

    def test_numerical_failure_names_level(self, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.setattr(biharm.linalg, "_CG_MAXITER", 1)
        code = main(["converge", "--case", "cap", "--levels", "8,16,32",
                     "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert "cap level 8 (217 vertices): " in err
        assert "boundary" in err

    def test_too_few_levels_exit_2(self, tmp_path):
        code = main(["converge", "--case", "cap", "--levels", "4,8",
                     "--out", str(tmp_path / "out")])
        assert code == 2

    @pytest.mark.parametrize("levels", ["128,128,128", "128,64,32"])
    def test_levels_not_increasing_exit_2_before_solving(
            self, tmp_path, capsys, monkeypatch, levels):
        calls = []
        monkeypatch.setattr(analysis, "run_level",
                            lambda *args, **kwargs: calls.append(args))
        code = main(["converge", "--case", "cap", "--levels", levels,
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert calls == []
        err = capsys.readouterr().err
        assert "strictly increasing" in err
        assert f"[{levels.replace(',', ', ')}]" in err

    def test_norm_not_finite_exit_2_before_any_file(self, tmp_path, capsys):
        # u grows like R^4, so area * u^2 overflows float64 at R = 1e35;
        # plotting the infinite norm used to raise OverflowError.  The
        # directories the command created go, the one that was there stays.
        for out in (tmp_path / "out", tmp_path / "new" / "sub"):
            code = main(["converge", "--case", "sphere", "--R", "1e35",
                         "--levels", "2,3,4", "--out", str(out)])
            assert code == 2
            assert capsys.readouterr().err == (
                "error: l2_u1 must be finite to fit a rate, got inf at "
                "level 2\n")
            assert list(tmp_path.iterdir()) == []

    def test_lantern_highres_check(self, tmp_path):
        out = tmp_path / "out"
        code = main(["converge", "--case", "lantern", "--reference",
                     "highres", "--levels", "4,8,16", "--check",
                     "--out", str(out)])
        assert code == 0
        records = read_levels_csv(out / "report.csv")
        assert [r.case for r in records] == ["lantern-linear-highres"] * 3

    def test_bad_tolerance_exit_2(self, tmp_path):
        code = main(["converge", "--case", "cap", "--levels", "2,4,8",
                     "--tol", "0.001", "--out", str(tmp_path / "out")])
        assert code == 2

    def test_every_family_label_has_a_gate(self):
        # `converge --check` reads the gate of the family label, which a
        # highres reference extends by "-highres" only.
        for spec in cli._CASES.values():
            for coupling in LANTERN_COUPLINGS:
                values = dict(cli._FIELD_DEFAULTS, coupling=coupling)
                assert spec.family(values, ()).label in ACCEPTANCE_GATES


class TestQuality:
    def test_icosphere_family_estimates(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["quality", "--case", "sphere",
                     "--levels", "0,1,2,3,4", "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        assert "gamma estimate" in captured.out
        assert "warning" not in captured.err
        records = read_levels_csv(out / "quality.csv")
        assert len(records) == 5
        report = analysis.fit_rates(records)
        assert report.rates["gamma"].slope >= 1.9
        # The epsilon fit over these five levels lands just below 0.9
        # (0.898 measured); it keeps rising toward 1 on finer levels.
        assert report.rates["epsilon"].slope >= 0.85
        assert report.sigma_estimate >= 1.5

    def test_quadratic_lantern_quality_has_large_sigma(self, tmp_path,
                                                       capsys):
        # On the classical lantern (n vertices per ring, n^2 bands) the
        # vertices converge to the cylinder but every face leans about
        # 68 degrees off it at every level.  The normal-angle slope
        # epsilon is about 0, so sigma = min(gamma, 2 epsilon) falls
        # below 3/2 and the certifier warns; shape regularity collapses
        # as well.  The m = n^2 needle lantern, whose normals do decay,
        # is covered by test_lantern_quadratic_normals_still_decay.
        out = tmp_path / "out"
        code = main(["quality", "--case", "lantern", "--coupling",
                     "quadratic", "--levels", "4,8,16", "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        assert "warning: sigma estimate" in captured.err
        assert "below 3/2" in captured.err
        kappas = [r.kappa_min for r in read_levels_csv(out / "quality.csv")]
        assert kappas[2] < 0.6 * kappas[0]

    def test_repeated_levels_exit_2(self, tmp_path, capsys):
        # Three meshes of one size leave no slope to fit.
        code = main(["quality", "--case", "cap", "--levels", "8,8,8",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "quality needs one or more distinct levels" in err
        assert "[8, 8, 8]" in err
        assert "sigma estimate" not in err

    @pytest.mark.parametrize("levels", ["", "64,64,8"])
    def test_levels_checked_before_any_mesh(self, tmp_path, capsys,
                                            monkeypatch, levels):
        calls = []
        monkeypatch.setattr("biharm.surfaces.gen_cap_mesh",
                            lambda *call: calls.append(call))
        code = main(["quality", "--case", "cap", "--levels", levels,
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert calls == []
        assert "quality needs one or more distinct levels" in (
            capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_single_mesh(self, tmp_path, tet_obj):
        out = tmp_path / "out"
        code = main(["quality", "--mesh", str(tet_obj), "--case", "sphere",
                     "--out", str(out)])
        assert code == 0
        assert len(read_levels_csv(out / "quality.csv")) == 1

    def test_cells_match_converge_report(self, tmp_path):
        # Both commands write the one level table; a certified level
        # carries the same cells as a solved one, without the norms.
        args = ["--case", "cap", "--levels", "8,16,32", "--out"]
        assert main(["quality", *args, str(tmp_path / "q")]) == 0
        assert main(["converge", *args, str(tmp_path / "c")]) == 0
        with open(tmp_path / "q" / "quality.csv", encoding="utf-8") as fh:
            quality = list(csv.DictReader(fh))
        with open(tmp_path / "c" / "report.csv", encoding="utf-8") as fh:
            report = list(csv.DictReader(fh))
        assert len(quality) == 3
        assert quality == [{k: row[k] for k in quality[0]} for row in report]


class TestFileErrors:
    @pytest.mark.parametrize("args, flag", [
        (["solve", "--rhs", "const:1"], "--mesh"),
        (["quality", "--case", "cap"], "--mesh"),
        (["converge"], "--config"),
    ], ids=["solve-mesh", "quality-mesh", "converge-config"])
    def test_directory_as_input_exit_2(self, tmp_path, capsys, args, flag):
        folder = tmp_path / "folder"
        folder.mkdir()
        code = main(args + [flag, str(folder), "--out",
                            str(tmp_path / "out")])
        assert code == 2
        assert f"error: {folder}: Is a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("args, flag, name", [
        (["solve", "--rhs", "const:1"], "--mesh", "bad.obj"),
        (["converge"], "--config", "bad.json"),
    ], ids=["solve-mesh", "converge-config"])
    def test_not_utf8_names_file_exit_2(self, tmp_path, capsys, args, flag,
                                        name):
        bad = tmp_path / name
        bad.write_bytes(b"\xff\n")
        code = main(args + [flag, str(bad), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert str(bad) in err
        assert "can't decode byte 0xff" in err

    def test_missing_config_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        code = main(["converge", "--config", str(missing), "--out",
                     str(tmp_path / "out")])
        assert code == 2
        assert (f"error: {missing}: No such file or directory"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("args", [
        ["solve", "--case", "cap"],
        ["converge", "--case", "cap", "--levels", "8,16,32"],
        ["quality", "--case", "cap"],
    ], ids=["solve", "converge", "quality"])
    def test_out_is_a_file_exit_2_before_any_mesh(self, tmp_path, capsys,
                                                  monkeypatch, args):
        calls = []
        monkeypatch.setattr("biharm.surfaces.gen_cap_mesh",
                            lambda *call: calls.append(call))
        out = tmp_path / "taken"
        out.write_text("")
        code = main(args + ["--out", str(out)])
        assert code == 2
        assert f"error: {out}: File exists" in capsys.readouterr().err
        assert calls == []


class TestInputErrors:
    @pytest.mark.parametrize("args, config, message", [
        (["converge"], [], "config file must hold a JSON object"),
        (["converge", "--levels", "8,16,32"], None,
         "--levels requires --case"),
        (["converge"], {"case": "lantern", "coupling": "cubic"},
         "coupling must be linear or quadratic, got 'cubic'"),
        (["converge"], {"case": "cap", "mass_mode": "diag"},
         "mass_mode must be consistent or lumped, got 'diag'"),
        (["converge", "--case", "cap", "--levels", "8,x"], None,
         "argument --levels: levels must be comma-separated integers, "
         "got '8,x'"),
        (["solve", "--case", "cap", "--rhs", "const:abc"], None,
         "bad constant right-hand side 'const:abc'"),
        (["solve", "--case", "cap", "--n", "8", "--rhs", "const:nan"], None,
         "right-hand side contains non-finite entries"),
        (["solve", "--case", "cap", "--rhs", "harmonic:2"], None,
         "harmonic right-hand side must be harmonic:l,m, got 'harmonic:2'"),
        (["solve"], None, "solve needs --mesh FILE or --case KIND"),
        (["solve", "--mesh", "any.obj"], None,
         "solve with --mesh needs --rhs const:VALUE or harmonic:l,m"),
        (["converge"], None, "converge needs --case KIND (or a config file)"),
        (["quality", "--mesh", "any.obj"], None,
         "quality on an OBJ mesh needs --case KIND"),
        (["quality"], None, "quality needs --mesh FILE or --case KIND"),
        (["solve", "--case", "cap", "--n", "1"], None,
         "need at least 2 rings, got 1"),
        (["converge", "--case", "lantern", "--coupling", "quadratic",
          "--levels", "2,4,8"], None,
         "quadratic lantern level n must be at least 3, got 2"),
        (["quality", "--case", "cap", "--levels", "1,4"], None,
         "need at least 2 rings, got 1"),
        (["quality", "--case", "sphere", "--levels", "1,2,1000000000000"],
         None, "subdivisions must be < 30 for 20*4^k faces to fit in int64, "
         "got 1000000000000"),
        (["solve", "--case", "sphere", "--n", "1000000000000"], None,
         "subdivisions must be < 30 for 20*4^k faces to fit in int64, "
         "got 1000000000000"),
        (["quality", "--mesh", "any.obj", "--case", "sphere", "--levels",
          "1,1,1"], None, "--levels does not apply to quality --mesh"),
        (["solve", "--mesh", "any.obj", "--n", "5", "--rhs", "const:1"],
         None, "--n does not apply to solve --mesh"),
        (["solve", "--mesh", "any.obj", "--case", "cap", "--rhs", "const:1"],
         None, "--case does not apply to solve --mesh"),
        (["solve", "--mesh", "any.obj", "--theta0", "1.0", "--rhs",
          "const:1"], None, "--theta0 requires --case"),
        (["quality", "--case", "cap", "--levels", "2,4", "--tol", "1e-5",
          "--mass", "lumped"], None,
         "unrecognized arguments: --tol 1e-5 --mass lumped"),
        (["quality", "--case", "sphere", "--levels", "0,1,2", "--l", "2",
          "--m", "1"], None, "unrecognized arguments: --l 2 --m 1"),
        (["solve", "--case", "cap", "--R", "1e78"], None,
         "radius 1e+78 is too large: R^4 overflows float64"),
        (["solve", "--case", "cap", "--n", "4", "--R", "2e77"], None,
         "radius 2e+77 is too large: R^4 overflows float64"),
        (["solve", "--case", "sphere", "--n", "1", "--R", "1e80"], None,
         "radius 1e+80 is too large: R^4 overflows float64"),
        (["quality", "--case", "cap", "--levels", "4,8,16", "--R", "1e80"],
         None, "radius 1e+80 is too large: R^4 overflows float64"),
        (["quality", "--case", "lantern", "--levels", "4,8,16", "--H",
          "1e160"], None, "face 0 has an area or edge length beyond float64"),
    ], ids=["config-array", "levels-without-case", "coupling-cubic",
            "mass-mode-diag", "levels-not-integers", "rhs-const-abc",
            "rhs-const-nan", "rhs-harmonic-one-index", "solve-without-input",
            "solve-mesh-without-rhs", "converge-without-case",
            "quality-mesh-without-case", "quality-without-input",
            "solve-cap-level-below-2", "converge-quadratic-level-below-3",
            "quality-cap-level-below-2", "quality-sphere-level-beyond-int64",
            "solve-sphere-level-beyond-int64", "quality-mesh-with-levels",
            "solve-mesh-with-n", "solve-mesh-with-case",
            "solve-mesh-with-theta0", "quality-with-solver-flags",
            "quality-with-harmonic-flags", "solve-cap-R4-overflows",
            "solve-cap-n4-R4-overflows", "solve-sphere-R4-overflows",
            "quality-cap-R4-overflows", "quality-lantern-faces-overflow"])
    def test_exit_2_names_cause_before_out(self, tmp_path, capsys, args,
                                           config, message):
        if config is not None:
            path = tmp_path / "study.json"
            path.write_text(json.dumps(config))
            args = args + ["--config", str(path)]
        out = tmp_path / "out"
        try:
            code = main(args + ["--out", str(out)])
        except SystemExit as exc:         # argparse rejects a flag itself
            code = exc.code
        assert code == 2
        assert capsys.readouterr().err.endswith(f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("theta0", ["0", "3.141592653589793"])
    def test_cap_angle_rejected_before_any_mesh(self, tmp_path, capsys,
                                                monkeypatch, theta0):
        def gen_cap_mesh(*args):
            raise AssertionError("a cap mesh was built")

        monkeypatch.setattr(surfaces, "gen_cap_mesh", gen_cap_mesh)
        out = tmp_path / "out"
        code = main(["solve", "--case", "cap", "--n", "4", "--theta0",
                     theta0, "--out", str(out)])
        assert code == 2
        assert (capsys.readouterr().err == f"error: opening angle must lie "
                f"in (0, pi), got {float(theta0)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["solve", "--case", "cap", "--n", "1000000000000"],
        ["converge", "--case", "cap", "--levels", "8,16,1000000000000"],
    ], ids=["solve", "converge"])
    def test_level_too_large_to_allocate_exit_2(self, tmp_path, capsys,
                                                monkeypatch, args):
        # The generator fails as numpy does at this size; a real request
        # need not fail fast where memory is overcommitted.
        real_gen = surfaces.gen_cap_mesh

        def gen_cap_mesh(theta0, rings, radius=1.0):
            if rings > 10 ** 6:
                raise MemoryError("Unable to allocate 7.28 TiB for an array")
            return real_gen(theta0, rings, radius)

        monkeypatch.setattr(surfaces, "gen_cap_mesh", gen_cap_mesh)
        code = main(args + ["--out", str(tmp_path / "out")])
        assert code == 2
        assert (capsys.readouterr().err
                == "error: Unable to allocate 7.28 TiB for an array\n")


# Every flag of each subcommand, sorted: adding a knob changes this table.
SUBCOMMAND_FLAGS = {
    "solve": ["--H", "--R", "--case", "--config", "--coupling", "--l", "--m",
              "--mass", "--mesh", "--n", "--out", "--rhs", "--theta0",
              "--tol", "--write-mesh"],
    "converge": ["--H", "--R", "--case", "--check", "--config", "--coupling",
                 "--l", "--levels", "--m", "--mass", "--out", "--reference",
                 "--theta0", "--tol"],
    "quality": ["--H", "--R", "--case", "--config", "--coupling",
                "--levels", "--mesh", "--out", "--theta0"],
}


def test_subcommand_flags():
    commands, = (action.choices for action in cli._build_parser()._actions
                 if isinstance(action, argparse._SubParsersAction))
    assert {name: sorted(flag for action in parser._actions
                         for flag in action.option_strings
                         if flag not in ("-h", "--help"))
            for name, parser in commands.items()} == SUBCOMMAND_FLAGS


class TestConfigFile:
    def test_json_config_drives_study(self, tmp_path):
        out = tmp_path / "from-config"
        cfg = {"case": "cap", "theta0": float(np.pi / 3.0),
               "ring_levels": [2, 4, 8], "out": str(out)}
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["converge", "--config", str(cfg_path)])
        assert code == 0
        assert (out / "report.csv").exists()

    def test_flag_overrides_config(self, tmp_path):
        cfg_out = tmp_path / "config-out"
        flag_out = tmp_path / "flag-out"
        cfg = {"case": "cap", "ring_levels": [2, 4, 8], "out": str(cfg_out)}
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["converge", "--config", str(cfg_path),
                     "--out", str(flag_out)])
        assert code == 0
        assert (flag_out / "report.csv").exists()
        assert not cfg_out.exists()

    def test_unknown_field_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(json.dumps({"case": "cap", "bogus": 1}))
        code = main(["converge", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("cfg, field", [
        ({"case": "cap", "tol": "1e-10"}, "tol"),
        ({"case": "cap", "tol": None}, "tol"),
        ({"case": ["cap"]}, "case"),
        ({"case": "cap", "R": [1]}, "R"),
        ({"case": "cap", "out": 5}, "out"),
        ({"case": "sphere", "l": 2.5}, "l"),
        ({"case": "sphere", "R": True}, "R"),
        ({"case": "cap", "ring_levels": [8, True, 32]}, "ring_levels"),
    ], ids=["tol-string", "tol-null", "case-list", "R-list", "out-int",
            "l-float", "R-bool", "level-bool"])
    def test_value_of_wrong_type_exit_2(self, tmp_path, monkeypatch, capsys,
                                        cfg, field):
        monkeypatch.chdir(tmp_path)
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["solve", "--config", str(cfg_path), "--n", "2"])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {field} ")
        assert os.listdir(tmp_path) == ["study.json"]

    def test_int_accepted_for_float(self, tmp_path):
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(json.dumps({"case": "cap", "R": 2,
                                        "theta0": 1}))
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg_path), "--n", "2",
                     "--out", str(out)]) == 0
        assert (out / "solution.csv").exists()

    @pytest.mark.parametrize("command, code", [
        (["solve", "--n", "4"], 0), (["quality", "--mesh", "tet"], 0),
        (["converge"], 2)], ids=["solve", "quality-mesh", "converge"])
    def test_levels_read_only_where_used(self, tmp_path, tet_obj, capsys,
                                         command, code):
        # solve builds its --n and quality --mesh reads a file: neither
        # checks the config's levels, which converge rejects.
        path = tmp_path / "study.json"
        path.write_text(json.dumps({"case": "cap", "ring_levels": [1, 4, 8]}))
        command = [str(tet_obj) if arg == "tet" else arg for arg in command]
        assert main([*command, "--config", str(path),
                     "--out", str(tmp_path / "out")]) == code
        assert ("need at least 2 rings, got 1" in capsys.readouterr().err) == (
            code == 2)

    def test_field_for_wrong_case_exit_2(self, tmp_path):
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(json.dumps(
            {"case": "cap", "coupling": "linear",
             "ring_levels": [2, 4, 8]}))
        code = main(["converge", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
        assert code == 2


class TestSolutionCsv:
    def test_round_trip(self, tmp_path):
        out = tmp_path / "out"
        main(["solve", "--case", "cap", "--n", "2", "--rhs", "const:1",
              "--out", str(out)])
        text = (out / "solution.csv").read_text()
        assert text.splitlines()[0] == "vertex,u1,u2"
        u1, u2 = read_solution_csv(out / "solution.csv")
        assert len(u1) == len(u2) == 1 + 3 * 2 * 3

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.floats(width=64), st.floats(width=64)),
                    min_size=1, max_size=60))
    def test_bytes_match_per_row_writer(self, tmp_path_factory, rows):
        u1, u2 = (np.array(column, dtype=float) for column in zip(*rows))
        folder = tmp_path_factory.mktemp("csv")
        cli._write_solution_csv(folder / "new.csv", u1, u2)
        with open(folder / "old.csv", "w", encoding="utf-8",
                  newline="\n") as fh:
            fh.write("vertex,u1,u2\n")
            for i in range(u1.shape[0]):
                fh.write(f"{i},{u1[i]:.12g},{u2[i]:.12g}\n")
        assert (folder / "new.csv").read_bytes() == (
            folder / "old.csv").read_bytes()

    def test_large_field_bytes_match_per_row_writer(self, tmp_path, rng):
        # More rows than one write block holds.
        u1, u2 = rng.normal(size=(2, 9000)) * 10.0 ** rng.integers(
            -300, 300, size=(2, 9000))
        cli._write_solution_csv(tmp_path / "new.csv", u1, u2)
        expected = "vertex,u1,u2\n" + "".join(
            f"{i},{a:.12g},{b:.12g}\n" for i, (a, b) in enumerate(zip(u1, u2)))
        assert (tmp_path / "new.csv").read_text() == expected
