import math
import re
import sys
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biharm import mesh as mesh_module
from biharm.mesh import (build_mesh, circumradius_ratios, component_labels,
                         inradius_ratios, max_edge_length, read_obj,
                         write_obj)
from biharm.surfaces import gen_cap_mesh

from conftest import grid_mesh, single_triangle, tetrahedron
from helpers import fancy_face_geometry


def read_obj_per_line(path):
    """Reference OBJ reader: the line-by-line parser that read_obj
    replaced.  Its arrays and error messages are the ones read_obj must
    reproduce."""
    vertices = []
    faces = []

    def number(kind, token):
        """``kind(token)``, its error prefixed with the file and line."""
        try:
            return kind(token)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None

    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "v":
                if len(parts) < 4:
                    raise ValueError(
                        f"{path}:{lineno}: vertex record needs 3 coordinates")
                vertices.append([number(float, token)
                                 for token in parts[1:4]])
            elif parts[0] == "f":
                if len(parts) != 4:
                    raise ValueError(
                        f"{path}:{lineno}: only triangular faces supported")
                idx = []
                for token in parts[1:]:
                    head = token.split("/")[0]
                    i = number(int, head)
                    if i <= 0:
                        raise ValueError(
                            f"{path}:{lineno}: face indices must be positive")
                    idx.append(i - 1)
                faces.append(idx)
    if not vertices:
        raise ValueError(f"{path}: no vertices found")
    if not faces:
        raise ValueError(f"{path}: no faces found")
    return mesh_module.build_mesh(np.asarray(vertices, dtype=float),
                                  np.asarray(faces, dtype=np.int64))


def write_obj_per_row(mesh, path):
    """Reference OBJ writer: the row-by-row writer that write_obj
    replaced."""
    with open(path, "w", encoding="utf-8") as fh:
        for x, y, z in mesh.vertices:
            fh.write(f"v {x:.17g} {y:.17g} {z:.17g}\n")
        for i, j, k in mesh.faces:
            fh.write(f"f {i + 1} {j + 1} {k + 1}\n")


def parse(reader, path):
    """What ``reader`` makes of the file before mesh validation: the
    (vertices, faces) arrays it passes on, or its error as (type,
    message)."""
    with mock.patch.object(mesh_module, "build_mesh", lambda v, f: (v, f)):
        try:
            return reader(path)
        except (ValueError, OverflowError) as exc:
            return type(exc), str(exc)


def assert_bit_identical(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_parses_like_reference(path):
    new, old = parse(read_obj, path), parse(read_obj_per_line, path)
    if isinstance(old[0], type):
        assert isinstance(new[0], type) and new == old, new
    else:
        assert not isinstance(new[0], type), new
        assert_bit_identical(new[0], old[0])
        assert_bit_identical(new[1], old[1])


class TestBuildMesh:
    def test_single_triangle_boundary(self):
        mesh = single_triangle()
        assert mesh.n_vertices == 3
        assert mesh.n_faces == 1
        assert sorted(mesh.boundary_vertices) == [0, 1, 2]
        assert mesh.boundary_edges.shape == (3, 2)
        assert not mesh.is_closed

    def test_tetrahedron_closed(self):
        mesh = tetrahedron()
        assert mesh.is_closed
        assert mesh.boundary_vertices.size == 0
        assert mesh.boundary_edges.size == 0
        assert mesh.edges.shape == (6, 2)

    @pytest.mark.parametrize("make", [tetrahedron, lambda: grid_mesh(3),
                                      lambda: gen_cap_mesh(1.0, 5)],
                             ids=["tetrahedron", "grid", "cap"])
    def test_face_edges_name_the_opposite_edges(self, make):
        mesh = make()
        for tri, edges in zip(mesh.faces, mesh.face_edges):
            for k in range(3):
                assert (list(mesh.edges[edges[k]])
                        == sorted(np.delete(tri, k)))
        assert np.all(np.diff(mesh.edges[:, 0] * mesh.n_vertices
                              + mesh.edges[:, 1]) > 0)
        assert np.array_equal(np.unique(mesh.face_edges),
                              np.arange(mesh.edges.shape[0]))

    def test_same_winding_rejected(self):
        verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                          [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
        faces = np.array([[0, 1, 2], [0, 1, 3]])
        with pytest.raises(ValueError, match=r"faces disagree on orientation "
                                             r"across edge \(0, 1\)"):
            build_mesh(verts, faces)

    def test_zero_area_rejected(self):
        verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                          [2.0, 0.0, 0.0]])
        with pytest.raises(ValueError,
                           match=r"face 0 has \(numerically\) zero area"):
            build_mesh(verts, np.array([[0, 1, 2]]))

    @pytest.mark.parametrize("scale", [5e153, 1e160],
                             ids=["area-overflows", "lengths-overflow"])
    def test_overflowing_geometry_rejected(self, scale):
        # Left unchecked, the second face got an infinite area, a zero
        # normal and zero cotangents.
        verts = np.concatenate([np.eye(3), scale * np.eye(3)])
        with pytest.raises(ValueError, match=r"face 1 has an area or edge "
                                             r"length beyond float64"):
            build_mesh(verts, np.array([[0, 1, 2], [3, 4, 5]]))

    def test_repeated_index_rejected(self):
        verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                          [0.0, 1.0, 0.0]])
        with pytest.raises(ValueError,
                           match="face with repeated vertex indices"):
            build_mesh(verts, np.array([[0, 1, 1]]))

    def test_nonmanifold_rejected(self):
        verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                          [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                          [0.0, -1.0, 0.0]])
        faces = np.array([[0, 1, 2], [0, 3, 1], [0, 1, 4]])
        with pytest.raises(ValueError, match=r"edge \(0, 1\) shared by more "
                                             r"than two faces"):
            build_mesh(verts, faces)

    def test_index_out_of_range(self):
        verts = np.zeros((3, 3))
        with pytest.raises(ValueError, match="face indices out of range"):
            build_mesh(verts, np.array([[0, 1, 5]]))

    def test_interior_edges_opposite_order(self):
        mesh = grid_mesh(3)
        directed = {}
        for face in mesh.faces:
            for k in range(3):
                a, b = int(face[k]), int(face[(k + 1) % 3])
                directed[(a, b)] = directed.get((a, b), 0) + 1
        boundary = set(map(tuple, mesh.boundary_edges))
        for (a, b), count in directed.items():
            assert count == 1
            if (a, b) not in boundary:
                assert (b, a) in directed

    def test_unreferenced_vertex_rejected(self):
        mesh = grid_mesh(2)
        verts = np.concatenate([mesh.vertices[:4], [[5.0, 5.0, 0.0]],
                                mesh.vertices[4:], [[6.0, 6.0, 0.0]]])
        faces = np.where(mesh.faces >= 4, mesh.faces + 1, mesh.faces)
        with pytest.raises(ValueError,
                           match=r"vertex 4 belongs to no face "
                                 r"\(2 unreferenced vertices\)"):
            build_mesh(verts, faces)

    @pytest.mark.parametrize("vertices, faces, message", [
        (np.zeros((3, 2)), [[0, 1, 2]], r"vertices must have shape \(n, 3\)"),
        (np.eye(4, 3), [[0, 1, 2, 3]], r"faces must have shape \(F, 3\)"),
        ([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, np.nan, 0.0]],
         [[0, 1, 2]], "vertex coordinates must be finite"),
    ], ids=["vertices-2d", "quad-face", "nan-coordinate"])
    def test_malformed_input_rejected(self, vertices, faces, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build_mesh(vertices, faces)

    def test_immutable(self):
        mesh = single_triangle()
        with pytest.raises(ValueError, match="read-only"):
            mesh.vertices[0, 0] = 5.0
        assert not any(array.flags.writeable for array in mesh)
        # A validated array cannot be swapped for another either.
        with pytest.raises(AttributeError):
            mesh.vertices = np.zeros((3, 3))

    def test_repr(self):
        assert (repr(single_triangle())
                == "TriMesh(3 vertices, 1 faces, bounded)")
        assert repr(tetrahedron()) == "TriMesh(4 vertices, 4 faces, closed)"


class TestTriangleGeometry:
    def test_right_triangle(self):
        mesh = single_triangle()
        assert mesh.face_areas[0] == pytest.approx(0.5)
        assert mesh.face_cotangents[0] == pytest.approx([0.0, 1.0, 1.0])
        assert mesh.face_normals[0] == pytest.approx([0.0, 0.0, 1.0])
        assert mesh.face_edge_lengths[0] == pytest.approx(
            [np.sqrt(2.0), 1.0, 1.0])

    def test_equilateral_radii(self):
        mesh = single_triangle((0, 0, 0), (1, 0, 0),
                               (0.5, np.sqrt(3.0) / 2.0, 0))
        # Unit edges: the ratios to the longest edge are the radii.
        assert inradius_ratios(mesh)[0] == pytest.approx(
            1.0 / (2.0 * np.sqrt(3.0)))
        assert circumradius_ratios(mesh)[0] == pytest.approx(
            1.0 / np.sqrt(3.0))

    def test_cotangent_identity(self, rng):
        for _ in range(50):
            pts = rng.normal(size=(3, 3))
            try:
                mesh = build_mesh(pts, np.array([[0, 1, 2]]))
            except ValueError:
                continue
            c = mesh.face_cotangents[0]
            total = c[0] * c[1] + c[1] * c[2] + c[2] * c[0]
            assert total == pytest.approx(1.0, abs=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_faces=st.integers(1, 300),
           scale=st.sampled_from([1e-6, 1.0, 1e6]))
    def test_matches_fancy_indexed_reference(self, seed, n_faces, scale):
        # Disjoint random triangles, every vertex used once.
        rng = np.random.default_rng(seed)
        vertices = rng.normal(size=(3 * n_faces, 3)) * scale
        faces = rng.permutation(3 * n_faces).reshape(-1, 3)
        mesh = build_mesh(vertices, faces)
        for got, want in zip((mesh.face_areas, mesh.face_normals,
                              mesh.face_edge_lengths, mesh.face_cotangents),
                             fancy_face_geometry(vertices, faces)):
            assert_bit_identical(got, want)

    def test_edges_are_the_sorted_unique_pairs(self, rng):
        cap = gen_cap_mesh(1.0, 6)
        faces = cap.faces[rng.permutation(cap.n_faces)]
        mesh = build_mesh(cap.vertices, faces)
        pairs = np.sort(faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        uniq, counts = np.unique(pairs, axis=0, return_counts=True)
        assert np.array_equal(mesh.edges, uniq)
        assert np.array_equal(np.sort(mesh.boundary_edges, axis=1),
                              uniq[counts == 1])


class TestMaxEdgeLength:
    def test_right_triangle_hypotenuse(self):
        assert max_edge_length(single_triangle()) == pytest.approx(
            np.sqrt(2.0))

    def test_scaling_exact(self):
        mesh = grid_mesh(3)
        scaled = build_mesh(2.0 * mesh.vertices, mesh.faces)
        assert max_edge_length(scaled) == 2.0 * max_edge_length(mesh)

    def test_area_rigid_motion_invariant(self, rng):
        mesh = grid_mesh(4)
        total = mesh.face_areas.sum()
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        moved = build_mesh(mesh.vertices @ q.T + np.array([0.3, -1.2, 2.0]),
                           mesh.faces)
        assert moved.face_areas.sum() == pytest.approx(total, rel=1e-12)


TRIANGLE = "v 0 0 0\nv 1 0 0\nv 0 1 0\n"

# OBJ texts on which read_obj must give the reference reader's arrays
# or its exact error message.
OBJ_SNIPPETS = {
    "plain": TRIANGLE + "f 1 2 3\n",
    "no_final_newline": TRIANGLE + "f 1 2 3",
    "comments_and_blank_lines": "# head\n\n" + TRIANGLE
                                + "   \n#f 1 2 3\n\t\nf 1 2 3\n# tail",
    "vn_vt_and_other_records": "o thing\nvn 0 0 1\n" + TRIANGLE
                               + "vt 0 0\ng group\nusemtl m\ns off\n"
                               "vx 1 2\nfo 1 2 3 4 5\nf 1 2 3\n",
    "leading_tabs_and_spaces": "\tv 0 0 0\n   v 1 0 0\n \t v\t0\t1\t0\n"
                               "\t f  1\t2   3  \n",
    "crlf": TRIANGLE.replace("\n", "\r\n") + "f 1 2 3\r\n",
    "lone_cr": TRIANGLE.replace("\n", "\r") + "f 1 2 3\r",
    "unicode_whitespace": "v\xa00 0 0\n\u3000v 1\x0b0\x0c0\nv 0 1 0\x1c\n"
                          "f 1\u20002 3\x85\n",
    "four_number_vertices": "v 0 0 0 1\nv 1 0 0 0.5 extra\nv 0 1 0 1\n"
                            "f 1 2 3\n",
    "slash_faces": TRIANGLE + "v 1 1 0\nf 1/1/1 2/2/1 3/3/1\n"
                              "f 2//4 4//1 3//2\n",
    "signs_exponents_inf": "v -0 +1e0 .5\nv 1.5E+2 -2e-3 inf\n"
                           "v nan 1 0\nf +1 02 3\n",
    "interleaved_records": "v 0 0 0\nf 1 2 3\nv 1 0 0\nf 1 3 4\nv 0 1 0\n"
                           "v 1 1 1\n",
    "vertices_only": TRIANGLE,
    "two_coordinate_vertex": "v 0 0 0\nv 1 0\nv 0 1 0\nf 1 2 3\n",
    "bare_v": TRIANGLE + "v\nf 1 2 3\n",
    "bad_coordinate": "v 0 0 0\nv 1 x 0\nv 0 1 0\nf 1 2 3\n",
    "quad": TRIANGLE + "v 1 1 0\nf 1 2 4 3\n",
    "two_entry_face": TRIANGLE + "f 1 2\n",
    "trailing_slash_entry": TRIANGLE + "f 1 2 3 /4\n",
    "leading_slash_entry": TRIANGLE + "f /1 2 3\n",
    "float_index": TRIANGLE + "f 1 2.0 3\n",
    "index_zero": TRIANGLE + "f 0 1 2\n",
    "negative_indices": TRIANGLE + "f -3 -2 -1\n",
    "index_out_of_range": TRIANGLE + "f 1 2 4\n",
    "face_error_before_vertex_error": TRIANGLE + "f 1 2\nv 1\n",
    "vertex_error_before_face_error": TRIANGLE + "v 1\nf 1 2\n",
    "no_vertices": "# nothing\nf 1 2 3\n",
    "empty": "",
}

# Every character but the line break "\n" that str.split() splits at:
# \x85, \u3000, \x1d, \u2028, \x0c and the others.
SPLIT_BLANKS = [c for c in map(chr, range(sys.maxunicode + 1))
                if c.isspace() and c != "\n"]


class TestObjIO:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        mesh = grid_mesh(3)
        jittered = build_mesh(
            mesh.vertices + 1e-3 * rng.normal(size=mesh.vertices.shape),
            mesh.faces)
        path = tmp_path / "mesh.obj"
        write_obj(jittered, path)
        back = read_obj(path)
        assert np.array_equal(back.vertices, jittered.vertices)
        assert np.array_equal(back.faces, jittered.faces)

    def test_reader_ignores_other_records(self, tmp_path):
        path = tmp_path / "mixed.obj"
        path.write_text("# comment\nvn 0 0 1\nv 0 0 0\nv 1 0 0\nv 0 1 0\n"
                        "vt 0 0\nf 1/1/1 2/2/1 3/3/1\n")
        mesh = read_obj(path)
        assert mesh.n_vertices == 3
        assert mesh.n_faces == 1

    def test_reader_rejects_quad(self, tmp_path):
        path = tmp_path / "quad.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
        with pytest.raises(ValueError,
                           match=":5: only triangular faces supported$"):
            read_obj(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_obj(tmp_path / "nope.obj")

    def test_byte_order_mark_skipped(self, tmp_path):
        plain, marked = tmp_path / "plain.obj", tmp_path / "marked.obj"
        write_obj(gen_cap_mesh(1.0, 3), plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        got, want = read_obj(marked), read_obj(plain)
        assert_bit_identical(got.vertices, want.vertices)
        assert_bit_identical(got.faces, want.faces)

    @pytest.mark.parametrize("name", sorted(OBJ_SNIPPETS))
    def test_matches_per_line_reader(self, tmp_path, name):
        path = tmp_path / f"{name}.obj"
        path.write_bytes(OBJ_SNIPPETS[name].encode("utf-8"))
        assert_parses_like_reference(path)

    def test_error_messages(self, tmp_path):
        path = tmp_path / "bad.obj"
        for text, message in [
                (TRIANGLE + "f 1 2 3 4\n", "4: only triangular faces"),
                ("v 0 0\n", "1: vertex record needs 3 coordinates"),
                (TRIANGLE + "\nf 1 0 2\n", "5: face indices must be positive"),
                (TRIANGLE + "f -3 -2 -1\n",
                 "4: face indices must be positive"),
                (TRIANGLE + "f 1 2 99999999999999999999\n",
                 "4: face index 99999999999999999999 is too large"),
                ("v 0 0 zero\n",
                 "1: could not convert string to float: 'zero'"),
                (TRIANGLE + "f 2 3 4.0\n",
                 "4: invalid literal for int() with base 10: '4.0'"),
                ("# empty\n", " no vertices found"),
                ("v 0 0 0\n", " no faces found")]:
            path.write_text(text)
            with pytest.raises(ValueError,
                               match=f"^{re.escape(str(path))}:?"
                                     f"{re.escape(message)}"):
                read_obj(path)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(["", " \xa0", *SPLIT_BLANKS]),
        st.lists(st.sampled_from(
            ["v", "v", "f", "f", "vt", "#", "#v", "1", "2", "3", "4", "0",
             "-1", "+2", "1.5", "-0", "1e3", "inf", "nan", "x", "1/2",
             "2//3", "3/1/1", "/1", "1/", "", "v1"]), max_size=6),
        st.sampled_from(["  ", *SPLIT_BLANKS]),
        st.sampled_from(["\n", "\r\n", "\r"])), max_size=12))
    def test_fuzzed_lines_match_per_line_reader(self, tmp_path_factory,
                                                lines):
        text = "".join(lead + sep.join(tokens) + end
                       for lead, tokens, sep, end in lines)
        path = tmp_path_factory.mktemp("fuzz") / "fuzz.obj"
        path.write_bytes(text.encode("utf-8"))
        assert_parses_like_reference(path)

    def test_python_only_number_spellings_rejected(self, tmp_path):
        # float() and int() accept digit-group underscores and non-ASCII
        # digits; numpy's parser does not, and read_obj names the line.
        path = tmp_path / "odd.obj"
        for text, token in [("v 1_0 0 0\n", "'1_0'"),
                            ("v 0 \u0661 0\n", "'\u0661'"),
                            (TRIANGLE + "f 1 2 \u0663\n", "'\u0663'")]:
            path.write_text(text, encoding="utf-8")
            message = (f"{path}:{text.count(chr(10))}: number {token} is "
                       f"not written in plain ASCII digits")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                read_obj(path)


FINITE_FLOAT64 = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(0, 2 ** 64 - 1).map(
        lambda bits: float(np.uint64(bits).view(np.float64))).filter(
            math.isfinite),
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e308, -1e308, sys.float_info.max]))


class TestObjRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(FINITE_FLOAT64, FINITE_FLOAT64,
                              FINITE_FLOAT64), min_size=3, max_size=40),
           st.integers(0, 2 ** 32 - 1))
    def test_random_bit_patterns(self, tmp_path_factory, rows, seed):
        vertices = np.array(rows, dtype=float)
        faces = np.random.default_rng(seed).integers(
            0, len(rows), size=(len(rows), 3))
        mesh = types.SimpleNamespace(vertices=vertices, faces=faces)
        folder = tmp_path_factory.mktemp("round")
        write_obj(mesh, folder / "new.obj")
        write_obj_per_row(mesh, folder / "old.obj")
        assert ((folder / "new.obj").read_bytes()
                == (folder / "old.obj").read_bytes())
        got = parse(read_obj, folder / "new.obj")
        assert_bit_identical(got[0], vertices)
        assert_bit_identical(got[1], faces.astype(np.int64))

    def test_large_mesh_bytes_match_per_row_writer(self, tmp_path):
        # More rows than one write block holds.
        mesh = grid_mesh(70, shear=0.3)
        write_obj(mesh, tmp_path / "new.obj")
        write_obj_per_row(mesh, tmp_path / "old.obj")
        assert ((tmp_path / "new.obj").read_bytes()
                == (tmp_path / "old.obj").read_bytes())
        back = read_obj(tmp_path / "new.obj")
        assert_bit_identical(back.vertices, mesh.vertices)
        assert_bit_identical(back.faces, mesh.faces)


class TestComponentLabels:
    def test_one_component(self):
        count, labels = component_labels(grid_mesh(3))
        assert count == 1
        assert np.all(labels == 0)

    def test_disjoint_copies(self):
        tet = tetrahedron()
        both = build_mesh(np.concatenate([tet.vertices, tet.vertices + 3.0]),
                          np.concatenate([tet.faces, tet.faces + 4]))
        count, labels = component_labels(both)
        assert count == 2
        assert np.array_equal(labels, [0, 0, 0, 0, 1, 1, 1, 1])
