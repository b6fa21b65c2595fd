"""Triangle surface meshes: validation, per-face geometry, boundary
extraction, connected components, OBJ round-trip I/O and row writing.

A mesh is a pair of arrays, ``vertices`` with shape (n, 3) and ``faces``
with shape (F, 3).  Faces store vertex indices counterclockwise as seen
from the outward side of the surface.  Construction goes through
:func:`build_mesh`, which rejects degenerate faces, non-manifold edges,
inconsistent orientation and unreferenced vertices, and caches the
per-face geometry that the finite element assembly needs.
"""

from itertools import compress
import re

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components


class MeshError(ValueError):
    """Base class for mesh construction failures."""


class DegenerateFaceError(MeshError):
    """A face has repeated vertex indices or (numerically) zero area."""


class NonManifoldEdgeError(MeshError):
    """An undirected edge is shared by more than two faces."""


class InconsistentOrientationError(MeshError):
    """Two adjacent faces traverse their shared edge in the same direction."""


class UnreferencedVertexError(MeshError):
    """A vertex belongs to no face."""


class ComponentError(MeshError):
    """A connected component of the mesh that a solver cannot handle."""


# Relative area threshold below which a triangle counts as degenerate.
# Scale invariant: area is compared against the squared longest edge.
_DEGENERATE_REL_AREA = 1e-14


class TriMesh:
    """Validated triangle mesh with cached per-face geometry.

    Use :func:`build_mesh` to construct one; the constructor assumes the
    input already passed validation.

    Attributes
    ----------
    vertices : ndarray, shape (n, 3)
        Vertex positions (read-only).
    faces : ndarray, shape (F, 3)
        Vertex indices per face, counterclockwise (read-only).
    edges : ndarray, shape (E, 2)
        Unique undirected edges, each row sorted ascending.
    boundary_edges : ndarray, shape (Eb, 2)
        Edges incident to exactly one face, ordered as traversed by that
        face (so boundary loops run counterclockwise around the surface).
    boundary_vertices : ndarray, shape (nb,)
        Sorted indices of vertices lying on the boundary.
    face_areas : ndarray, shape (F,)
    face_normals : ndarray, shape (F, 3)
        Unit normals per face.
    face_edge_lengths : ndarray, shape (F, 3)
        Edge opposite corner k of face i at ``[i, k]``.
    face_cotangents : ndarray, shape (F, 3)
        Cotangent of the interior angle at corner k of face i.
    """

    def __init__(self, vertices, faces, edges, boundary_edges,
                 boundary_vertices, face_areas, face_normals,
                 face_edge_lengths, face_cotangents):
        self.vertices = vertices
        self.faces = faces
        self.edges = edges
        self.boundary_edges = boundary_edges
        self.boundary_vertices = boundary_vertices
        self.face_areas = face_areas
        self.face_normals = face_normals
        self.face_edge_lengths = face_edge_lengths
        self.face_cotangents = face_cotangents
        for arr in (vertices, faces, edges, boundary_edges, boundary_vertices,
                    face_areas, face_normals, face_edge_lengths,
                    face_cotangents):
            arr.setflags(write=False)

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_faces(self):
        return self.faces.shape[0]

    @property
    def is_closed(self):
        """True when the mesh has no boundary edges."""
        return self.boundary_edges.shape[0] == 0

    def __repr__(self):
        kind = "closed" if self.is_closed else "bounded"
        return (f"TriMesh({self.n_vertices} vertices, {self.n_faces} faces, "
                f"{kind})")


def _face_geometry(vertices, faces):
    """Vectorized per-face areas, normals, edge lengths and cotangents.

    Edge k of a face is the edge opposite corner k.  Returns
    (areas, unit_normals, edge_lengths, cotangents); raises
    DegenerateFaceError when any face area is numerically zero relative
    to its longest edge.
    """
    p = vertices[faces]                 # (F, 3, 3)
    # Edge vector opposite corner k points from corner k+1 to corner k+2.
    e = p[:, [2, 0, 1], :] - p[:, [1, 2, 0], :]    # (F, 3, 3)
    lengths = np.linalg.norm(e, axis=2)            # (F, 3)
    cross = np.cross(e[:, 1, :], e[:, 2, :])       # = (p0-p2) x (p1-p0)
    doubled = np.linalg.norm(cross, axis=1)
    longest_sq = np.max(lengths, axis=1) ** 2
    bad = doubled <= 2.0 * _DEGENERATE_REL_AREA * longest_sq
    if np.any(bad):
        idx = int(np.flatnonzero(bad)[0])
        raise DegenerateFaceError(
            f"face {idx} has (numerically) zero area")
    areas = 0.5 * doubled
    normals = cross / doubled[:, None]
    # Angle at corner k: the edge vectors leaving corner k are e_{k+2}
    # and -e_{k+1}, hence cot_k = -(e_{k+1} . e_{k+2}) / (2 area).
    dots = -np.sum(e[:, [1, 2, 0], :] * e[:, [2, 0, 1], :], axis=2)
    cots = dots / doubled[:, None]
    return areas, normals, lengths, cots


def build_mesh(vertices, faces):
    """Validate raw arrays and assemble a :class:`TriMesh`.

    Parameters
    ----------
    vertices : array_like, shape (n, 3)
        Vertex positions.
    faces : array_like, shape (F, 3)
        Vertex indices per face, counterclockwise seen from outside.

    Returns
    -------
    TriMesh

    Raises
    ------
    DegenerateFaceError
        If a face repeats a vertex index or has numerically zero area.
    NonManifoldEdgeError
        If an undirected edge is shared by more than two faces.
    InconsistentOrientationError
        If two faces traverse a shared edge in the same direction.
    UnreferencedVertexError
        If a vertex belongs to no face.
    ValueError
        On malformed shapes, non-finite coordinates or indices out of
        range.
    """
    vertices = np.ascontiguousarray(vertices, dtype=float)
    faces = np.ascontiguousarray(faces, dtype=np.int64)
    if vertices.ndim != 2 or vertices.shape[1] != 3:
        raise ValueError("vertices must have shape (n, 3)")
    if faces.ndim != 2 or faces.shape[1] != 3:
        raise ValueError("faces must have shape (F, 3)")
    if not np.all(np.isfinite(vertices)):
        raise ValueError("vertex coordinates must be finite")
    n = vertices.shape[0]
    if faces.size and (faces.min() < 0 or faces.max() >= n):
        raise ValueError("face indices out of range")
    if np.any((faces[:, 0] == faces[:, 1]) | (faces[:, 1] == faces[:, 2])
              | (faces[:, 2] == faces[:, 0])):
        raise DegenerateFaceError("face with repeated vertex indices")

    areas, normals, lengths, cots = _face_geometry(vertices, faces)

    # Directed edges in traversal order, one triple per face.
    directed = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]],
                               faces[:, [2, 0]]], axis=0)
    lo = np.minimum(directed[:, 0], directed[:, 1])
    hi = np.maximum(directed[:, 0], directed[:, 1])
    keys = lo * np.int64(n) + hi
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    uniq_keys, start, counts = np.unique(sorted_keys, return_index=True,
                                         return_counts=True)
    if np.any(counts > 2):
        k = uniq_keys[np.argmax(counts > 2)]
        raise NonManifoldEdgeError(
            f"edge ({k // n}, {k % n}) shared by more than two faces")
    # A manifold interior edge appears once in each direction.  Two
    # identical directed copies mean the incident faces disagree on
    # orientation.
    interior = counts == 2
    if np.any(interior):
        first = order[start[interior]]
        second = order[start[interior] + 1]
        same = np.all(directed[first] == directed[second], axis=1)
        if np.any(same):
            a, b = directed[first[np.argmax(same)]]
            raise InconsistentOrientationError(
                f"faces disagree on orientation across edge ({a}, {b})")

    unreferenced = np.flatnonzero(np.bincount(faces.ravel(), minlength=n)
                                  == 0)
    if unreferenced.size:
        raise UnreferencedVertexError(
            f"vertex {unreferenced[0]} belongs to no face "
            f"({unreferenced.size} unreferenced vertices)")

    edges = np.stack([uniq_keys // n, uniq_keys % n], axis=1)
    boundary_mask = counts == 1
    boundary_edges = directed[order[start[boundary_mask]]]
    if boundary_edges.size:
        boundary_vertices = np.unique(boundary_edges)
    else:
        boundary_vertices = np.empty(0, dtype=np.int64)

    return TriMesh(vertices, faces, edges, boundary_edges,
                   boundary_vertices, areas, normals, lengths, cots)


def component_labels(mesh):
    """Label the connected components of the mesh's edge graph.

    Returns
    -------
    count : int
    labels : ndarray, shape (n,)
        Component of each vertex, numbered from 0.
    """
    n = mesh.n_vertices
    graph = sp.coo_matrix((np.ones(mesh.edges.shape[0]),
                           (mesh.edges[:, 0], mesh.edges[:, 1])),
                          shape=(n, n))
    return connected_components(graph, directed=False)


def max_edge_length(mesh):
    """Longest edge of the mesh; the mesh size h of a refinement level."""
    return float(mesh.face_edge_lengths.max())


def inradius_ratios(mesh):
    """Per-face shape regularity ratio inradius / longest edge.

    Equilateral triangles attain the maximum 1/(2*sqrt(3)); the ratio
    tends to zero for needle and cap shaped triangles.
    """
    s = 0.5 * mesh.face_edge_lengths.sum(axis=1)
    return (mesh.face_areas / s) / mesh.face_edge_lengths.max(axis=1)


def circumradius_ratios(mesh):
    """Per-face ratio circumradius / longest edge (large for slivers)."""
    circum = (mesh.face_edge_lengths.prod(axis=1)
              / (4.0 * mesh.face_areas))
    return circum / mesh.face_edge_lengths.max(axis=1)


# Whitespace as str.split() sees it, except the line break "\n".
_BLANKS = ("\t\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002"
           "\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029"
           "\u202f\u205f\u3000")
_BLANK_CODES = np.array([ord(c) for c in _BLANKS], dtype=np.uint32)
# The "/t/n" texture and normal references after a face's vertex index.
# A token that starts with "/" keeps it and so fails to parse, as the
# empty index in front of it does.
_INDEX_SUFFIX = re.compile(r"(?<=[^\s/])/\S*")
# Rows formatted per write in write_rows.
_WRITE_BLOCK_ROWS = 4096


def _record_lines(text):
    """The ``v`` lines and the ``f`` lines of OBJ text, in file order.

    A line is a record of the kind named by its first whitespace
    separated token, the token ``line.split()[0]`` gives.  Lines are
    classified on the array of code points, not one by one in Python.
    """
    lines = text.split("\n")
    text += "\n"
    # One array entry per character: bytes when they are all ASCII.
    if text.isascii():
        chars = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    else:
        chars = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
    ends = np.flatnonzero(chars == 10)
    first = np.concatenate(([0], ends[:-1] + 1))
    for i in np.flatnonzero(np.isin(chars[first], _BLANK_CODES)).tolist():
        first[i] += len(lines[i]) - len(lines[i].lstrip())
    after = chars[np.minimum(first + 1, ends)]
    single = (after == 10) | np.isin(after, _BLANK_CODES)
    head = chars[first]
    return (list(compress(lines, (single & (head == ord("v"))).tolist())),
            list(compress(lines, (single & (head == ord("f"))).tolist())))


def _raise_first_bad_record(path, text):
    """Raise the error of the first malformed ``v`` or ``f`` line.

    Error reporting for :func:`read_obj` once its bulk parse has failed:
    the lines are walked in order, and the first one that breaks a rule
    is named with its line number.  Returns if no line does.
    """
    for lineno, line in enumerate(text.split("\n"), start=1):
        parts = line.split()
        if parts[:1] == ["v"]:
            if len(parts) < 4:
                raise ValueError(
                    f"{path}:{lineno}: vertex record needs 3 coordinates")
            numbers = parts[1:4]
            for token in numbers:
                float(token)
        elif parts[:1] == ["f"]:
            if len(parts) != 4:
                raise ValueError(
                    f"{path}:{lineno}: only triangular faces supported")
            numbers = [token.split("/")[0] for token in parts[1:]]
            for token in numbers:
                if int(token) <= 0:
                    raise ValueError(
                        f"{path}:{lineno}: face indices must be positive")
                if int(token) > np.iinfo(np.int64).max:
                    raise ValueError(
                        f"{path}:{lineno}: face index {token} is too large")
        else:
            continue
        for token in numbers:
            if not token.isascii() or "_" in token:
                raise ValueError(
                    f"{path}:{lineno}: number {token!r} is not written "
                    f"in plain ASCII digits")


def read_obj(path):
    """Read a triangle mesh from a Wavefront OBJ file.

    Only ``v`` and ``f`` records are interpreted; comments, blank lines
    and all other record types are ignored.  A ``v`` record needs at
    least 3 numbers and uses the first 3.  An ``f`` record has exactly 3
    entries; an entry may carry texture or normal references
    (``i/t/n``, ``i//n``), and only its leading vertex index is used.
    That index must be positive (1-based): negative (relative) indices,
    which the OBJ format allows, are rejected as not positive.  Numbers
    are parsed by numpy's text parser, so they are plain ASCII decimal
    literals (``inf`` and ``nan`` included); digit-group underscores and
    non-ASCII digits are rejected.

    Parameters
    ----------
    path : str or pathlib.Path

    Returns
    -------
    TriMesh

    Raises
    ------
    ValueError
        ``path:lineno: ...`` naming the first malformed record, or
        ``path: no vertices found`` or ``path: no faces found``; and
        the errors of :func:`build_mesh`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    v_lines, f_lines = _record_lines(text)
    try:
        if f_lines:
            if "/" in text:
                f_lines = _INDEX_SUFFIX.sub("", "\n".join(f_lines)).split("\n")
            if len(" ".join(f_lines).split()) != 4 * len(f_lines):
                raise ValueError("a face record has other than 3 entries")
            faces = np.loadtxt(f_lines, dtype=np.int64, usecols=(1, 2, 3),
                               comments=None, ndmin=2)
            if faces.min() < 1:
                raise ValueError("a face index is not positive")
        if v_lines:
            vertices = np.loadtxt(v_lines, usecols=(1, 2, 3), comments=None,
                                  ndmin=2)
    except ValueError:
        _raise_first_bad_record(path, text)
        raise
    if not v_lines:
        raise ValueError(f"{path}: no vertices found")
    if not f_lines:
        raise ValueError(f"{path}: no faces found")
    return build_mesh(vertices, faces - 1)


def write_rows(fh, row_format, rows):
    """Write one ``row_format`` line per row of the 2D array ``rows``,
    formatted with one ``%`` per block of a few thousand rows."""
    for start in range(0, rows.shape[0], _WRITE_BLOCK_ROWS):
        block = rows[start:start + _WRITE_BLOCK_ROWS]
        fh.write(row_format * block.shape[0]
                 % tuple(block.ravel().tolist()))


def write_obj(mesh, path):
    """Write a mesh as Wavefront OBJ with full float precision.

    Coordinates are printed with 17 significant digits so that a
    read/write round trip reproduces the vertex array bit for bit.
    """
    with open(path, "w", encoding="utf-8") as fh:
        write_rows(fh, "v %.17g %.17g %.17g\n", mesh.vertices)
        write_rows(fh, "f %d %d %d\n", mesh.faces + 1)
