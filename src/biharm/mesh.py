"""Triangle surface meshes: validation, per-face geometry, boundary
extraction, connected components, OBJ round-trip I/O and row writing.

A mesh is a pair of arrays, ``vertices`` with shape (n, 3) and ``faces``
with shape (F, 3).  Faces store vertex indices counterclockwise as seen
from the outward side of the surface.  Construction goes through
:func:`build_mesh`, which rejects degenerate faces, non-manifold edges,
inconsistent orientation and unreferenced vertices, and caches the
per-face geometry that the finite element assembly needs.
"""

from collections import namedtuple
import re

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components


# Relative area threshold below which a triangle counts as degenerate.
# Scale invariant: area is compared against the squared longest edge.
_DEGENERATE_REL_AREA = 1e-14


class TriMesh(namedtuple("TriMesh", (
        "vertices", "faces", "edges", "face_edges", "boundary_edges",
        "boundary_vertices", "face_areas", "face_normals",
        "face_edge_lengths", "face_cotangents"))):
    """Validated triangle mesh with cached per-face geometry.

    Use :func:`build_mesh` to construct one: it validates the input and
    makes every array read-only.

    Attributes
    ----------
    vertices : ndarray, shape (n, 3)
        Vertex positions.
    faces : ndarray, shape (F, 3)
        Vertex indices per face, counterclockwise.
    edges : ndarray, shape (E, 2)
        Unique undirected edges, each row sorted ascending, the rows
        sorted too.
    face_edges : ndarray, shape (F, 3)
        Row of ``edges`` of the edge opposite corner k of face i at
        ``[i, k]``.
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

    __slots__ = ()

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


# Squares overflow from coordinates of about 1e77; such faces are rejected.
@np.errstate(over="ignore", invalid="ignore")
def _face_geometry(vertices, faces):
    """Vectorized per-face areas, normals, edge lengths and cotangents.

    Edge k of a face is the edge opposite corner k.  Returns
    (areas, unit_normals, edge_lengths, cotangents); raises ValueError
    when any face area overflows float64 or is numerically zero relative
    to its longest edge.
    The arithmetic runs on one coordinate of one edge of every face at a
    time, summing x, y and z in that order; the corners' (3, 3, F) array
    is reused for the products.
    """
    # p[c, k]: coordinate c of corner k of every face.
    p = np.take(np.ascontiguousarray(vertices.T), faces.T, axis=1)
    # Edge vector opposite corner k points from corner k+1 to corner k+2.
    e = np.empty_like(p)
    for k in range(3):
        np.subtract(p[:, (k + 2) % 3], p[:, (k + 1) % 3], out=e[:, k])
    work = np.multiply(e, e, out=p)
    lengths = np.empty(faces.shape)
    for k, length in enumerate(lengths.T):
        np.sqrt(work[0, k] + work[1, k] + work[2, k], out=length)
    # normal = e1 x e2 = (p0-p2) x (p1-p0), normalized below.
    a, b = e[:, 1], e[:, 2]
    normals = np.empty(faces.shape)
    for k, normal in enumerate(normals.T):
        i, j = (k + 1) % 3, (k + 2) % 3
        np.subtract(a[i] * b[j], a[j] * b[i], out=normal)
    sq = np.multiply(normals.T, normals.T, out=work[0])
    doubled = np.sqrt(sq[0] + sq[1] + sq[2])
    longest_sq = np.maximum(np.maximum(lengths[:, 0], lengths[:, 1]),
                            lengths[:, 2]) ** 2
    for bad, what in ((~(np.isfinite(doubled) & np.isfinite(longest_sq)),
                       "an area or edge length beyond float64"),
                      (doubled <= 2.0 * _DEGENERATE_REL_AREA * longest_sq,
                       "(numerically) zero area")):
        if np.any(bad):
            raise ValueError(f"face {np.flatnonzero(bad)[0]} has {what}")
    normals /= doubled[:, None]
    # Angle at corner k: the edge vectors leaving corner k are e_{k+2}
    # and -e_{k+1}, hence cot_k = -(e_{k+1} . e_{k+2}) / (2 area).
    cots = np.empty(faces.shape)
    for k, cot in enumerate(cots.T):
        prod = np.multiply(e[:, (k + 1) % 3], e[:, (k + 2) % 3], out=work[0])
        np.negative(prod[0] + prod[1] + prod[2], out=cot)
    cots /= doubled[:, None]
    return 0.5 * doubled, normals, lengths, cots


def _sorted_directed_edges(faces, n):
    """Each directed edge, the one opposite corner k of face i at 3 i + k
    in traversal order, packed as 2 (lo n + hi) + (tail > head), in
    increasing order, and the permutation that sorted them."""
    tail, head = (np.roll(faces, shift, axis=1).ravel() for shift in (-1, 1))
    packed = np.minimum(tail, head) * np.int64(n)
    packed += np.maximum(tail, head)
    packed *= 2
    packed += tail > head
    order = np.argsort(packed)
    return packed[order], order


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
    ValueError
        If a face repeats a vertex index or has an area or edge length
        beyond float64 or numerically zero area, if an undirected edge
        is shared by more than two faces, if two faces traverse a shared
        edge in the same direction, or if a vertex belongs to no face;
        and on malformed shapes, non-finite coordinates or indices out of
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
        raise ValueError("face with repeated vertex indices")

    areas, normals, lengths, cots = _face_geometry(vertices, faces)

    # Each run of equal undirected keys lo n + hi is one edge, and the
    # last bit of a packed key says which way a copy runs.
    packed, order = _sorted_directed_edges(faces, n)
    keys = packed >> 1
    runs = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=runs[1:])
    # Freed before the per-edge arrays are made, which keeps the peak of
    # build_mesh at that of _face_geometry.
    edge_of = np.cumsum(runs)
    edge_of -= 1
    face_edges = np.empty(keys.size, dtype=np.int32 if keys.size < 2 ** 31
                          else np.int64)
    face_edges[order] = edge_of
    del order, edge_of
    start = np.flatnonzero(runs)
    counts = np.diff(start, append=keys.size)
    edges = np.stack(np.divmod(keys[start], n), axis=1)
    # The first copy of each edge, the way it runs.
    first = np.where((packed[start, None] & 1) == 1, edges[:, ::-1], edges)
    if np.any(counts > 2):
        lo, hi = edges[np.argmax(counts > 2)]
        raise ValueError(
            f"edge ({lo}, {hi}) shared by more than two faces")
    # A manifold interior edge appears once in each direction.  Two
    # copies that run the same way mean the incident faces disagree on
    # orientation.
    interior = counts == 2
    same = packed[start[interior]] == packed[start[interior] + 1]
    if np.any(same):
        a, b = first[interior][np.argmax(same)]
        raise ValueError(
            f"faces disagree on orientation across edge ({a}, {b})")

    unreferenced = np.flatnonzero(np.bincount(faces.ravel(), minlength=n)
                                  == 0)
    if unreferenced.size:
        raise ValueError(
            f"vertex {unreferenced[0]} belongs to no face "
            f"({unreferenced.size} unreferenced vertices)")

    boundary_edges = first[counts == 1]
    if boundary_edges.size:
        boundary_vertices = np.unique(boundary_edges)
    else:
        boundary_vertices = np.empty(0, dtype=np.int64)

    mesh = TriMesh(vertices, faces, edges, face_edges.reshape(faces.shape),
                   boundary_edges, boundary_vertices, areas, normals, lengths,
                   cots)
    for array in mesh:
        array.setflags(write=False)
    return mesh


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


# The "/t/n" texture and normal references after a face's vertex index.
# A token that starts with "/" keeps it and so fails to parse, as the
# empty index in front of it does.
_INDEX_SUFFIX = re.compile(r"(?<=[^\s/])/\S*")
# Rows formatted per write in write_rows.
_WRITE_BLOCK_ROWS = 4096


def _raise_first_bad_record(path, text, vertex_count=np.inf):
    """Raise the error of the first malformed ``v`` or ``f`` line.

    Error reporting for :func:`read_obj` once its bulk parse, or the
    mesh of a file with a face index beyond ``vertex_count``, has
    failed: the lines are walked in order, and the first one that
    breaks a rule, or has a number that ``float`` or ``int`` rejects,
    is named as ``path:lineno: reason``.  Returns if no line does.
    """
    for lineno, line in enumerate(text.split("\n"), start=1):
        parts = line.split()
        try:
            if parts[:1] == ["v"]:
                if len(parts) < 4:
                    raise ValueError("vertex record needs 3 coordinates")
                numbers = parts[1:4]
                for token in numbers:
                    float(token)
            elif parts[:1] == ["f"]:
                if len(parts) != 4:
                    raise ValueError("only triangular faces supported")
                numbers = [token.split("/")[0] for token in parts[1:]]
                for token in numbers:
                    if int(token) <= 0:
                        raise ValueError("face indices must be positive")
                    if int(token) > np.iinfo(np.int64).max:
                        raise ValueError(f"face index {token} is too large")
                    if int(token) > vertex_count:
                        raise ValueError(
                            f"face index {token} is out of range: the file "
                            f"has {vertex_count} vertices")
            else:
                continue
            for token in numbers:
                if not token.isascii() or "_" in token:
                    raise ValueError(f"number {token!r} is not written in "
                                     f"plain ASCII digits")
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None


def read_obj(path):
    """Read a triangle mesh from a Wavefront OBJ file.

    Records are found by one ``str.split`` per line: a line is a record
    of the kind that its first token names.  Only ``v`` and ``f``
    records are interpreted; comments, blank lines and all other record
    types are ignored, and a leading UTF-8 byte-order mark is skipped.
    A ``v`` record needs at least 3 numbers and uses the first 3.  An
    ``f`` record has exactly 3 entries; an entry may carry texture or
    normal references (``i/t/n``, ``i//n``), and only its leading vertex
    index is used.  That index must be positive (1-based): negative
    (relative) indices, which the OBJ format allows, are rejected as not
    positive.  The numbers of each record kind are parsed in bulk by one
    call of numpy's text parser, so they are plain ASCII decimal
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
        ``path:lineno: ...`` naming the first malformed record or the
        first face with an index beyond the vertex count,
        ``path: no vertices found``, ``path: no faces found``,
        ``path: ...`` with the decoding error of a file that is not
        UTF-8 text, or ``path: ...`` with an error of :func:`build_mesh`,
        whose vertex and face numbers count from 0.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    v_lines, f_lines = [], []
    triangles = True
    for line in text.split("\n"):
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0] == "v":
            v_lines.append(line)
        elif tokens[0] == "f":
            f_lines.append(line)
            triangles = triangles and len(tokens) == 4
    try:
        if f_lines:
            if not triangles:
                raise ValueError("a face record has other than 3 entries")
            if "/" in text:
                f_lines = _INDEX_SUFFIX.sub("", "\n".join(f_lines)).split("\n")
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
    try:
        return build_mesh(vertices, faces - 1)
    except ValueError as exc:
        if faces.max() > len(vertices):
            _raise_first_bad_record(path, text, len(vertices))
        raise ValueError(f"{path}: {exc}") from None


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
