"""Analytic reference surfaces, manufactured solutions and mesh
generators for the three experiment families: spherical cap with
boundary, closed sphere, and Schwarz lantern (inscribed cylinder).

Each surface comes as a :class:`SurfaceCase` of three functions: the
signed distance d of the surface, a manufactured exact solution u with
its surface gradient and Laplacian, and its bi-Laplacian.  The closest
point a(x) = x - d(x) grad d(x) and the normal grad d derive from d, as
in Dziuk & Elliott (Acta Numerica 22, 2013); a caller forms them from
one ``distance`` call.  The distance, and so the closest point, belong
to the smooth extension of each surface: the whole sphere for the cap,
the infinite cylinder for the lantern's cylinder.  The Laplacian
follows the positive semidefinite sign convention (Delta = -div grad),
so ``exact_f`` is Delta(Delta u) in that sign.

All case functions are pure and vectorized: they accept points of any
leading shape (..., 3), a single point of shape (3,) included, and
return one value or vector per point.
"""

from collections import namedtuple

import numpy as np

from .mesh import build_mesh


class SurfaceCase(namedtuple("SurfaceCase", "distance solution exact_f")):
    """Analytic surface with a manufactured biharmonic solution.

    The geometry is one signed distance d of the smooth surface the case
    lies on (the whole sphere, the infinite cylinder), so the closest
    point a(p) = p - d(p) grad d(p) of a point beyond the cap's rim lies
    on the sphere, and that of a point above the cylinder's rims keeps
    its height.  The solution is one function returning u, its surface
    gradient and its Laplacian together, so a caller that needs all
    three, such as the error pass, evaluates them once per point.

    Attributes
    ----------
    distance : callable
        Maps points to ``(d, grad_d)``: the signed distance, positive
        on the outside, and its gradient, the outward unit normal.
    solution : callable
        Maps points of the surface to ``(u, grad_u, lap_u)``: the
        manufactured solution, its surface gradient as ambient
        3-vectors tangent to the surface, and its Laplacian (positive
        semidefinite convention).
    exact_f : callable
        Bi-Laplacian of the solution, the load of the problem.
    """

    __slots__ = ()


def _dimension(name, value):
    """``value`` as a float, if 0 < value < inf."""
    value = float(value)
    if not 0.0 < value < np.inf:
        raise ValueError(
            f"{name} must be positive and finite, got {value}")
    return value


def _opening_angle(value):
    """The cap's opening angle as a float, if 0 < value < pi."""
    value = float(value)
    if not 0.0 < value < np.pi:
        raise ValueError(f"opening angle must lie in (0, pi), got {value}")
    return value


def _radius(value):
    """R, if 0 < R < inf, and R^4, the scale of the cap's load and the
    sphere's solution, if R^4 and 64 / R^4 are finite too (R from about
    2.44e-77 to 1.16e77): the cap's load is at most 56 / R^4 in size."""
    radius = _dimension("radius", value)
    power = (radius * radius) * (radius * radius)
    if power == np.inf:
        raise ValueError(
            f"radius {radius:g} is too large: R^4 overflows float64")
    if power < 64.0 / np.finfo(float).max:
        raise ValueError(
            f"radius {radius:g} is too small: 64 / R^4 overflows float64")
    return radius, power


def _radial(p, where="at the origin (0, 0, 0)"):
    """Lengths |p| and directions p/|p| of points of shape (..., 3).

    Raises ValueError, naming ``where``, at a zero point, where the radial
    direction, and so grad d, the closest point and the normal, are undefined.
    """
    pts = np.asarray(p, dtype=float)
    norms = np.linalg.norm(pts, axis=-1)
    if np.any(norms == 0.0):
        raise ValueError(
            f"the radial direction p/|p| is undefined {where}")
    return norms, pts / norms[..., None]


def _sphere_distance(radius):
    """Signed distance d = |p| - R of the sphere, with grad d = p/|p|."""
    def distance(p):
        norms, unit = _radial(p)
        return norms - radius, unit
    return distance


def cap_case(radius, theta0):
    """Spherical cap 0 <= theta <= theta0 with a clamped manufactured
    solution.

    With x = cos(theta) and c = cos(theta0) the solution is
    u = (x - c)^2, which satisfies u = du/dtheta = 0 on the boundary
    circle.  Through the Legendre form of the axisymmetric Laplacian,
    Delta u = (6x^2 - 4cx - 2) / R^2 and
    Delta^2 u = (36x^2 - 8cx - 12) / R^4.  The signed distance is the
    whole sphere's, d = |p| - R, as in :func:`sphere_case`.

    Parameters
    ----------
    radius : float
        Sphere radius R > 0 with R^4 and 64 / R^4 finite.
    theta0 : float
        Polar opening angle, 0 < theta0 < pi.

    Returns
    -------
    SurfaceCase
    """
    theta0 = _opening_angle(theta0)
    radius, r4 = _radius(radius)
    c = np.cos(theta0)

    def solution(p):
        unit = _radial(p)[1]
        x = unit[..., 2]
        ez = np.zeros_like(unit)
        ez[..., 2] = 1.0
        grad = ((2.0 / radius) * (x - c)[..., None]
                * (ez - x[..., None] * unit))
        return ((x - c) ** 2, grad,
                (6.0 * x**2 - 4.0 * c * x - 2.0) / radius**2)

    def exact_f(p):
        x = _radial(p)[1][..., 2]
        return (36.0 * x**2 - 8.0 * c * x - 12.0) / r4

    return SurfaceCase(_sphere_distance(radius), solution, exact_f)


def cylinder_case(radius, height):
    """Open cylinder of radius R and height H, clamped at both rims.

    The cylinder is intrinsically flat, so with axial coordinate z and
    a = H/2 the 1D profile u = (z^2 - a^2)^2 solves the clamped
    biharmonic problem with the constant right-hand side f = 24
    (independent of R), and Delta u = 4a^2 - 12z^2 in the positive
    semidefinite convention.  The signed distance is that of the
    infinite cylinder, d = rho - R with rho the distance to the axis, so
    the closest point of any point off the axis keeps its height z.
    R^4 and 64 / R^4 must be finite, as for the cap and the sphere.

    Returns
    -------
    SurfaceCase
    """
    radius = _radius(radius)[0]
    height = _dimension("height", height)
    a = 0.5 * height

    def distance(p):
        rho, unit = _radial(np.asarray(p, dtype=float) * [1.0, 1.0, 0.0],
                            "on the cylinder axis")
        return rho - radius, unit

    def solution(p):
        pts = np.asarray(p, dtype=float)
        z = pts[..., 2]
        grad = np.zeros_like(pts)
        grad[..., 2] = 4.0 * z * (z**2 - a**2)
        return (z**2 - a**2) ** 2, grad, 4.0 * a**2 - 12.0 * z**2

    def exact_f(p):
        return np.full(np.shape(p)[:-1], 24.0)

    return SurfaceCase(distance, solution, exact_f)


def _harmonic(degree, order, p, gradient=False):
    """Real spherical harmonic of :func:`real_harmonic` at the radial
    projections u = p/|p| of points, and with ``gradient`` its surface
    gradient on the unit sphere.

    In Cartesian form, Y = Q(u_z) Re W for m >= 0 and Q(u_z) Im W for
    m < 0, with W = (-1)^m (2|m| - 1)!! (u_x + i u_y)^|m| built one
    factor (1 - 2k)(u_x + i u_y) at a time, so that it overflows only
    where Y does (quietly: callers reject what is not finite), and
    P_l^|m|(z) = (-1)^m (2|m| - 1)!! (1 - z^2)^(|m|/2) Q(z): Q follows
    the Legendre recurrence (l - |m|) Q_l = (2l - 1) z Q_{l-1}
    - (l + |m| - 1) Q_{l-2} from Q_|m| = 1.  The surface gradient is
    the tangential part of the ambient gradient of that polynomial in
    u, defined at the poles as well.
    """
    l, ma = degree, abs(order)
    unit = _radial(p)[1]
    x, y, z = unit[..., 0], unit[..., 1], unit[..., 2]
    # (re, im) = W, and (re_low, im_low) the same for |m| - 1.
    re, im = np.ones_like(z), np.zeros_like(z)
    re_low = im_low = 0.0
    for k in range(1, ma + 1):
        re_low, im_low, c = re, im, 1 - 2 * k
        with np.errstate(over="ignore", invalid="ignore"):
            re, im = c * (re * x - im * y), c * (re * y + im * x)
    # Q and dQ/dz at degree k, and at degree k - 1.
    q, q_low, dq, dq_low = np.ones_like(z), 0.0, 0.0, 0.0
    for k in range(ma + 1, l + 1):
        a, b = 2 * k - 1, k + ma - 1
        q_low, q, dq_low, dq = q, (a * z * q - b * q_low) / (k - ma), dq, (
            a * (q + z * dq) - b * dq_low) / (k - ma)
    trig = re if order >= 0 else im
    if not gradient:
        return q * trig
    # d/dx and d/dy of Re W are s Re W_low and -s Im W_low, those of Im W
    # are s Im W_low and s Re W_low, with s = |m| (1 - 2|m|).
    s = ma * (1 - 2 * ma)
    if order >= 0:
        gx, gy = s * q * re_low, -s * q * im_low
    else:
        gx, gy = s * q * im_low, s * q * re_low
    gz = dq * trig
    radial = gx * x + gy * y + gz * z
    return q * trig, np.stack([gx - radial * x, gy - radial * y,
                               gz - radial * z], axis=-1)


def real_harmonic(degree, order):
    """Real spherical harmonic Y_l^m as a function of ambient points.

    Uses the unnormalized associated Legendre convention, with the
    Condon-Shortley phase:
    Y = P_l^m(cos theta) cos(m phi) for m >= 0 and
    Y = P_l^|m|(cos theta) sin(|m| phi) for m < 0, evaluated on the
    radial projection of the input, so Y_2^0(p) = (3 z^2 - 1)/2 on the
    unit sphere.  Raises ValueError unless l >= 0 and |m| <= l; the
    harmonic raises ValueError at the origin.
    """
    l, m = int(degree), int(order)
    if l < 0 or abs(m) > l:
        raise ValueError(
            f"need degree l >= 0 and |m| <= l, got l={l}, m={m}")
    return lambda p: _harmonic(l, m, p)


def sphere_case(radius, degree, order):
    """Closed sphere with a spherical-harmonic manufactured solution.

    Y_l^m is an eigenfunction of the positive semidefinite Laplacian
    with eigenvalue l(l+1)/R^2, so with f = Y_l^m the biharmonic
    solution is u = R^4/(l(l+1))^2 Y_l^m and
    Delta u = R^2/(l(l+1)) Y_l^m.  All three fields have zero surface
    mean for l >= 1.

    Parameters
    ----------
    radius : float
    degree, order : int
        Harmonic degree l >= 1 and order m with |m| <= l.

    Returns
    -------
    SurfaceCase
    """
    l, m = int(degree), int(order)
    harmonic = real_harmonic(l, m)
    if l < 1:
        raise ValueError(
            f"the sphere case needs degree l >= 1, got l={l}")
    radius, r4 = _radius(radius)
    eig = l * (l + 1)

    def solution(p):
        value, grad = _harmonic(l, m, p, gradient=True)
        return ((r4 / eig**2) * value,
                (r4 / eig**2) * (grad / radius),
                (radius**2 / eig) * value)

    return SurfaceCase(_sphere_distance(radius), solution, harmonic)


def _check_rings(rings):
    if rings < 2:
        raise ValueError(f"need at least 2 rings, got {rings}")


def gen_cap_mesh(theta0, rings, radius=1.0):
    """Concentric-ring triangulation of the spherical cap.

    Ring j (1 <= j <= rings) lies at polar angle theta0 * j / rings and
    carries 6j vertices; consecutive rings are stitched by merging the
    two angle sequences, and the innermost ring closes with a fan
    around the pole vertex.  All vertices lie exactly on the sphere and
    the outermost ring exactly on the boundary circle.

    Parameters
    ----------
    theta0 : float
        Polar opening angle, 0 < theta0 < pi.
    rings : int
        Number of concentric rings, at least 2.
    radius : float
        Sphere radius, positive and finite.

    Returns
    -------
    TriMesh
        1 + 3 rings (rings+1) vertices and 6 rings^2 faces.
    """
    rings = int(rings)
    _check_rings(rings)
    theta0 = _opening_angle(theta0)
    radius = _dimension("radius", radius)

    # Ring j holds vertices start[j-1] .. start[j-1] + 6j - 1; vertex 0
    # is the pole.  The per-vertex arrays skip the pole: entry p belongs
    # to vertex p + 1.
    j = np.arange(1, rings + 1)
    counts = 6 * j
    start = 1 + 3 * j * (j - 1)
    index = np.arange(counts.sum()) - np.repeat(start - 1, counts)
    phis = 2.0 * np.pi * index / np.repeat(counts, counts)
    theta = theta0 * j / rings
    scaled_sin = np.repeat(radius * np.sin(theta), counts)
    vertices = np.concatenate([
        [[0.0, 0.0, radius]],
        np.stack([scaled_sin * np.cos(phis), scaled_sin * np.sin(phis),
                  np.repeat(radius * np.cos(theta), counts)], axis=1)])

    return build_mesh(vertices, _stitch_rings(start, counts, phis))


def _stitch_rings(start, counts, phis):
    """Faces of the mesh of :func:`gen_cap_mesh` from its rings: the
    first vertex and the vertex count of each ring, and the angle of
    every vertex but the pole.  Only the faces outlive the call."""
    rings = counts.size
    ring = np.repeat(np.arange(1, rings + 1), counts)
    # Stitch ring j (inner) to ring j + 1 (outer) by merging the two
    # rings' "next angle" sequences, each ending at 2 pi; on a tie the
    # outer ring steps first.  Each step emits one triangle: an outer
    # step k -> k + 1 one with apex at the current inner vertex i, an
    # inner step i -> i + 1 one with apex at the current outer vertex k.
    next_phi = np.append(phis[1:], 2.0 * np.pi)
    next_phi[start + counts - 2] = 2.0 * np.pi
    inner = np.flatnonzero(ring < rings)
    outer = np.flatnonzero(ring > 1)
    event = np.concatenate([outer, inner])
    pair = np.concatenate([ring[outer] - 1, ring[inner]])
    is_inner = np.repeat([0, 1], [outer.size, inner.size])
    order = np.lexsort((is_inner, next_phi[event], pair))
    pair, is_inner = pair[order], is_inner[order]
    # Steps of each ring taken before this one within its ring pair.
    inner_before = np.cumsum(is_inner) - is_inner
    outer_before = np.arange(order.size) - inner_before
    pair_first = np.searchsorted(pair, pair)
    i = inner_before - inner_before[pair_first]
    k = outer_before - outer_before[pair_first]
    s_in, n_in = start[pair - 1], counts[pair - 1]
    s_out, n_out = start[pair], counts[pair]
    stitched = np.where(
        is_inner[:, None] == 1,
        np.stack([s_in + i, s_out + k % n_out, s_in + (i + 1) % n_in], 1),
        np.stack([s_out + k, s_out + (k + 1) % n_out, s_in + i % n_in], 1))
    fan = np.stack([np.zeros(6, dtype=np.int64), 1 + np.arange(6),
                    1 + (np.arange(1, 7) % 6)], axis=1)
    return np.concatenate([fan, stitched])


_ICO_T = (1.0 + np.sqrt(5.0)) / 2.0
_ICO_VERTS = np.array([
    [-1.0, _ICO_T, 0.0], [1.0, _ICO_T, 0.0],
    [-1.0, -_ICO_T, 0.0], [1.0, -_ICO_T, 0.0],
    [0.0, -1.0, _ICO_T], [0.0, 1.0, _ICO_T],
    [0.0, -1.0, -_ICO_T], [0.0, 1.0, -_ICO_T],
    [_ICO_T, 0.0, -1.0], [_ICO_T, 0.0, 1.0],
    [-_ICO_T, 0.0, -1.0], [-_ICO_T, 0.0, 1.0]])
_ICO_FACES = np.array([
    [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
    [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
    [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
    [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1]])


def _project_to_sphere(points, radius):
    """Scale each row of ``points`` to length ``radius``.

    The squared lengths are row-by-row dot products, as in
    ``np.linalg.norm`` of a single vector, so that the result is
    bit-identical to scaling one vertex at a time.
    """
    sq = np.matmul(points[:, None, :], points[:, :, None])[:, 0, 0]
    return points * (radius / np.sqrt(sq))[:, None]


def _check_subdivisions(k):
    """Reject k < 0, and k >= 30, whose 20*4^k faces overflow int64;
    compares k alone, as 4^k for a huge k would exhaust memory."""
    if k < 0:
        raise ValueError(f"subdivisions must be >= 0, got {k}")
    if k >= 30:
        raise ValueError(f"subdivisions must be < 30 for 20*4^k faces to "
                         f"fit in int64, got {k}")


def gen_icosphere(subdivisions, radius=1.0):
    """Icosahedron subdivided by edge midpoints and reprojected.

    Each subdivision splits every face into four and pushes the new
    midpoint vertices back onto the sphere, giving 10*4^k + 2 vertices
    and 20*4^k faces at level k, all exactly at distance ``radius``
    (positive and finite) from the origin.

    Returns
    -------
    TriMesh
        Closed, consistently outward oriented.
    """
    k = int(subdivisions)
    _check_subdivisions(k)
    radius = _dimension("radius", radius)
    # Vertices never move, so the final array is reserved first: a level
    # whose vertices cannot be held fails here, before any pass runs.
    verts = np.empty((10 * 4**k + 2, 3))
    n = len(_ICO_VERTS)
    verts[:n] = _project_to_sphere(_ICO_VERTS, radius)
    faces = _ICO_FACES
    for _ in range(k):
        # Edges (v0, v1), (v1, v2), (v2, v0) of each face in turn; each
        # new midpoint is numbered by the first occurrence of its edge.
        ends = faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        keys = (np.minimum(ends[:, 0], ends[:, 1]) * n
                + np.maximum(ends[:, 0], ends[:, 1]))
        _, first, inverse = np.unique(keys, return_index=True,
                                      return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        a, b, c = (n + rank[inverse]).reshape(-1, 3).T
        mids = ends[first[order]]
        verts[n:n + len(mids)] = _project_to_sphere(
            0.5 * (verts[mids[:, 0]] + verts[mids[:, 1]]), radius)
        n += len(mids)
        v0, v1, v2 = faces.T
        faces = np.stack([v0, a, c, a, v1, b, c, b, v2, a, b, c],
                         axis=1).reshape(-1, 3)
    return build_mesh(verts, faces)


def gen_schwarz_lantern(m, n, radius=1.0, height=2.0):
    """Classical Schwarz lantern inscribed in a cylinder.

    n+1 evenly spaced vertex rings of m vertices each, with every other
    ring rotated by pi/m, connected as antiprism strips of 2m triangles
    per band.  All vertices lie exactly on the cylinder; the boundary
    consists of the top and bottom rings.

    Parameters
    ----------
    m : int
        Vertices per ring (equatorial count), at least 3.
    n : int
        Number of bands (axial count), at least 2.
    radius, height : float
        Cylinder dimensions.

    Returns
    -------
    TriMesh
        (n+1) m vertices and 2 m n faces.  Vertex j m + k is vertex k
        of ring j, at height z = -H/2 + H j / n, counted from the
        bottom ring.
    """
    m, n = int(m), int(n)
    if m < 3 or n < 2:
        raise ValueError(
            f"lantern needs m >= 3 and n >= 2, got m={m}, n={n}")
    radius = _dimension("radius", radius)
    height = _dimension("height", height)
    j = np.repeat(np.arange(n + 1), m)
    phis = (2.0 * np.pi * np.tile(np.arange(m), n + 1) + np.pi * (j % 2)) / m
    verts = np.stack([radius * np.cos(phis), radius * np.sin(phis),
                      -0.5 * height + height * j / n], axis=1)

    # Cell (band j, k) has corners lo, lo1 = vertices k, k + 1 of ring j
    # and hi, hi1 above them on ring j + 1.  Its two triangles are cut
    # along lo1-hi on even bands and along lo-hi1 on odd ones.
    band, k = np.arange(n)[:, None], np.arange(m)
    lo, lo1 = band * m + k, band * m + (k + 1) % m
    hi, hi1 = lo + m, lo1 + m
    even = band % 2 == 0
    faces = np.stack([lo, lo1, np.where(even, hi, hi1),
                      np.where(even, hi, lo), np.where(even, lo1, hi1),
                      np.where(even, hi1, hi)], axis=-1)
    return build_mesh(verts, faces.reshape(-1, 3))


class RefinementFamily(namedtuple("RefinementFamily",
                                  "label case levels build")):
    """A surface case bundled with a sequence of refinement levels.

    ``levels`` holds the generator parameter of each level (rings,
    subdivisions or lantern level n), and ``build`` realizes one as a
    mesh.  :func:`cap_family`, :func:`sphere_family` and
    :func:`lantern_family` check every level when they make the family,
    before any mesh is built, and raise ValueError for one their
    generator rejects.  Generated mesh sizes h decrease strictly across
    levels.  ``family._replace(case=..., label=...)`` keeps the meshes
    and measures them against another reference case.
    """

    __slots__ = ()

    def meshes(self):
        """Yield (level, mesh) pairs in order."""
        for level in self.levels:
            yield level, self.build(level)


def _family(label, case, levels, build, check_level):
    """The family of ``levels``, once ``check_level``, which builds no
    mesh, accepts each of them."""
    levels = tuple(int(v) for v in levels)
    for level in levels:
        check_level(level)
    return RefinementFamily(label, case, levels, build)


def cap_family(theta0, ring_levels, radius=1.0):
    """Cap case with rings doubling per level (h halves)."""
    return _family("cap", cap_case(radius, theta0), ring_levels,
                   lambda rings: gen_cap_mesh(theta0, rings, radius),
                   _check_rings)


def sphere_family(degree, order, subdiv_levels, radius=1.0):
    """Closed-sphere case over icosphere subdivision levels."""
    return _family("sphere", sphere_case(radius, degree, order),
                   subdiv_levels, lambda k: gen_icosphere(k, radius),
                   _check_subdivisions)


# Lantern level n -> (vertices per ring, bands), and the smallest level
# the generator accepts.
LANTERN_COUPLINGS = {
    "linear": (lambda n: (2 * n, n), 2),
    "quadratic": (lambda n: (n, n * n), 3),
}


def lantern_family(coupling, n_levels, radius=1.0, height=2.0):
    """Lantern cases over the level n, in one of two couplings.

    * ``"linear"``: m = 2n vertices per ring and n bands.  The triangles
      stay shape regular, and both vertices and face normals converge
      to the cylinder (normal angles like h).
    * ``"quadratic"``: m = n vertices per ring and n^2 bands, the
      classical Schwarz lantern.  Vertices converge to the cylinder,
      but each face leans off the tangent plane by an angle alpha with
      tan(alpha) = R (1 - cos(pi/n)) n^2 / H, which tends to
      pi^2 R / (2 H) (about 68 degrees for H = 2R).  The normals do not
      converge, and the triangles flatten into obtuse slivers
      (kappa_min ~ 1/n).

    The level n must be at least 2 (linear) or 3 (quadratic).
    """
    if coupling not in LANTERN_COUPLINGS:
        raise ValueError(f"coupling must be linear or quadratic, "
                         f"got {coupling!r}")
    counts, min_level = LANTERN_COUPLINGS[coupling]
    case = cylinder_case(radius, height)

    def check_level(n):
        if n < min_level:
            raise ValueError(
                f"{coupling} lantern level n must be at least {min_level}, "
                f"got {n}")

    return _family(f"lantern-{coupling}", case, n_levels,
                   lambda n: gen_schwarz_lantern(*counts(n), radius, height),
                   check_level)
