"""Analytic reference surfaces, manufactured solutions and mesh
generators for the three experiment families: spherical cap with
boundary, closed sphere, and Schwarz lantern (inscribed cylinder).

Each surface comes as a :class:`SurfaceCase` bundling the closest-point
map onto the surface, the outward surface normal, and a manufactured
exact solution u with its surface gradient, Laplacian and bi-Laplacian.
The Laplacian follows the positive semidefinite sign convention
(Delta = -div grad), so ``exact_f`` is Delta(Delta u) in that sign.

All case functions are pure and vectorized: they accept points of any
leading shape (..., 3), a single point of shape (3,) included, and
return one value or vector per point.
"""

import numpy as np
from scipy.special import lpmv

from .mesh import build_mesh


class OutsideReachError(ValueError):
    """Point has no well-defined closest surface point (center/axis)."""


class InvalidAngleError(ValueError):
    """Cap opening angle outside (0, pi)."""


class InvalidDimensionError(ValueError):
    """Radius or cylinder height not positive and finite."""


class InvalidDegreeError(ValueError):
    """Harmonic degree/order outside |m| <= l, l >= 0 (l >= 1 on spheres)."""


class TooFewRingsError(ValueError):
    """Cap mesh needs at least two concentric rings."""


class InvalidCountsError(ValueError):
    """Lantern needs at least 3 equatorial and 2 axial vertices."""


class SurfaceCase:
    """Analytic surface with a manufactured biharmonic solution.

    Attributes
    ----------
    kind : str
        "sphere", "cap" or "cylinder".
    params : dict
        Defining parameters (radius, opening angle, ...).
    has_boundary : bool
    closest_point : callable
        Maps ambient points onto the surface.
    normal_at : callable
        Outward unit normal of the surface at (the projection of) a
        point.
    exact_u, exact_lap_u, exact_f : callable
        Manufactured solution, its Laplacian (positive semidefinite
        convention) and its bi-Laplacian, as scalar fields on the
        surface.
    exact_grad_u : callable
        Surface gradient of the solution as ambient 3-vectors tangent
        to the surface.
    """

    def __init__(self, kind, params, has_boundary, closest_point, normal_at,
                 exact_u, exact_grad_u, exact_lap_u, exact_f):
        self.kind = kind
        self.params = dict(params)
        self.has_boundary = bool(has_boundary)
        self.closest_point = closest_point
        self.normal_at = normal_at
        self.exact_u = exact_u
        self.exact_grad_u = exact_grad_u
        self.exact_lap_u = exact_lap_u
        self.exact_f = exact_f

    def __repr__(self):
        inner = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"SurfaceCase({self.kind}, {inner})"


def _dimension(name, value):
    """``value`` as a float, if 0 < value < inf."""
    value = float(value)
    if not 0.0 < value < np.inf:
        raise InvalidDimensionError(
            f"{name} must be positive and finite, got {value}")
    return value


def _sphere_project(radius):
    def project(p):
        pts = np.asarray(p, dtype=float)
        norms = np.linalg.norm(pts, axis=-1)
        if np.any(norms == 0.0):
            raise OutsideReachError(
                "closest point on the sphere undefined at the center")
        return pts * (radius / norms)[..., None]
    return project


def _sphere_normal():
    def normal(p):
        pts = np.asarray(p, dtype=float)
        norms = np.linalg.norm(pts, axis=-1)
        if np.any(norms == 0.0):
            raise OutsideReachError(
                "surface normal undefined at the sphere center")
        return pts / norms[..., None]
    return normal


def cap_case(radius, theta0):
    """Spherical cap 0 <= theta <= theta0 with a clamped manufactured
    solution.

    With x = cos(theta) and c = cos(theta0) the solution is
    u = (x - c)^2, which satisfies u = du/dtheta = 0 on the boundary
    circle.  Through the Legendre form of the axisymmetric Laplacian,
    Delta u = (6x^2 - 4cx - 2) / R^2 and
    Delta^2 u = (36x^2 - 8cx - 12) / R^4.

    Parameters
    ----------
    radius : float
        Sphere radius R > 0.
    theta0 : float
        Polar opening angle, 0 < theta0 < pi.

    Returns
    -------
    SurfaceCase
    """
    theta0 = float(theta0)
    if not 0.0 < theta0 < np.pi:
        raise InvalidAngleError(
            f"opening angle must lie in (0, pi), got {theta0}")
    radius = _dimension("radius", radius)
    c = np.cos(theta0)

    def costheta(p):
        pts = np.asarray(p, dtype=float)
        return pts[..., 2] / np.linalg.norm(pts, axis=-1)

    def exact_u(p):
        return (costheta(p) - c) ** 2

    def exact_grad_u(p):
        pts = np.asarray(p, dtype=float)
        norms = np.linalg.norm(pts, axis=-1)
        unit = pts / norms[..., None]
        x = unit[..., 2]
        ez = np.zeros_like(pts)
        ez[..., 2] = 1.0
        return ((2.0 / radius) * (x - c)[..., None]
                * (ez - x[..., None] * unit))

    def exact_lap_u(p):
        x = costheta(p)
        return (6.0 * x**2 - 4.0 * c * x - 2.0) / radius**2

    def exact_f(p):
        x = costheta(p)
        return (36.0 * x**2 - 8.0 * c * x - 12.0) / radius**4

    return SurfaceCase("cap", {"radius": radius, "theta0": theta0}, True,
                       _sphere_project(radius), _sphere_normal(),
                       exact_u, exact_grad_u, exact_lap_u, exact_f)


def cylinder_case(radius, height):
    """Open cylinder of radius R and height H, clamped at both rims.

    The cylinder is intrinsically flat, so with axial coordinate z and
    a = H/2 the 1D profile u = (z^2 - a^2)^2 solves the clamped
    biharmonic problem with the constant right-hand side f = 24
    (independent of R), and Delta u = 4a^2 - 12z^2 in the positive
    semidefinite convention.

    Returns
    -------
    SurfaceCase
    """
    radius = _dimension("radius", radius)
    height = _dimension("height", height)
    a = 0.5 * height

    def project(p):
        pts = np.asarray(p, dtype=float)
        rho = np.hypot(pts[..., 0], pts[..., 1])
        if np.any(rho == 0.0):
            raise OutsideReachError(
                "closest point on the cylinder undefined on the axis")
        out = np.empty_like(pts)
        out[..., 0] = pts[..., 0] * (radius / rho)
        out[..., 1] = pts[..., 1] * (radius / rho)
        out[..., 2] = np.clip(pts[..., 2], -a, a)
        return out

    def normal(p):
        pts = np.asarray(p, dtype=float)
        rho = np.hypot(pts[..., 0], pts[..., 1])
        if np.any(rho == 0.0):
            raise OutsideReachError(
                "surface normal undefined on the cylinder axis")
        out = np.zeros_like(pts)
        out[..., 0] = pts[..., 0] / rho
        out[..., 1] = pts[..., 1] / rho
        return out

    def exact_u(p):
        z = np.asarray(p, dtype=float)[..., 2]
        return (z**2 - a**2) ** 2

    def exact_grad_u(p):
        pts = np.asarray(p, dtype=float)
        z = pts[..., 2]
        grad = np.zeros_like(pts)
        grad[..., 2] = 4.0 * z * (z**2 - a**2)
        return grad

    def exact_lap_u(p):
        z = np.asarray(p, dtype=float)[..., 2]
        return 4.0 * a**2 - 12.0 * z**2

    def exact_f(p):
        return np.full(np.shape(p)[:-1], 24.0)

    return SurfaceCase("cylinder", {"radius": radius, "height": height},
                       True, project, normal,
                       exact_u, exact_grad_u, exact_lap_u, exact_f)


def real_harmonic(degree, order):
    """Real spherical harmonic Y_l^m as a function of ambient points.

    Uses the unnormalized associated Legendre convention:
    Y = P_l^m(cos theta) cos(m phi) for m >= 0 and
    Y = P_l^|m|(cos theta) sin(|m| phi) for m < 0, evaluated on the
    radial projection of the input, so Y_2^0(p) = (3 z^2 - 1)/2 on the
    unit sphere.  Raises InvalidDegreeError unless l >= 0 and |m| <= l.
    """
    l, m = int(degree), int(order)
    ma = abs(m)
    if l < 0 or ma > l:
        raise InvalidDegreeError(
            f"need degree l >= 0 and |m| <= l, got l={l}, m={m}")

    def harmonic(p):
        pts = np.asarray(p, dtype=float)
        unit = pts / np.linalg.norm(pts, axis=-1)[..., None]
        ct = np.clip(unit[..., 2], -1.0, 1.0)
        phi = np.arctan2(unit[..., 1], unit[..., 0])
        legendre = lpmv(ma, l, ct)
        trig = np.cos(m * phi) if m >= 0 else np.sin(ma * phi)
        return legendre * trig

    return harmonic


def _harmonic_surface_gradient(degree, order, radius):
    """Surface gradient of the real harmonic on the sphere of a radius.

    Uses the derivative recurrence
    d P_l^m(cos t)/dt = (l cos t P_l^m - (l+m) P_{l-1}^m) / sin t,
    assembled in the local (theta_hat, phi_hat) frame.  Contributions
    are zeroed at the poles, where the frame degenerates (the quadrature
    points used by the error norms never hit the poles).
    """
    l, m = int(degree), int(order)
    ma = abs(m)

    def gradient(p):
        pts = np.asarray(p, dtype=float)
        unit = pts / np.linalg.norm(pts, axis=-1)[..., None]
        ct = np.clip(unit[..., 2], -1.0, 1.0)
        st = np.sqrt(np.maximum(0.0, 1.0 - ct**2))
        phi = np.arctan2(unit[..., 1], unit[..., 0])
        cp, sp = np.cos(phi), np.sin(phi)
        ok = st > 1e-14
        st_safe = np.where(ok, st, 1.0)

        legendre = lpmv(ma, l, ct)
        legendre_lower = lpmv(ma, l - 1, ct) if l >= 1 else np.zeros_like(ct)
        dp_dtheta = np.where(
            ok, (l * ct * legendre - (l + ma) * legendre_lower) / st_safe,
            0.0)
        if m >= 0:
            trig = np.cos(m * phi)
            dtrig = -m * np.sin(m * phi)
        else:
            trig = np.sin(ma * phi)
            dtrig = ma * np.cos(ma * phi)

        theta_hat = np.stack([ct * cp, ct * sp, -st], axis=-1)
        phi_hat = np.stack([-sp, cp, np.zeros_like(sp)], axis=-1)
        comp_theta = dp_dtheta * trig
        comp_phi = np.where(ok, legendre * dtrig / st_safe, 0.0)
        return (comp_theta[..., None] * theta_hat
                + comp_phi[..., None] * phi_hat) / radius

    return gradient


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
        raise InvalidDegreeError(
            f"the sphere case needs degree l >= 1, got l={l}")
    radius = _dimension("radius", radius)
    eig = l * (l + 1)
    harmonic_grad = _harmonic_surface_gradient(l, m, radius)

    def exact_u(p):
        return (radius**4 / eig**2) * harmonic(p)

    def exact_grad_u(p):
        return (radius**4 / eig**2) * harmonic_grad(p)

    def exact_lap_u(p):
        return (radius**2 / eig) * harmonic(p)

    def exact_f(p):
        return harmonic(p)

    return SurfaceCase("sphere", {"radius": radius, "l": l, "m": m}, False,
                       _sphere_project(radius), _sphere_normal(),
                       exact_u, exact_grad_u, exact_lap_u, exact_f)


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
    if rings < 2:
        raise TooFewRingsError(f"need at least 2 rings, got {rings}")
    if not 0.0 < float(theta0) < np.pi:
        raise InvalidAngleError(
            f"opening angle must lie in (0, pi), got {theta0}")
    radius = _dimension("radius", radius)

    # Ring j holds vertices start[j-1] .. start[j-1] + 6j - 1; vertex 0
    # is the pole.  The per-vertex arrays skip the pole: entry p belongs
    # to vertex p + 1.
    j = np.arange(1, rings + 1)
    counts = 6 * j
    start = 1 + 3 * j * (j - 1)
    ring = np.repeat(j, counts)
    index = np.arange(counts.sum()) - np.repeat(start - 1, counts)
    phis = 2.0 * np.pi * index / np.repeat(counts, counts)
    theta = theta0 * j / rings
    scaled_sin = np.repeat(radius * np.sin(theta), counts)
    vertices = np.concatenate([
        [[0.0, 0.0, radius]],
        np.stack([scaled_sin * np.cos(phis), scaled_sin * np.sin(phis),
                  np.repeat(radius * np.cos(theta), counts)], axis=1)])

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
    return build_mesh(vertices, np.concatenate([fan, stitched]))


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
    if k < 0:
        raise ValueError(f"subdivisions must be >= 0, got {k}")
    radius = _dimension("radius", radius)
    verts = _project_to_sphere(_ICO_VERTS, radius)
    faces = _ICO_FACES
    for _ in range(k):
        # Edges (v0, v1), (v1, v2), (v2, v0) of each face in turn; each
        # new midpoint is numbered by the first occurrence of its edge.
        ends = faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        keys = ends.min(axis=1) * len(verts) + ends.max(axis=1)
        _, first, inverse = np.unique(keys, return_index=True,
                                      return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        a, b, c = (len(verts) + rank[inverse]).reshape(-1, 3).T
        mids = ends[first[order]]
        verts = np.concatenate([verts, _project_to_sphere(
            0.5 * (verts[mids[:, 0]] + verts[mids[:, 1]]), radius)])
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
        raise InvalidCountsError(
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


class RefinementFamily:
    """A surface case bundled with a sequence of refinement levels.

    ``levels`` stores the generator parameter per level (rings,
    subdivisions or lantern level n); :meth:`build` realizes one level
    as a mesh.  Generated mesh sizes h decrease strictly across levels.
    """

    def __init__(self, label, case, levels, builder):
        self.label = label
        self.case = case
        self.levels = tuple(int(v) for v in levels)
        self._builder = builder

    def build(self, level):
        """Mesh for one entry of ``levels``."""
        return self._builder(level)

    def meshes(self):
        """Yield (level, mesh) pairs in order."""
        for level in self.levels:
            yield level, self.build(level)

    def with_case(self, case, label=None):
        """Same meshes, different reference case (and optional label)."""
        return RefinementFamily(label or self.label, case, self.levels,
                                self._builder)


def cap_family(theta0, ring_levels, radius=1.0):
    """Cap case with rings doubling per level (h halves)."""
    case = cap_case(radius, theta0)
    return RefinementFamily(
        "cap", case, ring_levels,
        lambda rings: gen_cap_mesh(theta0, rings, radius))


def sphere_family(degree, order, subdiv_levels, radius=1.0):
    """Closed-sphere case over icosphere subdivision levels."""
    case = sphere_case(radius, degree, order)
    return RefinementFamily(
        "sphere", case, subdiv_levels,
        lambda k: gen_icosphere(k, radius))


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

    def builder(n):
        if n < min_level:
            raise InvalidCountsError(
                f"{coupling} lantern level n must be at least {min_level}, "
                f"got {n}")
        return gen_schwarz_lantern(*counts(n), radius, height)

    return RefinementFamily(f"lantern-{coupling}", case, n_levels, builder)
