"""Error norms, mesh-quality certification and convergence-rate fits.

Errors are computed in the mesh metric against the pulled-back exact
solution u composed with the closest-point map, using one quadrature
rule: Dunavant's symmetric 6-point rule on each triangle, exact for
polynomials of degree 4 (IJNME 21, 1985).

Quality certification covers the shape-regularity ratios kappa and K,
the maximal distance of quadrature points to the surface, and the
maximal angle between face normals and surface normals; rate fits
additionally estimate the decay exponents gamma (distance) and epsilon
(normals) with sigma = min(gamma, 2 epsilon).

The norms and the certificate stream over blocks of faces, so their
temporaries stay bounded whatever the size of the mesh.  A study checks
its levels by :func:`check_levels` before it builds any mesh, and
solves each level with :func:`~biharm.biharmonic.solve_mixed`.
"""

import math

import numpy as np

from .biharmonic import solve_mixed, solve_mixed_dirichlet
from .fem import interpolate, nodal_field, p1_gradients
from .linalg import DEFAULT_TOL, NotConvergedError, SingularError
from .mesh import circumradius_ratios, inradius_ratios, max_edge_length
from .surfaces import SurfaceCase, cylinder_case, gen_schwarz_lantern


class InsufficientLevelsError(ValueError):
    """Rate fitting needs at least three refinement levels."""


# Dunavant's symmetric degree-4 rule on the reference triangle:
# barycentric points and weights summing to 1 (multiply by the area).
_QUAD_POINTS = np.array([
    [0.108103018168070, 0.445948490915965, 0.445948490915965],
    [0.445948490915965, 0.108103018168070, 0.445948490915965],
    [0.445948490915965, 0.445948490915965, 0.108103018168070],
    [0.816847572980459, 0.091576213509771, 0.091576213509771],
    [0.091576213509771, 0.816847572980459, 0.091576213509771],
    [0.091576213509771, 0.091576213509771, 0.816847572980459]])
_QUAD_WEIGHTS = np.array([0.223381589678011, 0.223381589678011,
                          0.223381589678011, 0.109951743655322,
                          0.109951743655322, 0.109951743655322])


# Faces per block of the pass that measures errors and certifies
# quality.  Blocks of 4096, 8192 and 16384 faces gave the same time
# within noise (cap rings 128: 252, 240, 275 ms; icosphere 6: 453, 473,
# 447 ms; cap rings 256: 1.17, 1.14, 1.16 s) and tracemalloc peaks of
# 6.4, 10.4, 18.6 MiB (cap rings 128) and 8.7, 15.4, 28.8 MiB
# (icosphere 6), against 92 and 130 MiB for the whole mesh at once.
_FACE_BLOCK = 4096


def _face_blocks(mesh, case):
    """Quadrature points of a mesh and their closest points on a
    surface, one block of at most ``_FACE_BLOCK`` faces at a time.

    Yields
    ------
    faces : slice
        The faces of the block.
    points, projected : ndarray, shape (b * q, 3)
        Their points at ``_QUAD_POINTS``, face by face, and the closest
        points on the surface of ``case``.
    """
    for start in range(0, mesh.n_faces, _FACE_BLOCK):
        faces = slice(start, min(start + _FACE_BLOCK, mesh.n_faces))
        points = np.matmul(_QUAD_POINTS, mesh.vertices[mesh.faces[faces]])
        points = points.reshape(-1, 3)
        yield faces, points, case.closest_point(points)


class QualityRecord:
    """Mesh-quality summary for one mesh against its surface.

    Attributes
    ----------
    kappa_min : float
        Minimum of inradius / longest edge over faces (shape
        regularity; equilateral triangles attain 1/(2 sqrt 3)).
    K_max : float
        Maximum of circumradius / longest edge over faces.
    max_distance : float
        Largest distance of a quadrature point to the surface.
    max_normal_angle : float
        Largest angle (radians) between a face normal and the surface
        normal at the projected face centroid.
    """

    def __init__(self, kappa_min, K_max, max_distance, max_normal_angle):
        self.kappa_min = float(kappa_min)
        self.K_max = float(K_max)
        self.max_distance = float(max_distance)
        self.max_normal_angle = float(max_normal_angle)


class ErrorRecord:
    """Errors and quality of one refinement level."""

    def __init__(self, case, level, h, dofs, l2_u1, h1_u1, l2_u2, quality):
        self.case = str(case)
        self.level = int(level)
        self.h = float(h)
        self.dofs = int(dofs)
        self.l2_u1 = float(l2_u1)
        self.h1_u1 = float(h1_u1)
        self.l2_u2 = float(l2_u2)
        self.quality = quality


class RateFit:
    """Least-squares slope of log(value) against log(h)."""

    def __init__(self, slope, residual):
        self.slope = float(slope)
        self.residual = float(residual)

    def __repr__(self):
        return f"RateFit(slope={self.slope:.3f}, residual={self.residual:.3f})"


class ConvergenceReport:
    """Per-level records plus fitted convergence rates.

    ``rates`` maps "l2_u1", "h1_u1", "l2_u2", "gamma" and "epsilon" to
    :class:`RateFit`; ``sigma_estimate`` is min(gamma, 2 epsilon).
    """

    def __init__(self, case, records, rates, sigma_estimate):
        self.case = case
        self.records = list(records)
        self.rates = rates
        self.sigma_estimate = sigma_estimate


def l2_error(mesh, u_h, case, reference="u"):
    """L2 distance between a nodal field and the pulled-back exact field.

    Integrates (u_h - u_exact(closest_point(x)))^2 over the mesh with
    the 6-point quadrature rule.

    Parameters
    ----------
    mesh : TriMesh
    u_h : ndarray, shape (n,)
    case : SurfaceCase
    reference : {"u", "lap_u"}
        Compare against exact_u (default) or exact_lap_u.

    Returns
    -------
    float
    """
    u_h = nodal_field(mesh, u_h)
    exact = {"u": case.exact_u, "lap_u": case.exact_lap_u}.get(reference)
    if exact is None:
        raise ValueError(
            f"reference must be 'u' or 'lap_u', got {reference!r}")
    (err,), _ = _measure(mesh, case, [(_l2_sq, u_h, exact)])
    return err


def h1_error(mesh, u_h, case):
    """L2 distance between the mesh gradient and the exact gradient.

    The per-face constant gradient of u_h is compared against the exact
    surface gradient at the projected quadrature points, with the exact
    gradient projected onto the face plane.
    """
    u_h = np.asarray(u_h, dtype=float)
    (err,), _ = _measure(mesh, case, [(_h1_sq, u_h, case.exact_grad_u)])
    return err


def certify_quality(mesh, case):
    """Shape-regularity and surface-approximation quality of one mesh.

    Returns
    -------
    QualityRecord
        kappa/K extrema over faces, the maximal quadrature-point
        distance to the surface, and the maximal face-normal deviation
        from the surface normal at the projected centroid.
    """
    return _measure(mesh, case, certify=True)[1]


def _l2_sq(mesh, faces, projected, u_h, exact):
    """Per-face quadrature of (u_h - exact)^2, per unit area."""
    vals_exact = np.asarray(exact(projected)).reshape(-1, _QUAD_WEIGHTS.size)
    vals_h = np.einsum("qk,fk->fq", _QUAD_POINTS, u_h[mesh.faces[faces]])
    return np.sum((vals_h - vals_exact) ** 2 * _QUAD_WEIGHTS[None, :], axis=1)


def _h1_sq(mesh, faces, projected, u_h, exact_grad):
    """Per-face quadrature of |grad u_h - exact_grad|^2, per unit area,
    with exact_grad projected onto the face plane."""
    grads = p1_gradients(mesh, u_h, faces)            # (b, 3)
    g_exact = np.asarray(exact_grad(projected))
    g_exact = g_exact.reshape(-1, _QUAD_WEIGHTS.size, 3)    # (b, q, 3)
    normals = mesh.face_normals[faces]
    g_tan = g_exact - np.einsum("fqd,fd->fq", g_exact,
                                normals)[:, :, None] * normals[:, None, :]
    diff = grads[:, None, :] - g_tan
    return np.sum(np.sum(diff**2, axis=2) * _QUAD_WEIGHTS[None, :], axis=1)


def _measure(mesh, case, norms=(), certify=False):
    """Error norms and the quality certificate of a mesh in one pass
    over its face blocks.

    The per-face values of every norm fill whole-mesh arrays, summed
    once at the end, so the result does not depend on the block size.

    Parameters
    ----------
    norms : sequence of (kernel, u_h, exact)
        ``_l2_sq`` or ``_h1_sq``, a nodal field and the exact field it
        is measured against.
    certify : bool
        Also certify the mesh against the surface of ``case``.

    Returns
    -------
    errors : list of float
        One per norm.
    quality : QualityRecord or None
    """
    sq = np.empty((len(norms), mesh.n_faces))
    dist, angle = [], []
    for faces, points, projected in _face_blocks(mesh, case):
        for row, (kernel, u_h, exact) in zip(sq, norms):
            row[faces] = kernel(mesh, faces, projected, u_h, exact)
        if certify:
            dist.append(np.linalg.norm(points - projected, axis=1).max())
            centroids = mesh.vertices[mesh.faces[faces]].mean(axis=1)
            surf_normals = case.normal_at(case.closest_point(centroids))
            dots = np.clip(np.einsum("fd,fd->f", mesh.face_normals[faces],
                                     surf_normals), -1.0, 1.0)
            angle.append(np.arccos(dots).max())
    errors = [float(np.sqrt(np.sum(mesh.face_areas * row))) for row in sq]
    if not certify:
        return errors, None
    return errors, QualityRecord(
        inradius_ratios(mesh).min(), circumradius_ratios(mesh).max(),
        np.max(dist), np.max(angle))


def _fit_loglog(h, values, n_fit):
    """Slope and RMS residual of log(values) vs log(h), finest n_fit."""
    h = np.asarray(h, dtype=float)[-n_fit:]
    v = np.maximum(np.asarray(values, dtype=float)[-n_fit:], 1e-300)
    logs_h = np.log(h)
    logs_v = np.log(v)
    coeffs = np.polyfit(logs_h, logs_v, 1)
    fitted = np.polyval(coeffs, logs_h)
    rms = float(np.sqrt(np.mean((logs_v - fitted) ** 2)))
    return RateFit(float(coeffs[0]), rms)


def fit_rates(records, case=""):
    """Fit convergence rates across a refinement family.

    The three error norms are fitted by :func:`fit_quality_rates`,
    with the same checks and rule as gamma, epsilon and sigma.

    Parameters
    ----------
    records : sequence of ErrorRecord
        The report keeps their order.
    case : str
        Case descriptor for the report; the first record's by default.

    Returns
    -------
    ConvergenceReport
    """
    rates = fit_quality_rates(
        [r.h for r in records], [r.quality for r in records],
        **{name: [getattr(r, name) for r in records]
           for name in ("l2_u1", "h1_u1", "l2_u2")})
    sigma = rates.pop("sigma")
    return ConvergenceReport(case or records[0].case, records, rates, sigma)


def fit_quality_rates(hs, qualities, **series):
    """Fit decay rates over at least three levels of distinct mesh size h.

    Each slope is fitted on the finest ceil(levels/2) + 1 levels (coarse
    preasymptotic levels pollute it).  Returns a dict of RateFit entries
    "gamma" (decay of max_distance), "epsilon" (decay of
    max_normal_angle) and one per keyword ``series`` of per-level
    values, plus the scalar "sigma" = min(gamma, 2 epsilon).  All
    per-level inputs are in the order of ``hs``.
    """
    n = len(hs)
    if n < 3:
        raise InsufficientLevelsError(
            f"rate fitting needs >= 3 levels, got {n}")
    values, counts = np.unique(hs, return_counts=True)
    if counts.max() > 1:
        repeated = ", ".join(f"{h:.6g}" for h in values[counts > 1])
        raise InsufficientLevelsError(
            f"mesh sizes h must be distinct, got h = {repeated} at "
            f"more than one level")
    order = np.argsort(hs)[::-1]
    n_fit = min(n, math.ceil(n / 2) + 1)
    series["gamma"] = [q.max_distance for q in qualities]
    series["epsilon"] = [q.max_normal_angle for q in qualities]
    fits = {name: _fit_loglog([hs[i] for i in order],
                              [vals[i] for i in order], n_fit)
            for name, vals in series.items()}
    fits["sigma"] = min(fits["gamma"].slope, 2.0 * fits["epsilon"].slope)
    return fits


def run_level(family, level, tol=DEFAULT_TOL, mass_mode="consistent"):
    """Solve one refinement level and collect its ErrorRecord.

    The three error norms and the quality certificate come from one
    pass over the face blocks of the mesh.

    Raises
    ------
    NotConvergedError, SingularError
        If the solve fails; the message names the family, the level and
        the vertex count.
    """
    mesh = family.build(level)
    case = family.case
    try:
        sol = solve_mixed(mesh, interpolate(mesh, case.exact_f), tol,
                          mass_mode)
    except (NotConvergedError, SingularError) as exc:
        raise type(exc)(f"{family.label} level {level} "
                        f"({mesh.n_vertices} vertices): {exc}") from exc
    (l2_u1, h1_u1, l2_u2), quality = _measure(
        mesh, case,
        [(_l2_sq, sol.u1, case.exact_u), (_h1_sq, sol.u1, case.exact_grad_u),
         (_l2_sq, sol.u2, case.exact_lap_u)], certify=True)
    return ErrorRecord(family.label, level, max_edge_length(mesh),
                       mesh.n_vertices, l2_u1, h1_u1, l2_u2, quality)


def check_levels(levels):
    """Require at least 3 levels (else InsufficientLevelsError),
    strictly increasing (else ValueError)."""
    if len(levels) < 3:
        raise InsufficientLevelsError(
            f"a study needs at least 3 levels, got {list(levels)}")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError(
            f"a study needs strictly increasing levels, got {list(levels)}")


def run_study(family, tol=DEFAULT_TOL, mass_mode="consistent"):
    """Run a full convergence study over a refinement family, level by
    level in order, after :func:`check_levels` accepts its levels.

    Returns
    -------
    ConvergenceReport
    """
    check_levels(family.levels)
    records = [run_level(family, lv, tol, mass_mode) for lv in family.levels]
    return fit_rates(records, family.label)


# ---------------------------------------------------------------------------
# Thresholds of the convergence criteria

# Fitted slopes at or below this value are flagged non-convergent.
NONCONVERGENT_SLOPE = 0.25
# A sigma estimate below this value is flagged: the surface
# approximation conditions of the error analysis fail.
SIGMA_THRESHOLD = 1.5
# Slope gates of the convergence acceptance criteria, per case label;
# checked by `converge --check` and by the acceptance tests.
ACCEPTANCE_GATES = {
    "cap": [("l2_u1", ">=", 0.85), ("h1_u1", ">=", 0.60),
            ("l2_u2", ">=", 0.40)],
    "sphere": [("l2_u1", ">=", 1.8), ("l2_u2", ">=", 1.8),
               ("h1_u1", ">=", 0.9)],
    "lantern-linear": [("l2_u2", ">=", 0.4), ("l2_u1", ">=", 0.85)],
    "lantern-quadratic": [("l2_u2", "<=", 0.25), ("epsilon", "<=", 0.3)],
}


def gate_failures(report, gate):
    """One message per fitted slope of ``report`` that misses the
    acceptance gate ``ACCEPTANCE_GATES[gate]``; empty if all pass."""
    failures = []
    for name, op, bound in ACCEPTANCE_GATES[gate]:
        slope = report.rates[name].slope
        if not (slope >= bound if op == ">=" else slope <= bound):
            failures.append(f"{name} slope {slope:.3f} not {op} {bound}")
    return failures


# ---------------------------------------------------------------------------
# CSV serialization (12 significant digits, stable layout)

REPORT_HEADER = ("case,level,h,dofs,l2_u1,h1_u1,l2_u2,"
                 "kappa_min,K_max,max_dist,max_normal_angle")
QUALITY_HEADER = "case,level,h,dofs,kappa_min,K_max,max_dist,max_normal_angle"
RATES_HEADER = "norm,slope,residual,flag"


def _fmt(x):
    return f"{x:.12g}"


def _write_level_csv(path, header, records, norms):
    """One row per record: level fields, the ``norms`` named, quality."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for r in records:
            q = r.quality
            fields = [r.case, str(r.level), _fmt(r.h), str(r.dofs),
                      *(_fmt(getattr(r, name)) for name in norms),
                      _fmt(q.kappa_min), _fmt(q.K_max),
                      _fmt(q.max_distance), _fmt(q.max_normal_angle)]
            fh.write(",".join(fields) + "\n")


def write_report_csv(path, records):
    """Write per-level error records in the report schema."""
    _write_level_csv(path, REPORT_HEADER, records,
                     ("l2_u1", "h1_u1", "l2_u2"))


def write_quality_csv(path, records):
    """Write per-level quality fields only."""
    _write_level_csv(path, QUALITY_HEADER, records, ())


def write_rates_csv(path, report):
    """Write fitted rates with a convergence flag per norm.

    Error-norm slopes at or below ``NONCONVERGENT_SLOPE`` are flagged
    "non-convergent"; a sigma estimate below ``SIGMA_THRESHOLD`` is
    flagged "warning" (condition on the surface-approximation quality
    fails).
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(RATES_HEADER + "\n")
        for name in ("l2_u1", "h1_u1", "l2_u2"):
            fit = report.rates[name]
            flag = ("non-convergent" if fit.slope <= NONCONVERGENT_SLOPE
                    else "ok")
            fh.write(f"{name},{_fmt(fit.slope)},{_fmt(fit.residual)},"
                     f"{flag}\n")
        for name in ("gamma", "epsilon"):
            fit = report.rates[name]
            fh.write(f"{name},{_fmt(fit.slope)},{_fmt(fit.residual)},ok\n")
        flag = ("ok" if report.sigma_estimate >= SIGMA_THRESHOLD
                else "warning")
        fh.write(f"sigma,{_fmt(report.sigma_estimate)},,{flag}\n")


# ---------------------------------------------------------------------------
# High-resolution discrete reference for the lantern experiment

def lantern_highres_reference(radius=1.0, height=2.0, n_ref=128,
                              tol=DEFAULT_TOL):
    """Cylinder case whose reference fields come from a fine solve.

    Solves the clamped problem with the constant load of
    :func:`~biharm.surfaces.cylinder_case` on a fine shape-regular
    lantern (m = 2 n_ref) and exposes the discrete u1, its chart
    gradient and the discrete u2 as the "exact" fields of a new
    SurfaceCase, whose load is the cylinder case's.  This mirrors
    measuring errors against a numerically computed high-resolution
    solution instead of the manufactured one.

    The fine mesh and the constant load are invariant under the
    rotation by 2 pi / m, which maps every vertex ring onto itself, so
    the fine solution is constant on each ring.  Its P1 interpolant in
    the unrolled (R phi, z) chart is therefore the piecewise linear
    profile in z through the ring values, which is what the fields
    evaluate at the closest point.

    Returns
    -------
    SurfaceCase
        kind "cylinder-highres"; closest-point map and normals are the
        cylinder's.
    """
    base = cylinder_case(radius, height)
    m_ref = 2 * int(n_ref)
    fine = gen_schwarz_lantern(m_ref, n_ref, radius, height)
    sol = solve_mixed_dirichlet(fine, interpolate(fine, base.exact_f),
                                tol=tol)

    # Vertex j m + k is vertex k of ring j.
    z_ring = fine.vertices[::m_ref, 2]
    u1_ring = sol.u1.reshape(-1, m_ref).mean(axis=1)
    u2_ring = sol.u2.reshape(-1, m_ref).mean(axis=1)
    slope = np.diff(u1_ring) / np.diff(z_ring)

    def z_of(p):
        return np.asarray(base.closest_point(p))[..., 2]

    def grad_field(p):
        band = np.clip(np.searchsorted(z_ring, z_of(p), "right") - 1,
                       0, n_ref - 1)
        return np.multiply.outer(slope[band], [0.0, 0.0, 1.0])

    return SurfaceCase(
        "cylinder-highres",
        {"radius": radius, "height": height, "n_ref": n_ref},
        True, base.closest_point, base.normal_at,
        exact_u=lambda p: np.interp(z_of(p), z_ring, u1_ring),
        exact_grad_u=grad_field,
        exact_lap_u=lambda p: np.interp(z_of(p), z_ring, u2_ring),
        exact_f=base.exact_f)
