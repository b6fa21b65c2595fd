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
from collections import namedtuple

import numpy as np

from .biharmonic import solve_mixed
from .fem import interpolate, nodal_field, p1_gradients
from .linalg import DEFAULT_TOL, NotConvergedError, SingularError
from .mesh import circumradius_ratios, inradius_ratios, max_edge_length
from .surfaces import SurfaceCase, cylinder_case, gen_schwarz_lantern


class InsufficientLevelsError(ValueError):
    """Rate fitting needs ``MIN_LEVELS`` refinement levels of distinct
    mesh size, and two nonzero values in each column it fits."""


# The columns of the level table: those naming a level, the error norms
# a study measures on it, and the quality certificate.
LEVEL = ("case", "level", "h", "dofs")
NORMS = ("l2_u1", "h1_u1", "l2_u2")
QUALITY = ("kappa_min", "K_max", "max_dist", "max_normal_angle")
# The decay exponent that a rate fit estimates from each surface
# approximation column.
EXPONENTS = {"gamma": "max_dist", "epsilon": "max_normal_angle"}
# The fewest levels a study or a rate fit accepts.
MIN_LEVELS = 3


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
# Positions of u, grad u and Delta u in ``SurfaceCase.solution(p)``.
_U, _GRAD_U, _LAP_U = range(3)


class QualityRecord(namedtuple("QualityRecord", QUALITY)):
    """Mesh-quality summary for one mesh against its surface.

    Attributes
    ----------
    kappa_min : float
        Minimum of inradius / longest edge over faces (shape
        regularity; equilateral triangles attain 1/(2 sqrt 3)).
    K_max : float
        Maximum of circumradius / longest edge over faces.
    max_dist : float
        Largest |d| over the quadrature points, d the signed distance
        of the surface.
    max_normal_angle : float
        Largest angle (radians) between a face normal and the surface
        normal grad d at the face centroid, which is the normal at its
        closest point, as grad d is constant along normal lines.
    """

    __slots__ = ()


class LevelRecord(namedtuple("LevelRecord", (*LEVEL, "quality", *NORMS),
                             defaults=(None,) * len(NORMS))):
    """One row of the level table: a refinement level, its
    :class:`QualityRecord` and the error norms measured on it.  A level
    that was only certified has None norms."""

    __slots__ = ()


class RateFit(namedtuple("RateFit", ("slope", "residual"))):
    """Least-squares slope of log(value) against log(h), and the RMS
    residual of the fit."""

    __slots__ = ()

    def __repr__(self):
        return f"RateFit(slope={self.slope:.3f}, residual={self.residual:.3f})"


class ConvergenceReport(namedtuple(
        "ConvergenceReport", ("case", "records", "rates", "sigma_estimate"))):
    """Per-level records plus fitted convergence rates.

    ``rates`` maps each error norm of ``NORMS`` that the records carry,
    then each exponent of ``EXPONENTS``, to its :class:`RateFit`;
    ``sigma_estimate`` is min(gamma, 2 epsilon).
    """

    __slots__ = ()


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
    field = {"u": _U, "lap_u": _LAP_U}.get(reference)
    if field is None:
        raise ValueError(
            f"reference must be 'u' or 'lap_u', got {reference!r}")
    (err,), _ = _measure(mesh, case, [(_l2_sq, u_h, field)])
    return err


def h1_error(mesh, u_h, case):
    """L2 distance between the mesh gradient and the exact gradient.

    The per-face constant gradient of u_h is compared against the exact
    surface gradient at the projected quadrature points, with the exact
    gradient projected onto the face plane.
    """
    u_h = np.asarray(u_h, dtype=float)
    (err,), _ = _measure(mesh, case, [(_h1_sq, u_h, _GRAD_U)])
    return err


def certify_quality(mesh, case):
    """Shape-regularity and surface-approximation quality of one mesh.

    Returns
    -------
    QualityRecord
        kappa/K extrema over faces, the maximal quadrature-point
        distance to the surface, and the maximal face-normal deviation
        from the surface normal at the centroid.
    """
    return _measure(mesh, case, certify=True)[1]


def _l2_sq(mesh, faces, u_h, exact):
    """Per-face quadrature of (u_h - exact)^2, per unit area."""
    vals_exact = np.asarray(exact).reshape(-1, _QUAD_WEIGHTS.size)
    vals_h = np.einsum("qk,fk->fq", _QUAD_POINTS, u_h[mesh.faces[faces]])
    return np.sum((vals_h - vals_exact) ** 2 * _QUAD_WEIGHTS[None, :], axis=1)


def _h1_sq(mesh, faces, u_h, exact_grad):
    """Per-face quadrature of |grad u_h - exact_grad|^2, per unit area,
    with exact_grad projected onto the face plane."""
    grads = p1_gradients(mesh, u_h, faces)            # (b, 3)
    g_exact = np.asarray(exact_grad)
    g_exact = g_exact.reshape(-1, _QUAD_WEIGHTS.size, 3)    # (b, q, 3)
    normals = mesh.face_normals[faces]
    dots = np.einsum("fqd,fd->fq", g_exact, normals)
    # |grads - (g_exact - dots normals)|^2, one coordinate at a time.
    sq = [(grads[:, None, c] - (g_exact[..., c] - dots * normals[:, None, c]))
          ** 2 for c in range(3)]
    return np.sum((sq[0] + sq[1] + sq[2]) * _QUAD_WEIGHTS[None, :], axis=1)


def _measure(mesh, case, norms=(), certify=False):
    """Error norms and the quality certificate of a mesh in one pass
    over blocks of at most ``_FACE_BLOCK`` faces.

    Each block evaluates the signed distance once, at its quadrature
    points and, to certify, at its face centroids; the closest points
    and the distances of the certificate both come from that d.  The
    exact fields come from one ``case.solution`` call at the closest
    points.  The per-face values of every norm fill whole-mesh arrays,
    summed once at the end, so the result does not depend on the block
    size.

    Parameters
    ----------
    norms : sequence of (kernel, u_h, field)
        ``_l2_sq`` or ``_h1_sq``, a nodal field and the index (``_U``,
        ``_GRAD_U`` or ``_LAP_U``) of the exact field it is measured
        against.
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
    for start in range(0, mesh.n_faces, _FACE_BLOCK):
        faces = slice(start, min(start + _FACE_BLOCK, mesh.n_faces))
        corners = mesh.vertices[mesh.faces[faces]]
        points = np.matmul(_QUAD_POINTS, corners).reshape(-1, 3)
        n_points = points.shape[0]
        if certify:
            points = np.concatenate([points, corners.mean(axis=1)])
        d, grad = case.distance(points)
        if norms:
            fields = case.solution(points[:n_points] - d[:n_points, None]
                                   * grad[:n_points])
            for row, (kernel, u_h, field) in zip(sq, norms):
                row[faces] = kernel(mesh, faces, u_h, fields[field])
        if certify:
            dist.append(np.abs(d[:n_points]).max())
            dots = np.clip(np.einsum("fd,fd->f", mesh.face_normals[faces],
                                     grad[n_points:]), -1.0, 1.0)
            angle.append(np.arccos(dots).max())
    errors = [float(np.sqrt(np.sum(mesh.face_areas * row))) for row in sq]
    if not certify:
        return errors, None
    return errors, QualityRecord(*map(float, (
        inradius_ratios(mesh).min(), circumradius_ratios(mesh).max(),
        np.max(dist), np.max(angle))))


def _fit_loglog(h, values, column):
    """Slope and RMS residual of log(values) against log(h), over the
    levels where the value is not zero: an exact zero, such as the
    normal angle of an icosahedron inscribed in its sphere, has no log."""
    h, values = np.asarray(h), np.asarray(values)
    keep = values != 0
    if keep.sum() < 2:
        raise InsufficientLevelsError(
            f"fitting {column} needs 2 levels with a nonzero value, got "
            f"{keep.sum()}")
    logs_h, logs_v = np.log(h[keep]), np.log(values[keep])
    coeffs = np.polyfit(logs_h, logs_v, 1)
    fitted = np.polyval(coeffs, logs_h)
    rms = float(np.sqrt(np.mean((logs_v - fitted) ** 2)))
    return RateFit(float(coeffs[0]), rms)


def _norms(records):
    """The error norms that every record carries."""
    return [name for name in NORMS
            if all(getattr(r, name) is not None for r in records)]


def fit_rates(records):
    """Fit convergence rates over ``MIN_LEVELS`` or more levels of
    distinct mesh size h.

    Each slope is fitted on the finest ceil(levels/2) + 1 levels (coarse
    preasymptotic levels pollute it): one per error norm that every
    record carries, and the exponents gamma (decay of max_dist) and
    epsilon (decay of max_normal_angle).  sigma = min(gamma, 2 epsilon).

    Parameters
    ----------
    records : sequence of LevelRecord
        The report keeps their order, and takes its case from the first.

    Returns
    -------
    ConvergenceReport
    """
    hs = [r.h for r in records]
    n = len(hs)
    if n < MIN_LEVELS:
        raise InsufficientLevelsError(
            f"rate fitting needs >= {MIN_LEVELS} levels, got {n}")
    values, counts = np.unique(hs, return_counts=True)
    if counts.max() > 1:
        repeated = ", ".join(f"{h:.6g}" for h in values[counts > 1])
        raise InsufficientLevelsError(
            f"mesh sizes h must be distinct, got h = {repeated} at "
            f"more than one level")
    n_fit = min(n, math.ceil(n / 2) + 1)
    finest = [records[i] for i in np.argsort(hs)[:n_fit][::-1]]
    h_fit = [r.h for r in finest]
    rates = {name: _fit_loglog(h_fit, [getattr(r, name) for r in finest],
                               name)
             for name in _norms(records)}
    for name, column in EXPONENTS.items():
        rates[name] = _fit_loglog(
            h_fit, [getattr(r.quality, column) for r in finest], column)
    sigma = min(rates["gamma"].slope, 2.0 * rates["epsilon"].slope)
    return ConvergenceReport(records[0].case, list(records), rates, sigma)


def run_level(family, level, tol=DEFAULT_TOL, mass_mode="consistent"):
    """Solve one refinement level and collect its LevelRecord.

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
        mesh, case, [(_l2_sq, sol.u1, _U), (_h1_sq, sol.u1, _GRAD_U),
                     (_l2_sq, sol.u2, _LAP_U)], certify=True)
    return LevelRecord(family.label, level, max_edge_length(mesh),
                       mesh.n_vertices, quality, l2_u1, h1_u1, l2_u2)


def check_levels(levels):
    """Require at least ``MIN_LEVELS`` levels (else
    InsufficientLevelsError), strictly increasing (else ValueError)."""
    if len(levels) < MIN_LEVELS:
        raise InsufficientLevelsError(
            f"a study needs at least {MIN_LEVELS} levels, got {list(levels)}")
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
    return fit_rates(records)


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

def _fmt(x):
    return f"{x:.12g}"


def write_levels_csv(path, records):
    """Write the level table: one row per record, with the level
    columns, the error norms that every record carries and the quality
    columns."""
    norms = _norms(records)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join((*LEVEL, *norms, *QUALITY)) + "\n")
        for r in records:
            fields = [r.case, str(r.level), _fmt(r.h), str(r.dofs),
                      *(_fmt(getattr(r, name)) for name in norms),
                      *map(_fmt, r.quality)]
            fh.write(",".join(fields) + "\n")


def write_rates_csv(path, report):
    """Write fitted rates with a convergence flag per norm.

    Error-norm slopes at or below ``NONCONVERGENT_SLOPE`` are flagged
    "non-convergent"; a sigma estimate below ``SIGMA_THRESHOLD`` is
    flagged "warning" (condition on the surface-approximation quality
    fails).
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(("norm", *RateFit._fields, "flag")) + "\n")
        for name, fit in report.rates.items():
            flag = ("non-convergent" if name in NORMS
                    and fit.slope <= NONCONVERGENT_SLOPE else "ok")
            fh.write(f"{name},{_fmt(fit.slope)},{_fmt(fit.residual)},"
                     f"{flag}\n")
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
        kind "cylinder-highres"; its signed distance, and so its
        closest-point map and normals, are the cylinder's.
    """
    base = cylinder_case(radius, height)
    m_ref = 2 * int(n_ref)
    fine = gen_schwarz_lantern(m_ref, n_ref, radius, height)
    sol = solve_mixed(fine, interpolate(fine, base.exact_f), tol=tol)

    # Vertex j m + k is vertex k of ring j.
    z_ring = fine.vertices[::m_ref, 2]
    u1_ring = sol.u1.reshape(-1, m_ref).mean(axis=1)
    u2_ring = sol.u2.reshape(-1, m_ref).mean(axis=1)
    slope = np.diff(u1_ring) / np.diff(z_ring)

    def solution(p):
        z = np.asarray(p, dtype=float)[..., 2]
        band = np.clip(np.searchsorted(z_ring, z, "right") - 1, 0, n_ref - 1)
        return (np.interp(z, z_ring, u1_ring),
                np.multiply.outer(slope[band], [0.0, 0.0, 1.0]),
                np.interp(z, z_ring, u2_ring))

    return SurfaceCase(
        "cylinder-highres",
        {"radius": radius, "height": height, "n_ref": n_ref},
        base.distance, solution, base.exact_f)
