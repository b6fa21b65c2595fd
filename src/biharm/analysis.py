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

:func:`measure` gives the norms, the certificate and the other columns
of a level in one pass over blocks of faces, so its temporaries stay
bounded whatever the size of the mesh.  A study checks its levels by
:func:`check_levels` before it builds any mesh, and solves each level
with :func:`~biharm.biharmonic.solve_mixed`.
"""

import math
from collections import namedtuple

import numpy as np

from .biharmonic import solve_mixed
from .fem import interpolate, nodal_field, p1_gradients
from .linalg import DEFAULT_TOL, NotConvergedError, SingularError
from .mesh import circumradius_ratios, inradius_ratios, max_edge_length
from .surfaces import (LANTERN_COUPLINGS, SurfaceCase, cylinder_case,
                       gen_schwarz_lantern)


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


class LevelRecord(namedtuple("LevelRecord", (*LEVEL, *NORMS, *QUALITY))):
    """One row of the level table, its columns in the order of its CSV;
    :func:`measure` gives every column but ``case`` and ``level``.

    Attributes
    ----------
    case, level : str, int
        Label of the refinement family, and generator parameter.
    h, dofs : float, int
        Longest edge and vertex count of the mesh.
    l2_u1, h1_u1, l2_u2 : float or None
        L2 errors of u1 against u, of its gradient against grad u and of
        u2 against Delta u; None where the level was only certified.
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


def measure(mesh, case, u1=None, u2=None):
    """Every column of the level table that a mesh and its fields
    decide, in one pass over blocks of at most ``_FACE_BLOCK`` faces.

    The norms integrate with the 6-point rule the squared difference to
    the exact field at the closest point, whose gradient is projected
    onto the face plane for ``h1_u1``.  Each block evaluates the signed
    distance once, at its quadrature points and its face centroids; the
    closest points and the distances of the certificate both come from
    that d.  Given a field, the exact fields come from one
    ``case.solution`` call at the closest points.  The per-face values
    of every norm fill whole-mesh arrays, summed once at the end, so the
    result does not depend on the block size.

    Parameters
    ----------
    mesh : TriMesh
    case : SurfaceCase
    u1, u2 : ndarray, shape (n,), optional
        Nodal fields measured against u and against Delta u.

    Returns
    -------
    dict
        ``h``, ``dofs``, the ``NORMS`` (None for a field not given) and
        the ``QUALITY`` columns by name, so that
        ``LevelRecord(case, level, **measure(mesh, ...))`` is a row.
    """
    # The i-th norm of NORMS measures its field against the i-th exact
    # field of ``case.solution``: u, grad u and Delta u.
    norms = [(i, kernel, nodal_field(mesh, u_h)) for i, (kernel, u_h)
             in enumerate(((_l2_sq, u1), (_h1_sq, u1), (_l2_sq, u2)))
             if u_h is not None]
    sq = np.empty((len(norms), mesh.n_faces))
    dist, angle = [], []
    for start in range(0, mesh.n_faces, _FACE_BLOCK):
        faces = slice(start, min(start + _FACE_BLOCK, mesh.n_faces))
        corners = mesh.vertices[mesh.faces[faces]]
        points = np.matmul(_QUAD_POINTS, corners).reshape(-1, 3)
        n_points = points.shape[0]
        d, grad = case.distance(np.concatenate([points,
                                                corners.mean(axis=1)]))
        if norms:
            exact = case.solution(points - d[:n_points, None]
                                  * grad[:n_points])
            for row, (i, kernel, u_h) in zip(sq, norms):
                row[faces] = kernel(mesh, faces, u_h, exact[i])
        dist.append(np.abs(d[:n_points]).max())
        dots = np.clip(np.einsum("fd,fd->f", mesh.face_normals[faces],
                                 grad[n_points:]), -1.0, 1.0)
        angle.append(np.arccos(dots).max())
    errors = {NORMS[i]: float(np.sqrt(np.sum(mesh.face_areas * row)))
              for row, (i, _, _) in zip(sq, norms)}
    quality = map(float, (inradius_ratios(mesh).min(),
                          circumradius_ratios(mesh).max(), np.max(dist),
                          np.max(angle)))
    return {"h": max_edge_length(mesh), "dofs": mesh.n_vertices,
            **dict.fromkeys(NORMS), **errors, **dict(zip(QUALITY, quality))}


def _fit_loglog(h, values, column):
    """Slope and RMS residual of log(values) against log(h), over the
    levels where the value is not zero: an exact zero, such as the
    normal angle of an icosahedron inscribed in its sphere, has no log."""
    h, values = np.asarray(h), np.asarray(values)
    keep = values != 0
    if keep.sum() < 2:
        raise ValueError(
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
    distinct mesh size h, with finite values in each column it fits and
    two nonzero ones at least; raise ValueError otherwise.

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
        raise ValueError(
            f"rate fitting needs >= {MIN_LEVELS} levels, got {n}")
    values, counts = np.unique(hs, return_counts=True)
    if counts.max() > 1:
        repeated = ", ".join(f"{h:.6g}" for h in values[counts > 1])
        raise ValueError(
            f"mesh sizes h must be distinct, got h = {repeated} at "
            f"more than one level")
    norms = _norms(records)
    columns = dict(zip(norms, norms), **EXPONENTS)
    for r in records:
        for column in columns.values():
            if not math.isfinite(value := getattr(r, column)):
                raise ValueError(f"{column} must be finite to fit a rate, "
                                 f"got {value} at level {r.level}")
    n_fit = min(n, math.ceil(n / 2) + 1)
    finest = [records[i] for i in np.argsort(hs)[:n_fit][::-1]]
    h_fit = [r.h for r in finest]
    rates = {name: _fit_loglog(h_fit, [getattr(r, column) for r in finest],
                               column)
             for name, column in columns.items()}
    sigma = min(rates["gamma"].slope, 2.0 * rates["epsilon"].slope)
    return ConvergenceReport(records[0].case, list(records), rates, sigma)


def run_level(family, level, tol=DEFAULT_TOL, mass_mode="consistent"):
    """Solve one refinement level and collect its LevelRecord.

    The three error norms and the quality certificate come from one
    :func:`measure` pass over the face blocks of the mesh.

    Raises
    ------
    NotConvergedError, SingularError
        If the solve fails; the message names the family, the level and
        the vertex count.
    """
    mesh = family.build(level)
    try:
        sol = solve_mixed(mesh, interpolate(mesh, family.case.exact_f), tol,
                          mass_mode)
    except (NotConvergedError, SingularError) as exc:
        raise type(exc)(f"{family.label} level {level} "
                        f"({mesh.n_vertices} vertices): {exc}") from exc
    return LevelRecord(family.label, level,
                       **measure(mesh, family.case, sol.u1, sol.u2))


def check_levels(levels):
    """Require at least ``MIN_LEVELS`` levels, strictly increasing;
    raise ValueError otherwise."""
    if len(levels) < MIN_LEVELS:
        raise ValueError(
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
    "lantern-quadratic": [("l2_u2", "<=", NONCONVERGENT_SLOPE),
                          ("epsilon", "<=", 0.3)],
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
    return f"{x:.12g}" if isinstance(x, float) else str(x)


def write_levels_csv(path, records):
    """Write the level table: one row per record, with the level
    columns, the error norms that every record carries and the quality
    columns; labels and integers as they are."""
    columns = (*LEVEL, *_norms(records), *QUALITY)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for r in records:
            fh.write(",".join(_fmt(getattr(r, name)) for name in columns)
                     + "\n")


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
    :func:`~biharm.surfaces.cylinder_case` on the fine shape-regular
    lantern of the linear coupling at level n_ref and exposes the
    discrete u1, its chart gradient and the discrete u2 as the "exact"
    fields of a new SurfaceCase, whose load is the cylinder case's.
    This mirrors measuring errors against a numerically computed
    high-resolution solution instead of the manufactured one.

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
    m_ref, n_ref = LANTERN_COUPLINGS["linear"][0](int(n_ref))
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
