"""Command-line front end: single solves, convergence studies and
mesh-quality certification.

Studies are parameterized by a JSON config file and/or flags (flags
win).  Artifacts are CSV files in the analysis schema, OBJ meshes and a
hand-rolled SVG loglog plot; identical inputs produce byte-identical
outputs.  Exit codes: 0 ok, 2 usage or config error (a level too large
to allocate included), 3 numerical failure, 4 acceptance-gate failure
in ``converge --check``.
"""

import argparse
from collections import namedtuple
from contextlib import contextmanager
from functools import cache
from itertools import chain
import json
import math
import os
import sys

import numpy as np

from .analysis import (MIN_LEVELS, NORMS, QUALITY, SIGMA_THRESHOLD,
                       LevelRecord, check_levels, fit_rates, gate_failures,
                       lantern_highres_reference, measure, run_study,
                       write_levels_csv, write_rates_csv)
from .biharmonic import solve_mixed
from .fem import interpolate
from .linalg import DEFAULT_TOL, NotConvergedError, SingularError
from .mesh import read_obj, write_obj, write_rows
from .surfaces import (LANTERN_COUPLINGS, cap_family, lantern_family,
                       real_harmonic, sphere_family)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_GATE = 4


# The fields common to every case, besides "case", with their defaults.
_DEFAULTS = {"mass_mode": "consistent", "tol": DEFAULT_TOL, "out": "out"}

# One entry per case kind: the field holding its levels, its fields
# (the level field included) with their defaults, the default
# `solve --n`, the guide slopes of the plot, and the refinement family
# of given levels built from the merged config values.
_Case = namedtuple("_Case", "level_field fields solve_n guides family")
_CASES = {
    "cap": _Case(
        "ring_levels",
        {"theta0": math.pi / 3.0, "ring_levels": [8, 16, 32, 64], "R": 1.0},
        16, [1.0, 0.75, 0.5],
        lambda v, levels: cap_family(v["theta0"], levels, v["R"])),
    "sphere": _Case(
        "subdiv_levels",
        {"l": 2, "m": 0, "subdiv_levels": [2, 3, 4, 5], "R": 1.0},
        3, [2.0],
        lambda v, levels: sphere_family(v["l"], v["m"], levels, v["R"])),
    "lantern": _Case(
        "n_levels",
        {"coupling": "linear", "n_levels": [8, 16, 32, 64], "R": 1.0,
         "H": 2.0, "reference": "manufactured"},
        16, [1.0, 0.75, 0.5],
        lambda v, levels: lantern_family(v["coupling"], levels, v["R"],
                                         v["H"])),
}
# Every field with a default; a config value must have its default's type.
_FIELD_DEFAULTS = dict(chain(_DEFAULTS.items(),
                             *(c.fields.items() for c in _CASES.values())))
# The flags of case fields: --levels sets the level field, each other its own.
_CASE_FLAGS = ("levels", *dict.fromkeys(
    f for c in _CASES.values() for f in c.fields if f != c.level_field))


@contextmanager
def _out_dir(path):
    """Create the output directory ``path`` and any missing parents; if
    the command then fails, remove the directories this created, deepest
    first, while they are empty."""
    created = []
    folder = os.path.abspath(path)
    while not os.path.isdir(folder):
        created.append(folder)
        folder = os.path.dirname(folder)
    os.makedirs(path, exist_ok=True)
    try:
        yield
    except BaseException:
        for folder in created:
            if os.listdir(folder):
                break
            os.rmdir(folder)
        raise


def _refuse(args, flags, reason):
    """Refuse the first of ``flags`` given on the command line."""
    for flag in flags:
        if getattr(args, flag, None) is not None:
            raise ValueError(f"--{flag} {reason}")


def _load_config(args):
    """Merge defaults, JSON config file and explicit flags into the
    validated values of every field, and return them with the
    ``_CASES`` entry of their case, or None if no case was given."""
    provided = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"config file {args.config}: {exc}")
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
        known = {"case", *_FIELD_DEFAULTS}
        for key in data:
            if key not in known:
                raise ValueError(f"unknown config field {key!r}")
        provided.update(data)

    # Each flag stores to its field; --levels is mapped below.
    for field in ("case", *_FIELD_DEFAULTS):
        value = getattr(args, field, None)
        if value is not None:
            provided[field] = value
    case = provided.get("case")
    if case is not None and not (isinstance(case, str) and case in _CASES):
        raise ValueError(f"case must be one of {', '.join(_CASES)}, "
                         f"got {case!r}")
    if case is None:
        _refuse(args, _CASE_FLAGS, "requires --case")
    if getattr(args, "levels", None) is not None:
        provided[_CASES[case].level_field] = args.levels

    if case is not None:
        allowed = {"case", *_DEFAULTS, *_CASES[case].fields}
        for key in provided:
            if key not in allowed:
                raise ValueError(
                    f"field {key!r} does not apply to case {case!r}")

    values = dict(_FIELD_DEFAULTS, case=None)
    values.update(provided)
    _validate(values)
    return values, _CASES.get(case)


_TYPE_NAMES = {float: "a number", int: "an integer", str: "a string",
               list: "a list"}
# The values each field with a fixed set of them may take.
_CHOICES = {"mass_mode": ("consistent", "lumped"),
            "coupling": tuple(LANTERN_COUPLINGS),
            "reference": ("manufactured", "highres")}


def _has_type_of(value, default):
    """Whether a config value has the type of its default.  An int
    passes where a float is expected; a bool is not a number."""
    kinds = (int, float) if isinstance(default, float) else type(default)
    return isinstance(value, kinds) and not isinstance(value, bool)


def _validate(values):
    for field, default in _FIELD_DEFAULTS.items():
        if not _has_type_of(values[field], default):
            raise ValueError(f"{field} must be {_TYPE_NAMES[type(default)]}"
                             f", got {values[field]!r}")
    tol = values["tol"]
    if not 0.0 < tol <= 1e-4:
        raise ValueError(f"tol must lie in (0, 1e-4], got {tol}")
    for field, choices in _CHOICES.items():
        if values[field] not in choices:
            allowed = " or ".join(map(str, choices))
            raise ValueError(f"{field} must be {allowed}, "
                             f"got {values[field]!r}")
    for field in (c.level_field for c in _CASES.values()):
        levels = values[field]
        if not all(_has_type_of(v, 0) and v >= 0 for v in levels):
            raise ValueError(f"{field} must be a list of nonnegative "
                             f"integers, got {levels!r}")


def _parse_levels(text):
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"levels must be comma-separated integers, got {text!r}")


def _rhs_field(text):
    """The right-hand side function that ``--rhs`` names."""
    kind, _, rest = text.partition(":")
    if kind == "const":
        try:
            value = float(rest)
        except ValueError:
            raise ValueError(f"bad constant right-hand side {text!r}")
        return lambda points: np.full(len(points), value)
    if kind == "harmonic":
        try:
            l_str, m_str = rest.split(",")
            degree, order = int(l_str), int(m_str)
        except ValueError:
            raise ValueError(
                f"harmonic right-hand side must be harmonic:l,m, "
                f"got {text!r}")
        return real_harmonic(degree, order)
    raise ValueError(
        f"right-hand side must be const:VALUE or harmonic:l,m, got {text!r}")


def _write_solution_csv(path, u1, u2):
    """One ``vertex,u1,u2`` row per vertex, values to 12 significant digits."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("vertex,u1,u2\n")
        write_rows(fh, "%d,%.12g,%.12g\n",
                   np.column_stack([np.arange(u1.shape[0]), u1, u2]))


# ---------------------------------------------------------------------------
# SVG loglog plot

_SERIES_STYLE = list(zip(NORMS, ("#1f77b4", "#2ca02c", "#d62728")))


def _svg_loglog(path, report, guide_slopes):
    """Hand-rolled SVG 1.1 loglog plot: error vs h, one polyline per
    norm, dashed reference-slope guide lines."""
    width, height = 640, 480
    left, right, top, bottom = 70, 150, 20, 50
    hs = [r.h for r in report.records]
    series = {name: [getattr(r, name) for r in report.records]
              for name, _ in _SERIES_STYLE}
    all_vals = [v for vals in series.values() for v in vals if v > 0]
    lx = [math.log10(h) for h in hs]
    ly = [math.log10(v) for v in all_vals]
    x0, x1 = min(lx), max(lx)
    y0, y1 = min(ly), max(ly)
    x0 -= 0.05 * (x1 - x0 + 1e-9)
    x1 += 0.05 * (x1 - x0 + 1e-9)
    y0 -= 0.6
    y1 += 0.3

    def sx(logh):
        return left + (logh - x0) / (x1 - x0) * (width - left - right)

    def sy(logv):
        return height - bottom - (logv - y0) / (y1 - y0) * (
            height - top - bottom)

    parts = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">')
    parts.append(f'<rect x="0" y="0" width="{width}" height="{height}" '
                 f'fill="white"/>')
    parts.append(f'<rect x="{left}" y="{top}" '
                 f'width="{width - left - right}" '
                 f'height="{height - top - bottom}" fill="none" '
                 f'stroke="black" stroke-width="1"/>')

    for p in range(math.ceil(x0), math.floor(x1) + 1):
        x = sx(p)
        parts.append(f'<line x1="{x:.2f}" y1="{top}" x2="{x:.2f}" '
                     f'y2="{height - bottom}" stroke="#dddddd" '
                     f'stroke-width="1"/>')
        parts.append(f'<text x="{x:.2f}" y="{height - bottom + 18}" '
                     f'font-size="12" text-anchor="middle" '
                     f'font-family="sans-serif">1e{p}</text>')
    for p in range(math.ceil(y0), math.floor(y1) + 1):
        y = sy(p)
        parts.append(f'<line x1="{left}" y1="{y:.2f}" '
                     f'x2="{width - right}" y2="{y:.2f}" '
                     f'stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{left - 8}" y="{y + 4:.2f}" '
                     f'font-size="12" text-anchor="end" '
                     f'font-family="sans-serif">1e{p}</text>')
    parts.append(f'<text x="{(left + width - right) / 2:.2f}" '
                 f'y="{height - 12}" font-size="13" text-anchor="middle" '
                 f'font-family="sans-serif">mesh size h</text>')

    # Guide lines anchored below the smallest finest-level error.
    lh_min, lh_max = min(lx), max(lx)
    finest = min(range(len(hs)), key=lambda i: hs[i])
    anchor_v = min(series[name][finest] for name, _ in _SERIES_STYLE
                   if series[name][finest] > 0)
    anchor = math.log10(anchor_v) - 0.4
    for slope in guide_slopes:
        yb = anchor + slope * (lh_max - lh_min)
        parts.append(f'<line x1="{sx(lh_min):.2f}" y1="{sy(anchor):.2f}" '
                     f'x2="{sx(lh_max):.2f}" y2="{sy(yb):.2f}" '
                     f'stroke="#888888" stroke-width="1" '
                     f'stroke-dasharray="6,4"/>')
        parts.append(f'<text x="{sx(lh_max) + 4:.2f}" y="{sy(yb):.2f}" '
                     f'font-size="11" fill="#666666" '
                     f'font-family="sans-serif">slope {slope:g}</text>')

    for idx, (name, color) in enumerate(_SERIES_STYLE):
        vals = series[name]
        pts = " ".join(f"{sx(math.log10(h)):.2f},{sy(math.log10(v)):.2f}"
                       for h, v in zip(hs, vals) if v > 0)
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="2"/>')
        for h, v in zip(hs, vals):
            if v > 0:
                parts.append(f'<circle cx="{sx(math.log10(h)):.2f}" '
                             f'cy="{sy(math.log10(v)):.2f}" r="3" '
                             f'fill="{color}"/>')
        lyy = top + 16 + 18 * idx
        lxx = width - right + 14
        parts.append(f'<line x1="{lxx}" y1="{lyy - 4}" x2="{lxx + 24}" '
                     f'y2="{lyy - 4}" stroke="{color}" stroke-width="2"/>')
        slope = report.rates[name].slope
        parts.append(f'<text x="{lxx + 30}" y="{lyy}" font-size="12" '
                     f'font-family="sans-serif">{name} '
                     f'(slope {slope:.2f})</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# Subcommands

def cmd_solve(args):
    cfg, spec = _load_config(args)
    if args.mesh is not None:
        _refuse(args, ("case", "n", *_CASE_FLAGS),
                "does not apply to solve --mesh")
        family = None
    elif spec is not None:
        level = args.n if args.n is not None else spec.solve_n
        family = spec.family(cfg, [level])
    else:
        raise ValueError("solve needs --mesh FILE or --case KIND")
    if args.rhs is not None:
        rhs = _rhs_field(args.rhs)
    elif family is not None:
        rhs = family.case.exact_f
    else:
        raise ValueError("solve with --mesh needs --rhs const:VALUE or "
                         "harmonic:l,m")

    out = cfg["out"]
    with _out_dir(out):
        mesh = read_obj(args.mesh) if family is None else family.build(level)
        sol = solve_mixed(mesh, interpolate(mesh, rhs), cfg["tol"],
                          cfg["mass_mode"])
        _write_solution_csv(os.path.join(out, "solution.csv"), sol.u1, sol.u2)
        if args.write_mesh:
            write_obj(mesh, os.path.join(out, "mesh.obj"))
        print(f"solved {mesh.n_vertices} dofs "
              f"(residual {sol.solve_report.relative_residual:.2e}); "
              f"max|u1| = {np.abs(sol.u1).max():.6g}, "
              f"max|u2| = {np.abs(sol.u2).max():.6g}")
        print(f"wrote {os.path.join(out, 'solution.csv')}")
        return EXIT_OK


def cmd_converge(args):
    cfg, spec = _load_config(args)
    if spec is None:
        raise ValueError("converge needs --case KIND (or a config file)")
    levels = cfg[spec.level_field]
    check_levels(levels)
    family = spec.family(cfg, levels)
    out, gate = cfg["out"], family.label
    with _out_dir(out):
        # Only the lantern accepts a reference field.
        if cfg["reference"] == "highres":
            ref = lantern_highres_reference(cfg["R"], cfg["H"],
                                            n_ref=2 * max(levels),
                                            tol=cfg["tol"])
            family = family._replace(case=ref, label=gate + "-highres")
        report = run_study(family, tol=cfg["tol"], mass_mode=cfg["mass_mode"])

        write_levels_csv(os.path.join(out, "report.csv"), report.records)
        write_rates_csv(os.path.join(out, "rates.csv"), report)
        _svg_loglog(os.path.join(out, "plot.svg"), report, spec.guides)

        print(f"case {report.case}: {len(report.records)} levels, "
              f"dofs {report.records[0].dofs}..{report.records[-1].dofs}")
        for name, fit in report.rates.items():
            print(f"  {name:8s} slope {fit.slope:6.3f}  "
                  f"(fit residual {fit.residual:.3f})")
        print(f"  sigma estimate {report.sigma_estimate:.3f}")
        print(f"wrote report.csv, rates.csv, plot.svg in {out}")

        if args.check:
            failures = gate_failures(report, gate)
            if failures:
                for msg in failures:
                    print(f"gate failure: {msg}", file=sys.stderr)
                return EXIT_GATE
            print("acceptance gate passed")
        return EXIT_OK


def cmd_quality(args):
    cfg, spec = _load_config(args)
    if spec is None:
        raise ValueError("quality on an OBJ mesh needs --case KIND"
                         if args.mesh is not None else
                         "quality needs --mesh FILE or --case KIND")
    levels = [] if args.mesh is not None else cfg[spec.level_field]
    if args.mesh is not None:
        _refuse(args, ("levels", "theta0", "coupling", "H"),
                "does not apply to quality --mesh")
    elif not levels or len(set(levels)) < len(levels):
        raise ValueError(f"quality needs one or more distinct levels, "
                         f"got {levels}")
    family = spec.family(cfg, levels)
    out = cfg["out"]
    with _out_dir(out):
        if args.mesh is not None:
            label, meshes = cfg["case"], [(0, read_obj(args.mesh))]
        else:
            label, meshes = family.label, family.meshes()
        records = [LevelRecord(label, level, **measure(mesh, family.case))
                   for level, mesh in meshes]

        report = fit_rates(records) if len(records) >= MIN_LEVELS else None
        write_levels_csv(os.path.join(out, "quality.csv"), records)
        for r in records:
            cells = (f"{name} = {getattr(r, name):{fmt}}" for name, fmt in
                     zip(QUALITY, (".4f", ".4f", ".3e", ".3e")))
            print(f"level {r.level}: h = {r.h:.4g}, {', '.join(cells)}")
        if report is not None:
            rates, sigma = report.rates, report.sigma_estimate
            print(f"  gamma estimate {rates['gamma'].slope:.3f}, "
                  f"epsilon estimate {rates['epsilon'].slope:.3f}, "
                  f"sigma estimate {sigma:.3f}")
            if sigma < SIGMA_THRESHOLD:
                num, den = SIGMA_THRESHOLD.as_integer_ratio()
                print(f"warning: sigma estimate {sigma:.3f} below "
                      f"{num}/{den}; surface approximation conditions fail",
                      file=sys.stderr)
        print(f"wrote quality.csv in {out}")
        return EXIT_OK


# ---------------------------------------------------------------------------

@cache
def _build_parser():
    """The argument parser, built once per process: parsing keeps no
    state in it, as every call fills a new namespace."""
    parser = argparse.ArgumentParser(
        prog="biharm",
        description="Mixed finite elements for the biharmonic equation "
                    "on triangulated surfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_levels, solves=True):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--case", choices=list(_CASES))
        if with_levels:
            p.add_argument("--levels", type=_parse_levels,
                           help="comma-separated generator parameters, "
                                "e.g. 8,16,32,64")
        p.add_argument("--theta0", type=float,
                       help="cap opening angle (radians)")
        p.add_argument("--coupling", choices=_CHOICES["coupling"],
                       help="lantern at level n: 2n vertices per ring and "
                            "n bands (linear), or n vertices per ring and "
                            "n^2 bands (quadratic)")
        p.add_argument("--R", type=float, help="radius")
        p.add_argument("--H", type=float, help="cylinder height (lantern)")
        if solves:
            p.add_argument("--l", type=int, help="harmonic degree (sphere)")
            p.add_argument("--m", type=int, help="harmonic order (sphere)")
            p.add_argument("--mass", dest="mass_mode",
                           choices=_CHOICES["mass_mode"])
            p.add_argument("--tol", type=float)
        p.add_argument("--out", help="output directory")

    p_solve = sub.add_parser("solve", help="solve one problem instance")
    add_common(p_solve, with_levels=False)
    p_solve.add_argument("--mesh", help="input OBJ mesh")
    p_solve.add_argument("--n", type=int,
                         help="generator resolution (rings, subdivisions "
                              "or lantern level)")
    p_solve.add_argument("--rhs",
                         help="right-hand side const:VALUE or harmonic:l,m")
    p_solve.add_argument("--write-mesh", action="store_true",
                         help="also write the mesh as mesh.obj")
    p_solve.set_defaults(func=cmd_solve)

    p_conv = sub.add_parser("converge", help="run a convergence study")
    add_common(p_conv, with_levels=True)
    p_conv.add_argument("--reference", choices=_CHOICES["reference"],
                        help="lantern error reference (default "
                             "manufactured)")
    p_conv.add_argument("--check", action="store_true",
                        help="exit 4 unless fitted slopes pass the "
                             "acceptance gate")
    p_conv.set_defaults(func=cmd_converge)

    # No abbreviations: --l and --m would abbreviate --levels and --mesh.
    p_qual = sub.add_parser("quality", allow_abbrev=False,
                            help="certify mesh quality across levels")
    add_common(p_qual, with_levels=True, solves=False)
    p_qual.add_argument("--mesh", help="certify a single OBJ mesh")
    p_qual.set_defaults(func=cmd_quality)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc.filename}: {exc.strerror}" if exc.filename
              else f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NotConvergedError, SingularError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
