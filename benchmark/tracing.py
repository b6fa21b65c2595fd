"""Layer tracing from outside the package.

A traced round replaces, for its duration, the public names that each
``biharm`` module takes from the layer below with timing wrappers.  No
file of the package changes; the wrappers are installed by
``instrument`` and removed by ``Tracer.restore``.  Spans stay in memory
until the run ends.

Layers are the package modules, bottom up: ``mesh``, ``linalg``,
``fem``, ``surfaces``, ``biharmonic``, ``analysis`` and ``cli``.  A
span is named ``<layer>.<function>``; the layer's self time is the time
its spans spend outside their child spans.  The ``trace`` layer holds
the tracer's own counting work, so that it is not charged to a layer of
the package.
"""

import os
import time
from collections import Counter

# (module, attribute, span name).  Each module's entry for a name it
# imports from a lower layer times the call from that caller; entries
# that name a function of the same module split that module's own time
# (the refinement families call gen_* through the surfaces module,
# read_obj calls build_mesh through the mesh module, and run_level calls
# the error norms and the certifier through the analysis module).
BOUNDARIES = (
    ("cli", "run_study", "analysis.run_study"),
    ("cli", "certify_quality", "analysis.certify_quality"),
    ("cli", "fit_quality_rates", "analysis.fit_quality_rates"),
    ("cli", "lantern_highres_reference", "analysis.lantern_highres_reference"),
    ("cli", "write_report_csv", "analysis.write_report_csv"),
    ("cli", "write_rates_csv", "analysis.write_rates_csv"),
    ("cli", "write_quality_csv", "analysis.write_quality_csv"),
    ("cli", "solve_mixed_closed", "biharmonic.solve_mixed_closed"),
    ("cli", "solve_mixed_dirichlet", "biharmonic.solve_mixed_dirichlet"),
    ("cli", "solve_mixed_lumped_schur", "biharmonic.solve_mixed_lumped_schur"),
    ("cli", "interpolate", "fem.interpolate"),
    ("cli", "read_obj", "mesh.read_obj"),
    ("cli", "write_obj", "mesh.write_obj"),
    ("cli", "max_edge_length", "mesh.max_edge_length"),
    ("cli", "cap_family", "surfaces.cap_family"),
    ("cli", "sphere_family", "surfaces.sphere_family"),
    ("cli", "lantern_family", "surfaces.lantern_family"),
    ("cli", "cap_case", "surfaces.cap_case"),
    ("cli", "sphere_case", "surfaces.sphere_case"),
    ("cli", "cylinder_case", "surfaces.cylinder_case"),
    ("cli", "real_harmonic", "surfaces.real_harmonic"),
    ("cli", "gen_cap_mesh", "surfaces.gen_cap_mesh"),
    ("cli", "gen_icosphere", "surfaces.gen_icosphere"),
    ("cli", "gen_schwarz_lantern", "surfaces.gen_schwarz_lantern"),
    ("analysis", "l2_error", "analysis.l2_error"),
    ("analysis", "h1_error", "analysis.h1_error"),
    ("analysis", "certify_quality", "analysis.certify_quality"),
    ("analysis", "solve_mixed_closed", "biharmonic.solve_mixed_closed"),
    ("analysis", "solve_mixed_dirichlet", "biharmonic.solve_mixed_dirichlet"),
    ("analysis", "solve_mixed_lumped_schur",
     "biharmonic.solve_mixed_lumped_schur"),
    ("analysis", "interpolate", "fem.interpolate"),
    ("analysis", "p1_gradients", "fem.p1_gradients"),
    ("analysis", "max_edge_length", "mesh.max_edge_length"),
    ("analysis", "inradius_ratios", "mesh.inradius_ratios"),
    ("analysis", "circumradius_ratios", "mesh.circumradius_ratios"),
    ("analysis", "cylinder_case", "surfaces.cylinder_case"),
    ("analysis", "gen_schwarz_lantern", "surfaces.gen_schwarz_lantern"),
    ("biharmonic", "assemble_stiffness", "fem.assemble_stiffness"),
    ("biharmonic", "assemble_mass", "fem.assemble_mass"),
    ("biharmonic", "partition_dofs", "fem.partition_dofs"),
    ("biharmonic", "solve_symmetric_indefinite",
     "linalg.solve_symmetric_indefinite"),
    ("biharmonic", "solve_spd", "linalg.solve_spd"),
    ("fem", "build_csr", "linalg.build_csr"),
    ("fem", "solve_spd", "linalg.solve_spd"),
    ("surfaces", "gen_cap_mesh", "surfaces.gen_cap_mesh"),
    ("surfaces", "gen_icosphere", "surfaces.gen_icosphere"),
    ("surfaces", "gen_schwarz_lantern", "surfaces.gen_schwarz_lantern"),
    ("surfaces", "build_mesh", "mesh.build_mesh"),
    ("mesh", "build_mesh", "mesh.build_mesh"),
)

LAYERS = ("surfaces", "mesh", "fem", "linalg", "biharmonic", "analysis",
          "cli", "trace")


class Span:
    __slots__ = ("id", "parent", "instance", "name", "start", "end")

    def __init__(self, id, parent, instance, name, start, end=None):
        self.id = id
        self.parent = parent
        self.instance = instance
        self.name = name
        self.start = start
        self.end = end

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    def as_dict(self):
        return {"id": self.id, "parent": self.parent,
                "instance": self.instance, "name": self.name,
                "start": self.start, "end": self.end}


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Map span id to its duration minus the part of its interval that
    its child spans cover."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: (s.end - s.start)
            - _covered(children.get(s.id, ()), s.start, s.end)
            for s in spans}


class Tracer:
    """In-memory span recorder with counters kept at the same
    boundaries."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.maxima = {}
        self.instance = None
        self._stack = []
        self._patches = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, self.instance, name,
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span):
        self._stack.pop()
        span.end = time.perf_counter()

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span."""
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def wrap(self, name, fn, on_return=None):
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if on_return is not None:
                on_return(self, args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def note_max(self, key, value):
        self.maxima[key] = max(self.maxima.get(key, value), value)


def _file_bytes(index):
    def hook(tracer, args, _result):
        tracer.counts["mesh.obj_bytes"] += os.path.getsize(args[index])
    return hook


def _solve_report(tracer, _args, result):
    report = result[1]
    residual = getattr(report, "relative_residual", None)
    if residual is not None:
        tracer.note_max("linalg.max_rel_residual", residual)
    if getattr(report, "method", None) == "cg":
        tracer.counts["linalg.cg_iters"] += report.iterations


_HOOKS = {
    "mesh.read_obj": _file_bytes(0),
    "mesh.write_obj": _file_bytes(1),
    "linalg.solve_symmetric_indefinite": _solve_report,
    "linalg.solve_spd": _solve_report,
}


class _CountingSparseLinalg:
    """Stands in for ``scipy.sparse.linalg`` inside ``biharm.linalg``
    and counts the fill of every LU factor.  Reading ``factor.L`` and
    ``factor.U`` builds both triangles, so this runs in traced rounds
    only and inside a ``trace`` span."""

    def __init__(self, real, tracer):
        self._real = real
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._real, name)

    def splu(self, matrix, *args, **kwargs):
        factor = self._real.splu(matrix, *args, **kwargs)
        self._tracer.call("trace.fill_count", self._count, matrix, factor)
        return factor

    def _count(self, matrix, factor):
        self._tracer.counts["linalg.lu_fill_nnz"] += (factor.L.nnz
                                                      + factor.U.nnz)
        self._tracer.counts["linalg.lu_matrix_nnz"] += matrix.nnz


def instrument(tracer):
    """Install the layer wrappers; undo with ``tracer.restore()``.

    A name the package no longer has is skipped, so that the benchmark
    keeps running on later versions; its time then counts in the
    caller's layer.
    """
    import importlib

    for module_name, attr, span_name in BOUNDARIES:
        module = importlib.import_module(f"biharm.{module_name}")
        if hasattr(module, attr):
            tracer.patch(module, attr,
                         tracer.wrap(span_name, getattr(module, attr),
                                     _HOOKS.get(span_name)))
    linalg = importlib.import_module("biharm.linalg")
    if hasattr(linalg, "spla"):
        tracer.patch(linalg, "spla",
                     _CountingSparseLinalg(linalg.spla, tracer))


def layer_metrics(tracer, rounds):
    """Per-layer metrics per traced round from the recorded spans."""
    selfs = self_times(tracer.spans)
    per_name = Counter()
    calls = Counter()
    inclusive = Counter()
    per_layer = Counter()
    for s in tracer.spans:
        per_name[s.name] += selfs[s.id]
        per_layer[s.layer] += selfs[s.id]
        calls[s.name] += 1
        inclusive[s.name] += s.end - s.start

    def total(table, *names):
        return sum(table[n] for n in names) / rounds

    gens = ("surfaces.gen_cap_mesh", "surfaces.gen_icosphere",
            "surfaces.gen_schwarz_lantern")
    solvers = ("biharmonic.solve_mixed_dirichlet",
               "biharmonic.solve_mixed_lumped_schur",
               "biharmonic.solve_mixed_closed")
    metrics = {
        "surfaces.gen_s": total(per_name, *gens),
        "mesh.build_s": total(per_name, "mesh.build_mesh"),
        "mesh.read_obj_s": total(per_name, "mesh.read_obj"),
        "mesh.write_obj_s": total(per_name, "mesh.write_obj"),
        "mesh.obj_bytes": tracer.counts["mesh.obj_bytes"] / rounds,
        "fem.assemble_s": total(per_name, "fem.assemble_stiffness",
                                "fem.assemble_mass"),
        "fem.assemble_calls": total(calls, "fem.assemble_stiffness",
                                    "fem.assemble_mass"),
        "linalg.lu_s": total(per_name, "linalg.solve_symmetric_indefinite"),
        "linalg.lu_calls": total(calls, "linalg.solve_symmetric_indefinite"),
        "linalg.lu_fill_nnz": tracer.counts["linalg.lu_fill_nnz"] / rounds,
        "linalg.lu_matrix_nnz":
            tracer.counts["linalg.lu_matrix_nnz"] / rounds,
        "linalg.max_rel_residual":
            tracer.maxima.get("linalg.max_rel_residual", 0.0),
        "linalg.cg_iters": tracer.counts["linalg.cg_iters"] / rounds,
        "biharmonic.solve_s": total(inclusive, *solvers),
        "biharmonic.clamped_solves": total(
            calls, "biharmonic.solve_mixed_dirichlet",
            "biharmonic.solve_mixed_lumped_schur"),
        "biharmonic.closed_solves": total(calls,
                                          "biharmonic.solve_mixed_closed"),
        "analysis.errors_s": total(per_name, "analysis.l2_error",
                                   "analysis.h1_error"),
        "analysis.certify_s": total(per_name, "analysis.certify_quality"),
        "cli.bytes_written": tracer.counts["cli.bytes_written"] / rounds,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = per_layer[layer] / rounds
    return metrics
