"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest benchmark/test_harness.py
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402


# -- self time -------------------------------------------------------------

def test_self_time_subtracts_nested_children():
    spans = [Span(0, None, 1, "cli.main", 0.0, 10.0),
             Span(1, 0, 1, "analysis.run_study", 1.0, 4.0),
             Span(2, 1, 1, "linalg.solve", 2.0, 3.0),
             Span(3, 0, 1, "mesh.write_obj", 5.0, 9.0)]
    selfs = self_times(spans)
    assert selfs == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    assert sum(selfs.values()) == 10.0


def test_self_time_counts_overlapping_children_once():
    spans = [Span(0, None, 1, "cli.main", 0.0, 10.0),
             Span(1, 0, 1, "fem.a", 1.0, 4.0),
             Span(2, 0, 1, "fem.b", 3.0, 6.0),
             Span(3, 0, 1, "fem.c", 8.0, 12.0)]
    # Children cover [1, 6] and [8, 10] of the parent's interval.
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_traced_calls_account_for_the_root_span():
    tracer = Tracer()

    def leaf(x):
        return sum(range(x))

    traced_leaf = tracer.wrap("linalg.leaf", leaf)

    def middle(x):
        return traced_leaf(x) + traced_leaf(x)

    traced_middle = tracer.wrap("fem.middle", middle)
    tracer.instance = 7
    tracer.call("cli.main", traced_middle, 20000)
    names = [s.name for s in tracer.spans]
    assert names == ["cli.main", "fem.middle", "linalg.leaf", "linalg.leaf"]
    assert {s.instance for s in tracer.spans} == {7}
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 1]
    metrics = tracing.layer_metrics(tracer, rounds=1)
    root = tracer.spans[0]
    total = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert total == pytest.approx(root.end - root.start, rel=1e-9)


def test_patch_and_restore_leave_the_module_unchanged():
    import types

    module = types.SimpleNamespace(f=lambda: 1)
    original = module.f
    tracer = Tracer()
    tracer.patch(module, "f", tracer.wrap("mesh.f", module.f))
    assert module.f() == 1 and tracer.spans[0].name == "mesh.f"
    tracer.restore()
    assert module.f is original


# -- percentiles -----------------------------------------------------------

def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values[::-1], 90) == 90
    assert stats.percentile([5.0], 90) == 5.0
    assert stats.samples_beyond(100, 90) == 10


def test_p90_needs_ten_samples_beyond_it():
    assert stats.p90_or_median(list(range(1, 101))) == 90
    assert stats.p90_or_median(list(range(1, 100))) == 50
    assert stats.p90_or_median([4.0, 9.0, 5.0]) == 5.0


@pytest.mark.parametrize("n, expected", [
    (9, None), (19, None), (20, 50.0), (40, 75.0), (99, 75.0),
    (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)])
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected
    if expected is not None:
        assert stats.samples_beyond(n, expected) >= 10


# -- failure counting ------------------------------------------------------

def test_failed_fraction_counts_each_instance_once():
    outcomes = [stats.Outcome(0, True), stats.Outcome(0, None),
                stats.Outcome(3, None), stats.Outcome(0, False),
                stats.Outcome(2, False)]
    assert stats.failure_counts(outcomes) == (5, 3, 0.6)
    assert stats.failure_counts([stats.Outcome(0, True)]) == (1, 0, 0.0)
    with pytest.raises(ValueError):
        stats.failure_counts([])


# -- the solution check ----------------------------------------------------

def _as_printed(values):
    """Values as the CLI prints them into solution.csv."""
    return np.array([float(f"{v:.12g}") for v in values])


@pytest.mark.parametrize("closed", [False, True])
def test_solution_check_accepts_printed_solution_and_rejects_wrong_one(
        closed):
    import biharm

    if closed:
        mesh, rhs = biharm.gen_icosphere(2), "harmonic:2,1"
        sol = biharm.solve_mixed_closed(
            mesh, biharm.interpolate(mesh, biharm.real_harmonic(2, 1)))
    else:
        mesh, rhs = biharm.gen_cap_mesh(1.0, 6), "const:7.5"
        sol = biharm.solve_mixed_dirichlet(mesh, np.full(mesh.n_vertices,
                                                         7.5))
    u1, u2 = _as_printed(sol.u1), _as_printed(sol.u2)
    assert checks.solution_satisfies_equations(biharm, mesh, rhs, u1, u2)
    wrong = u2.copy()
    wrong[len(wrong) // 2] *= 1.0 + 1e-6
    assert not checks.solution_satisfies_equations(biharm, mesh, rhs, u1,
                                                   wrong)
    other_load = "const:7.6" if not closed else "harmonic:2,0"
    assert not checks.solution_satisfies_equations(biharm, mesh, other_load,
                                                   u1, u2)


def test_cli_exits_and_crashes_become_exit_codes():
    import worker

    def rejects(argv):
        raise SystemExit(2)

    def crashes(argv):
        raise RuntimeError("boom")

    assert worker._call(rejects, []) == 2
    assert worker._call(crashes, []) == 1
    assert worker._call(lambda argv: 0, []) == 0


def test_missing_output_counts_as_failed_instance(tmp_path):
    import biharm
    import worker

    out = tmp_path / "out"
    out.mkdir()
    inst = {"argv": ["solve"], "mesh": str(tmp_path / "in.obj"),
            "rhs": "const:1", "out": str(out)}
    run = worker._Run(biharm, checks, [inst])
    run.check(0, 0)
    assert run.outcomes[0].failed and run.problems
