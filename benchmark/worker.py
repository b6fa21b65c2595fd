"""Child process of the benchmark: one set-up trial or one measured run.

    worker.py setup   --workload W --seed N --workdir D
    worker.py measure --workdir D --seconds S --trace 0|1 [--spans FILE]

``setup`` imports ``biharm``, writes the workload's inputs under D and
prints the two times.  ``measure`` runs the instances of D's manifest
in rounds through ``biharm.cli.main`` in this process until S seconds
have passed, and at least two rounds, checks every output, and prints
one JSON object.  With ``--trace 1`` traced and untraced rounds
alternate, and the spans of the traced rounds are written to FILE at
the end.

Only the standard library is imported before the timed import.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time

import stats
import tracing


def cmd_setup(args):
    start = time.perf_counter()
    import biharm  # noqa: F401  (timed import of the package)
    imported = time.perf_counter()
    import workloads
    workloads.make_inputs(args.workload, args.seed, args.workdir)
    done = time.perf_counter()
    print(json.dumps({"import_s": imported - start,
                      "inputs_s": done - imported}))
    return 0


def _environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "BIHARM_THREADS": os.environ.get("BIHARM_THREADS"),
    }


class _Run:
    """Outcomes, timings and reference digests of one measured run."""

    def __init__(self, biharm, checks, instances):
        self.biharm = biharm
        self.checks = checks
        self.instances = instances
        self.outcomes = []
        self.latencies = []
        self.walls = {False: [], True: []}
        self.reference = {}
        self.problems = []

    def check(self, index, exit_code):
        """Outcome of one instance; the first good result of each
        instance is checked in full and pins the digest that later
        rounds must reproduce."""
        inst = self.instances[index]
        ok = None
        if exit_code == 0:
            files = self.checks.output_files(inst)
            try:
                if index in self.reference:
                    ok = self.checks.digest(files) == self.reference[index]
                    reason = "output differs from the first round"
                elif inst["argv"][0] == "solve":
                    ok, reason = self.checks.check_solve_instance(
                        self.biharm, inst)
                else:
                    ok, reason = True, ""
                if ok and index not in self.reference:
                    self.reference[index] = self.checks.digest(files)
            except (OSError, ValueError) as exc:  # missing or garbled output
                ok, reason = False, repr(exc)
        else:
            reason = f"exit code {exit_code}"
        outcome = stats.Outcome(exit_code, ok)
        if outcome.failed and len(self.problems) < 5:
            self.problems.append(f"instance {index}: {reason}")
        self.outcomes.append(outcome)


def _call(main, argv):
    """Run one CLI call like the entry point would, keeping the run
    alive when the program raises."""
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejected the command line
        return exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # the program crashed on this instance
        print(f"instance {argv!r} raised {exc!r}", file=sys.stderr)
        return 1


def cmd_measure(args):
    import biharm
    import biharm.cli
    import checks

    with open(os.path.join(args.workdir, "manifest.json"), "r",
              encoding="utf-8") as fh:
        instances = json.load(fh)["instances"]
    run = _Run(biharm, checks, instances)
    tracer = tracing.Tracer() if args.trace else None
    main = biharm.cli.main
    start = time.perf_counter()
    round_no = 0
    with open(os.devnull, "w", encoding="utf-8") as devnull:
        while True:
            traced = bool(args.trace) and round_no % 2 == 0
            if traced:
                tracing.instrument(tracer)
            codes = []
            begin = time.perf_counter()
            try:
                for index, inst in enumerate(instances):
                    t0 = time.perf_counter()
                    with contextlib.redirect_stdout(devnull):
                        if traced:
                            tracer.instance = f"{round_no}:{index}"
                            code = tracer.call("cli.main", _call, main,
                                               inst["argv"])
                        else:
                            code = _call(main, inst["argv"])
                    if not traced:
                        run.latencies.append(time.perf_counter() - t0)
                    codes.append(code)
            finally:
                run.walls[traced].append(time.perf_counter() - begin)
                if traced:
                    tracer.restore()
            for index, code in enumerate(codes):
                if traced:
                    tracer.counts["cli.bytes_written"] += checks.dir_bytes(
                        instances[index]["out"])
                run.check(index, code)
            round_no += 1
            # Two rounds at least: the second must reproduce the first
            # round's files, and a traced run needs one round of each kind.
            if round_no >= 2 and time.perf_counter() - start >= args.seconds:
                break

    attempted, failed, failed_frac = stats.failure_counts(run.outcomes)
    result = {
        "attempted": attempted, "failed": failed, "failed_frac": failed_frac,
        "problems": run.problems,
        "round_walls_s": run.walls[False],
        "traced_round_walls_s": run.walls[True],
        "digest": checks.digest([p for i in sorted(run.reference)
                                 for p in checks.output_files(instances[i])]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "environment": _environment(),
    }
    if args.trace:
        result["metrics"] = _trace_metrics(tracer, run.walls)
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump([s.as_dict() for s in tracer.spans], fh)
    else:
        lat = run.latencies
        result["metrics"] = {
            "wall_s": statistics.median(run.walls[False]),
            "solve_p50_ms": 1000.0 * statistics.median(lat),
            "solve_p90_ms": 1000.0 * stats.p90_or_median(lat),
        }
        result["latency_samples"] = len(lat)
        result["tail_percentile"] = stats.tail_percentile(len(lat))
    print(json.dumps(result))
    return 0


def _trace_metrics(tracer, walls):
    traced = walls[True]
    metrics = tracing.layer_metrics(tracer, len(traced))
    metrics["trace.wall_s"] = sum(traced) / len(traced)
    metrics["trace.overhead_s"] = (statistics.median(traced)
                                   - statistics.median(walls[False]))
    metrics["trace.unaccounted_s"] = metrics["trace.wall_s"] - sum(
        metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="command", required=True)
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("--workload", required=True)
    p_setup.add_argument("--seed", type=int, required=True)
    p_setup.add_argument("--workdir", required=True)
    p_setup.set_defaults(func=cmd_setup)
    p_measure = sub.add_parser("measure")
    p_measure.add_argument("--workdir", required=True)
    p_measure.add_argument("--seconds", type=float, required=True)
    p_measure.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p_measure.add_argument("--spans")
    p_measure.set_defaults(func=cmd_measure)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
