"""Benchmark of biharm.

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nothing needs installing.  The
workloads are described in ``workloads.py`` and README.md.

Each call makes the workload's inputs from the seed in a few fresh
set-up processes (import of ``biharm`` plus input generation; the median
is ``setup_s``), then measures in one fresh process that runs the
instances one after another (closed loop, one caller) for S seconds and
checks every output.  Child processes run with OpenBLAS and OpenMP
pinned to one thread and ``BIHARM_THREADS`` unset.

With ``--trace 0`` the last line of standard output holds the
end-to-end metrics; with ``--trace 1`` the per-layer metrics of a
traced run.  Inputs and outputs live under ``.bench_out/`` in the
checkout and are removed at the end; the spans of a traced run are kept
there as ``spans-<workload>-<seed>.json``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Set-up trials per run; obj-batch writes 100 meshes per trial.
SETUP_TRIALS = {"converge-cap": 7, "converge-sphere": 7, "obj-batch": 3}
# Every run ends well inside the three minutes a run may take.
DEADLINE_S = 170.0

_UNIT_SUFFIXES = (("_ms", "ms"), ("_s", "s"), ("_mb", "MB"),
                  ("_bytes", "bytes"), ("bytes_written", "bytes"),
                  ("residual", "1"))


def unit(name):
    """Unit of a metric, read off its name; other metrics are counts."""
    for suffix, symbol in _UNIT_SUFFIXES:
        if name.endswith(suffix):
            return symbol
    return "count"


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child_env():
    env = dict(os.environ)
    env.pop("BIHARM_THREADS", None)
    env.update({
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONPATH": os.pathsep.join(
            p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH"))
            if p),
        # Every import compiles biharm afresh, so that set-up time does
        # not depend on whether an earlier run left bytecode behind.
        "PYTHONDONTWRITEBYTECODE": "1",
    })
    return env


def _run_child(args, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before " + args[0])
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py")] + args,
            cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
            text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[0]} did not finish in time")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args[0]} failed with exit code "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run(workload, seed, seconds, trace):
    deadline = time.monotonic() + DEADLINE_S
    out_root = os.path.join(ROOT, ".bench_out")
    workdir = os.path.join(out_root, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        trials = [_run_child(["setup", "--workload", workload,
                              "--seed", str(seed), "--workdir", workdir],
                             deadline)
                  for _ in range(SETUP_TRIALS[workload])]
        measure = ["measure", "--workdir", workdir,
                   "--seconds", str(seconds), "--trace", str(trace)]
        if trace:
            measure += ["--spans", os.path.join(
                out_root, f"spans-{workload}-{seed}.json")]
        result = _run_child(measure, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = result["metrics"]
    if not trace:
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
        metrics["setup_s"] = statistics.median(
            t["import_s"] + t["inputs_s"] for t in trials)
    print(json.dumps({"workload": workload, "seed": seed,
                      "environment": result["environment"],
                      "round_walls_s": result["round_walls_s"],
                      "traced_round_walls_s": result["traced_round_walls_s"],
                      "latency_samples": result.get("latency_samples"),
                      "tail_percentile": result.get("tail_percentile"),
                      "output_digest": result["digest"],
                      "problems": result["problems"]}))
    for name, value in metrics.items():
        print(f"{name} = {_fmt(value)} {unit(name)}")
    print(f"failed_frac = {_fmt(result['failed_frac'])} 1 "
          f"({result['failed']} of {result['attempted']} instances)")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="run.py", description="biharm benchmark (see README.md)")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "biharm",
                                       "__init__.py")):
        print(f"error: no biharm sources under {ROOT}/src; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    try:
        run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
