"""Golden CLI outputs: the default commands, how to run one, and how its
files differ from the checked-in ones under ``tests/golden/<name>/``.

Each directory holds the files a command writes, plus its ``stdout``
and ``stderr`` with the output directory written as ``{out}``.
``versions.json`` records the Python, numpy and scipy that wrote them:
libm and BLAS rounding can move the last digits of another build.

A change that alters the numerics on purpose rewrites the files with

    PYTHONPATH=src python tests/golden.py [command ...]

which rewrites the named commands, or all of them when none is named.
It prints the same summary as a failing test, each file that changed
and the largest relative change of its numbers, and then the commands
whose files stayed byte-identical.
"""

import io
import json
import math
import platform
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import scipy

from biharm.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
VERSIONS = GOLDEN / "versions.json"

COMMANDS = {
    "converge-cap": ["converge", "--case", "cap"],
    "converge-sphere": ["converge", "--case", "sphere"],
    "converge-lantern": ["converge", "--case", "lantern"],
    "converge-lantern-highres": ["converge", "--case", "lantern",
                                 "--reference", "highres"],
    "converge-cap-lumped": ["converge", "--case", "cap", "--mass", "lumped"],
    "quality-lantern-quadratic": ["quality", "--case", "lantern",
                                  "--coupling", "quadratic"],
    "solve-cap": ["solve", "--case", "cap"],
    "solve-sphere": ["solve", "--case", "sphere"],
    "solve-lantern": ["solve", "--case", "lantern"],
    "solve-cap-lumped": ["solve", "--case", "cap", "--mass", "lumped"],
    "solve-sphere-lumped": ["solve", "--case", "sphere", "--mass", "lumped"],
}

# A number as the CLI writes one, in CSV cells, SVG coordinates and text.
_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf)")


def versions():
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def run(name, out):
    """{file name: bytes} of command ``name`` run by ``cli.main`` into the
    directory ``out``: the files it writes, its stdout and its stderr."""
    with redirect_stdout(io.StringIO()) as stdout, \
            redirect_stderr(io.StringIO()) as stderr:
        code = main([*COMMANDS[name], "--out", str(out)])
    if code:
        raise AssertionError(f"{name} exited {code}: {stderr.getvalue()}")
    files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    for stream, text in (("stdout", stdout), ("stderr", stderr)):
        files[stream] = text.getvalue().replace(str(out), "{out}").encode()
    return files


def read(name):
    """The checked-in {file name: bytes} of command ``name``."""
    return {path.name: path.read_bytes()
            for path in sorted((GOLDEN / name).iterdir())}


def _change(old, new):
    """The largest relative change between the numbers of two texts, and
    whether the text around them differs."""
    old_parts, new_parts = _NUMBER.split(old), _NUMBER.split(new)
    if len(old_parts) != len(new_parts):
        return "its count of numbers differs"
    largest = 0.0
    for a, b in zip(map(float, old_parts[1::2]), map(float, new_parts[1::2])):
        if a != b and not (math.isnan(a) and math.isnan(b)):
            largest = max(largest, abs(a - b) / max(abs(a), abs(b)))
    return f"largest relative change {largest:.3e}" + (
        "" if old_parts[::2] == new_parts[::2]
        else ", and the text around the numbers differs")


def differences(name, expected, actual):
    """One line per file of command ``name`` whose bytes differ: the
    largest relative change of its numbers and whether its text differs."""
    lines = []
    for file in sorted(expected.keys() | actual.keys()):
        old, new = expected.get(file), actual.get(file)
        if old == new:
            continue
        lines.append(f"{name}/{file}: " + (
            "not written" if new is None else "new file" if old is None
            else _change(old.decode(), new.decode())))
    return lines


def version_note():
    """A sentence naming the versions that differ from the recorded ones,
    or an empty string."""
    recorded = json.loads(VERSIONS.read_text())
    running = versions()
    changed = [f"{k} {recorded.get(k)} -> {v}" for k, v in running.items()
               if recorded.get(k) != v]
    return (f"; the golden files were written with other versions "
            f"({', '.join(changed)}), whose libm and BLAS rounding can move "
            f"the last digits" if changed else "")


def regenerate(names=()):
    """Rewrite the golden files of the commands ``names``, or of every
    command when there are none, and the versions; print each file that
    changed and the commands that stayed byte-identical."""
    unknown = [name for name in names if name not in COMMANDS]
    if unknown:
        raise SystemExit(f"unknown command {', '.join(unknown)}; the "
                         f"commands are {', '.join(COMMANDS)}")
    changed, unchanged = [], []
    with tempfile.TemporaryDirectory() as scratch:
        for name in names or COMMANDS:
            files = run(name, Path(scratch) / name)
            target = GOLDEN / name
            if target.is_dir():
                lines = differences(name, read(name), files)
                for old in target.iterdir():
                    old.unlink()
            else:
                lines = [f"{name}: new command"]
            changed += lines
            if not lines:
                unchanged.append(name)
            target.mkdir(parents=True, exist_ok=True)
            for file, data in files.items():
                (target / file).write_bytes(data)
    VERSIONS.write_text(json.dumps(versions(), indent=2) + "\n")
    print("\n".join(changed) if changed else "no golden file changed")
    if unchanged:
        print("byte-identical: " + ", ".join(unchanged))


if __name__ == "__main__":
    regenerate(sys.argv[1:])
