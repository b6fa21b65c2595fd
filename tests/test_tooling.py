"""The test configuration of pyproject.toml, which turns every warning
into an error, still lets pytest report a failing test in full."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_failing_hypothesis_test_prints_its_example(tmp_path):
    test_file = tmp_path / "test_fails.py"
    test_file.write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_small(x):\n"
        "    assert x < 5\n")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(test_file)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert "Falsifying example" in output
    assert result.returncode == 1, output
