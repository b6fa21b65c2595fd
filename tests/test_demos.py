"""Every demo, and every python example of README.md, runs to
completion against the package in ``src``, every name the package
exports resolves, and the package neither loads nor imports what it
does not use.

Each script is copied into a temporary directory and run from there, so
a deleted or renamed public name fails here, and scripts that write
files write them next to the copy instead of into the repository.
"""

import ast
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import biharm

from helpers import loaded_by_import

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                            env=env, capture_output=True, text=True,
                            timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout


def test_readme_examples_run(tmp_path):
    blocks = re.findall(r"```python\n(.*?)```",
                        (ROOT / "README.md").read_text(), re.S)
    assert blocks
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for index, block in enumerate(blocks):
        script = tmp_path / f"readme_{index}.py"
        script.write_text(block)
        result = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                                env=env, capture_output=True, text=True,
                                timeout=300)
        assert result.returncode == 0, result.stderr


def test_exported_names_resolve():
    namespace = {}
    exec("from biharm import *", namespace)
    assert len(set(biharm.__all__)) == len(biharm.__all__)
    for name in biharm.__all__:
        assert namespace[name] is getattr(biharm, name)


@pytest.mark.parametrize("module", ["scipy.io", "scipy.special", "sympy"])
def test_import_leaves_unloaded(module):
    # sympy is a test oracle, not a dependency of the package.
    assert not loaded_by_import(module)


def test_no_module_imports_sympy():
    for path in sorted(Path(biharm.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in names:
                assert name.split(".")[0] != "sympy", (
                    f"{path.name}:{node.lineno} imports {name}")
