"""The test configuration of pyproject.toml, which turns every warning
into an error, still lets pytest report a failing test in full; the
package raises ValueError for bad input and defines exception classes
only for the numerical failures a caller catches; no module of the
package imports another's private name or reads another object's
private attribute; every public method of the package is read by the
package, a demo or the benchmark; a class whose constructor only stores
its arguments is a namedtuple; every test of a ValueError checks which
one it got; and the package sums without BLAS dot products, whose
rounding depends on the OpenBLAS thread count."""

import ast
import subprocess
from collections import Counter
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parsed(directory):
    """(path, syntax tree) of every python file under ``directory``."""
    for path in sorted((ROOT / directory).rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def base_name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")


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


def test_package_defines_only_numerical_failure_exceptions():
    defined = [node.name for _, tree in parsed("src/biharm")
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               and any(base_name(base).endswith(("Error", "Exception"))
                       for base in node.bases)]
    assert sorted(defined) == ["NotConvergedError", "SingularError"]


def test_no_module_imports_a_private_name():
    # An underscore name is its module's own decision, free to change
    # without telling any other module.
    imported = [f"{path.name}:{node.lineno}: {alias.name}"
                for path, tree in parsed("src/biharm")
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names if alias.name.startswith("_")]
    assert imported == []


# The public API of namedtuples, underscored only to keep out of the
# way of field names.
_NAMEDTUPLE_API = {"_asdict", "_field_defaults", "_fields", "_make",
                   "_replace"}


def test_no_module_reads_a_private_attribute_of_another_object():
    # Only an object's own methods read its underscore attributes: the
    # solver a bundle picks, say, is no other module's business.
    read = [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
            for path, tree in parsed("src/biharm")
            for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and node.attr.startswith("_") and not node.attr.endswith("__")
            and node.attr not in _NAMEDTUPLE_API
            and not (isinstance(node.value, ast.Name)
                     and node.value.id == "self")]
    assert read == []


def attribute_reads(tree):
    """How often each name is read as ``.name`` in ``tree``."""
    return Counter(node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.ctx, ast.Load))


def test_every_public_method_is_read_outside_its_class():
    # A method that only the tests call is test code: it belongs in
    # tests/helpers.py, not in the package.
    reads = sum((attribute_reads(tree) for directory in
                 ("src/biharm", "demos", "benchmark")
                 for _, tree in parsed(directory)), Counter())
    unread = [f"{path.name}:{node.lineno}: {cls.name}.{node.name}"
              for path, tree in parsed("src/biharm")
              for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              for node in cls.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not node.name.startswith("_")
              and reads[node.name] == attribute_reads(cls)[node.name]]
    assert unread == []


def stores_self_attributes(statement):
    """Whether ``statement`` only assigns to attributes of ``self``."""
    return (isinstance(statement, ast.Assign)
            and all(isinstance(target, ast.Attribute)
                    and base_name(target.value) == "self"
                    for target in statement.targets))


def test_records_are_namedtuples():
    # A constructor that only stores its arguments writes each field name
    # three times; a namedtuple writes it once and freezes it.
    records = [f"{path.name}:{node.lineno}: {cls.name}"
               for path, tree in parsed("src/biharm")
               for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for node in cls.body
               if isinstance(node, ast.FunctionDef)
               and node.name == "__init__"
               and (body := node.body[ast.get_docstring(node) is not None:])
               and all(map(stores_self_attributes, body))]
    assert records == []


def test_every_value_error_test_checks_its_message():
    for path, tree in parsed("tests"):
        bound = {id(item.context_expr) for node in ast.walk(tree)
                 if isinstance(node, ast.With) for item in node.items
                 if item.optional_vars is not None}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and base_name(node.func) == "raises" and node.args
                    and base_name(node.args[0]) == "ValueError"):
                assert (id(node) in bound
                        or any(k.arg == "match" for k in node.keywords)), (
                    f"{path.name}:{node.lineno}: pytest.raises(ValueError) "
                    f"checks no message")


def test_package_sums_without_blas_dot_products():
    # np.sum is pairwise whatever the thread count; a norm along an axis
    # is a ufunc reduction, but a whole-array norm is a BLAS dot.
    def blas_dot(call):
        name = ast.unparse(call.func)
        if name == "np.linalg.norm":
            return len(call.args) < 3 and all(k.arg != "axis"
                                              for k in call.keywords)
        return name in ("np.vdot", "np.inner") or base_name(call.func) == "dot"

    found = [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
             for path, tree in parsed("src/biharm")
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and blas_dot(node)]
    assert found == []
