"""Module boundaries inside the package."""

import ast
from pathlib import Path

import qecbench
from qecbench.f2 import F2Matrix

PACKAGE = Path(qecbench.__file__).parent


def private_imports(source: str):
    """Underscore-prefixed names a module imports from a sibling module."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        sibling = node.level > 0 or (node.module or "").split(".")[0] == "qecbench"
        if sibling:
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield node.lineno, alias.name


# F2Matrix's storage: every slot but its shape
STORAGE = set(F2Matrix.__slots__) - {"rows", "cols"}


def storage_reads(source: str):
    """Lines that read an attribute named like F2Matrix's storage."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in STORAGE:
            yield node.lineno, node.attr


def test_no_module_imports_a_private_name_of_another():
    found = [f"{path.name}:{line} imports {name}"
             for path in sorted(PACKAGE.glob("*.py"))
             for line, name in private_imports(path.read_text())]
    assert found == []


def test_private_import_detection():
    src = ("from .pauli import PauliOperator, _phase_contrib\n"
           "from qecbench.f2 import _pack\n"
           "from numpy import _globals\n"
           "from . import __version__\n")
    assert list(private_imports(src)) == [
        (1, "_phase_contrib"), (2, "_pack"), (4, "__version__")]


def test_only_f2_reads_the_storage_of_a_matrix():
    """The layout of F2Matrix stays one module's decision."""
    found = [f"{path.name}:{line} reads .{name}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "f2.py"
             for line, name in storage_reads(path.read_text())]
    assert found == []


def test_storage_read_detection():
    assert STORAGE == {"_bits", "_columns"}
    for name in sorted(STORAGE):
        src = (f"m.{name}.copy()\n"
               f"x = problem.h.{name}[0]\n"
               "m.to_dense()\n")
        assert sorted(storage_reads(src)) == [(1, name), (2, name)]
