"""Static checks over the package sources.  The runtime is pure stdlib:
every absolute import in the package names a standard library module.
Every imported name is used, no check hides in an `assert`
statement, which `python -O` strips, and no float is computed.

And over the test tree: test modules share code only through
`oracles.py`, and every name defined there is used by some test."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "equibundle").glob("*.py"))
TESTS = Path(__file__).resolve().parent
TEST_MODULES = sorted(TESTS.glob("test_*.py"))

# the trigonometry of the rho sums, which only the test oracles evaluate
FLOAT_MATH = {"sin", "cos", "tan", "pi"}

# imported but unused on purpose: perfbench's smoke test rebinds every alias
# of a traced name, and it looks for `eval_point_term` in `congruence` and
# `moduli`
KEPT_IMPORTS = {("congruence.py", "eval_point_term"), ("moduli.py", "eval_point_term")}


def _tree(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _absolute_imports(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def _imported_names(tree: ast.AST):
    """The names import statements bind, leaving out `from __future__`
    and star imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names if alias.name != "*")


def test_the_package_has_sources():
    assert len(SOURCES) > 5


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_package_imports_only_the_standard_library(path):
    outside = [
        name
        for name in _absolute_imports(_tree(path))
        if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [
        name
        for name in _imported_names(tree)
        if name not in used and (path.name, name) not in KEPT_IMPORTS
    ]
    assert unused == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_package_has_no_assert_statement(path):
    assert [node.lineno for node in ast.walk(_tree(path)) if isinstance(node, ast.Assert)] == []


def _float_sites(tree: ast.AST):
    """Line numbers of float literals, `float(...)` calls and the
    trigonometry of `math`, by attribute or by `from math import`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "float":
                yield node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "math" and node.attr in FLOAT_MATH:
                yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            if any(alias.name in FLOAT_MATH for alias in node.names):
                yield node.lineno


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_package_computes_no_float(path):
    # every runtime value is exact; float sums are test oracles only
    assert list(_float_sites(_tree(path))) == []


def test_no_test_module_imports_another():
    # oracles.py too: a test import there would reach every test module
    imports = {
        path.name: [name for name in _absolute_imports(_tree(path)) if name.startswith("test_")]
        for path in TEST_MODULES + [TESTS / "oracles.py"]
    }
    assert {name: found for name, found in imports.items() if found} == {}


def test_every_name_of_the_oracles_is_used_by_a_test():
    # a top-level name is used when a test module imports it, or when the
    # definition of a used name refers to it
    refers = {}
    for node in _tree(TESTS / "oracles.py").body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined = [node.name]
        elif isinstance(node, ast.Assign):
            defined = [target.id for target in node.targets if isinstance(target, ast.Name)]
        else:
            continue
        for name in defined:
            refers[name] = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
    used = {
        name
        for path in TEST_MODULES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ImportFrom) and node.module == "oracles"
        for name in _imported_names(node)
    }
    todo = list(used)
    while todo:
        for name in refers.get(todo.pop(), ()):
            if name in refers and name not in used:
                used.add(name)
                todo.append(name)
    assert sorted(set(refers) - used) == []
