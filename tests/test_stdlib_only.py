"""Static checks over the package sources.  The runtime is pure stdlib:
every absolute import in the package names a standard library module.
Every imported name is used, and no check hides in an `assert`
statement, which `python -O` strips."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "equibundle").glob("*.py"))

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
