"""The runtime is pure stdlib: every absolute import in the package names
a standard library module."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "equibundle").glob("*.py"))


def _absolute_imports(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_the_package_has_sources():
    assert len(SOURCES) > 5


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_package_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    outside = [
        name
        for name in _absolute_imports(tree)
        if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []
