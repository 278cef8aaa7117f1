"""Checks on the package source itself."""

import ast
import sys
from pathlib import Path

import div2

SOURCES = sorted(Path(div2.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_the_package():
    # invariants must hold under python -O, which strips assert statements
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES
    assert found == []


def test_package_imports_only_the_standard_library():
    imported = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module)
    assert imported
    assert sorted(m for m in imported if m.split(".")[0] not in sys.stdlib_module_names) == []
