"""Checks on the package source itself."""

import ast
import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import div2
from div2 import cli

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


# what every command would pay at start-up: dataclasses alone pulls in inspect, ast, dis and tokenize
SLOW_IMPORTS = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing", "pathlib")


def test_package_imports_no_slow_module():
    imported = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert sorted(imported & set(SLOW_IMPORTS)) == []


def test_importing_the_cli_loads_no_slow_module():
    # -S keeps site's own imports (typing and pathlib, for some .pth files) out of the count
    env = dict(os.environ, PYTHONPATH=str(Path(div2.__file__).parent.parent))
    code = f"import sys, div2.cli; print(sorted(set({SLOW_IMPORTS!r}) & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# each module imports only modules before it, so the package has no import cycle
LAYERS = ("sequences", "dihedral", "theta", "divider", "localrules", "cli", "__init__", "__main__")


def test_modules_import_only_earlier_layers():
    assert sorted(path.stem for path in SOURCES) == sorted(LAYERS)
    for path in SOURCES:
        imported = set()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                imported.update([node.module] if node.module else (alias.name for alias in node.names))
        later = [name for name in imported if LAYERS.index(name) >= LAYERS.index(path.stem)]
        assert later == [], path.name


def test_search_help_states_the_search_limits():
    out = io.StringIO()
    with mock.patch.object(cli, "MAX_SEARCH_W", 11), mock.patch.object(cli, "MAX_SEARCH_D", 13):
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
            cli.main(["verify", "search", "--help"])
    text = " ".join(out.getvalue().split())
    assert "window radius (at most 11)" in text
    assert "displacement bound (at most 13)" in text


def test_only_main_switches_the_gc():
    # one GC policy per command: main turns the collector off and restores it
    switches = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        funcs = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("disable", "enable") and (
                isinstance(node.value, ast.Name) and node.value.id == "gc"
            ):
                owners = [f for f in funcs if f.lineno <= node.lineno <= f.end_lineno]
                switches.add(f"{path.stem}.{max(owners, key=lambda f: f.lineno).name if owners else '<module>'}")
    assert switches == {"cli.main"}
