"""Checks on the package source itself."""

import ast
import contextlib
import importlib
import inspect
import io
import os
import re
import subprocess
import sys
import typing
from pathlib import Path
from unittest import mock

import pytest

import div2
from div2 import cli, localrules

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


def test_only_a_command_with_json_loads_json():
    # a short command without JSON input or output never imports json; the first --json one does
    env = dict(os.environ, PYTHONPATH=str(Path(div2.__file__).parent.parent))
    code = (
        "import sys, div2.cli as c; c.build_parser(); c.main(['act', 'r', '5']); print('json' in sys.modules); "
        "c.main(['act', 'r', '5', '--json']); print('json' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["-5", "False", '{"n": -5, "reflect": 1, "shift": 0, "word": "r"}', "True"]


def loaded_modules(code: str) -> tuple:
    """The stdout lines of ``code`` in a fresh interpreter, and the ``div2`` modules it loaded, sorted."""
    env = dict(os.environ, PYTHONPATH=str(Path(div2.__file__).parent.parent))
    code += "\nimport sys; print(*sorted(m for m in sys.modules if m.startswith('div2')))"
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    *lines, modules = out.stdout.splitlines()
    return lines, modules.split()


def test_building_the_parser_and_printing_help_load_no_library_module():
    code = "import div2.cli as c; c.build_parser()\ntry: c.main(['--help'])\nexcept SystemExit: pass"
    assert loaded_modules(code)[1] == ["div2", "div2.cli"]


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["act", "r", "5"], ["dihedral", "sequences"]),
        (["divide", "--in", "{inst}"], ["divider", "sequences"]),
        (["verify", "search", "--w", "2", "--d", "7"], ["dihedral", "localrules", "sequences"]),
    ],
)
def test_a_command_loads_only_the_library_modules_it_runs(tmp_path, argv, modules):
    inst = tmp_path / "inst.json"
    inst.write_text('{"X": ["a"], "Y": ["b"], "map": [[["a", 0], ["b", 0]], [["a", 1], ["b", 1]]]}')
    argv = [arg.format(inst=inst) for arg in argv]
    _, loaded = loaded_modules(f"import div2.cli as c; c.main({argv!r})")
    assert loaded == ["div2", "div2.cli"] + [f"div2.{name}" for name in modules]


def test_every_public_name_resolves_from_the_package_on_first_use():
    # importing the package loads no module; each name then comes from the module that defines it
    code = (
        "import sys, div2; print(*sorted(m for m in sys.modules if m.startswith('div2')))\n"
        "for name in div2.__all__:\n"
        "    exec(f'from div2 import {name} as value')\n"
        "    module = sys.modules.get(f'div2.{name}')\n"
        "    print(name, value is module if module else value is vars(sys.modules[value.__module__])[name])\n"
        "print(set(div2.__all__) <= set(dir(div2)))"
    )
    (first, *names, listed), loaded = loaded_modules(code)
    assert first == "div2"
    assert names == [f"{name} True" for name in div2.__all__]
    assert listed == "True"
    assert loaded == ["div2"] + [f"div2.{name}" for name in ("dihedral", "divider", "localrules", "sequences", "theta")]


def test_no_binder_is_built_at_import_or_by_any_command(tmp_path):
    # the package constructs every value with all its fields by position, so no namedtuple binder is built
    # at import (as a defaulted ZInf(-1) would) or by any command
    (tmp_path / "inst.json").write_text('{"X": ["a"], "Y": ["b"], "map": [[["a", 0], ["b", 0]], [["a", 1], ["b", 1]]]}')
    (tmp_path / "rule.json").write_text('{"w": 0, "table": {"allzero": 1, "allone": -1}}')
    commands = [
        ["act", "r", "5"],
        ["act", "--chi", "-inf", "t"],
        ["theta", "--chi", "3", "--n", "2", "--i", "0"],
        ["divide", "--in", "inst.json", "--out", "match.json", "--trace", "a,0,0,3"],
        ["trace", "--in", "inst.json", "--label", "a", "--bit", "0", "--lo", "0", "--hi", "3"],
        ["verify", "lemma", "--rule", "rule.json"],
        ["verify", "parity", "--k", "3", "--N", "4"],
        ["verify", "search", "--w", "1", "--d", "3"],
        ["verify", "matching", "--inst", "inst.json", "--match", "match.json"],
    ]
    code = (
        "import os, div2.cli as c, div2.sequences as s\n"
        "from div2 import dihedral, divider, localrules, theta\n"
        f"os.chdir({str(tmp_path)!r}); print(s._binder.cache_info().currsize)\n"
        f"print(*[c.main(argv) for argv in {commands!r}])\n"
        "print(s._binder.cache_info().currsize)"
    )
    lines, _ = loaded_modules(code)
    assert (lines[0], lines[-2], lines[-1]) == ("0", " ".join(["0"] * len(commands)), "0")


def test_defaulted_fields_come_last():
    # the binder is a namedtuple, which gives its defaults to the last fields, as a dataclass requires
    from div2 import dihedral, divider, localrules, theta  # noqa: F401 - they define the value classes
    from div2.sequences import _Value

    classes = _Value.__subclasses__()
    assert len(classes) == 16
    for cls in classes:
        defaulted = [name in vars(cls) for name in cls.__match_args__]
        assert defaulted == sorted(defaulted), cls.__name__


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
    with mock.patch.object(localrules, "MAX_SEARCH_W", 11), mock.patch.object(localrules, "MAX_SEARCH_D", 13):
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


def test_plain_int_checks_go_through_check_int():
    # one statement of "a plain int, not a bool": _check_int, and _check_label for its own wording
    owners = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        funcs = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2
                and isinstance(node.args[1], ast.Name)
                and node.args[1].id == "bool"
            ):
                found = [f for f in funcs if f.lineno <= node.lineno <= f.end_lineno]
                owners.add(f"{path.stem}.{max(found, key=lambda f: f.lineno).name if found else '<module>'}")
    assert owners == {"sequences._check_int", "divider._check_label"}


def test_every_annotation_resolves():
    # annotations are documentation that tools read, so each must name something that exists
    checked = []
    for path in SOURCES:
        if path.stem == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module("div2" if path.stem == "__init__" else f"div2.{path.stem}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).values() if inspect.isclass(obj) else [obj]
            for member in members:
                if isinstance(member, property):
                    member = member.fget
                member = getattr(member, "__func__", member)
                if inspect.isfunction(member):
                    typing.get_type_hints(member)
                    checked.append(member.__qualname__)
    assert "FinInstance.__init__" in checked and "ZInf.threshold" in checked


def test_the_console_script_runs_cli_run():
    # the tests call main or python -m div2; this checks the ``div2`` command that installing makes
    text = (Path(__file__).parent.parent / "pyproject.toml").read_text()
    target = re.search(r'^\[project\.scripts\]\n[^[]*?^div2 = "([^"]+)"$', text, re.M).group(1)
    if sys.version_info >= (3, 11):  # Python 3.10 has no tomllib, so the line match above is the check there
        import tomllib

        assert tomllib.loads(text)["project"]["scripts"]["div2"] == target
    module, attr = target.split(":")
    assert getattr(importlib.import_module(module), attr) is cli.run
