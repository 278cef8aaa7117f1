"""README's examples, run as written: the command-line transcripts, the quick tour and the input encodings."""

import ast
import codecs
import json
import re
import shlex
from pathlib import Path

import pytest

from div2.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def section(title: str) -> str:
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def blocks(text: str, lang: str) -> list:
    return re.findall(rf"```{lang}\n(.*?)```", text, re.S)


INSTANCE, RULE = (json.loads(block) for block in blocks(section("File formats"), "json"))


def transcript() -> list:
    """Each ``$ div2 ...`` line of the "Command line" section with the stdout lines shown after it."""
    runs = []
    for block in blocks(section("Command line"), "sh"):
        for line in block.splitlines():
            if line.startswith("$ "):
                runs.append((line[2:], []))
            else:
                runs[-1][1].append(line)
    return runs


def test_the_command_line_examples_print_what_readme_shows(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "inst.json").write_text(json.dumps(INSTANCE))
    (tmp_path / "rule.json").write_text(json.dumps(RULE))
    runs = transcript()
    assert len(runs) == 11
    for command, expected in runs:
        argv = shlex.split(command)
        assert argv[0] == "div2"
        assert main(argv[1:]) == 0, command
        assert capsys.readouterr().out.splitlines() == expected, command


def test_the_quick_tour_values_are_the_reprs_shown():
    (code,) = blocks(section("Library quick tour"), "python")
    lines = code.splitlines()
    namespace = {}
    checked = 0
    for stmt in ast.parse(code).body:
        if isinstance(stmt, ast.Expr):
            # the comment after the expression is its value, up to an optional " — " remark
            comment = lines[stmt.end_lineno - 1][stmt.end_col_offset:].strip()
            assert comment.startswith("# "), ast.unparse(stmt)
            shown = comment[2:].split(" — ")[0]
            assert repr(eval(ast.unparse(stmt), namespace)) == shown
            checked += 1
        else:
            exec(ast.unparse(stmt), namespace)
    assert checked == 4


# README promises UTF-8, UTF-16 and UTF-32, with or without a byte order mark
ENCODINGS = [
    ("utf-8", b""),
    ("utf-8", codecs.BOM_UTF8),
    ("utf-16-le", codecs.BOM_UTF16_LE),
    ("utf-16-be", codecs.BOM_UTF16_BE),
    ("utf-32-le", codecs.BOM_UTF32_LE),
    ("utf-32-be", codecs.BOM_UTF32_BE),
    ("utf-16-le", b""),
    ("utf-16-be", b""),
    ("utf-32-le", b""),
    ("utf-32-be", b""),
]


@pytest.mark.parametrize("encoding, bom", ENCODINGS, ids=[e + ("-bom" if bom else "") for e, bom in ENCODINGS])
def test_the_instance_divides_the_same_in_every_input_encoding(tmp_path, capsys, encoding, bom):
    path = tmp_path / "inst.json"
    path.write_bytes(bom + json.dumps(INSTANCE).encode(encoding))
    assert main(["divide", "--in", str(path)]) == 0
    assert capsys.readouterr().out == "a -> c\nb -> d\n"
