"""The full help and usage-error texts of the ``div2`` parsers, pinned by sha256 at ``COLUMNS=80``.

Every parser's ``--help`` (``div2``, its five commands and the four ``verify``
checks), one missing-argument error per command, and ``verify`` without its
check.  Each record keeps the exit code and the sha256 of stdout and of
stderr, so a dropped, renamed or reordered option fails here, where the CLI
transcript keeps only the first word of a usage error.

argparse's wording is not fixed across Python minors (3.9 printed ``optional
arguments:`` where 3.10 and later print ``options:``), so the pins are kept
per minor, and the test skips on a minor that has none.  After an intended change,
regenerate them with each interpreter to pin, and read the diff:

    PYTHONPATH=src python tests/test_cli_help.py python3.10 python3.11
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli_transcript import _digest, _outputs

PINS = Path(__file__).with_name("cli_help.json")
COLUMNS = "80"
HELP = [
    [], ["act"], ["theta"], ["trace"], ["divide"], ["verify"],
    ["verify", "lemma"], ["verify", "parity"], ["verify", "search"], ["verify", "matching"],
]
ARGVS = [argv + ["--help"] for argv in HELP] + [
    ["act"],
    ["theta", "--n", "0", "--i", "0"],
    ["trace", "--in", "F", "--label", "a", "--bit", "0", "--lo", "0"],
    ["divide"],
    ["verify"],
    ["verify", "lemma"],
    ["verify", "parity", "--k", "1"],
    ["verify", "search", "--d", "7"],
    ["verify", "matching", "--inst", "F"],
]


def record(argv, code, out: str, err: str) -> dict:
    return {"argv": argv, "code": code, "stdout": _digest(out.encode()), "stderr": _digest(err.encode())}


def test_parser_texts_are_unchanged(monkeypatch):
    minor = "%d.%d" % sys.version_info[:2]
    pins = json.loads(PINS.read_text())
    if minor not in pins:
        pytest.skip(f"no parser texts pinned for Python {minor}")
    monkeypatch.setenv("COLUMNS", COLUMNS)
    got = [record(argv, *_outputs(argv)) for argv in ARGVS]
    for new, old in zip(got, pins[minor]):
        assert new == old
    assert len(got) == len(pins[minor])


def pin(python: str) -> tuple:
    """The Python minor of the interpreter ``python`` and its records, each from a fresh ``python -m div2``."""
    env = dict(os.environ, COLUMNS=COLUMNS)
    version = [python, "-c", "import sys; print('%d.%d' % sys.version_info[:2])"]
    minor = subprocess.run(version, capture_output=True, text=True, check=True).stdout.strip()
    runs = [subprocess.run([python, "-m", "div2", *argv], env=env, capture_output=True, text=True) for argv in ARGVS]
    return minor, [record(argv, proc.returncode, proc.stdout, proc.stderr) for argv, proc in zip(ARGVS, runs)]


if __name__ == "__main__":
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    pins.update(pin(python) for python in sys.argv[1:] or [sys.executable])
    blocks = (f" {json.dumps(minor)}: [\n" + ",\n".join(f"  {json.dumps(r)}" for r in pins[minor]) + "\n ]"
              for minor in sorted(pins))
    PINS.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    print(f"wrote {', '.join(sorted(pins))} pins to {PINS}", file=sys.stderr)
