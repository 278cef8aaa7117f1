import argparse
import gc
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time

import pytest

from conftest import sigma_orbits

import div2
from div2.cli import _join_chi_values, _load_json, build_parser, main
from div2.divider import MAX_TRACE_LEN, CopyElem, FinInstance
from div2.localrules import LocalRule, TailViolation, eventually_linear

TWO = {
    "X": ["a", "b"],
    "Y": ["c", "d"],
    "map": [
        [["a", 0], ["c", 0]],
        [["a", 1], ["d", 1]],
        [["b", 0], ["d", 0]],
        [["b", 1], ["c", 1]],
    ],
}

GAP_RULE = {"w": 0, "table": {"allzero": 1, "allone": -1}}

# children import the package from the same place as this test run, installed or not
CHILD_ENV = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(div2.__file__)))


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# --- act ---


def test_act_on_integer(capsys):
    assert main(["act", "r", "5"]) == 0
    assert capsys.readouterr().out == "-5\n"


def test_act_word_normal_form(capsys):
    assert main(["act", "rtr"]) == 0
    assert capsys.readouterr().out == "r^0 t^-1\n"


def test_act_on_parameter(capsys):
    assert main(["act", "t", "--chi", "nbar:-2"]) == 0
    assert capsys.readouterr().out == "nbar:0\n"
    assert main(["act", "r", "--chi", "-inf"]) == 0
    assert capsys.readouterr().out == "+inf\n"


def test_act_on_json_sequence(capsys):
    chi = {"left": 1, "start": 0, "core": [0, 1], "right": 0}
    assert main(["act", "t", "--chi", json.dumps(chi)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"left": 1, "start": 2, "core": [0, 1], "right": 0}


def test_act_json_mode(capsys):
    assert main(["act", "rt", "4", "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob == {"word": "rt", "reflect": 1, "shift": 1, "n": -6}


def test_act_rejects_bad_word(capsys):
    assert main(["act", "txr", "0"]) == 2
    assert "bad generator" in capsys.readouterr().err


# --- theta ---


def test_theta_golden(capsys):
    assert main(["theta", "--chi", "nbar:0", "--n", "0", "--i", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "(1, 1)"
    assert "indices -1..1" in out[1] and "radius 2" in out[1]


def test_theta_json(capsys):
    assert main(["theta", "--chi", "-inf", "--n", "4", "--i", "0", "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob == {"n": 5, "i": 1, "depends_on": [3, 4, 5], "radius": 6}


def test_theta_rejects_bad_bit(capsys):
    assert main(["theta", "--chi", "nbar:0", "--n", "0", "--i", "2"]) == 2
    assert "error" in capsys.readouterr().err


def test_theta_rejects_bad_chi(capsys):
    assert main(["theta", "--chi", "wibble", "--n", "0", "--i", "0"]) == 2


# --- divide and trace ---


def test_divide_human_output(tmp_path, capsys):
    inst = write(tmp_path, "inst.json", TWO)
    assert main(["divide", "--in", inst]) == 0
    assert capsys.readouterr().out == "a -> c\nb -> d\n"


def test_divide_of_an_empty_instance_prints_nothing(tmp_path, capsys):
    inst = write(tmp_path, "empty.json", {"X": [], "Y": [], "map": []})
    assert main(["divide", "--in", inst]) == 0
    assert capsys.readouterr() == ("", "")


def test_divide_writes_matching_file(tmp_path, capsys):
    inst = write(tmp_path, "inst.json", TWO)
    out = str(tmp_path / "match.json")
    assert main(["divide", "--in", inst, "--out", out, "--json"]) == 0
    printed = json.loads(capsys.readouterr().out)
    stored = json.loads((tmp_path / "match.json").read_text())
    assert printed == stored == {"pairs": [["a", "c"], ["b", "d"]]}
    assert main(["verify", "matching", "--inst", inst, "--match", out]) == 0
    assert "verified: 2 pairs" in capsys.readouterr().out


def test_divide_output_is_deterministic(tmp_path, capsys):
    inst = write(tmp_path, "inst.json", TWO)
    runs = []
    for _ in range(2):
        assert main(["divide", "--in", inst, "--json"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]


def test_divide_with_trace(tmp_path, capsys):
    inst = write(tmp_path, "inst.json", TWO)
    assert main(["divide", "--in", inst, "--trace", "a,0,0,3"]) == 0
    out = capsys.readouterr().out
    assert "trace a,0 on [0, 3]:" in out
    # under --json the trace is one more key of the object, as trace --json gives it
    assert main(["divide", "--in", inst, "--trace", "a,0,0,3", "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert main(["trace", "--in", inst, "--label", "a", "--bit", "0", "--lo", "0", "--hi", "3", "--json"]) == 0
    assert blob == {"pairs": [["a", "c"], ["b", "d"]], "trace": json.loads(capsys.readouterr().out)}


def test_divide_rejects_malformed_instance(tmp_path, capsys):
    bad = dict(TWO, Y=["c", "c"])
    inst = write(tmp_path, "inst.json", bad)
    assert main(["divide", "--in", inst]) == 2
    assert "duplicate" in capsys.readouterr().err


def test_load_json_restores_gc_state(tmp_path):
    good = write(tmp_path, "good.json", TWO)
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            if enabled:
                gc.enable()
            else:
                gc.disable()
            assert _load_json(good) == TWO
            assert gc.isenabled() is enabled
            with pytest.raises(ValueError, match="not valid JSON"):
                _load_json(str(broken))
            assert gc.isenabled() is enabled
            with pytest.raises(ValueError, match="nope.json"):
                _load_json(str(tmp_path / "nope.json"))
            assert gc.isenabled() is enabled
            with pytest.raises(ValueError, match="nested too deeply"):
                _load_json(str(deep))
            assert gc.isenabled() is enabled
    finally:
        if was_enabled:
            gc.enable()
        else:
            gc.disable()


def test_main_restores_gc_state_on_every_exit(tmp_path, capsys):
    good = write(tmp_path, "good.json", TWO)
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert main(["divide", "--in", good]) == 0
            assert gc.isenabled() is enabled
            assert main(["divide", "--in", str(tmp_path / "nope.json")]) == 2
            assert gc.isenabled() is enabled
            for argv in (["divide"], ["act", "r", "--help"]):
                with pytest.raises(SystemExit):
                    main(argv)
                assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    capsys.readouterr()


def test_divide_runs_no_gc_collection(tmp_path, capsys):
    rng = random.Random(29)
    xs, ys = [f"x{k}" for k in range(2000)], [f"y{k}" for k in range(2000)]
    targets = [[y, b] for y in ys for b in (0, 1)]
    rng.shuffle(targets)
    mapping = [[[x, b], targets[2 * k + b]] for k, x in enumerate(xs) for b in (0, 1)]
    inst = write(tmp_path, "inst.json", {"X": xs, "Y": ys, "map": mapping})
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    was_enabled = gc.isenabled()
    gc.enable()
    gc.callbacks.append(count)
    try:
        assert main(["divide", "--in", inst, "--out", str(tmp_path / "out.json"), "--trace", "x0,0,-9,9"]) == 0
    finally:
        gc.callbacks.remove(count)
        (gc.enable if was_enabled else gc.disable)()
    assert len(capsys.readouterr().out.splitlines()) == 2001
    assert starts == []


def test_divide_rejects_unreadable_file(tmp_path, capsys):
    assert main(["divide", "--in", str(tmp_path / "nope.json")]) == 2
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["divide", "--in", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_deep_or_undecodable_json_exits_two(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"X": ["\xe9"]}')
    nested = '{"left": ' + "[" * 100_000
    cases = [
        (["divide", "--in", str(deep)], f"error: {deep}: JSON nested too deeply"),
        (["divide", "--in", str(latin)], f"error: {latin}: not valid JSON: 'utf-8' codec"),
        (["act", "r", "--chi", nested], "error: --chi: JSON nested too deeply"),
        (["theta", "--chi", nested, "--n", "0", "--i", "0"], "error: --chi: JSON nested too deeply"),
        (["act", "r", "--chi", "{bad"], "error: --chi: not valid JSON"),
        (["act", "r", "--chi", '{"left": 0, "start": 0, "core": 5, "right": 0}'],
         "error: core must be an array of bits"),
    ]
    for argv, message in cases:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message)
        assert "Traceback" not in captured.err


def test_divide_unwritable_out_exits_two(tmp_path, capsys):
    inst = write(tmp_path, "inst.json", TWO)
    missing = tmp_path / "missing" / "match.json"
    for out, reason in ((missing, "No such file or directory"), (tmp_path, "Is a directory")):
        assert main(["divide", "--in", inst, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {out}: {reason}\n"


def test_paths_are_opened_as_given(tmp_path, capsys):
    # an empty path names no file, and a file path with a trailing slash names no directory
    inst = write(tmp_path, "inst.json", TWO)
    cases = [
        (["divide", "--in", ""], "error: : No such file or directory\n"),
        (["verify", "matching", "--inst", inst, "--match", ""], "error: : No such file or directory\n"),
        (["divide", "--in", inst + "/"], f"error: {inst}/: Not a directory\n"),
        (["divide", "--in", inst, "--out", inst + "/"], f"error: {inst}/: Is a directory\n"),
    ]
    for argv, err in cases:
        assert main(argv) == 2
        assert capsys.readouterr() == ("", err)


def test_trace_subcommand(tmp_path, capsys):
    one = {"X": ["x"], "Y": ["y"], "map": [[["x", 0], ["y", 0]], [["x", 1], ["y", 1]]]}
    inst = write(tmp_path, "one.json", one)
    assert main(["trace", "--in", inst, "--label", "x", "--bit", "0", "--lo", "0", "--hi", "3"]) == 0
    assert capsys.readouterr().out == "0 1 0 1\n"
    assert main(
        ["trace", "--in", inst, "--label", "y", "--bit", "1", "--lo", "0", "--hi", "2", "--side", "Y", "--json"]
    ) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["bits"] == [1, 0, 1]


def test_trace_far_from_zero_reads_modulo_the_cycle(tmp_path, capsys):
    # the cycle through (a, 0) has 6 copies with bits 0 1 1 1 0 0
    six = {
        "X": ["a", "b", "c"],
        "Y": ["d", "e", "f"],
        "map": [
            [["a", 0], ["d", 0]],
            [["a", 1], ["e", 0]],
            [["b", 0], ["d", 1]],
            [["b", 1], ["f", 0]],
            [["c", 0], ["e", 1]],
            [["c", 1], ["f", 1]],
        ],
    }
    orbits = sigma_orbits(FinInstance.from_json(six))
    period = [z.bit for z in next(o for o in orbits if o[0] == CopyElem("X", "a", 0))]
    lo, hi = -100_000_000, -99_999_990
    inst = write(tmp_path, "six.json", six)
    start = time.perf_counter()
    code = main(["trace", "--in", inst, "--label", "a", "--bit", "0", "--lo", str(lo), "--hi", str(hi)])
    assert time.perf_counter() - start < 1
    assert code == 0
    expected = [period[k % len(period)] for k in range(lo, hi + 1)]
    assert capsys.readouterr().out == " ".join(map(str, expected)) + "\n"


def test_trace_ranges_past_the_limit_exit_two_at_once(tmp_path, capsys):
    inst = write(tmp_path, "inst.json", TWO)
    too_long = [
        ["trace", "--in", inst, "--label", "a", "--bit", "0", "--lo", "0", "--hi", "300000000"],
        ["trace", "--in", inst, "--label", "a", "--bit", "0", "--lo", "-5", "--hi", str(MAX_TRACE_LEN - 5)],
        ["divide", "--in", inst, "--trace", "a,0,0,300000000"],
        ["divide", "--in", inst, "--trace", f"a,0,{-10**30},{10**30}"],
    ]
    for argv in too_long:
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: trace range [")
        assert f"limit of {MAX_TRACE_LEN}" in captured.err


def test_divide_checks_the_trace_spec_before_it_reads_the_instance(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    bad_specs = {
        "a,0": "--trace wants label,bit,lo,hi",
        "a,x,0,3": "--trace wants integer bit,lo,hi",
        "a,0,5,1": "empty trace range: lo=5 > hi=1",
        "a,0,0,2000000": f"more than the limit of {MAX_TRACE_LEN}",
    }
    for spec, message in bad_specs.items():
        assert main(["divide", "--in", missing, "--trace", spec]) == 2
        assert message in capsys.readouterr().err
    assert main(["divide", "--in", missing, "--trace", "a,0,0,3"]) == 2
    assert capsys.readouterr().err == f"error: {missing}: No such file or directory\n"


def test_trace_range_at_the_limit_succeeds(tmp_path, capsys):
    inst = write(tmp_path, "inst.json", TWO)
    period = [z.bit for z in next(o for o in sigma_orbits(FinInstance.from_json(TWO)) if o[0] == CopyElem("X", "a", 0))]
    lo, hi = 7, 7 + MAX_TRACE_LEN - 1
    assert main(["trace", "--in", inst, "--label", "a", "--bit", "0", "--lo", str(lo), "--hi", str(hi)]) == 0
    bits = capsys.readouterr().out.split()
    assert len(bits) == MAX_TRACE_LEN
    assert bits[:16] == [str(period[k % len(period)]) for k in range(lo, lo + 16)]
    assert main(["divide", "--in", inst, "--trace", f"a,0,{-MAX_TRACE_LEN},-1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["a -> c", "b -> d"]
    assert lines[2].startswith(f"trace a,0 on [{-MAX_TRACE_LEN}, -1]: ")
    assert len(lines[2].split(": ")[1].split()) == MAX_TRACE_LEN


def test_trace_unknown_label(tmp_path, capsys):
    inst = write(tmp_path, "inst.json", TWO)
    assert main(["trace", "--in", inst, "--label", "zz", "--bit", "0", "--lo", "0", "--hi", "1"]) == 2
    assert "not on the X side" in capsys.readouterr().err


INT_LABELS = {
    "X": [1, 10, 0, "x", "01"],
    "Y": [2, 3, 4, 5, 6],
    "map": [[[x, b], [y, b]] for x, y in zip([1, 10, 0, "x", "01"], [2, 3, 4, 5, 6]) for b in (0, 1)],
}


@pytest.mark.parametrize(
    "text",
    ["1", "10", "0", "x", "01", "-0", " 1", "1_0", "+1", "\u0661", "9" * 5000, "zz"],
    ids=lambda text: text if len(text) < 10 else f"{len(text)}-digits",
)
def test_trace_label_is_the_one_that_prints_as_the_text(tmp_path, capsys, text):
    # the label is found by lookup; a scan of every label's str() is the reference
    inst = write(tmp_path, "inst.json", INT_LABELS)
    hits = [label for label in INT_LABELS["X"] if str(label) == text]
    code = main(["trace", "--in", inst, "--label", text, "--bit", "0", "--lo", "0", "--hi", "1", "--json"])
    captured = capsys.readouterr()
    if hits:
        assert code == 0
        assert json.loads(captured.out)["label"] == hits[0]
    else:
        assert code == 2
        assert captured.err == f"error: label {text!r} is not on the X side\n"


def test_trace_label_that_prints_as_two_labels_is_ambiguous(tmp_path, capsys):
    inst = write(tmp_path, "inst.json", {
        "X": [1, "1"], "Y": [1, "1"], "map": [[[x, b], [x, b]] for x in (1, "1") for b in (0, 1)],
    })
    for side in ("X", "Y"):
        assert main(["trace", "--in", inst, "--label", "1", "--bit", "0", "--lo", "0", "--hi", "1", "--side", side]) == 2
        assert capsys.readouterr().err == f"error: label '1' is ambiguous on the {side} side\n"
    assert main(["divide", "--in", inst, "--trace", "1,0,0,1"]) == 2
    assert capsys.readouterr().err == "error: label '1' is ambiguous on the X side\n"


# --- verify lemma ---


def test_verify_lemma_human(tmp_path, capsys):
    rule = write(tmp_path, "rule.json", GAP_RULE)
    assert main(["verify", "lemma", "--rule", rule]) == 0
    out = capsys.readouterr().out
    assert "k=1" in out and "N=2" in out
    assert "verified" in out


def test_verify_lemma_json(tmp_path, capsys):
    rule = write(tmp_path, "rule.json", {"w": 0, "table": {"cut:1": 1, "cut:0": -1}})
    assert main(["verify", "lemma", "--rule", rule, "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["verified"] is True
    assert blob["k"] == -1
    assert blob["N"] == 2


@pytest.mark.parametrize("side", [1, -1])
def test_verify_lemma_reports_a_tail_that_fails(tmp_path, capsys, monkeypatch, side):
    # an equivariant rule always has its linear tail, so one moved value stands in for a rule without it;
    # for GAP_RULE (w = 0, k = 1, N = 2) the first point checked is N + 2 on the right and -N - 2w - 4 on the left
    n = 4 if side > 0 else -6
    expected, actual = n + side, n + side + 2
    apply = LocalRule.apply
    monkeypatch.setattr(LocalRule, "apply", lambda self, chi, m: apply(self, chi, m) + 2 * (m == n))
    assert eventually_linear(LocalRule.from_json(GAP_RULE)) == TailViolation(n, expected, actual)
    rule = write(tmp_path, "rule.json", GAP_RULE)
    assert main(["verify", "lemma", "--rule", rule]) == 1
    assert capsys.readouterr().out == f"tail FAILS at n={n}: expected {expected}, got {actual}\n"
    assert main(["verify", "lemma", "--rule", rule, "--json"]) == 1
    blob = json.loads(capsys.readouterr().out)
    assert blob == {"verified": False, "n": n, "expected": expected, "actual": actual}


def test_verify_lemma_rejects_non_equivariant(tmp_path, capsys):
    rule = write(tmp_path, "rule.json", {"w": 0, "table": {"allzero": 1, "allone": 1}})
    assert main(["verify", "lemma", "--rule", rule]) == 2
    assert "not reflection equivariant" in capsys.readouterr().err


def test_verify_lemma_rejects_malformed_rules(tmp_path, capsys):
    rule = write(tmp_path, "rule.json", {"w": "x", "table": {}})
    assert main(["verify", "lemma", "--rule", rule]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: radius must be a non-negative integer")
    rule = write(tmp_path, "float.json", {"w": 0, "table": {"allzero": 1.0, "allone": -1}})
    assert main(["verify", "lemma", "--rule", rule]) == 2
    assert "offset for allzero must be an integer, got 1.0" in capsys.readouterr().err
    # the work and the message are bounded by the table, not by w
    rule = write(tmp_path, "huge.json", {"w": 1_000_000_000, "table": {"allzero": 1}})
    start = time.perf_counter()
    assert main(["verify", "lemma", "--rule", rule]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "missing patterns" in err and "1999999998 more" in err
    assert len(err) < 200


# --- verify parity ---


def test_verify_parity_exact_line(capsys):
    assert main(["verify", "parity", "--k", "1", "--N", "4"]) == 0
    assert capsys.readouterr().out == "evens=5 (odd), odds=6 (even): contradiction confirmed\n"


def test_verify_parity_json(capsys):
    assert main(["verify", "parity", "--k", "-3", "--N", "6", "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob == {"k": -3, "N": 6, "evens": 7, "odds": 4, "contradiction": True}


def test_verify_parity_rejects_bad_inputs(capsys):
    assert main(["verify", "parity", "--k", "2", "--N", "4"]) == 2
    assert main(["verify", "parity", "--k", "1", "--N", "5"]) == 2
    assert main(["verify", "parity", "--k", "3", "--N", "2"]) == 2


# --- verify search ---


def test_verify_search_human(capsys):
    assert main(["verify", "search", "--w", "0", "--d", "1"]) == 0
    out = capsys.readouterr().out
    assert "candidates=4" in out
    assert "equivariant=2" in out
    assert "survivors=0" in out
    assert "confirmed" in out


def test_verify_search_json_deterministic(capsys):
    runs = []
    for _ in range(2):
        assert main(["verify", "search", "--w", "1", "--d", "3", "--json"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]
    blob = json.loads(runs[0])
    assert blob["candidates"] == 256
    assert blob["survivors"] == []


def test_verify_search_jobs_agree(capsys):
    assert main(["verify", "search", "--w", "1", "--d", "3", "--json"]) == 0
    one = capsys.readouterr().out
    assert main(["verify", "search", "--w", "1", "--d", "3", "--jobs", "3", "--json"]) == 0
    assert capsys.readouterr().out == one


def test_verify_search_rejects_oversize(capsys):
    assert main(["verify", "search", "--w", "9", "--d", "1"]) == 2


# --- verify matching ---


def test_verify_matching_detects_problems(tmp_path, capsys):
    inst = write(tmp_path, "inst.json", TWO)
    bad = write(tmp_path, "bad.json", {"pairs": [["a", "c"], ["b", "c"]]})
    assert main(["verify", "matching", "--inst", inst, "--match", bad]) == 1
    assert "matched twice" in capsys.readouterr().out
    partial = write(tmp_path, "partial.json", {"pairs": [["a", "c"]]})
    assert main(["verify", "matching", "--inst", inst, "--match", partial]) == 1
    assert "unmatched" in capsys.readouterr().out


def test_verify_matching_rejects_malformed_file(tmp_path, capsys):
    inst = write(tmp_path, "inst.json", TWO)
    ugly = write(tmp_path, "ugly.json", {"stuff": []})
    assert main(["verify", "matching", "--inst", inst, "--match", ugly]) == 2
    capsys.readouterr()
    for pair in ([["a"], "c"], ["a", {"c": 0}], [True, "c"]):
        ugly = write(tmp_path, "ugly.json", {"pairs": [pair]})
        assert main(["verify", "matching", "--inst", inst, "--match", ugly]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: pairs[0]: labels must be strings or integers")
    short = write(tmp_path, "short.json", {"pairs": [["a"]]})
    assert main(["verify", "matching", "--inst", inst, "--match", short]) == 2
    assert capsys.readouterr().err == "error: pairs[0]: expected [x, y], got ['a']\n"


# --- --json ---


@pytest.mark.parametrize(
    "argv",
    [
        ["act", "rt", "4", "--chi", "nbar:1"],
        ["theta", "--chi", "nbar:0", "--n", "0", "--i", "0"],
        ["trace", "--in", "INST", "--label", "a", "--bit", "0", "--lo", "0", "--hi", "3"],
        ["divide", "--in", "INST", "--trace", "a,0,0,3"],
        ["verify", "lemma", "--rule", "RULE"],
        ["verify", "parity", "--k", "1", "--N", "4"],
        ["verify", "search", "--w", "1", "--d", "3"],
        ["verify", "matching", "--inst", "INST", "--match", "MATCH"],
    ],
    ids=lambda argv: "-".join(argv[:2]) if argv[0] == "verify" else argv[0],
)
def test_json_stdout_is_one_json_document(tmp_path, capsys, argv):
    files = {
        "INST": write(tmp_path, "inst.json", TWO),
        "RULE": write(tmp_path, "rule.json", GAP_RULE),
        "MATCH": write(tmp_path, "match.json", {"pairs": [["a", "c"], ["b", "d"]]}),
    }
    assert main([files.get(arg, arg) for arg in argv] + ["--json"]) == 0
    assert isinstance(json.loads(capsys.readouterr().out), dict)


# --- argparse behaviour and the installed entry point ---


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["theta", "--chi", "nbar:0", "--n", "0", "--i", "0", "--frob"])
    assert err.value.code == 2


def test_double_dash_as_an_option_value_exits_two(tmp_path, capsys):
    inst = write(tmp_path, "inst.json", TWO)
    for argv in (
        ["verify", "search", "--w=--", "--d", "1"],
        ["trace", "--in", inst, "--label", "a", "--bit", "0", "--lo", "0", "--hi=--"],
        ["trace", "--in", inst, "--label=--", "--bit", "0", "--lo", "0", "--hi", "1"],
        ["theta", "--chi", "--", "--n", "0", "--i", "0"],
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'--' is not a value" in captured.err


def test_tokens_after_a_bare_double_dash_are_left_alone(capsys):
    # after "--" every token is a positional: none is folded into --chi or taken for an option's '--' value
    argv = ["act", "--", "--chi", "-inf", "--w=--"]
    assert _join_chi_values(argv) == (argv, None)
    assert main(["act", "r", "--", "-5"]) == 0
    assert capsys.readouterr().out == "5\n"
    assert main(["act", "--", "--w=--"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad generator") and "is not a value" not in captured.err


def test_missing_subcommand_exits_two():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_a_parser_build_reads_the_terminal_size_once(monkeypatch, capsys):
    # argparse would ask the terminal again for every help formatter it makes, the lazily filled ones too
    calls = []
    real = shutil.get_terminal_size
    monkeypatch.setattr(shutil, "get_terminal_size", lambda *args: calls.append(args) or real(*args))
    parser = build_parser()
    with pytest.raises(SystemExit) as err:
        parser.parse_args(["verify", "search", "--help"])
    assert err.value.code == 0
    assert "--jobs JOBS" in capsys.readouterr().out
    assert len(calls) == 1


def test_a_parser_build_adds_no_command_arguments():
    # a command's arguments are added when argparse dispatches to its parser
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(commands.choices) == ["act", "theta", "trace", "divide", "verify"]
    for name, command in commands.choices.items():
        assert [a.dest for a in command._actions] == ["help"], name


def test_act_builds_none_of_the_verify_check_parsers(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def record(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", record)
    commands = ["div2", "div2 act", "div2 theta", "div2 trace", "div2 divide", "div2 verify"]
    assert main(["act", "r", "5"]) == 0
    assert capsys.readouterr().out == "-5\n"
    assert built == commands
    built.clear()
    assert main(["verify", "parity", "--k", "1", "--N", "2"]) == 0
    assert built == commands + [f"div2 verify {check}" for check in ("lemma", "parity", "search", "matching")]


def test_a_parser_parses_the_same_command_twice():
    # the arguments are added at the first parse only: argparse rejects an option string added twice
    parser = build_parser()
    first = parser.parse_args(["verify", "search", "--w", "3", "--d", "7"])
    second = parser.parse_args(["verify", "search", "--w", "4", "--d", "9", "--json"])
    assert (first.w, first.d, first.jobs, first.json) == (3, 7, 1, False)
    assert (second.w, second.d, second.jobs, second.json) == (4, 9, 1, True)
    assert first.func is second.func
    words = [parser.parse_args(["act", word, "--json"]).word for word in ("r", "tT")]
    assert words == ["r", "tT"]


def search_help(monkeypatch, capsys, columns):
    monkeypatch.setenv("COLUMNS", str(columns))
    with pytest.raises(SystemExit) as err:
        main(["verify", "search", "--help"])
    assert err.value.code == 0
    usage, options = capsys.readouterr().out.split("\n\n", 1)
    return usage.splitlines(), options.splitlines()


def test_help_wraps_to_the_terminal_width(monkeypatch, capsys):
    # two columns short of the terminal, as argparse does; a usage line is one option, which cannot wrap
    usage, options = search_help(monkeypatch, capsys, 40)
    assert len(usage) > 1
    assert max(len(line) for line in options) <= 38
    usage, options = search_help(monkeypatch, capsys, 200)
    assert len(usage) == 1
    assert max(len(line) for line in options) > 38


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "div2", "act", "r", "5"],
        env=CHILD_ENV,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "-5\n"


# --- the exit-code contract under a hostile environment ---


@pytest.fixture(scope="module")
def large_instance(tmp_path_factory):
    # 1e5 labels: about 7 MB of JSON that needs over 120 MB of address space to load, and 1.6 MB of divide output
    n = 100_000
    targets = [[n + i // 2, i % 2] for i in range(2 * n)]
    random.Random(3).shuffle(targets)
    inst = {"X": list(range(n)), "Y": list(range(n, 2 * n)), "map": [[[i // 2, i % 2], targets[i]] for i in range(2 * n)]}
    path = tmp_path_factory.getbasetemp() / "large-instance.json"
    path.write_text(json.dumps(inst))
    return str(path)


def divide_process(path, **kwargs):
    return subprocess.Popen([sys.executable, "-m", "div2", "divide", "--in", path], env=CHILD_ENV, stderr=subprocess.PIPE, **kwargs)


def test_running_out_of_memory_exits_two_without_a_traceback(large_instance):
    # the interpreter starts in under 40 MB of address space; loading the instance needs more than 120 MB
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (80 << 20, 80 << 20))

    proc = divide_process(large_instance, stdout=subprocess.PIPE, preexec_fn=cap)
    out, err = proc.communicate()
    assert (proc.returncode, out, err) == (2, b"", b"error: out of memory\n")


def test_a_reader_that_stops_early_ends_the_command_quietly(large_instance):
    with divide_process(large_instance, stdout=subprocess.PIPE) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.returncode, err) == (141, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_a_failed_stdout_write_exits_two_without_a_traceback(large_instance):
    # exit 1 is reserved for a verification that finds an impossible result
    for argv in (["act", "r", "5"], ["divide", "--in", large_instance]):
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "div2", *argv], env=CHILD_ENV, stdout=full, stderr=subprocess.PIPE, text=True)
        assert proc.returncode == 2, (argv, proc.stderr)
        assert proc.stderr.startswith("error: stdout: ")
        assert "Traceback" not in proc.stderr


def test_an_interrupt_exits_130_quietly():
    child = "import div2.cli as cli\ndef main():\n    raise KeyboardInterrupt\ncli.main = main\ncli.run()\n"
    proc = subprocess.run([sys.executable, "-c", child], env=CHILD_ENV, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (130, "")
