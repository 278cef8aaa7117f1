"""Property tests over the CLI's argv and input files.

Whatever the numbers and files, the CLI must answer with exit 0 or exit 2
and a message, never a traceback: 2 comes with ``error:`` (from ``main``)
or ``usage:`` (from argparse).  Exit 1 is for a verification that finds a
real failure; of the inputs fuzzed here only a matching that breaks its
instance is one.
"""

import contextlib
import io
import json

from hypothesis import event, given, settings
from hypothesis import strategies as st

from div2.cli import _load_json, _parse_matching, main
from div2.divider import MAX_TRACE_LEN, FinInstance, matching_violation
from div2.localrules import MAX_SEARCH_D, MAX_SEARCH_W

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

HUGE = st.sampled_from([10**9, -(10**9), 2**63, -(2**63), 10**30, -(10**30)])
NOT_INT = st.sampled_from(["", "x", "1.5", "1e3", "0x10", "--", " "])


def run(argv):
    """``main(argv)`` with its exit code, stdout and stderr; an argparse exit counts as a code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def check_contract(code, out, err, failed=False):
    """``failed``: the run may find a real verification failure, the one case for exit 1."""
    event(f"exit {code}")
    assert code in ((0, 1, 2) if failed else (0, 2))
    assert "Traceback" not in out + err
    if code == 2:
        assert "error:" in err or "usage:" in err
        assert out == ""


def token(small):
    return st.one_of(small.map(str), HUGE.map(str), NOT_INT)


@settings(max_examples=80, deadline=None)
@given(
    w=token(st.integers(-2, MAX_SEARCH_W + 2)),
    d=token(st.integers(-2, MAX_SEARCH_D + 2)),
    jobs=st.one_of(st.none(), token(st.integers(-2, 4))),
    as_json=st.booleans(),
)
def test_verify_search_argv_keeps_the_exit_contract(w, d, jobs, as_json):
    argv = ["verify", "search", f"--w={w}", f"--d={d}"]
    if jobs is not None:
        argv.append(f"--jobs={jobs}")
    if as_json:
        argv.append("--json")
    code, out, err = run(argv)
    check_contract(code, out, err)
    if code == 0:
        assert "survivors" in out


@settings(max_examples=80, deadline=None)
@given(
    lo=st.one_of(st.integers(-50, 50), st.integers(-(2**64), 2**64), HUGE),
    length=st.one_of(
        st.integers(-3, 40),
        st.integers(MAX_TRACE_LEN - 1, MAX_TRACE_LEN + 1),
        st.integers(MAX_TRACE_LEN + 2, 10**30),
    ),
    label=st.sampled_from(["a", "b", "zz"]),
    bit=st.sampled_from(["0", "1", "2", "x"]),
    divide=st.booleans(),
    data=st.data(),
)
def test_trace_argv_keeps_the_exit_contract(tmp_path_factory, lo, length, label, bit, divide, data):
    hi = lo + length - 1
    if data.draw(st.booleans(), label="hi not integer"):
        hi = data.draw(NOT_INT, label="hi")
    inst = tmp_path_factory.getbasetemp() / "fuzz-two.json"
    if not inst.exists():
        inst.write_text(json.dumps(TWO))
    if divide:
        argv = ["divide", "--in", str(inst), "--trace", f"{label},{bit},{lo},{hi}"]
    else:
        argv = ["trace", "--in", str(inst), "--label", label, "--bit", bit, f"--lo={lo}", f"--hi={hi}"]
    code, out, err = run(argv)
    check_contract(code, out, err)
    if code == 0:
        bits = out.splitlines()[-1].rpartition(": ")[2] if divide else out
        assert len(bits.split()) == length


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
LABEL = st.one_of(st.sampled_from(["a", "b", "c", "d", "zz", 0, 1, True, 1.5, None]), JSON)
BIT = st.one_of(st.sampled_from([0, 1, 2, -1, True, 1.0, "0"]), JSON)
COPY = st.one_of(st.tuples(LABEL, BIT).map(list), JSON)
INSTANCE = st.one_of(
    st.just(TWO),
    st.fixed_dictionaries(
        {
            "X": st.lists(LABEL, max_size=3),
            "Y": st.lists(LABEL, max_size=3),
            "map": st.lists(st.lists(COPY, max_size=3), max_size=6),
        }
    ),
    st.builds(lambda key, value: {**TWO, key: value}, st.sampled_from(["X", "Y", "map", "zz"]), JSON),
)
MATCHING = st.fixed_dictionaries({"pairs": st.lists(st.lists(LABEL, max_size=3), max_size=4)})
PATTERN = st.one_of(
    st.sampled_from(["allzero", "allone", "cut:-1", "cut:0", "cut:1", "cut:2", "cut:x", "cut:"]),
    st.text(max_size=6),
)
RULE = st.fixed_dictionaries(
    {
        "w": st.one_of(st.integers(-1, 3), HUGE, JSON),
        "table": st.one_of(st.dictionaries(PATTERN, st.one_of(st.integers(-9, 9), HUGE, JSON), max_size=8), JSON),
    },
    optional={"d": st.one_of(st.integers(-1, 10), JSON)},
)
# nested past and around the interpreter's recursion limit, closed or not
DEEP = st.builds(
    lambda depth, opener, closed: opener * depth + ("0" + {"[": "]", '{"a":': "}"}[opener] * depth if closed else ""),
    st.sampled_from([10, 500, 990, 1_000, 3_000, 100_000]),
    st.sampled_from(["[", '{"a":']),
    st.booleans(),
)


def contents(shaped):
    """File bytes: JSON of the given shape or of any value, deep nesting, or arbitrary bytes."""
    return st.one_of(
        st.one_of(shaped, JSON).map(lambda obj: json.dumps(obj).encode()),
        DEEP.map(str.encode),
        st.binary(max_size=16),
    )


def write(tmp_path_factory, name, data):
    path = tmp_path_factory.getbasetemp() / name
    path.write_bytes(data)
    return str(path)


@settings(max_examples=80, deadline=None)
@given(
    inst=contents(INSTANCE),
    match=contents(MATCHING),
    rule=contents(RULE),
    label=st.sampled_from(["a", "c", "0", "zz"]),
    as_json=st.booleans(),
)
def test_input_files_keep_the_exit_contract(tmp_path_factory, inst, match, rule, label, as_json):
    inst = write(tmp_path_factory, "fuzz-inst.json", inst)
    match = write(tmp_path_factory, "fuzz-match.json", match)
    rule = write(tmp_path_factory, "fuzz-rule.json", rule)
    for argv in (
        ["divide", "--in", inst],
        ["trace", "--in", inst, "--label", label, "--bit", "0", "--lo", "-2", "--hi", "5"],
        ["verify", "matching", "--inst", inst, "--match", match],
        ["verify", "lemma", "--rule", rule],
    ):
        code, out, err = run(argv + ["--json"] * as_json)
        check_contract(code, out, err, failed=argv[1] == "matching")
        if code == 1:
            # only a matching that really breaks its instance fails
            assert matching_violation(FinInstance.from_json(_load_json(inst)), _parse_matching(_load_json(match)))
            if as_json:
                assert json.loads(out)["valid"] is False
            else:
                assert out.startswith("matching INVALID: ")


CHI = st.one_of(
    st.sampled_from(["+inf", "-inf", "inf", "nbar:", "nbar:x", "--", "", " ", "{", "[1]", "-"]),
    st.one_of(st.integers(-(10**6), 10**6), HUGE).map(lambda k: f"nbar:{k}"),
    st.one_of(
        JSON,
        st.fixed_dictionaries(
            {"left": BIT, "start": st.one_of(st.integers(), JSON), "core": st.lists(BIT, max_size=4), "right": BIT}
        ),
    ).map(json.dumps),
    DEEP,
)
WORD = st.text(alphabet="tTrx", max_size=8)
LIMIT = st.sampled_from([str(10**4300 - 1), str(1 - 10**4300)])


@settings(max_examples=80, deadline=None)
@given(
    word=WORD,
    n=st.one_of(st.none(), token(st.integers(-50, 50)), LIMIT),
    chi=st.one_of(st.none(), CHI),
    as_json=st.booleans(),
)
def test_act_argv_keeps_the_exit_contract(word, n, chi, as_json):
    argv = ["act", word]
    if n is not None:
        argv.append(n)
    if chi is not None:
        argv += ["--chi", chi]
    code, out, err = run(argv + ["--json"] * as_json)
    check_contract(code, out, err)


@settings(max_examples=80, deadline=None)
@given(chi=CHI, n=token(st.integers(-50, 50)), i=token(st.integers(-1, 2)), as_json=st.booleans())
def test_theta_argv_keeps_the_exit_contract(chi, n, i, as_json):
    code, out, err = run(["theta", "--chi", chi, f"--n={n}", f"--i={i}"] + ["--json"] * as_json)
    check_contract(code, out, err)


@settings(max_examples=80, deadline=None)
@given(
    k=st.one_of(st.integers(-5, 4).map(lambda v: str(2 * v + 1)), token(st.integers(-9, 9))),
    N=st.one_of(st.integers(0, 10).map(lambda v: str(2 * v)), token(st.integers(-2, 20))),
    as_json=st.booleans(),
)
def test_verify_parity_argv_keeps_the_exit_contract(k, N, as_json):
    code, out, err = run(["verify", "parity", f"--k={k}", f"--N={N}"] + ["--json"] * as_json)
    check_contract(code, out, err)
    if code == 0:
        assert "contradiction" in out
