"""Property tests over the argv of ``verify search`` and ``trace``.

Whatever the numbers, the CLI must answer with exit 0 or exit 2 and a
message, never a traceback: 2 comes with ``error:`` (from ``main``) or
``usage:`` (from argparse).
"""

import contextlib
import io
import json

from hypothesis import event, given, settings
from hypothesis import strategies as st

from div2.cli import main
from div2.divider import MAX_TRACE_LEN
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


def check_contract(code, out, err):
    event(f"exit {code}")
    assert code in (0, 2)
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
