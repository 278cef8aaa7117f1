"""Golden CLI transcript: the exit code, stdout digest and stderr of a seeded list of invocations.

The invocations and their input files come from one fixed ``random.Random``
seed.  Each runs in process through ``div2.cli.main`` in a scratch working
directory, so file arguments are relative and the transcript holds no path.
A record keeps the exit code, the sha256 of stdout, the first word of
stderr (the whole of it for the search limits), and the sha256 of the file
``divide --out`` wrote.  Every subcommand runs in text and ``--json`` form,
and a second test rebuilds each text stdout from its ``--json`` object.

After an intended output change, regenerate the file and read its diff:

    PYTHONPATH=src python tests/test_cli_transcript.py
"""

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

from div2.cli import main

TRANSCRIPT = Path(__file__).with_name("cli_transcript.json")
SEED = 20181012
# the search limits, whose messages are kept whole
LIMITS = (
    ["verify", "search", "--w", "5", "--d", "7"],
    ["verify", "search", "--w", "2", "--d", "10"],
    ["verify", "search", "--w", "2", "--d", "7", "--jobs", "0"],
)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write(name: str, payload) -> str:
    Path(name).write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return name


def _instance(rng, xs, ys, bits=(0, 1)) -> dict:
    """A random copy bijection between ``xs`` and ``ys``, entries shuffled, bits written as ``bits``."""
    targets = [[y, bits[c]] for y in ys for c in (0, 1)]
    rng.shuffle(targets)
    mapping = [[[x, bits[b]], targets[2 * i + b]] for i, x in enumerate(xs) for b in (0, 1)]
    rng.shuffle(mapping)
    return {"X": xs, "Y": ys, "map": mapping}


def _pattern(w: int, cut: int) -> str:
    return "allzero" if cut == -w else "allone" if cut == w + 1 else f"cut:{cut}"


def _rule(rng, w: int, d: int, equivariant: bool = True) -> dict:
    odd = [k for k in range(-d, d + 1) if k % 2]
    free = [rng.choice(odd) for _ in range(w + 1)]
    rest = [-k for k in reversed(free)] if equivariant else [rng.choice(odd) for _ in range(w + 1)]
    table = {_pattern(w, cut): off for cut, off in zip(range(-w, w + 2), free + rest)}
    return {"w": w, "d": d, "table": table} if rng.random() < 0.5 else {"w": w, "table": table}


def _chi(rng) -> str:
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice(["-inf", "+inf", "inf"])
    if kind == 1:
        return f"nbar:{rng.randint(-9, 9)}"
    if kind == 2:
        return str(rng.randint(-9, 9))
    core = [rng.choice([0, 1, True, 1.0, 0.0]) for _ in range(rng.randrange(5))]
    return json.dumps({"left": rng.randrange(2), "start": rng.randint(-5, 5), "core": core, "right": rng.randrange(2)})


def _both(argv) -> list:
    return [argv, argv + ["--json"]]


def invocations(rng) -> list:
    """The argv lists of the transcript; writes their input files into the working directory."""
    runs = []

    # act: random words on nothing, an integer, a point or a sequence
    for _ in range(24):
        word = "".join(rng.choice("tTr ") for _ in range(rng.randrange(12)))
        argv = ["act", word]
        if rng.random() < 0.5:
            argv.append(str(rng.randint(-20, 20)))
        if rng.random() < 0.5:
            argv += ["--chi", _chi(rng)]
        runs += _both(argv)
    runs += [["act", "txr", "0"], ["act", "r", "--chi", "nbar:x"], ["act", "r", "--chi", '{"left": 2}'],
             ["act", "r", "--chi", '{"left": 1, "start": 0, "core": [2], "right": 0}'],
             ["act", "r", "--chi", '{"left": 1, "start": 0.5, "core": [], "right": 0}'],
             ["act", "r", "--chi", '{"left": 1, "start": 0, "core": [], "right": 0, "x": 1}'],
             ["act", "r", "--chi", '{"left": 1, "x": 1}'], ["act", "r", "--chi", "[1]"], ["act"]]

    # theta
    for _ in range(16):
        runs += _both(["theta", "--chi", _chi(rng), "--n", str(rng.randint(-9, 9)), "--i", str(rng.randrange(2))])
    for i in ("2", "-1"):
        runs += _both(["theta", "--chi", "nbar:0", "--n", "0", "--i", i])
    runs += [["theta", "--chi", "wibble", "--n", "0", "--i", "0"], ["theta", "--chi", "nbar:0", "--n", "0"]]

    # instances: string, integer and mixed labels, bool and float bits
    instances = []
    for k, n in enumerate((1, 2, 3, 5, 8, 13, 40)):
        xs, ys = [f"x{j}" for j in range(n)], [f"y{j}" for j in range(n)]
        if k % 3 == 1:
            xs, ys = rng.sample(range(-60, 60), n), rng.sample(range(-60, 60), n)
        elif k % 3 == 2:
            xs = [rng.choice([j, str(j)]) for j in range(n)]
            ys = [rng.choice([j, f"y{j}"]) for j in range(n)]
        bits = (False, True) if k == 3 else (0.0, 1.0) if k == 4 else (0, 1)
        instances.append((_write(f"inst{k}.json", _instance(rng, xs, ys, bits)), xs, ys))
    broken = [
        [1, 2], {"X": [], "Y": []}, {"X": [], "Y": [], "map": [], "extra": 1}, {"X": "a", "Y": [], "map": []},
        {"X": ["a", "a"], "Y": ["b", "c"], "map": []}, {"X": ["a"], "Y": ["b", "c"], "map": []},
        {"X": ["a"], "Y": ["b"], "map": [[["a", 0], ["b", 2]], [["a", 1], ["b", 0]]]},
        {"X": ["a"], "Y": ["b"], "map": [[["a", 0], ["b", 0]]]},
        {"X": ["a"], "Y": ["b"], "map": [[["a", 0], ["b", 0]], [["a", 0], ["b", 1]]]},
        {"X": [True], "Y": ["b"], "map": []}, {"X": ["a"], "Y": ["b"], "map": [[["z", 0], ["b", 0]]]},
    ]
    bad = [_write(f"bad{k}.json", obj) for k, obj in enumerate(broken)]
    bad.append(_write("broken.json", "{not json"))
    bad.append("absent.json")

    # divide, with --out and --trace
    for name, xs, ys in instances:
        runs += _both(["divide", "--in", name])
        x = rng.choice(xs)
        lo = rng.randint(-100, 100)
        runs += _both(["divide", "--in", name, "--trace", f"{x},{rng.randrange(2)},{lo},{lo + rng.randrange(12)}"])
    runs += _both(["divide", "--in", instances[2][0], "--out", "match.json"])
    runs += _both(["divide", "--in", instances[2][0], "--out", "missing/match.json"])
    runs += [["divide", "--in", instances[3][0], "--trace", spec] for spec in
             ("x0,0,0,3", "nope,0,0,3", "x0,0,3,0", "x0,a,0,1", "x0,0,0", "x0,0,0,1000000", "x0,2,0,1")]
    runs += [["divide", "--in", name] for name in bad]

    # trace, on both sides
    for name, xs, ys in instances:
        for side, labels in (("X", xs), ("Y", ys)):
            lo = rng.randint(-10**6, 10**6)
            argv = ["trace", "--in", name, "--label", str(rng.choice(labels)), "--bit", str(rng.randrange(2)),
                    "--lo", str(lo), "--hi", str(lo + rng.randrange(20)), "--side", side]
            runs += _both(argv)
    name = instances[0][0]
    runs += [["trace", "--in", name, "--label", "x0", "--bit", "0", "--lo", "1", "--hi", "0"],
             ["trace", "--in", name, "--label", "zz", "--bit", "0", "--lo", "0", "--hi", "1"],
             ["trace", "--in", name, "--label", "x0", "--bit", "5", "--lo", "0", "--hi", "1"],
             ["trace", "--in", name, "--label", "x0", "--bit", "0", "--lo", "0", "--hi", str(10**6)],
             ["trace", "--in", bad[4], "--label", "a", "--bit", "0", "--lo", "0", "--hi", "1"]]

    # verify matching: the divider's own, a corrupted one, malformed ones
    inst = instances[5][0]
    with contextlib.redirect_stdout(io.StringIO()):
        main(["divide", "--in", inst, "--out", "good.json"])
    pairs = json.loads(Path("good.json").read_text())["pairs"]
    pairs[0][1], pairs[1][1] = pairs[1][1], pairs[0][1]
    swapped = _write("swapped.json", {"pairs": pairs})
    hit_twice = _write("hit_twice.json", {"pairs": [pairs[0], [pairs[1][0], pairs[0][1]]] + pairs[2:]})
    matchings = ["good.json", swapped, hit_twice, _write("short.json", {"pairs": pairs[1:]}),
                 _write("twice.json", {"pairs": pairs + pairs[:1]}), _write("nopairs.json", {"p": []}),
                 _write("float.json", {"pairs": [[1.0, 2]]})]
    for match in matchings:
        runs += _both(["verify", "matching", "--inst", inst, "--match", match])
    runs += [["verify", "matching", "--inst", bad[1], "--match", "good.json"]]

    # verify lemma
    rules = [_write(f"rule{k}.json", _rule(rng, rng.randrange(5), rng.randrange(1, 10, 2))) for k in range(8)]
    rules.append(_write("skew.json", _rule(rng, 2, 5, equivariant=False)))
    malformed = [
        {"w": 0, "table": {"allzero": 1.0, "allone": -1}}, {"w": "x", "table": {}}, {"w": 0},
        {"w": 0, "table": {"allzero": 1, "allone": -1}, "extra": 0}, {"table": {}, "extra": 0},
        {"w": 0, "table": {"allzero": 2, "allone": -2}}, {"w": 1, "table": {"allzero": 1}},
        {"w": 0, "d": 1, "table": {"allzero": 3, "allone": -3}}, {"w": 0, "table": {"cut:9": 1}}, [0],
    ]
    rules += [_write(f"badrule{k}.json", obj) for k, obj in enumerate(malformed)]
    for rule in rules:
        runs += _both(["verify", "lemma", "--rule", rule])

    # verify parity
    for _ in range(10):
        k = rng.randrange(-41, 42, 2)
        runs += _both(["verify", "parity", "--k", str(k), "--N", str(abs(k) + 1 + rng.randrange(0, 40, 2))])
    runs += [["verify", "parity", "--k", k, "--N", n] for k, n in (("2", "4"), ("1", "5"), ("3", "2"), ("x", "4"))]

    # verify search: every guarded (w, d) as JSON, a few as text, and the limits
    for w in range(5):
        for d in range(1, 10):
            runs.append(["verify", "search", "--w", str(w), "--d", str(d), "--json"])
    runs += [["verify", "search", "--w", str(w), "--d", str(d)] for w, d in ((0, 1), (2, 7), (4, 9))]
    runs += [["verify", "search", "--w", "3", "--d", "7", "--jobs", "2"], ["verify", "search", "--w", "-1", "--d", "7"],
             ["verify", "search", "--w", "2", "--d", "0"], ["verify", "search", "--w", "2"], ["verify"], []]
    runs += [list(argv) for argv in LIMITS]
    return runs


def _outputs(argv) -> tuple:
    """The exit code, stdout and stderr of one invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run(argv) -> dict:
    code, out, err = _outputs(argv)
    record = {"argv": argv, "code": code, "stdout": _digest(out.encode())}
    record["stderr"] = err if argv in LIMITS else (err.split() or [""])[0]
    if "--out" in argv and code == 0:
        record["out"] = _digest(Path(argv[argv.index("--out") + 1]).read_bytes())
    return record


def transcript() -> list:
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        return [run(argv) for argv in invocations(random.Random(SEED))]


def test_cli_transcript_is_unchanged():
    want = json.loads(TRANSCRIPT.read_text())
    got = transcript()
    for new, old in zip(got, want):
        assert new == old
    assert len(got) == len(want)


def _bits(bits) -> str:
    return " ".join(str(b) for b in bits)


def _text_lines(argv, obj) -> list:
    """The plain-text stdout lines of ``argv``, rebuilt from the object its ``--json`` form prints."""
    command = argv[1] if argv[0] == "verify" else argv[0]
    if command == "act":
        lines = [str(obj["n"])] if "n" in obj else []
        chi = obj.get("chi")
        if isinstance(chi, dict):  # a sequence
            lines.append(json.dumps(chi, sort_keys=True))
        elif chi is not None:  # a point: "-inf", "+inf" or a threshold
            lines.append(chi if isinstance(chi, str) else f"nbar:{chi}")
        return lines or [f"r^{obj['reflect']} t^{obj['shift']}"]
    if command == "theta":
        lo, _, hi = obj["depends_on"]
        return [f"({obj['n']}, {obj['i']})", f"depends on chi at indices {lo}..{hi}; agreement radius {obj['radius']}"]
    if command == "trace":
        return [_bits(obj["bits"])]
    if command == "divide":
        lines = [f"{x} -> {y}" for x, y in obj["pairs"]]
        if "trace" in obj:
            t = obj["trace"]
            lines.append(f"trace {t['label']},{t['bit']} on [{t['lo']}, {t['hi']}]: {_bits(t['bits'])}")
        return lines
    if command == "lemma":
        if not obj["verified"]:
            return [f"tail FAILS at n={obj['n']}: expected {obj['expected']}, got {obj['actual']}"]
        k = obj["k"]
        (r0, r1), (l0, l1) = obj["right_window"], obj["left_window"]
        return [f"tail displacement k={k}, bound N={obj['N']}",
                f"right tail n+{k} holds on ({r0}, {r1}]; left tail n-{k} holds on [{l0}, {l1})",
                "eventual linearity: verified"]
    if command == "parity":
        words = ["odd" if obj[key] % 2 else "even" for key in ("evens", "odds")]
        verdict = "contradiction confirmed" if obj["contradiction"] else "NO contradiction"
        return [f"evens={obj['evens']} ({words[0]}), odds={obj['odds']} ({words[1]}): {verdict}"]
    if command == "search":
        survivors = obj["survivors"]
        lines = [f"search w={obj['w']} d={obj['d']}: candidates={obj['candidates']} equivariant={obj['equivariant']} "
                 f"collisions={obj['failed_collision']} gaps={obj['failed_gap']} survivors={len(survivors)}"]
        lines += [f"SURVIVOR: {json.dumps(rule, sort_keys=True)}" for rule in survivors]
        return lines if survivors else lines + ["no equivariant local rule is bijective at this scale: confirmed"]
    if command == "matching":
        return [f"matching verified: {obj['pairs']} pairs" if obj["valid"] else f"matching INVALID: {obj['problem']}"]
    raise AssertionError(f"no text form for {argv}")


def test_text_and_json_forms_carry_the_same_facts():
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        runs = invocations(random.Random(SEED))
        pairs = [argv for argv in runs if argv + ["--json"] in runs]
        commands = {argv[1] if argv[0] == "verify" else argv[0] for argv in pairs}
        assert commands == {"act", "theta", "trace", "divide", "lemma", "parity", "search", "matching"}
        assert any("--trace" in argv for argv in pairs)
        for argv in pairs:
            code, text, err = _outputs(argv)
            json_code, json_text, json_err = _outputs(argv + ["--json"])
            assert (code, err) == (json_code, json_err), argv
            if code == 2:
                assert text == json_text == "", argv
            else:
                assert text.splitlines() == _text_lines(argv, json.loads(json_text)), argv


if __name__ == "__main__":
    records = transcript()
    TRANSCRIPT.write_text("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")
    print(f"wrote {len(records)} records to {TRANSCRIPT}", file=sys.stderr)
