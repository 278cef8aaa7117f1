"""Seeded input generation for the div2 benchmark.

Everything here is independent of the package under test: instances,
rules and matchings are built from a ``random.Random(seed)``, and every
expected output is computed by this file's own reference code (an orbit
walker that follows the definition in ``divider.py``'s module docstring,
and closed forms for the group action, the pairing map, the parity counts
and the tail certificate).  ``make_plan`` writes the input files and a
``plan.json`` listing every op with its expected result, before any timing.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

LARGE_LABELS = 100_000
FAR_LO, FAR_HI = -100_000, -99_937

# Pinned search results: (equivariant, collisions, gaps); survivors are 0.
SEARCH_COUNTS = {
    (2, 7): (512, 387, 125),
    (3, 7): (4096, 3330, 766),
    (4, 9): (100_000, 86_535, 13_465),
}

# cli-mix op classes and their shares (percent).  The median falls inside
# the dense band of small commands and the 99th percentile inside the 5% of
# search commands, away from the gap between the two; see README.md.
CLI_MIX_SHARES = {
    "act": 34,
    "theta": 14,
    "parity": 8,
    "lemma": 8,
    "divide": 9,
    "matching": 8,
    "trace": 9,
    "malformed": 5,
    "search-j1": 2.5,
    "search-j2": 2.5,
}
CLI_MIX_OPS = 20_000


# --- instances and the reference walker ------------------------------------


def _label_key(label) -> tuple:
    return (type(label).__name__, label)


def random_instance(rng: random.Random, n: int) -> dict:
    """String labels and one uniform copy bijection: a few very long cycles."""
    xs = [f"x{i}" for i in range(n)]
    ys = [f"y{i}" for i in range(n)]
    targets = [[y, b] for y in ys for b in (0, 1)]
    rng.shuffle(targets)
    mapping = [[[x, b], targets[2 * i + b]] for i, x in enumerate(xs) for b in (0, 1)]
    return _presented(rng, xs, ys, mapping)


def blocked_instance(rng: random.Random, n: int) -> dict:
    """Integer labels; copies permuted within blocks of 4 labels: many short cycles."""
    xs = list(range(n))
    ys = list(range(n, 2 * n))
    rng.shuffle(xs)
    rng.shuffle(ys)
    mapping = []
    for start in range(0, n, 4):
        bx, by = xs[start:start + 4], ys[start:start + 4]
        targets = [[y, b] for y in by for b in (0, 1)]
        rng.shuffle(targets)
        mapping += [[[x, b], targets[2 * i + b]] for i, x in enumerate(bx) for b in (0, 1)]
    return _presented(rng, xs, ys, mapping)


def _presented(rng, xs, ys, mapping) -> dict:
    xs, ys = list(xs), list(ys)
    rng.shuffle(xs)
    rng.shuffle(ys)
    rng.shuffle(mapping)
    return {"X": xs, "Y": ys, "map": mapping}


class RefWalker:
    """The choice-free divider, written from its definition on integer copy ids.

    Copies are numbered in canonical order (X before Y, labels sorted, bit
    last): X copy ``2*i + bit``, Y copy ``2*n + 2*j + bit``, so the flip is
    ``^ 1``.  The forward step swaps through the copy map, then flips.
    """

    def __init__(self, inst: dict):
        self.xs = sorted(inst["X"], key=_label_key)
        self.ys = sorted(inst["Y"], key=_label_key)
        n = self.n = len(self.xs)
        xi = {x: i for i, x in enumerate(self.xs)}
        yi = {y: j for j, y in enumerate(self.ys)}
        self.swap = [0] * (4 * n)
        for (x, b), (y, c) in inst["map"]:
            a, z = 2 * xi[x] + b, 2 * n + 2 * yi[y] + c
            self.swap[a] = z
            self.swap[z] = a

    def label(self, copy: int):
        n = self.n
        return self.xs[copy // 2] if copy < 2 * n else self.ys[(copy - 2 * n) // 2]

    def step(self, copy: int) -> int:
        return self.swap[copy] ^ 1

    def orbit(self, copy: int) -> list:
        out = [copy]
        cur = self.step(copy)
        while cur != copy:
            out.append(cur)
            cur = self.step(cur)
        return out

    def walk(self):
        """The matching (X -> Y, in label order) and the size of every cycle in copies."""
        seen = bytearray(4 * self.n)
        matching = {}
        cycles = []
        for v in range(2 * self.n):
            if seen[v]:
                continue
            orbit = self.orbit(v)
            marked = 0
            for u in orbit:
                for c in (u, u ^ 1):
                    if not seen[c]:
                        seen[c] = 1
                        marked += 1
            cycles.append(marked)
            for j in range(0, len(orbit), 2):
                matching[self.label(orbit[j])] = self.label(orbit[j + 1])
        return dict(sorted(matching.items(), key=lambda kv: _label_key(kv[0]))), cycles

    def trace(self, x, bit: int, lo: int, hi: int) -> str:
        orbit = self.orbit(2 * self.xs.index(x) + bit)
        return " ".join(str(orbit[k % len(orbit)] & 1) for k in range(lo, hi + 1))


def matching_digest(pairs) -> str:
    """Order-free digest of a matching given as [x, y] pairs."""
    canon = sorted(([x, y] for x, y in pairs), key=lambda p: _label_key(p[0]))
    return hashlib.sha256(json.dumps(canon).encode()).hexdigest()


def cycle_props(cycles: list) -> dict:
    lengths = sorted(cycles)
    return {
        "cycles": len(lengths),
        "cycle_len_p50": lengths[len(lengths) // 2],
        "cycle_len_max": lengths[-1],
    }


# --- closed forms for the small modules -------------------------------------


def act_on_int(word: str, n: int) -> int:
    # letters apply right to left: t adds 2, T subtracts 2, r negates
    for ch in reversed(word):
        n = n + 2 if ch == "t" else n - 2 if ch == "T" else -n
    return n


def normal_form(word: str) -> str:
    s = word.count("r") % 2
    f0 = act_on_int(word, 0)
    return f"r^{s} t^{(-f0 if s else f0) // 2}"


def act_on_point(word: str, p):
    """Threshold points ("-inf", "+inf" or an int K for nbar:K) under the word."""
    for ch in reversed(word):
        if isinstance(p, str):
            if ch == "r":
                p = "+inf" if p == "-inf" else "-inf"
        else:
            p = p + 2 if ch == "t" else p - 2 if ch == "T" else 1 - p
    return p


def point_text(p) -> str:
    return p if isinstance(p, str) else f"nbar:{p}"


def seq_at(seq: dict, n: int) -> int:
    if n < seq["start"]:
        return seq["left"]
    if n < seq["start"] + len(seq["core"]):
        return seq["core"][n - seq["start"]]
    return seq["right"]


def canonical_seq(left: int, right: int, values: dict) -> dict:
    """Canonical form of a sequence given by its tails and values on a window."""
    lo, hi = min(values), max(values)
    while lo <= hi and values[lo] == left:
        lo += 1
    while hi >= lo and values[hi] == right:
        hi -= 1
    if lo > hi:
        return {"left": left, "start": 0 if left == right else lo, "core": [], "right": right}
    return {"left": left, "start": lo, "core": [values[m] for m in range(lo, hi + 1)], "right": right}


def act_on_seq(word: str, seq: dict) -> dict:
    """(t.chi)(n) = chi(n - 2), (r.chi)(n) = 1 - chi(-n), by pulling each index back."""
    radius = abs(seq["start"]) + len(seq["core"]) + 2 * len(word) + 4
    values = {}
    for n in range(-radius, radius + 1):
        m, flip = n, 0
        for ch in word:  # the leftmost letter acts last, so it is undone first
            if ch == "t":
                m -= 2
            elif ch == "T":
                m += 2
            else:
                m, flip = -m, flip ^ 1
        values[n] = seq_at(seq, m) ^ flip
    left = values[-radius]
    right = values[radius]
    return canonical_seq(left, right, values)


def chi_value(chi, n: int) -> int:
    if chi == "-inf":
        return 0
    if chi == "+inf":
        return 1
    if isinstance(chi, dict):
        return seq_at(chi, n)
    return 1 if n < chi else 0


def theta_text(chi, n: int, i: int) -> str:
    if i == chi_value(chi, n):
        point = (n + 1, 1 - chi_value(chi, n + 1))
    else:
        point = (n - 1, chi_value(chi, n - 1))
    return (
        f"({point[0]}, {point[1]})\n"
        f"depends on chi at indices {n - 1}..{n + 1}; agreement radius {abs(n) + 2}\n"
    )


def parity_text(k: int, N: int) -> str:
    # evens in [-N, N] and odds in [-N-k, N+k]
    return f"evens={N + 1} (odd), odds={N + k + 1} (even): contradiction confirmed\n"


def random_equivariant_rule(rng: random.Random, w: int, d: int) -> dict:
    odd = [k for k in range(-d, d + 1) if k % 2]
    table = {}
    for cut in range(-w, 1):
        off = rng.choice(odd)
        table[cut], table[1 - cut] = off, -off
    names = {-w: "allzero", w + 1: "allone"}
    return {"w": w, "d": d, "table": {names.get(c, f"cut:{c}"): off for c, off in table.items()}}


def lemma_text(rule: dict) -> str:
    w = rule["w"]
    k = rule["table"]["allzero"]
    bound = max(w, abs(k))
    N = bound + 1 if (bound + 1) % 2 == 0 else bound + 2
    return (
        f"tail displacement k={k}, bound N={N}\n"
        f"right tail n+{k} holds on ({N}, {N + 2 * w + 4}]; "
        f"left tail n-{k} holds on [{-N - 2 * w - 4}, {-N})\n"
        "eventual linearity: verified\n"
    )


def search_text(w: int, d: int) -> str:
    eq, col, gap = SEARCH_COUNTS[(w, d)]
    return (
        f"search w={w} d={d}: candidates={(d + 1) ** (2 * w + 2)} "
        f"equivariant={eq} collisions={col} gaps={gap} survivors=0\n"
        "no equivariant local rule is bijective at this scale: confirmed\n"
    )


# --- plans --------------------------------------------------------------------


class Plan:
    def __init__(self, workdir: Path):
        self.dir = workdir
        self.ops = []
        self.props = {}
        self._files = 0

    def write(self, stem: str, payload) -> str:
        self._files += 1
        path = self.dir / f"{self._files:03d}-{stem}.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def op(self, cls: str, argv: list, shape: str = "", **expect):
        expect.setdefault("code", 0)
        self.ops.append({"cls": cls, "shape": shape, "argv": [str(a) for a in argv], "expect": expect})

    def dump(self, workload: str, seed: int) -> Path:
        path = self.dir / "plan.json"
        blob = {"workload": workload, "seed": seed, "ops": self.ops, "props": self.props}
        path.write_text(json.dumps(blob))
        return path


def _shape_props(plan: Plan, shape: str, labels: int, cycles: list) -> None:
    props = plan.props.setdefault("shapes", {}).setdefault(shape, {"labels": 0, "cycle_sizes": []})
    props["labels"] += labels
    props["cycle_sizes"] += cycles


def _finish_shape_props(plan: Plan) -> None:
    for props in plan.props.get("shapes", {}).values():
        props.update(cycle_props(props.pop("cycle_sizes")))


def plan_divide_large(plan: Plan, rng: random.Random) -> None:
    """One round per shape, random first: a divide, then far traces from two labels.

    Two traces per divide put the median op inside the trace class and the
    99th percentile inside the divide class.
    """
    for shape, build in (("random", random_instance), ("blocked", blocked_instance)):
        inst = build(rng, LARGE_LABELS)
        walker = RefWalker(inst)
        matching, cycles = walker.walk()
        _shape_props(plan, shape, LARGE_LABELS, cycles)
        infile = plan.write(f"large-{shape}", inst)
        outfile = str(plan.dir / f"out-{shape}.json")
        plan.op("divide", ["divide", "--in", infile, "--out", outfile], shape,
                out_file=outfile, out_digest=matching_digest(matching.items()), stdout_lines=LARGE_LABELS)
        for label in rng.sample(inst["X"], 2):
            bits = walker.trace(label, 0, FAR_LO, FAR_HI)
            plan.op("trace", ["trace", "--in", infile, "--label", label, "--bit", 0,
                              "--lo", FAR_LO, "--hi", FAR_HI], shape, stdout=bits + "\n")
    _finish_shape_props(plan)


def plan_search(plan: Plan, rng: random.Random) -> None:
    """One round: (3,7) serial twelve times, then (4,9) serial and with two jobs.

    Twelve of fourteen ops put the median op inside the (3,7) class and the
    99th percentile inside the (4,9) serial one.
    """
    for _ in range(12):
        plan.op("search-small", ["verify", "search", "--w", 3, "--d", 7, "--jobs", 1], stdout=search_text(3, 7))
    plan.op("search-serial", ["verify", "search", "--w", 4, "--d", 9, "--jobs", 1], stdout=search_text(4, 9))
    plan.op("search-jobs2", ["verify", "search", "--w", 4, "--d", 9, "--jobs", 2], stdout=search_text(4, 9))
    plan.props["search"] = {"w": 4, "d": 9}


def _random_word(rng: random.Random) -> str:
    return "".join(rng.choice("tTr") for _ in range(rng.randint(0, 64)))


def _random_seq(rng: random.Random) -> dict:
    core = [rng.randint(0, 1) for _ in range(rng.randint(0, 12))]
    return {"left": rng.randint(0, 1), "start": rng.randint(-20, 20), "core": core, "right": rng.randint(0, 1)}


def _random_chi(rng: random.Random):
    kind = rng.random()
    if kind < 0.2:
        return rng.choice(["-inf", "+inf"])
    if kind < 0.7:
        return rng.randint(-50, 50)
    return _random_seq(rng)


def _chi_arg(chi) -> str:
    return json.dumps(chi) if isinstance(chi, dict) else point_text(chi)


def plan_cli_mix(plan: Plan, rng: random.Random) -> None:
    """A seeded mix of short commands on small inputs, about 5% malformed."""
    insts = []
    for k in range(24):
        shape = "random" if k % 2 == 0 else "blocked"
        n = 4 * rng.randint(2, 50)
        inst = (random_instance if shape == "random" else blocked_instance)(rng, n)
        walker = RefWalker(inst)
        matching, cycles = walker.walk()
        _shape_props(plan, shape, n, cycles)
        good = {"pairs": [[x, y] for x, y in matching.items()]}
        xs = list(matching)
        bad = {"pairs": [[x, matching[xs[0]] if x == xs[1] else y] for x, y in matching.items()]}
        insts.append({
            "shape": shape, "inst": inst, "walker": walker, "matching": matching,
            "file": plan.write(f"small-{shape}", inst),
            "good": plan.write("match-good", good), "bad": plan.write("match-bad", bad),
            "out": str(plan.dir / f"out-small-{k}.json"),
        })
    _finish_shape_props(plan)
    rules = []
    for _ in range(24):
        rule = random_equivariant_rule(rng, rng.randint(0, 4), rng.choice([1, 3, 5, 7, 9]))
        rules.append((plan.write("rule", rule), lemma_text(rule)))
    dup = plan.write("bad-instance", {"X": ["a", "a"], "Y": ["c", "d"], "map": []})
    broken = plan.dir / "bad-json.json"
    broken.write_text('{"X": [')
    skew = plan.write("bad-rule", {"w": 0, "table": {"allzero": 1, "allone": 3}})
    malformed = [
        ["act", "txr", "0"],
        ["theta", "--chi", "nbar:0", "--n", "0", "--i", "2"],
        ["theta", "--chi", "nbar:zero", "--n", "0", "--i", "0"],
        ["verify", "parity", "--k", "2", "--N", "4"],
        ["verify", "search", "--w", "5", "--d", "7"],
        ["verify", "lemma", "--rule", skew],
        ["divide", "--in", dup],
        ["divide", "--in", str(broken)],
        ["trace", "--in", insts[0]["file"], "--label", "nosuch", "--bit", "0", "--lo", "0", "--hi", "3"],
        ["trace", "--in", insts[0]["file"], "--label", "x0", "--bit", "5", "--lo", "0", "--hi", "3"],
    ]

    classes = list(CLI_MIX_SHARES)
    weights = [CLI_MIX_SHARES[c] for c in classes]
    for cls in rng.choices(classes, weights, k=CLI_MIX_OPS):
        if cls == "act":
            word = _random_word(rng)
            target = rng.random()
            if target < 0.45:
                n = rng.randint(-10**6, 10**6)
                plan.op(cls, ["act", word, n], stdout=f"{act_on_int(word, n)}\n")
            elif target < 0.55:
                plan.op(cls, ["act", word], stdout=normal_form(word) + "\n")
            elif target < 0.85:
                p = rng.choice(["-inf", "+inf", rng.randint(-50, 50)])
                plan.op(cls, ["act", word, "--chi", point_text(p)], stdout=point_text(act_on_point(word, p)) + "\n")
            else:
                seq = _random_seq(rng)
                plan.op(cls, ["act", word, "--chi", json.dumps(seq)], stdout_json=act_on_seq(word, seq))
        elif cls == "theta":
            chi, n, i = _random_chi(rng), rng.randint(-200, 200), rng.randint(0, 1)
            plan.op(cls, ["theta", "--chi", _chi_arg(chi), "--n", n, "--i", i], stdout=theta_text(chi, n, i))
        elif cls == "parity":
            N = 2 * rng.randint(10, 5000)
            k = rng.choice([1, -1]) * (2 * rng.randint(0, min(N // 2 - 1, 50)) + 1)
            plan.op(cls, ["verify", "parity", "--k", k, "--N", N], stdout=parity_text(k, N))
        elif cls == "lemma":
            path, text = rng.choice(rules)
            plan.op(cls, ["verify", "lemma", "--rule", path], stdout=text)
        elif cls in ("divide", "matching", "trace"):
            it = rng.choice(insts)
            if cls == "divide":
                lines = "".join(f"{x} -> {y}\n" for x, y in it["matching"].items())
                plan.op(cls, ["divide", "--in", it["file"], "--out", it["out"]], it["shape"],
                        stdout=lines, out_file=it["out"], out_digest=matching_digest(it["matching"].items()))
            elif cls == "matching":
                if rng.random() < 0.8:
                    plan.op(cls, ["verify", "matching", "--inst", it["file"], "--match", it["good"]], it["shape"],
                            stdout=f"matching verified: {len(it['matching'])} pairs\n")
                else:
                    plan.op(cls, ["verify", "matching", "--inst", it["file"], "--match", it["bad"]], it["shape"],
                            code=1, stdout_prefix="matching INVALID: ")
            else:
                x = rng.choice(it["inst"]["X"])
                bit = rng.randint(0, 1)
                lo = rng.randint(-60, 60)
                hi = lo + rng.randint(0, 63)
                plan.op(cls, ["trace", "--in", it["file"], "--label", x, "--bit", bit, "--lo", lo, "--hi", hi],
                        it["shape"], stdout=it["walker"].trace(x, bit, lo, hi) + "\n")
        elif cls == "malformed":
            plan.op(cls, rng.choice(malformed), code=2, stdout="")
        else:
            jobs = 1 if cls == "search-j1" else 2
            plan.op(cls, ["verify", "search", "--w", 2, "--d", 7, "--jobs", jobs], stdout=search_text(2, 7))
    plan.props["search"] = {"w": 2, "d": 7}
    plan.props["shares"] = {c: sum(op["cls"] == c for op in plan.ops) / len(plan.ops) for c in classes}


def plan_defect_probes(plan: Plan) -> None:
    """Known input-hardening defects: these must exit 2 but raise TypeError at
    the time of writing.  They run outside the timed loop and are reported on
    their own, so that they stay visible without failing the workload."""
    inst = plan.write("defect-instance", {"X": ["a"], "Y": ["c"], "map": [[["a", 0], ["c", 0]], [["a", 1], ["c", 1]]]})
    probes = [
        ["verify", "matching", "--inst", inst, "--match", plan.write("defect-match", {"pairs": [[["a"], "c"]]})],
        ["verify", "lemma", "--rule", plan.write("defect-rule", {"w": "x", "table": {}})],
    ]
    plan.props["defect_probes"] = [
        {"cls": "defect", "shape": "", "argv": argv, "expect": {"code": 2, "stdout": ""}} for argv in probes]


PLANNERS = {"divide-large": plan_divide_large, "search": plan_search, "cli-mix": plan_cli_mix}


def make_plan(workload: str, seed: int, workdir: Path) -> Path:
    workdir.mkdir(parents=True, exist_ok=True)
    plan = Plan(workdir)
    PLANNERS[workload](plan, random.Random(f"{workload}:{seed}"))
    plan_defect_probes(plan)
    return plan.dump(workload, seed)
