"""Command-line front end: divide, theta, trace, act, verify.

Exit codes: 0 for success, 1 when a verification finds a result that should
be impossible, 2 for malformed input of any kind.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

from .dihedral import DihedralElt, ParityPoint
from .divider import (
    CopyElem,
    FinInstance,
    _check_label,
    _check_trace_range,
    chi_trace,
    divide,
    matching_violation,
)
from .localrules import (
    MAX_SEARCH_D,
    MAX_SEARCH_W,
    LinearTail,
    LocalRule,
    TailViolation,
    eventually_linear,
    exhaustive_search,
    parity_counts,
)
from .sequences import BiSeq, ZInf, embed, parse_zinf
from .theta import theta, window_radius


def _parse_json(data, source: str):
    """JSON from text, or from bytes in a detected UTF encoding.

    Every failure, too deep a nesting included, is a ValueError naming ``source``.
    """
    try:
        return json.loads(data)
    except ValueError as exc:  # JSONDecodeError, or bytes in no UTF encoding
        raise ValueError(f"{source}: not valid JSON: {exc}") from None
    except RecursionError:
        raise ValueError(f"{source}: JSON nested too deeply") from None


def _load_json(path: str):
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from None
    return _parse_json(data, path)


def _parse_chi(text: str) -> ZInf | BiSeq:
    """A parameter from nbar:K / +inf / -inf notation, or a sequence from inline JSON."""
    text = text.strip()
    if text.startswith("{"):
        return BiSeq.from_json(_parse_json(text, "--chi"))
    return parse_zinf(text)


def _dump(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def _find_label(positions: dict, text: str, side: str):
    """The label on one side that prints as ``text``: ``text`` itself or an int."""
    candidates = [text]
    try:
        candidates.append(int(text))
    except ValueError:  # not an integer, or past the int string conversion limit
        pass
    hits = [label for label in candidates if label in positions and str(label) == text]
    if not hits:
        raise ValueError(f"label {text!r} is not on the {side} side")
    if len(hits) > 1:
        raise ValueError(f"label {text!r} is ambiguous on the {side} side")
    return hits[0]


def _parse_matching(obj) -> dict:
    if not isinstance(obj, dict) or set(obj) != {"pairs"} or not isinstance(obj["pairs"], list):
        raise ValueError('matching must be an object {"pairs": [[x, y], ...]}')
    matching: dict = {}
    for pos, pair in enumerate(obj["pairs"]):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError(f"pairs[{pos}]: expected [x, y], got {pair!r}")
        x, y = (_check_label(label, "pairs[%d]", pos) for label in pair)
        if x in matching:
            raise ValueError(f"pairs[{pos}]: {x!r} is matched twice")
        matching[x] = y
    return matching


# Each command returns (exit code, the --json object, the plain-text stdout lines).


def _cmd_act(args):
    g = DihedralElt.from_word(args.word)
    payload = {"word": args.word, "reflect": g.reflect, "shift": g.shift}
    lines = []
    if args.n is not None:
        payload["n"] = g.act_int(args.n)
        lines.append(str(payload["n"]))
    if args.chi is not None:
        chi = _parse_chi(args.chi)
        if isinstance(chi, ZInf):
            image = g.act_zinf(chi)
            lines.append(str(image))
        else:
            image = g.act_seq(chi)
            lines.append(_dump(image.to_json()))
        payload["chi"] = image.to_json()
    return 0, payload, lines or [str(g)]


def _cmd_theta(args):
    chi = _parse_chi(args.chi)
    p = ParityPoint(args.n, args.i)
    result = theta(embed(chi) if isinstance(chi, ZInf) else chi, p)
    radius = window_radius(p)
    lo, _, hi = result.depends_on
    payload = {
        "n": result.point.n,
        "i": result.point.i,
        "depends_on": list(result.depends_on),
        "radius": radius,
    }
    return 0, payload, [str(result.point), f"depends on chi at indices {lo}..{hi}; agreement radius {radius}"]


def _trace(inst: FinInstance, side: str, text: str, bit: int, lo: int, hi: int) -> dict:
    """The copy bits from ``lo`` to ``hi`` along the orbit of the label that prints as ``text``."""
    label = _find_label(inst._xpos if side == "X" else inst._ypos, text, side)
    bits = chi_trace(inst, CopyElem(side, label, bit), lo, hi)
    return {"label": label, "bit": bit, "lo": lo, "hi": hi, "bits": bits}


def _cmd_trace(args):
    _check_trace_range(args.lo, args.hi)
    inst = FinInstance.from_json(_load_json(args.infile))
    trace = _trace(inst, args.side, args.label, args.bit, args.lo, args.hi)
    return 0, trace, [" ".join(str(b) for b in trace["bits"])]


def _cmd_divide(args):
    inst = FinInstance.from_json(_load_json(args.infile))
    if args.trace:
        # the trace is taken before the matching is computed, so a bad spec stops the command first
        parts = args.trace.split(",")
        if len(parts) != 4:
            raise ValueError(f"--trace wants label,bit,lo,hi, got {args.trace!r}")
        try:
            bit, lo, hi = (int(p) for p in parts[1:])
        except ValueError:
            raise ValueError(f"--trace wants integer bit,lo,hi, got {args.trace!r}") from None
        trace = _trace(inst, "X", parts[0].strip(), bit, lo, hi)
    matching = divide(inst)
    # json.dumps writes the tuples as arrays
    payload = {"pairs": list(matching.items())}
    if args.out:
        try:
            with open(args.out, "w") as f:
                f.write(_dump(payload) + "\n")
        except OSError as exc:
            raise ValueError(f"{args.out}: {exc.strerror or exc}") from None
    lines = [] if args.json else [f"{x} -> {y}" for x, y in matching.items()]  # main prints --json payloads
    if args.trace:
        payload["trace"] = trace
        lines.append(f"trace {trace['label']},{bit} on [{lo}, {hi}]: " + " ".join(str(b) for b in trace["bits"]))
    return 0, payload, lines


def _cmd_verify_lemma(args):
    rule = LocalRule.from_json(_load_json(args.rule))
    outcome = eventually_linear(rule)
    if isinstance(outcome, TailViolation):
        payload = {
            "verified": False,
            "n": outcome.n,
            "expected": outcome.expected,
            "actual": outcome.actual,
        }
        return 1, payload, [f"tail FAILS at n={outcome.n}: expected {outcome.expected}, got {outcome.actual}"]
    right = (outcome.N, outcome.N + 2 * rule.w + 4)
    left = (-outcome.N - 2 * rule.w - 4, -outcome.N)
    payload = {
        "verified": True,
        "k": outcome.k,
        "N": outcome.N,
        "right_window": list(right),
        "left_window": list(left),
    }
    return 0, payload, [
        f"tail displacement k={outcome.k}, bound N={outcome.N}",
        f"right tail n+{outcome.k} holds on ({right[0]}, {right[1]}]; "
        f"left tail n-{outcome.k} holds on [{left[0]}, {left[1]})",
        "eventual linearity: verified",
    ]


def _cmd_verify_parity(args):
    tail = LinearTail(args.k, args.N)
    evens, odds = parity_counts(tail)
    contradiction = evens % 2 == 1 and odds % 2 == 0
    payload = {"k": tail.k, "N": tail.N, "evens": evens, "odds": odds, "contradiction": contradiction}
    even_word = "odd" if evens % 2 else "even"
    odd_word = "odd" if odds % 2 else "even"
    verdict = "contradiction confirmed" if contradiction else "NO contradiction"
    line = f"evens={evens} ({even_word}), odds={odds} ({odd_word}): {verdict}"
    return 0 if contradiction else 1, payload, [line]


def _cmd_verify_search(args):
    report = exhaustive_search(args.w, args.d, jobs=args.jobs)
    lines = [
        f"search w={report.w} d={report.d}: candidates={report.candidates} "
        f"equivariant={report.equivariant} collisions={report.failed_collision} "
        f"gaps={report.failed_gap} survivors={len(report.survivors)}"
    ]
    lines += [f"SURVIVOR: {_dump(rule.to_json())}" for rule in report.survivors]
    if not report.survivors:
        lines.append("no equivariant local rule is bijective at this scale: confirmed")
    return 1 if report.survivors else 0, report.to_json(), lines


def _cmd_verify_matching(args):
    inst = FinInstance.from_json(_load_json(args.inst))
    matching = _parse_matching(_load_json(args.match))
    problem = matching_violation(inst, matching)
    payload = {"valid": problem is None, "pairs": len(matching), "problem": problem}
    if problem is None:
        return 0, payload, [f"matching verified: {len(matching)} pairs"]
    return 1, payload, [f"matching INVALID: {problem}"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="div2",
        description="Divide bijections by two, evaluate the even/odd pairing family, "
        "and verify the obstructions to doing it naively.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_act = sub.add_parser("act", help="apply a group word to an integer or a parameter")
    p_act.add_argument("word", help="word over t, T (= t inverse), r; empty for the identity")
    p_act.add_argument("n", nargs="?", type=int, default=None, help="integer to act on")
    p_act.add_argument("--chi", help="parameter to act on: nbar:K, +inf, -inf, or JSON")
    p_act.set_defaults(func=_cmd_act)

    p_theta = sub.add_parser("theta", help="evaluate the pairing map at one point")
    p_theta.add_argument("--chi", required=True, help="parameter: nbar:K, +inf, -inf, or JSON")
    p_theta.add_argument("--n", required=True, type=int)
    p_theta.add_argument("--i", required=True, type=int)
    p_theta.set_defaults(func=_cmd_theta)

    p_trace = sub.add_parser("trace", help="copy bits along an orbit of a finite instance")
    p_trace.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p_trace.add_argument("--label", required=True)
    p_trace.add_argument("--bit", required=True, type=int, choices=(0, 1))
    p_trace.add_argument("--lo", required=True, type=int)
    p_trace.add_argument("--hi", required=True, type=int)
    p_trace.add_argument("--side", choices=("X", "Y"), default="X")
    p_trace.set_defaults(func=_cmd_trace)

    p_div = sub.add_parser("divide", help="extract the canonical matching of an instance")
    p_div.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p_div.add_argument("--out", metavar="FILE", help="write the matching as JSON")
    p_div.add_argument("--trace", metavar="LABEL,BIT,LO,HI", help="also print one orbit trace")
    p_div.set_defaults(func=_cmd_divide)

    p_verify = sub.add_parser("verify", help="check the obstruction results")
    vsub = p_verify.add_subparsers(dest="check", required=True)

    p_lemma = vsub.add_parser("lemma", help="eventual linearity of an equivariant rule")
    p_lemma.add_argument("--rule", required=True, metavar="FILE")
    p_lemma.set_defaults(func=_cmd_verify_lemma)

    p_parity = vsub.add_parser("parity", help="the block-size parity contradiction")
    p_parity.add_argument("--k", required=True, type=int, help="odd tail displacement")
    p_parity.add_argument("--N", required=True, type=int, help="even tail bound, N > |k|")
    p_parity.set_defaults(func=_cmd_verify_parity)

    p_search = vsub.add_parser("search", help="exhaust a local-rule space")
    p_search.add_argument("--w", required=True, type=int, help=f"window radius (at most {MAX_SEARCH_W})")
    p_search.add_argument("--d", required=True, type=int, help=f"displacement bound (at most {MAX_SEARCH_D})")
    p_search.add_argument("--jobs", type=int, default=1)
    p_search.set_defaults(func=_cmd_verify_search)

    p_match = vsub.add_parser("matching", help="check a matching against its instance")
    p_match.add_argument("--inst", required=True, metavar="FILE")
    p_match.add_argument("--match", required=True, metavar="FILE")
    p_match.set_defaults(func=_cmd_verify_matching)

    # added last, so that every usage line and --help lists it after the command's own options
    for p in (p_act, p_theta, p_trace, p_div, p_lemma, p_parity, p_search, p_match):
        p.add_argument("--json", action="store_true")
    return parser


def _join_chi_values(argv):
    # argparse reads "-inf" after --chi as a flag; fold the value in
    out = []
    it = iter(argv)
    for tok in it:
        if tok == "--chi":
            val = next(it, None)
            out.append(tok if val is None else f"--chi={val}")
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    # parsed JSON, the divider's walk and the payloads hold no reference cycles, so collections during a
    # command find nothing; the parser's cycles wait for the caller's next one, once its GC state is back
    enabled = gc.isenabled()
    gc.disable()
    try:
        parser = build_parser()
        argv = sys.argv[1:] if argv is None else list(argv)
        args = parser.parse_args(_join_chi_values(argv))
        # argparse hands over "--opt=--" as an empty list, without type conversion
        for name, value in vars(args).items():
            if value == []:
                parser.error(f"argument {name}: '--' is not a value")
        try:
            code, payload, lines = args.func(args)
            if args.json:
                lines = [_dump(payload)]
        except ValueError as exc:  # InstanceError and NotReflectionEquivariant among them
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if lines:
            print("\n".join(lines))
        return code
    finally:
        if enabled:
            gc.enable()


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
