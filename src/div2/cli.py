"""Command-line front end: divide, theta, trace, act, verify.

Exit codes: 0 for success, 1 when a verification finds a result that should
be impossible, 2 for malformed input of any kind.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path

from .dihedral import DihedralElt, ParityPoint
from .divider import (
    CopyElem,
    FinInstance,
    InstanceError,
    _check_label,
    _check_trace_range,
    chi_trace,
    divide,
    matching_violation,
)
from .localrules import (
    LinearTail,
    LocalRule,
    NotReflectionEquivariant,
    TailViolation,
    eventually_linear,
    exhaustive_search,
    parity_counts,
)
from .sequences import BiSeq, embed, parse_zinf
from .theta import theta, window_radius


def _parse_chi(text: str) -> BiSeq:
    """A parameter sequence from nbar:K / +inf / -inf notation or inline JSON."""
    text = text.strip()
    if text.startswith("{"):
        return BiSeq.from_json(json.loads(text))
    return embed(parse_zinf(text))


def _load_json(path: str):
    # parsed JSON holds no reference cycles, so the collections that a large
    # file's many new containers would trigger find nothing
    enabled = gc.isenabled()
    gc.disable()
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from None
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from None
    finally:
        if enabled:
            gc.enable()


def _dump(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def _find_label(labels, text: str, side: str):
    hits = [label for label in labels if str(label) == text]
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
        x, y = (_check_label(label, f"pairs[{pos}]") for label in pair)
        if x in matching:
            raise ValueError(f"pairs[{pos}]: {x!r} is matched twice")
        matching[x] = y
    return matching


def _cmd_act(args) -> int:
    g = DihedralElt.from_word(args.word)
    if args.n is None and args.chi is None:
        if args.json:
            print(_dump({"word": args.word, "reflect": g.reflect, "shift": g.shift}))
        else:
            print(g)
        return 0
    payload = {"word": args.word, "reflect": g.reflect, "shift": g.shift}
    lines = []
    if args.n is not None:
        moved = g.act_int(args.n)
        payload["n"] = moved
        lines.append(str(moved))
    if args.chi is not None:
        text = args.chi.strip()
        if text.startswith("{"):
            image = g.act_seq(BiSeq.from_json(json.loads(text)))
            payload["chi"] = image.to_json()
            lines.append(_dump(image.to_json()))
        else:
            image = g.act_zinf(parse_zinf(text))
            payload["chi"] = image.to_json()
            lines.append(str(image))
    if args.json:
        print(_dump(payload))
    else:
        for line in lines:
            print(line)
    return 0


def _cmd_theta(args) -> int:
    chi = _parse_chi(args.chi)
    if args.i not in (0, 1):
        raise ValueError(f"--i must be 0 or 1, got {args.i}")
    p = ParityPoint(args.n, args.i)
    result = theta(chi, p)
    radius = window_radius(p)
    if args.json:
        print(
            _dump(
                {
                    "n": result.point.n,
                    "i": result.point.i,
                    "depends_on": list(result.depends_on),
                    "radius": radius,
                }
            )
        )
    else:
        print(result.point)
        lo, _, hi = result.depends_on
        print(f"depends on chi at indices {lo}..{hi}; agreement radius {radius}")
    return 0


def _cmd_trace(args) -> int:
    _check_trace_range(args.lo, args.hi)
    inst = FinInstance.from_json(_load_json(args.infile))
    side = args.side
    labels = inst.xs if side == "X" else inst.ys
    label = _find_label(labels, args.label, side)
    bits = chi_trace(inst, CopyElem(side, label, args.bit), args.lo, args.hi)
    if args.json:
        print(_dump({"label": label, "bit": args.bit, "lo": args.lo, "hi": args.hi, "bits": bits}))
    else:
        print(" ".join(str(b) for b in bits))
    return 0


def _cmd_divide(args) -> int:
    inst = FinInstance.from_json(_load_json(args.infile))
    if args.trace:
        # the whole --trace spec is checked before the matching is printed
        parts = args.trace.split(",")
        if len(parts) != 4:
            raise ValueError(f"--trace wants label,bit,lo,hi, got {args.trace!r}")
        label = _find_label(inst.xs, parts[0].strip(), "X")
        try:
            bit, lo, hi = (int(p) for p in parts[1:])
        except ValueError:
            raise ValueError(f"--trace wants integer bit,lo,hi, got {args.trace!r}") from None
        _check_trace_range(lo, hi)
        z = CopyElem("X", label, bit)
    matching = divide(inst)
    payload = {"pairs": [[x, y] for x, y in matching.items()]}
    if args.out:
        Path(args.out).write_text(_dump(payload) + "\n")
    if args.json:
        print(_dump(payload))
    else:
        for x, y in matching.items():
            print(f"{x} -> {y}")
    if args.trace:
        bits = chi_trace(inst, z, lo, hi)
        print(f"trace {label},{bit} on [{lo}, {hi}]: " + " ".join(str(b) for b in bits))
    return 0


def _cmd_verify_lemma(args) -> int:
    rule = LocalRule.from_json(_load_json(args.rule))
    outcome = eventually_linear(rule)
    if isinstance(outcome, TailViolation):
        if args.json:
            print(
                _dump(
                    {
                        "verified": False,
                        "n": outcome.n,
                        "expected": outcome.expected,
                        "actual": outcome.actual,
                    }
                )
            )
        else:
            print(
                f"tail FAILS at n={outcome.n}: expected {outcome.expected}, got {outcome.actual}"
            )
        return 1
    right = (outcome.N, outcome.N + 2 * rule.w + 4)
    left = (-outcome.N - 2 * rule.w - 4, -outcome.N)
    if args.json:
        print(
            _dump(
                {
                    "verified": True,
                    "k": outcome.k,
                    "N": outcome.N,
                    "right_window": list(right),
                    "left_window": list(left),
                }
            )
        )
    else:
        print(f"tail displacement k={outcome.k}, bound N={outcome.N}")
        print(
            f"right tail n+{outcome.k} holds on ({right[0]}, {right[1]}]; "
            f"left tail n-{outcome.k} holds on [{left[0]}, {left[1]})"
        )
        print("eventual linearity: verified")
    return 0


def _cmd_verify_parity(args) -> int:
    tail = LinearTail(args.k, args.N)
    evens, odds = parity_counts(tail)
    contradiction = evens % 2 == 1 and odds % 2 == 0
    if args.json:
        print(
            _dump(
                {
                    "k": tail.k,
                    "N": tail.N,
                    "evens": evens,
                    "odds": odds,
                    "contradiction": contradiction,
                }
            )
        )
    else:
        even_word = "odd" if evens % 2 else "even"
        odd_word = "odd" if odds % 2 else "even"
        verdict = "contradiction confirmed" if contradiction else "NO contradiction"
        print(f"evens={evens} ({even_word}), odds={odds} ({odd_word}): {verdict}")
    return 0 if contradiction else 1


def _cmd_verify_search(args) -> int:
    report = exhaustive_search(args.w, args.d, jobs=args.jobs)
    if args.json:
        print(_dump(report.to_json()))
    else:
        print(
            f"search w={report.w} d={report.d}: candidates={report.candidates} "
            f"equivariant={report.equivariant} collisions={report.failed_collision} "
            f"gaps={report.failed_gap} survivors={len(report.survivors)}"
        )
        if report.survivors:
            for rule in report.survivors:
                print(f"SURVIVOR: {_dump(rule.to_json())}")
        else:
            print("no equivariant local rule is bijective at this scale: confirmed")
    return 1 if report.survivors else 0


def _cmd_verify_matching(args) -> int:
    inst = FinInstance.from_json(_load_json(args.inst))
    matching = _parse_matching(_load_json(args.match))
    problem = matching_violation(inst, matching)
    if args.json:
        print(_dump({"valid": problem is None, "pairs": len(matching), "problem": problem}))
    else:
        if problem is None:
            print(f"matching verified: {len(matching)} pairs")
        else:
            print(f"matching INVALID: {problem}")
    return 0 if problem is None else 1


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
    p_act.add_argument("--json", action="store_true")
    p_act.set_defaults(func=_cmd_act)

    p_theta = sub.add_parser("theta", help="evaluate the pairing map at one point")
    p_theta.add_argument("--chi", required=True, help="parameter: nbar:K, +inf, -inf, or JSON")
    p_theta.add_argument("--n", required=True, type=int)
    p_theta.add_argument("--i", required=True, type=int)
    p_theta.add_argument("--json", action="store_true")
    p_theta.set_defaults(func=_cmd_theta)

    p_trace = sub.add_parser("trace", help="copy bits along an orbit of a finite instance")
    p_trace.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p_trace.add_argument("--label", required=True)
    p_trace.add_argument("--bit", required=True, type=int, choices=(0, 1))
    p_trace.add_argument("--lo", required=True, type=int)
    p_trace.add_argument("--hi", required=True, type=int)
    p_trace.add_argument("--side", choices=("X", "Y"), default="X")
    p_trace.add_argument("--json", action="store_true")
    p_trace.set_defaults(func=_cmd_trace)

    p_div = sub.add_parser("divide", help="extract the canonical matching of an instance")
    p_div.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p_div.add_argument("--out", metavar="FILE", help="write the matching as JSON")
    p_div.add_argument("--trace", metavar="LABEL,BIT,LO,HI", help="also print one orbit trace")
    p_div.add_argument("--json", action="store_true")
    p_div.set_defaults(func=_cmd_divide)

    p_verify = sub.add_parser("verify", help="check the obstruction results")
    vsub = p_verify.add_subparsers(dest="check", required=True)

    p_lemma = vsub.add_parser("lemma", help="eventual linearity of an equivariant rule")
    p_lemma.add_argument("--rule", required=True, metavar="FILE")
    p_lemma.add_argument("--json", action="store_true")
    p_lemma.set_defaults(func=_cmd_verify_lemma)

    p_parity = vsub.add_parser("parity", help="the block-size parity contradiction")
    p_parity.add_argument("--k", required=True, type=int, help="odd tail displacement")
    p_parity.add_argument("--N", required=True, type=int, help="even tail bound, N > |k|")
    p_parity.add_argument("--json", action="store_true")
    p_parity.set_defaults(func=_cmd_verify_parity)

    p_search = vsub.add_parser("search", help="exhaust a local-rule space")
    p_search.add_argument("--w", required=True, type=int, help="window radius (at most 4)")
    p_search.add_argument("--d", required=True, type=int, help="displacement bound (at most 9)")
    p_search.add_argument("--jobs", type=int, default=1)
    p_search.add_argument("--json", action="store_true")
    p_search.set_defaults(func=_cmd_verify_search)

    p_match = vsub.add_parser("matching", help="check a matching against its instance")
    p_match.add_argument("--inst", required=True, metavar="FILE")
    p_match.add_argument("--match", required=True, metavar="FILE")
    p_match.add_argument("--json", action="store_true")
    p_match.set_defaults(func=_cmd_verify_matching)

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
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_join_chi_values(argv))
    # argparse hands over "--opt=--" as an empty list, without type conversion
    for name, value in vars(args).items():
        if value == []:
            parser.error(f"argument {name}: '--' is not a value")
    try:
        return args.func(args)
    except (InstanceError, NotReflectionEquivariant, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
