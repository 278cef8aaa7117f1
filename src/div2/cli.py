"""Command-line front end: divide, theta, trace, act, verify.

Exit codes: 0 for success, 1 when a verification finds a result that should
be impossible, 2 for malformed input of any kind, a run out of memory or a
failed write to stdout, ``--help``'s included (a full disk, a closed stdout,
or text that stdout's encoding cannot hold), 130 when the user interrupts
the run, and 141 when the reader of stdout closes it early.  Every
``error:`` line goes through ``_error``, which drops it when stderr is
closed or full; the code stays.

``json`` is imported on first use, by a command that reads a file, takes a
JSON ``--chi`` or prints ``--json``.  ``act`` and ``theta`` with a threshold
``--chi``, ``verify parity`` and a text-mode ``verify search`` never load it.

The library modules are imported the same way, by the functions that use
them, since every command is a fresh process.  Importing this module and
building the parser (``--help`` too) load none of them.  ``act`` loads
``dihedral`` and ``sequences``, and ``theta`` those and ``theta``.
``divide``, ``trace`` and ``verify matching`` load ``divider`` and
``sequences``.  ``verify lemma``, ``parity`` and ``search`` load
``localrules``, ``dihedral`` and ``sequences``.

``build_parser`` makes the ``div2`` parser, with its ``-h`` action, and
registers one parser per command with its help line, not yet initialized.
argparse initializes a command's parser, and adds its ``-h`` and own
arguments, and for ``verify`` its checks' parsers, when it dispatches to that
parser, so a run initializes the parser of the command it runs and no other.
Every parser adds its ``-h`` itself, with argparse's help text, which
argparse would otherwise look up through ``gettext`` once per parser.  The
help width is still read from the terminal once per build.
"""

from __future__ import annotations

import argparse
import errno
import functools
import gc
import os
import shutil
import sys


def _error(message: str) -> None:
    """Write ``error: message`` to stderr, or drop it when stderr cannot take it: the exit code still tells."""
    try:
        print(f"error: {message}", file=sys.stderr)
    except OSError:  # a closed or full stderr
        pass


def _parse_json(data, source: str):
    """JSON from text, or from bytes in a detected UTF encoding.

    Every failure, too deep a nesting included, is a ValueError naming ``source``.
    """
    import json  # here and in _dump, so that commands without JSON input or output never load it

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


def _parse_chi(text: str):
    """A ZInf parameter from nbar:K / +inf / -inf notation, or a BiSeq sequence from inline JSON."""
    from .sequences import BiSeq, parse_zinf

    text = text.strip()
    if text.startswith("{"):
        return BiSeq.from_json(_parse_json(text, "--chi"))
    return parse_zinf(text)


def _dump(payload) -> str:
    import json

    return json.dumps(payload, sort_keys=True)


def _find_label(positions: dict, text: str, side: str):
    """The label on one side that prints as ``text``: ``text`` itself or an int."""
    try:
        candidates = {text, int(text)}
    except ValueError:  # not an integer, or past the int string conversion limit
        candidates = {text}
    hits = [label for label in candidates & positions.keys() if str(label) == text]
    if not hits:
        raise ValueError(f"label {text!r} is not on the {side} side")
    if len(hits) > 1:
        raise ValueError(f"label {text!r} is ambiguous on the {side} side")
    return hits[0]


def _parse_matching(obj) -> dict:
    from .divider import _check_label

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
    from .dihedral import DihedralElt
    from .sequences import ZInf

    g = DihedralElt.from_word(args.word)
    payload = {"word": args.word, **vars(g)}
    lines = []
    if args.n is not None:
        payload["n"] = g.act_int(args.n)
        lines.append(str(payload["n"]))
    if args.chi is not None:
        chi = _parse_chi(args.chi)
        image = g.act_zinf(chi) if isinstance(chi, ZInf) else g.act_seq(chi)
        payload["chi"] = image.to_json()
        lines.append(str(image) if isinstance(image, ZInf) else _dump(payload["chi"]))
    return 0, payload, lines or [str(g)]


def _cmd_theta(args):
    from .dihedral import ParityPoint
    from .sequences import ZInf, embed
    from .theta import theta, window_radius

    chi = _parse_chi(args.chi)
    p = ParityPoint(args.n, args.i)
    result = theta(embed(chi) if isinstance(chi, ZInf) else chi, p)
    radius = window_radius(p)
    lo, _, hi = result.depends_on
    payload = {**vars(result.point), "depends_on": list(result.depends_on), "radius": radius}
    return 0, payload, [str(result.point), f"depends on chi at indices {lo}..{hi}; agreement radius {radius}"]


def _trace(inst, side: str, text: str, bit: int, lo: int, hi: int) -> dict:
    """The copy bits from ``lo`` to ``hi`` along the orbit of the label printed as ``text`` in FinInstance ``inst``."""
    from .divider import CopyElem, chi_trace

    label = _find_label(inst._xpos if side == "X" else inst._ypos, text, side)
    bits = chi_trace(inst, CopyElem(side, label, bit), lo, hi)
    return {"label": label, "bit": bit, "lo": lo, "hi": hi, "bits": bits}


def _cmd_trace(args):
    from .divider import FinInstance, _check_trace_range

    _check_trace_range(args.lo, args.hi)
    inst = FinInstance.from_json(_load_json(args.infile))
    trace = _trace(inst, args.side, args.label, args.bit, args.lo, args.hi)
    return 0, trace, [" ".join(str(b) for b in trace["bits"])]


def _cmd_divide(args):
    from .divider import FinInstance, _check_trace_range, divide

    if args.trace:
        # the spec and its range are checked before the instance is read, as trace does
        parts = args.trace.split(",")
        if len(parts) != 4:
            raise ValueError(f"--trace wants label,bit,lo,hi, got {args.trace!r}")
        try:
            bit, lo, hi = (int(p) for p in parts[1:])
        except ValueError:
            raise ValueError(f"--trace wants integer bit,lo,hi, got {args.trace!r}") from None
        _check_trace_range(lo, hi)
    inst = FinInstance.from_json(_load_json(args.infile))
    if args.trace:
        # the trace is taken before the matching is computed, so a bad label or bit stops the command first
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
    from .localrules import LocalRule, TailViolation, _tail_windows, eventually_linear

    rule = LocalRule.from_json(_load_json(args.rule))
    outcome = eventually_linear(rule)
    if isinstance(outcome, TailViolation):
        line = f"tail FAILS at n={outcome.n}: expected {outcome.expected}, got {outcome.actual}"
        return 1, {"verified": False, **vars(outcome)}, [line]
    right, left = _tail_windows(rule.w, outcome.N)
    payload = {"verified": True, **vars(outcome), "right_window": list(right), "left_window": list(left)}
    return 0, payload, [
        f"tail displacement k={outcome.k}, bound N={outcome.N}",
        f"right tail n+{outcome.k} holds on ({right[0]}, {right[1]}]; "
        f"left tail n-{outcome.k} holds on [{left[0]}, {left[1]})",
        "eventual linearity: verified",
    ]


def _cmd_verify_parity(args):
    from .localrules import LinearTail, parity_counts

    tail = LinearTail(args.k, args.N)
    evens, odds = parity_counts(tail)
    contradiction = evens % 2 == 1 and odds % 2 == 0
    payload = {**vars(tail), "evens": evens, "odds": odds, "contradiction": contradiction}
    even_word = "odd" if evens % 2 else "even"
    odd_word = "odd" if odds % 2 else "even"
    verdict = "contradiction confirmed" if contradiction else "NO contradiction"
    line = f"evens={evens} ({even_word}), odds={odds} ({odd_word}): {verdict}"
    return 0 if contradiction else 1, payload, [line]


def _cmd_verify_search(args):
    from .localrules import exhaustive_search

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
    from .divider import FinInstance, matching_violation

    inst = FinInstance.from_json(_load_json(args.inst))
    matching = _parse_matching(_load_json(args.match))
    problem = matching_violation(inst, matching)
    payload = {"valid": problem is None, "pairs": len(matching), "problem": problem}
    if problem is None:
        return 0, payload, [f"matching verified: {len(matching)} pairs"]
    return 1, payload, [f"matching INVALID: {problem}"]


# argparse's own text for -h, the same in 3.10 to 3.13
_HELP = "show this help message and exit"


class _CommandParser(argparse.ArgumentParser):
    """A div2 parser, which gets its arguments when argparse first dispatches to it.

    argparse's subparsers action calls the chosen parser's ``parse_known_args``,
    and that adds the ``-h, --help`` action and runs ``fill(self)`` once,
    before it parses: the parsers of the commands not run never get theirs.
    ``fill`` returns the function the command runs, or None for ``verify``,
    whose checks are parsers of their own.  The top-level ``div2`` parser has
    no ``fill`` and adds its ``-h`` when built.  Any parser that prints help,
    usage or an error has added its ``-h`` first, so that text is argparse's.
    The command parsers are ``_DeferredParser``s, which run this ``__init__``
    at that dispatch too.

    Every parser adds its ``-h`` itself, with argparse's text, where argparse
    would look that text up through ``gettext`` for each parser built.
    """

    def __init__(self, *, fill=None, **kwargs):
        super().__init__(add_help=False, **kwargs)
        self._fill = fill
        if fill is None:
            self._add_help()

    def _add_help(self):
        self.add_argument("-h", "--help", action="help", default=argparse.SUPPRESS, help=_HELP)

    def _print_message(self, message, file=None):
        if file is sys.stdout:  # argparse drops a failed write, from 3.11 on; run must see this one to exit 2
            file.write(message)
        else:
            super()._print_message(message, file)

    def parse_known_args(self, args=None, namespace=None):
        fill, self._fill = self._fill, None  # once: argparse rejects an option string added twice
        if fill is not None:
            self._add_help()  # first, as argparse adds it
            if (func := fill(self)) is not None:
                # added last, so that every usage line and --help lists it after the command's own options
                self.add_argument("--json", action="store_true")
                self.set_defaults(func=func)
        return super().parse_known_args(args, namespace)


class _DeferredParser(_CommandParser):
    """A command parser whose ``ArgumentParser.__init__`` too waits for argparse's first dispatch to it.

    Until then it holds only the keyword arguments of ``add_parser``: no
    action container, group or registry, and neither of the two ``gettext``
    lookups of the group titles.  argparse's subparsers action only stores
    the parser in its choices and, on dispatch, calls ``parse_known_args``,
    which runs ``_CommandParser.__init__`` first, once.
    """

    def __init__(self, **kwargs):
        self._kwargs = kwargs

    def parse_known_args(self, args=None, namespace=None):
        kwargs, self._kwargs = self._kwargs, None
        if kwargs is not None:
            super().__init__(**kwargs)
        return super().parse_known_args(args, namespace)


def _act_arguments(p):
    p.add_argument("word", help="word over t, T (= t inverse), r; empty for the identity")
    p.add_argument("n", nargs="?", type=int, default=None, help="integer to act on")
    p.add_argument("--chi", help="parameter to act on: nbar:K, +inf, -inf, or JSON")
    return _cmd_act


def _theta_arguments(p):
    p.add_argument("--chi", required=True, help="parameter: nbar:K, +inf, -inf, or JSON")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--i", required=True, type=int)
    return _cmd_theta


def _trace_arguments(p):
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.add_argument("--label", required=True)
    p.add_argument("--bit", required=True, type=int, choices=(0, 1))
    p.add_argument("--lo", required=True, type=int)
    p.add_argument("--hi", required=True, type=int)
    p.add_argument("--side", choices=("X", "Y"), default="X")
    return _cmd_trace


def _divide_arguments(p):
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.add_argument("--out", metavar="FILE", help="write the matching as JSON")
    p.add_argument("--trace", metavar="LABEL,BIT,LO,HI", help="also print one orbit trace")
    return _cmd_divide


def _verify_checks(p):
    # all four checks are initialized here and filled only when dispatched to: deferring their __init__ as well
    # waits on the bench fix (ROADMAP item 1), since the bench's per-op records of the faster ops lift search's
    # peak_rss_mb to its 10% bound.  Their help is formatted at the width that build_parser read.
    command = functools.partial(_CommandParser, formatter_class=p.formatter_class)
    checks = p.add_subparsers(dest="check", required=True, parser_class=command)
    checks.add_parser("lemma", help="eventual linearity of an equivariant rule", fill=_lemma_arguments)
    checks.add_parser("parity", help="the block-size parity contradiction", fill=_parity_arguments)
    checks.add_parser("search", help="exhaust a local-rule space", fill=_search_arguments)
    checks.add_parser("matching", help="check a matching against its instance", fill=_matching_arguments)


def _lemma_arguments(p):
    p.add_argument("--rule", required=True, metavar="FILE")
    return _cmd_verify_lemma


def _parity_arguments(p):
    p.add_argument("--k", required=True, type=int, help="odd tail displacement")
    p.add_argument("--N", required=True, type=int, help="even tail bound, N > |k|")
    return _cmd_verify_parity


def _search_arguments(p):
    from .localrules import MAX_SEARCH_D, MAX_SEARCH_W

    p.add_argument("--w", required=True, type=int, help=f"window radius (at most {MAX_SEARCH_W})")
    p.add_argument("--d", required=True, type=int, help=f"displacement bound (at most {MAX_SEARCH_D})")
    p.add_argument("--jobs", type=int, default=1)
    return _cmd_verify_search


def _matching_arguments(p):
    p.add_argument("--inst", required=True, metavar="FILE")
    p.add_argument("--match", required=True, metavar="FILE")
    return _cmd_verify_matching


def build_parser() -> argparse.ArgumentParser:
    """The ``div2`` parser, with one parser per command that is initialized when it first parses.

    A command's parser (``_DeferredParser``) runs ``ArgumentParser.__init__``
    and adds its ``-h`` and arguments when argparse dispatches to it, not
    here; the top-level usage lists the commands from the subparsers action's
    choices, which hold all five from the start.  The help width is read
    from the terminal once, when the parser is built, and every parser filled
    later formats at that width: argparse would ask again for every help
    formatter it makes, and it computes the same width.
    """
    # what HelpFormatter computes itself when it is given no width
    formatter = functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = _CommandParser(
        prog="div2",
        description="Divide bijections by two, evaluate the even/odd pairing family, "
        "and verify the obstructions to doing it naively.",
        formatter_class=formatter,
    )
    command = functools.partial(_DeferredParser, formatter_class=formatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=command)
    sub.add_parser("act", help="apply a group word to an integer or a parameter", fill=_act_arguments)
    sub.add_parser("theta", help="evaluate the pairing map at one point", fill=_theta_arguments)
    sub.add_parser("trace", help="copy bits along an orbit of a finite instance", fill=_trace_arguments)
    sub.add_parser("divide", help="extract the canonical matching of an instance", fill=_divide_arguments)
    sub.add_parser("verify", help="check the obstruction results", fill=_verify_checks)
    return parser


def _join_chi_values(argv):
    """``argv`` with each ``--chi VALUE`` folded into ``--chi=VALUE``, and the first ``--name=--`` option or None.

    argparse reads "-inf" after --chi as a flag, so the value is folded in.
    argparse 3.10 to 3.12 hands over ``--name=--`` as an empty list and 3.13
    as the text ``--``, so it is found here instead.  Every token after a
    bare ``--`` is a positional and stays as it is.
    """
    out = []
    it = iter(argv)
    for tok in it:
        if tok == "--":
            return [*out, tok, *it], None
        if tok == "--chi":
            val = next(it, None)
            tok = tok if val is None else f"--chi={val}"
        name, _, value = tok.partition("=")
        if name.startswith("--") and len(name) > 2 and value == "--":
            return out, name
        out.append(tok)
    return out, None


def main(argv=None) -> int:
    # parsed JSON, the divider's walk and the payloads hold no reference cycles, so collections during a
    # command find nothing; the parser's cycles wait for the caller's next one, once its GC state is back
    enabled = gc.isenabled()
    gc.disable()
    try:
        parser = build_parser()
        argv, dashed = _join_chi_values(sys.argv[1:] if argv is None else argv)
        if dashed is not None:
            parser.error(f"argument {dashed}: '--' is not a value")
        args = parser.parse_args(argv)
        try:
            code, payload, lines = args.func(args)
            if args.json:
                lines = [_dump(payload)]
        except ValueError as exc:  # InstanceError and NotReflectionEquivariant among them
            _error(str(exc))
            return 2
        if lines:
            print("\n".join(lines))
        return code
    except MemoryError:
        _error("out of memory")
        return 2
    finally:
        if enabled:
            gc.enable()


def run() -> None:
    if sys.stderr is None:  # fd 2 was closed at start-up, and print and argparse would write errors to stdout
        sys.stderr = open(os.devnull, "w")
    try:
        if sys.stdout is None:  # fd 1 was closed at start-up, so print would drop the output
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        try:
            code = main()
        except SystemExit as exc:  # argparse's exit after --help or a usage error: its help still needs the flush
            code = exc.code
        sys.stdout.flush()
    except (OSError, UnicodeEncodeError) as exc:
        # a reader that stopped early gets 141 = 128 + SIGPIPE, what a shell reports for a writer that the pipe
        # ended; any other failed write (a full disk, or text that stdout's encoding cannot hold) is an error
        if not isinstance(exc, BrokenPipeError):
            _error(f"stdout: {getattr(exc, 'strerror', None) or exc}")
        # with fd 1 on devnull the interpreter's last flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        code = 141 if isinstance(exc, BrokenPipeError) else 2
    except KeyboardInterrupt:
        code = 130  # 128 + SIGINT
    try:
        sys.stderr.flush()
    except OSError:  # a closed or full stderr still holds the error line that _error or argparse could not write
        os.dup2(os.open(os.devnull, os.O_WRONLY), 2)
    raise SystemExit(code)


if __name__ == "__main__":
    run()
