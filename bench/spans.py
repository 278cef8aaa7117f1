"""In-memory span recording around the public names the CLI calls.

``Tracer.install`` replaces names in the package's module namespaces (and a
few class attributes) with wrappers that record ``(name, start, end,
parent)``; ``uninstall`` puts the originals back.  Nothing under ``src/``
is edited.  A target that no longer exists is listed in ``absent`` instead
of raising, so a refactor that removes a public name shows up as a missing
span rather than a crash.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

# (module, attribute path, span name).  The cli entries cover the helpers
# that read input and write output; the rest wrap the layer calls.
TARGETS = [
    ("div2.cli", "build_parser", "cli.parse"),
    ("div2.cli", "_load_json", "cli.load"),
    ("div2.cli", "_dump", "cli.emit"),
    ("div2.divider", "FinInstance.from_json", "divider.validate"),
    ("div2.cli", "divide", "divider.walk"),
    ("div2.cli", "chi_trace", "divider.trace"),
    ("div2.cli", "matching_violation", "divider.verify"),
    ("div2.cli", "eventually_linear", "localrules.lemma"),
    ("div2.cli", "parity_counts", "localrules.parity"),
    ("div2.cli", "exhaustive_search", "localrules.search"),
    ("div2.localrules", "iterate_verdicts", "localrules.slice"),
    ("div2.cli", "parse_zinf", "sequences.parse"),
    ("div2.sequences", "BiSeq.from_json", "sequences.parse"),
    ("div2.dihedral", "DihedralElt.from_word", "dihedral.act"),
    ("div2.dihedral", "DihedralElt.act_int", "dihedral.act"),
    ("div2.dihedral", "DihedralElt.act_seq", "dihedral.act"),
    ("div2.dihedral", "DihedralElt.act_zinf", "dihedral.act"),
    ("div2.cli", "theta", "theta.eval"),
    ("div2.cli", "window_radius", "theta.eval"),
]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, tag]
        self.stack = []
        self.tag = ""
        self.absent = []
        self._undo = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.tag])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(idx)

        return wrapper

    def wrap_gen(self, fn, name: str):
        """A generator function: the span runs from the first item to exhaustion."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.begin(name)
            tracer.spans[idx][4] = f"first={kwargs.get('first', args[2] if len(args) > 2 else None)}"
            tracer.stack.pop()  # a generator's items interleave with its caller's work
            try:
                yield from fn(*args, **kwargs)
            finally:
                tracer.spans[idx][2] = time.perf_counter()

        return wrapper

    def install(self, modules: dict) -> None:
        for modname, path, name in TARGETS:
            owner = modules[modname]
            *outer, attr = path.split(".")
            try:
                for part in outer:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (AttributeError, KeyError):
                self.absent.append(f"{modname}.{path}")
                continue
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(raw.__func__, name))
            elif name == "localrules.slice":
                new = self.wrap_gen(raw, name)
            else:
                new = self.wrap(raw, name)
                if name == "cli.parse":
                    new = self._wrap_parser(new)
            setattr(owner, attr, new)
            self._undo.append((owner, attr, raw))
        cli = modules["div2.cli"]
        # output reaches the user through print and Path.write_text
        self._inject(cli, "print", self.wrap(print, "cli.emit"))
        path_cls = getattr(cli, "Path", None)
        if isinstance(path_cls, type):
            emit = self.wrap(path_cls.write_text, "cli.emit")
            self._inject(cli, "Path", type("Path", (type(path_cls()),), {"write_text": emit}))

    def _inject(self, module, attr: str, value) -> None:
        self._undo.append((module, attr, module.__dict__.get(attr, _MISSING)))
        setattr(module, attr, value)

    def _wrap_parser(self, build):
        tracer = self

        @functools.wraps(build)
        def wrapper(*args, **kwargs):
            parser = build(*args, **kwargs)
            parser.parse_args = tracer.wrap(parser.parse_args, "cli.parse")
            return parser

        return wrapper

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)
        self._undo.clear()

    def dump(self, path: Path) -> None:
        names = ("name", "start", "end", "parent", "tag")
        path.write_text(json.dumps({"absent": self.absent, "spans": [dict(zip(names, s)) for s in self.spans]}))


_MISSING = object()
