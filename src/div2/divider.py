"""Finite division by two, without choices.

Given a bijection f between X x {0,1} and Y x {0,1}, two involutions live
on the disjoint union of all copies: the swap ``theta`` applies f in
whichever direction is defined, and the flip ``phi`` toggles the copy bit.
Every copy meets exactly one edge of each, so the copies tile into cycles
that alternate a pair of X copies with a pair of Y copies.  Walking each
cycle from its least copy in the swap-then-flip direction lists labels
alternately from X and Y; pairing consecutive labels yields a bijection
X -> Y that depends only on f and the label order, never on input order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

Label = Union[str, int]

X_SIDE = "X"
Y_SIDE = "Y"


class InstanceError(ValueError):
    """An instance failed validation; the message says where."""


def _label_key(label: Label) -> tuple:
    return (type(label).__name__, label)


def _check_label(label, where: str) -> Label:
    if isinstance(label, bool) or not isinstance(label, (str, int)):
        raise InstanceError(f"{where}: labels must be strings or integers, got {label!r}")
    return label


@dataclass(frozen=True)
class CopyElem:
    """One copy of a label: a side, the label, and the copy bit."""

    side: str
    label: Label
    bit: int

    def __post_init__(self):
        if self.side not in (X_SIDE, Y_SIDE):
            raise ValueError(f"side must be {X_SIDE!r} or {Y_SIDE!r}, got {self.side!r}")
        _check_label(self.label, "copy")
        if self.bit not in (0, 1):
            raise ValueError(f"copy bit must be 0 or 1, got {self.bit!r}")

    def sort_key(self) -> tuple:
        return (self.side, *_label_key(self.label), self.bit)


def phi(z: CopyElem) -> CopyElem:
    """Flip the copy bit."""
    return CopyElem(z.side, z.label, 1 - z.bit)


def _as_pair(obj, pos: int, role: str) -> tuple:
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise InstanceError(f"map entry {pos}: {role} must be a [label, bit] pair, got {obj!r}")
    label = _check_label(obj[0], f"map entry {pos} ({role})")
    bit = obj[1]
    if bit not in (0, 1):
        raise InstanceError(f"map entry {pos}: {role} bit must be 0 or 1, got {bit!r}")
    return (label, bit)


class FinInstance:
    """A finite division problem: label sets X, Y and a bijection on copies.

    Validation is eager and total: duplicate labels, size mismatches, and
    any failure of the copy map to be a bijection from X x {0,1} onto
    Y x {0,1} raise InstanceError naming the offending entry.
    """

    def __init__(self, xs: Iterable[Label], ys: Iterable[Label], mapping):
        self.xs = tuple(xs)
        self.ys = tuple(ys)
        self._check_side(self.xs, "X")
        self._check_side(self.ys, "Y")
        if len(self.xs) != len(self.ys):
            raise InstanceError(
                f"|X| = {len(self.xs)} but |Y| = {len(self.ys)}: the copy map cannot be a bijection"
            )
        pairs = list(mapping.items()) if isinstance(mapping, dict) else list(mapping)
        xset, yset = set(self.xs), set(self.ys)
        fwd: dict = {}
        rev: dict = {}
        for pos, entry in enumerate(pairs):
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise InstanceError(f"map entry {pos}: expected [source, target], got {entry!r}")
            src = _as_pair(entry[0], pos, "source")
            dst = _as_pair(entry[1], pos, "target")
            if src[0] not in xset:
                raise InstanceError(f"map entry {pos}: source label {src[0]!r} is not in X")
            if dst[0] not in yset:
                raise InstanceError(f"map entry {pos}: target label {dst[0]!r} is not in Y")
            if src in fwd:
                raise InstanceError(f"map entry {pos}: source {src!r} already mapped")
            if dst in rev:
                raise InstanceError(f"map entry {pos}: target {dst!r} already hit from {rev[dst]!r}")
            fwd[src] = dst
            rev[dst] = src
        if len(fwd) != 2 * len(self.xs):
            for x in self.xs:
                for i in (0, 1):
                    if (x, i) not in fwd:
                        raise InstanceError(f"copy ({x!r}, {i}) of X has no image")
        self._fwd = fwd
        self._rev = rev

    @staticmethod
    def _check_side(labels: tuple, side: str) -> None:
        seen: dict = {}
        for pos, label in enumerate(labels):
            _check_label(label, f"{side}[{pos}]")
            if label in seen:
                raise InstanceError(f"{side}[{pos}]: duplicate label {label!r} (first at {seen[label]})")
            seen[label] = pos

    def __len__(self) -> int:
        return len(self.xs)

    def theta(self, z: CopyElem) -> CopyElem:
        """Apply the copy bijection in whichever direction is defined at ``z``."""
        if z.side == X_SIDE:
            key = (z.label, z.bit)
            if key not in self._fwd:
                raise InstanceError(f"copy {key!r} is not in this instance's X side")
            label, bit = self._fwd[key]
            return CopyElem(Y_SIDE, label, bit)
        key = (z.label, z.bit)
        if key not in self._rev:
            raise InstanceError(f"copy {key!r} is not in this instance's Y side")
        label, bit = self._rev[key]
        return CopyElem(X_SIDE, label, bit)

    def sigma(self, z: CopyElem) -> CopyElem:
        """One forward step: swap, then flip."""
        return phi(self.theta(z))

    def sigma_inv(self, z: CopyElem) -> CopyElem:
        """One backward step: flip, then swap."""
        return self.theta(phi(z))

    def copies(self) -> list:
        """All copies in canonical order: X before Y, labels sorted, bit last."""
        out = [CopyElem(X_SIDE, x, b) for x in self.xs for b in (0, 1)]
        out += [CopyElem(Y_SIDE, y, b) for y in self.ys for b in (0, 1)]
        out.sort(key=CopyElem.sort_key)
        return out

    def to_json(self) -> dict:
        entries = sorted(self._fwd.items(), key=lambda kv: (_label_key(kv[0][0]), kv[0][1]))
        return {
            "X": list(self.xs),
            "Y": list(self.ys),
            "map": [[[x, i], [y, j]] for (x, i), (y, j) in entries],
        }

    @classmethod
    def from_json(cls, obj) -> "FinInstance":
        if not isinstance(obj, dict):
            raise InstanceError(f"instance must be an object, got {type(obj).__name__}")
        missing = {"X", "Y", "map"} - set(obj)
        if missing:
            raise InstanceError(f"missing instance fields: {sorted(missing)}")
        extra = set(obj) - {"X", "Y", "map"}
        if extra:
            raise InstanceError(f"unknown instance fields: {sorted(extra)}")
        if not isinstance(obj["X"], list) or not isinstance(obj["Y"], list):
            raise InstanceError("X and Y must be arrays of labels")
        if not isinstance(obj["map"], list):
            raise InstanceError("map must be an array of [source, target] pairs")
        return cls(obj["X"], obj["Y"], obj["map"])


def chi_trace(inst: FinInstance, z: CopyElem, lo: int, hi: int) -> list:
    """Copy bits along the forward orbit of ``z``, from iterate ``lo`` to ``hi``.

    Entry ``k - lo`` is the bit of the ``k``-th forward iterate of ``z``
    (negative ``k`` steps backward).
    """
    if lo > hi:
        raise ValueError(f"empty trace range: lo={lo} > hi={hi}")
    cur = z
    for _ in range(abs(lo)):
        cur = inst.sigma(cur) if lo > 0 else inst.sigma_inv(cur)
    bits = []
    for _ in range(lo, hi + 1):
        bits.append(cur.bit)
        cur = inst.sigma(cur)
    return bits


def sigma_orbits(inst: FinInstance) -> list:
    """Forward-step orbits, each listed from its least copy, sorted by that copy."""
    seen = set()
    orbits = []
    for v in inst.copies():
        if v in seen:
            continue
        orbit = [v]
        cur = inst.sigma(v)
        while cur != v:
            orbit.append(cur)
            cur = inst.sigma(cur)
        seen.update(orbit)
        orbits.append(orbit)
    return orbits


def divide(inst: FinInstance) -> dict:
    """The canonical bijection X -> Y induced by the instance's copy bijection.

    Each swap/flip cycle is entered at its least copy -- necessarily on the
    X side -- and walked forward; labels along the walk alternate sides, and
    consecutive (X, Y) labels are matched.  Relabeling-equivariant and
    independent of the order X, Y, or the map entries were given in.
    """
    matching: dict = {}
    seen = set()
    for v in inst.copies():
        if v in seen:
            continue
        orbit = [v]
        cur = inst.sigma(v)
        while cur != v:
            orbit.append(cur)
            cur = inst.sigma(cur)
        for u in orbit:
            # the walk meets one copy of every label in the cycle; the flipped
            # copies close the same cycle, so mark both
            seen.add(u)
            seen.add(phi(u))
        for j in range(0, len(orbit), 2):
            xe, ye = orbit[j], orbit[j + 1]
            if xe.side != X_SIDE or ye.side != Y_SIDE:
                raise RuntimeError(f"cycle through {xe} does not alternate X and Y copies")
            matching[xe.label] = ye.label
    return dict(sorted(matching.items(), key=lambda kv: _label_key(kv[0])))


def matching_violation(inst: FinInstance, matching: dict) -> str | None:
    """Why ``matching`` is not a bijection from X onto Y, or None if it is."""
    for x in inst.xs:
        if x not in matching:
            return f"X label {x!r} is unmatched"
    xset = set(inst.xs)
    for x in matching:
        if x not in xset:
            return f"matched label {x!r} is not in X"
    yset = set(inst.ys)
    hit: dict = {}
    for x in sorted(matching, key=_label_key):
        y = matching[x]
        if y not in yset:
            return f"{x!r} is matched to {y!r}, which is not in Y"
        if y in hit:
            return f"Y label {y!r} is matched twice (from {hit[y]!r} and {x!r})"
        hit[y] = x
    return None


def verify_matching(inst: FinInstance, matching: dict) -> bool:
    """Whether ``matching`` is a total bijection from the instance's X onto its Y."""
    return matching_violation(inst, matching) is None


def theta_cyclic_instance(bits) -> FinInstance:
    """Wrap the three-point pairing formula around a cycle.

    ``bits`` is a parameter table on Z/M for even M >= 2; evens become X
    labels and odds Y labels, and the copy map sends (n, i) to
    (n+1, 1 - bits[n+1]) when i = bits[n], else to (n-1, bits[n-1]), with
    indices mod M.  The formula is still its own inverse on the cycle, so
    the result is always a valid instance.
    """
    bits = tuple(bits)
    if len(bits) < 2 or len(bits) % 2 != 0:
        raise ValueError(f"need an even number of entries >= 2, got {len(bits)}")
    for pos, b in enumerate(bits):
        if b not in (0, 1):
            raise ValueError(f"entry {pos} must be 0 or 1, got {b!r}")
    size = len(bits)
    mapping = []
    for n in range(0, size, 2):
        for i in (0, 1):
            if i == bits[n]:
                m = (n + 1) % size
                mapping.append([[n, i], [m, 1 - bits[m]]])
            else:
                m = (n - 1) % size
                mapping.append([[n, i], [m, bits[m]]])
    return FinInstance(range(0, size, 2), range(1, size, 2), mapping)
