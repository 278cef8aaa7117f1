"""Finite division by two, without choices.

Given a bijection f between X x {0,1} and Y x {0,1}, two involutions live
on the disjoint union of all copies: the swap ``theta`` applies f in
whichever direction is defined, and the flip ``phi`` toggles the copy bit.
Every copy meets exactly one edge of each, so the copies tile into cycles
that alternate a pair of X copies with a pair of Y copies.  Walking each
cycle from its least copy in the swap-then-flip direction lists labels
alternately from X and Y; pairing consecutive labels yields a bijection
X -> Y that depends only on f and the label order, never on input order.
The walk ends at the first X label already matched, which is the entry
label: a cycle never holds both copies of a label, since ``phi`` keeps
the side and maps a cycle onto its reversal, so a cycle it mapped onto
itself would have a fixed copy.

Internally a copy is an integer id: with ``n = |X|``, the X copy of the
label at input position ``i`` with bit ``b`` is ``2*i + b`` and the Y copy
of the label at position ``j`` is ``2*n + 2*j + b``.  One int list holds
the swap in both directions, so the flip is ``c ^ 1``, the forward step is
``swap[c] ^ 1`` and the copy bit is ``c & 1``.  Ids follow input positions
because the label-to-position dicts built during validation give them
directly; only the paths that need canonical order (``divide`` and
``to_json``) sort, and they sort the X labels alone.
``CopyElem`` is the type at the public boundary.  A trace walks only as far
as its range reaches or once round the cycle, backward as forward from the
flipped copy, so it costs O(min(cycle, max(|lo|, |hi|)) + (hi - lo)) however
far from 0 ``lo`` lies; its ``hi - lo + 1`` iterates are capped at
``MAX_TRACE_LEN``, since the bits are returned as one list.

Validation, ``_validate``, is one pass over the sides and then the map
entries.  Labels, pairs and bits of the exact types ``str``, ``int``,
``list`` and ``tuple`` take the fast path; anything else falls to a checker
for that side or that entry alone, which names the fault where it is found
or accepts an int or str subclass label.  The loop keeps no entry position:
a fault counts it from the swap slots the entries before it filled.
"""

from __future__ import annotations

from .sequences import _check_bit, _check_fields, _Value

Label = str | int

X_SIDE = "X"
Y_SIDE = "Y"


class InstanceError(ValueError):
    """An instance failed validation; the message says where."""


def _canonical_order(labels) -> list:
    """Positions of ``labels`` in canonical order: by type name, then by value within each type.

    Each type is sorted on its own, which compares plain labels; sorting on
    ``(type name, label)`` key tuples is about four times slower on 1e5 labels.
    """
    groups: dict = {}
    for i, label in enumerate(labels):
        groups.setdefault(type(label).__name__, []).append(i)
    out: list = []
    for name in sorted(groups):
        out += sorted(groups[name], key=labels.__getitem__)
    return out


def _canonical(labels) -> list:
    """The labels in canonical order."""
    labels = tuple(labels)
    return [labels[i] for i in _canonical_order(labels)]


def _check_label(label, where: str, *args) -> Label:
    """``label`` if a str or non-bool int; else raise, formatting ``where % args`` only then."""
    if isinstance(label, bool) or not isinstance(label, (str, int)):
        raise InstanceError(f"{where % args}: labels must be strings or integers, got {label!r}")
    return label


_LABEL_TYPES = frozenset((str, int))  # exactly: True and 1.0 would find the position of 1
_PAIR_TYPES = frozenset((list, tuple))
_BIT = {0: 0, 1: 1}  # True and 1.0 hash and compare equal to 1, as the checker allows


def _positions(labels: tuple, side: str) -> dict:
    """Each label's position, also for int or str subclass labels; else InstanceError."""
    if set(map(type, labels)) <= _LABEL_TYPES:
        pos = dict(zip(labels, range(len(labels))))
        if len(pos) == len(labels):
            return pos
    pos = {}
    for i, label in enumerate(labels):
        _check_label(label, "%s[%d]", side, i)
        if label in pos:
            raise InstanceError(f"{side}[{i}]: duplicate label {label!r} (first at {pos[label]})")
        pos[label] = i
    return pos


def _check_entry(entry, xpos: dict, ypos: dict, two_n: int):
    """``(x, b, y, c, a, z)`` of a map entry, with copy ids ``a`` and ``z``; else InstanceError.

    The error's message is the fault alone; the caller prefixes the entry's
    position, which it counts only then.
    """
    if not isinstance(entry, (list, tuple)) or len(entry) != 2:
        raise InstanceError(f": expected [source, target], got {entry!r}")
    for role, end in (("source", entry[0]), ("target", entry[1])):
        if not isinstance(end, (list, tuple)) or len(end) != 2:
            raise InstanceError(f": {role} must be a [label, bit] pair, got {end!r}")
        _check_label(end[0], " (%s)", role)
        if end[1] not in (0, 1):
            raise InstanceError(f": {role} bit must be 0 or 1, got {end[1]!r}")
    (x, b), (y, c) = entry
    i = xpos.get(x)
    if i is None:
        raise InstanceError(f": source label {x!r} is not in X")
    j = ypos.get(y)
    if j is None:
        raise InstanceError(f": target label {y!r} is not in Y")
    return x, b, y, c, 2 * i + (1 if b else 0), two_n + 2 * j + (1 if c else 0)


def _entry_pos(swap: list) -> int:
    """The position of the map entry being read: each entry accepted before it filled two slots."""
    return (len(swap) - swap.count(-1)) >> 1


def _validate(xs: tuple, ys: tuple, pairs: list):
    """``(xpos, ypos, swap)`` of a valid instance; else InstanceError naming the first fault."""
    xpos = _positions(xs, "X")
    ypos = _positions(ys, "Y")
    if len(xs) != len(ys):
        raise InstanceError(f"|X| = {len(xs)} but |Y| = {len(ys)}: the copy map cannot be a bijection")
    two_n = 2 * len(xs)
    swap = [-1] * (2 * two_n)
    for entry in pairs:
        try:
            # exact list or tuple before unpacking, so no foreign __iter__ runs
            if type(entry) not in _PAIR_TYPES:
                raise TypeError
            src, tgt = entry
            if type(src) not in _PAIR_TYPES or type(tgt) not in _PAIR_TYPES:
                raise TypeError
            (x, b), (y, c) = src, tgt
            if type(x) not in _LABEL_TYPES or type(y) not in _LABEL_TYPES:
                raise TypeError
            a = 2 * xpos[x] + _BIT[b]
            z = two_n + 2 * ypos[y] + _BIT[c]
        except (TypeError, ValueError, KeyError):  # a bad shape, bit or label, or a subclass label
            try:
                x, b, y, c, a, z = _check_entry(entry, xpos, ypos, two_n)
            except InstanceError as exc:
                raise InstanceError(f"map entry {_entry_pos(swap)}{exc}") from None
        if swap[a] >= 0:
            raise InstanceError(f"map entry {_entry_pos(swap)}: source {(x, b)!r} already mapped")
        if swap[z] >= 0:
            hit = (xs[swap[z] >> 1], swap[z] & 1)
            raise InstanceError(f"map entry {_entry_pos(swap)}: target {(y, c)!r} already hit from {hit!r}")
        swap[a] = z
        swap[z] = a
    if len(pairs) != two_n:
        a = swap.index(-1)
        raise InstanceError(f"copy ({xs[a >> 1]!r}, {a & 1}) of X has no image")
    return xpos, ypos, swap


class CopyElem(_Value):
    """One copy of a label: a side, the label, and the copy bit."""

    side: str
    label: Label
    bit: int

    def __post_init__(self):
        if self.side not in (X_SIDE, Y_SIDE):
            raise ValueError(f"side must be {X_SIDE!r} or {Y_SIDE!r}, got {self.side!r}")
        _check_label(self.label, "copy")
        self.__dict__["bit"] = _check_bit(self.bit, "copy bit")


def phi(z: CopyElem) -> CopyElem:
    """Flip the copy bit."""
    return CopyElem(z.side, z.label, 1 - z.bit)


class FinInstance:
    """A finite division problem: label sets X, Y and a bijection on copies.

    Validation is eager and total: duplicate labels, size mismatches, and
    any failure of the copy map to be a bijection from X x {0,1} onto
    Y x {0,1} raise InstanceError naming the first offending label or entry:
    X side, Y side, sizes, then map entries in input order, each read once.
    """

    def __init__(
        self, xs: tuple[Label, ...] | list[Label] | range, ys: tuple[Label, ...] | list[Label] | range, mapping
    ):
        self.xs = tuple(xs)
        self.ys = tuple(ys)
        pairs = list(mapping.items()) if isinstance(mapping, dict) else list(mapping)
        self._xpos, self._ypos, self._swap = _validate(self.xs, self.ys, pairs)

    def _copy_id(self, z: CopyElem) -> int:
        pos, base = (self._xpos, 0) if z.side == X_SIDE else (self._ypos, 2 * len(self.xs))
        if z.label not in pos:
            raise InstanceError(
                f"copy {(z.label, z.bit)!r} is not in this instance's {z.side} side"
            )
        return base + 2 * pos[z.label] + z.bit

    def _elem(self, c: int) -> CopyElem:
        two_n = 2 * len(self.xs)
        if c < two_n:
            return CopyElem(X_SIDE, self.xs[c >> 1], c & 1)
        return CopyElem(Y_SIDE, self.ys[(c - two_n) >> 1], c & 1)

    def theta(self, z: CopyElem) -> CopyElem:
        """Apply the copy bijection in whichever direction is defined at ``z``."""
        return self._elem(self._swap[self._copy_id(z)])

    def sigma(self, z: CopyElem) -> CopyElem:
        """One forward step: swap, then flip."""
        return phi(self.theta(z))

    def sigma_inv(self, z: CopyElem) -> CopyElem:
        """One backward step: flip, then swap."""
        return self.theta(phi(z))

    def copies(self) -> list:
        """All copies in canonical order: X before Y, labels sorted, bit last."""
        sides = ((X_SIDE, self.xs), (Y_SIDE, self.ys))
        return [CopyElem(side, label, b) for side, labels in sides for label in _canonical(labels) for b in (0, 1)]

    def to_json(self) -> dict:
        swap, xs, ys, two_n = self._swap, self.xs, self.ys, 2 * len(self.xs)
        entries = []
        for i in _canonical_order(xs):
            for b in (0, 1):
                z = swap[2 * i + b]
                entries.append([[xs[i], b], [ys[(z - two_n) >> 1], z & 1]])
        return {"X": list(self.xs), "Y": list(ys), "map": entries}

    @classmethod
    def from_json(cls, obj) -> "FinInstance":
        _check_fields(obj, "instance", ("X", "Y", "map"), error=InstanceError)
        if not isinstance(obj["X"], list) or not isinstance(obj["Y"], list):
            raise InstanceError("X and Y must be arrays of labels")
        if not isinstance(obj["map"], list):
            raise InstanceError("map must be an array of [source, target] pairs")
        return cls(obj["X"], obj["Y"], obj["map"])


MAX_TRACE_LEN = 10**6


def _check_trace_range(lo: int, hi: int) -> None:
    if lo > hi:
        raise ValueError(f"empty trace range: lo={lo} > hi={hi}")
    if hi - lo >= MAX_TRACE_LEN:
        raise ValueError(
            f"trace range [{lo}, {hi}] has {hi - lo + 1} iterates, more than the limit of {MAX_TRACE_LEN}"
        )


def _iterate_bits(inst: FinInstance, c: int, first: int, last: int) -> list:
    """The bits of forward iterates ``first`` to ``last`` of copy ``c``, for ``0 <= first <= last``.

    The walk stops after ``last`` steps or where the cycle closes, whichever
    comes first; a closed cycle is then read modulo its length.
    """
    swap = inst._swap
    orbit = [c]
    cur = swap[c] ^ 1
    for _ in range(last):
        if cur == c:  # the walk closed the cycle before its last step
            period = len(orbit)
            return [orbit[k % period] & 1 for k in range(first, last + 1)]
        orbit.append(cur)
        cur = swap[cur] ^ 1
    return [u & 1 for u in orbit[first:]]


def chi_trace(inst: FinInstance, z: CopyElem, lo: int, hi: int) -> list:
    """Copy bits along the forward orbit of ``z``, from iterate ``lo`` to ``hi``.

    Entry ``k - lo`` is the bit of the ``k``-th forward iterate of ``z``
    (negative ``k`` steps backward).  At most ``MAX_TRACE_LEN`` iterates.
    The walks reach ``max(hi, 0)`` steps ahead of ``z`` and ``-lo`` steps
    ahead of its flipped copy, or once round the cycle if that is shorter.
    """
    _check_trace_range(lo, hi)
    # a backward walk first flips, so a foreign copy is named flipped, as sigma_inv names it
    c = inst._copy_id(z) if lo >= 0 else inst._copy_id(phi(z)) ^ 1
    # sigma^-k = phi sigma^k phi: iterate -k is iterate k of the flipped copy, flipped
    back = _iterate_bits(inst, c ^ 1, max(-hi, 1), -lo) if lo < 0 else []
    ahead = _iterate_bits(inst, c, max(lo, 0), hi) if hi >= 0 else []
    return [b ^ 1 for b in reversed(back)] + ahead


def divide(inst: FinInstance) -> dict:
    """The canonical bijection X -> Y induced by the instance's copy bijection.

    Each swap/flip cycle is entered at its least copy -- necessarily on the
    X side -- and walked forward; labels along the walk alternate sides, and
    consecutive (X, Y) labels are matched.  Relabeling-equivariant and
    independent of the order X, Y, or the map entries were given in.
    """
    xs, ys, swap = inst.xs, inst.ys, inst._swap
    two_n = 2 * len(xs)
    order = _canonical_order(xs)
    partner = [-1] * len(xs)  # by X position: the Y position matched to it, or -1 before its cycle is walked
    for i in order:
        # from X copy to X copy, matching each to the Y label after it; a cycle never holds both copies of a
        # label (see the module docstring), so the first matched label met is the entry's own, where the
        # cycle closes.  Each step matches a label, so all walks take |X| steps in all
        a = 2 * i
        while partner[a >> 1] < 0:
            z = swap[a]
            partner[a >> 1] = (z - two_n) >> 1
            a = swap[z ^ 1] ^ 1
            if z < two_n or a >= two_n:
                raise RuntimeError(f"cycle through {inst._elem(2 * i)} does not alternate X and Y copies")
    return {xs[i]: ys[partner[i]] for i in order}


def matching_violation(inst: FinInstance, matching: dict) -> str | None:
    """Why ``matching`` is not a bijection from X onto Y, or None if it is."""
    for x in inst.xs:
        if x not in matching:
            return f"X label {x!r} is unmatched"
    for x in matching:
        if x not in inst._xpos:
            return f"matched label {x!r} is not in X"
    hit: dict = {}
    for x in _canonical(matching):
        y = matching[x]
        if y not in inst._ypos:
            return f"{x!r} is matched to {y!r}, which is not in Y"
        if y in hit:
            return f"Y label {y!r} is matched twice (from {hit[y]!r} and {x!r})"
        hit[y] = x
    return None


def verify_matching(inst: FinInstance, matching: dict) -> bool:
    """Whether ``matching`` is a total bijection from the instance's X onto its Y."""
    return matching_violation(inst, matching) is None


def theta_cyclic_instance(bits) -> FinInstance:
    """Wrap the pairing map ``theta.theta`` around a cycle.

    ``bits`` is a parameter table on Z/M for even M >= 2; evens become X
    labels and odds Y labels, and a copy's image is read mod M.  The map is
    still its own inverse on the cycle, so the result is always valid.
    """
    # the only function that uses these: imported here, so that the divider's commands never load the group or the map
    from .dihedral import ParityPoint
    from .sequences import BiSeq
    from .theta import theta

    bits = tuple(bits)
    if len(bits) < 2 or len(bits) % 2 != 0:
        raise ValueError(f"need an even number of entries >= 2, got {len(bits)}")
    bits = tuple(_check_bit(b, f"entry {pos}") for pos, b in enumerate(bits))
    size = len(bits)
    # the map reads chi only at n - 1, n and n + 1, so one entry past each end closes the cycle
    chi = BiSeq(0, -1, bits[-1:] + bits + bits[:1], 0)
    mapping = []
    for n in range(0, size, 2):
        for i in (0, 1):
            image = theta(chi, ParityPoint(n, i)).point
            mapping.append([[n, i], [image.n % size, image.i]])
    return FinInstance(range(0, size, 2), range(1, size, 2), mapping)
