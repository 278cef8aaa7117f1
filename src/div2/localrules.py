"""Local displacement rules, and the machinery that rules them all out.

A candidate family ``phi_chi(n) = n + offset(window)`` reads a radius-``w``
window of the decreasing parameter ``chi`` around ``n`` and displaces ``n``
by a tabled odd amount bounded by ``d``.  Such a family is translation
equivariant and continuous by construction, so only two questions remain:
whether it commutes with the reflection, and whether it is a bijection from
the evens onto the odds for every parameter.

Reflection equivariance is a finite condition on the table (the offset at a
window's reflect-complement must be the negated offset).  Any rule passing
it is eventually linear with slope one: beyond an explicit even bound ``N``
the zero-threshold family is ``n + k`` on the right and ``n - k`` on the
left.  Counting the even block ``[-N, N]`` (odd cardinality) against the odd
block ``[-N - k, N + k]`` it must fill (even cardinality) then contradicts
bijectivity, so every rule fails at threshold ``0``.  The exhaustive search
below confirms that concretely, with a collision or gap witness per rule,
for every table within the guarded size limits.

The search scans threshold ``0`` only: the infinities give rigid shifts, so
``0`` is the first probe that can fail, and the lemma says it always does.
A rule that passed it would still be scanned and reported as a survivor.

The exhaustive search also shares work between rules.  Which table position
the threshold-0 scan reads at each point depends on ``w`` and ``d`` alone,
never on the offsets, so the search fixes the free offsets (cuts ``-w .. 0``)
in one order, ``f0, f1, f3, f4, f2`` for ``w = 4``, each level adding every
point that reads its offset (both tails at level 0).  Collision or gap does
not depend on scan order, so a collision among the points of a prefix fails
every rule extending it.  The search never visits those completions: it
counts gaps and lists survivors, and counts collisions as the rest.  It
walks once per class of prefixes that agree on the image bits deeper levels
can hit and on whether a gap none of them reaches is left open.  Past level
0 each level adds one point, so the last four levels (every level past 0
for ``w <= 4``) are counted in one closed form, from popcounts of the bits
their values can take.
"""

from __future__ import annotations

import functools
import itertools

from .dihedral import R, DihedralElt
from .sequences import MINUS_INF, ZInf, _check_fields, _check_int, _Value, fin


def _check_radius(w) -> int:
    return _check_int(w, "radius", "a non-negative integer", lambda w: w >= 0)


class WindowPattern(_Value):
    """A decreasing bit vector on ``[-w, w]``: ones strictly below ``cut``.

    ``cut`` ranges over ``[-w, w + 1]``; the extremes are the all-zero and
    all-one windows.  There are ``2w + 2`` patterns of radius ``w``.
    """

    w: int
    cut: int

    def __post_init__(self):
        _check_radius(self.w)
        _check_int(self.cut, "cut")
        if not -self.w <= self.cut <= self.w + 1:
            raise ValueError(f"cut {self.cut} out of range [{-self.w}, {self.w + 1}]")

    def reflect_complement(self) -> "WindowPattern":
        """The window seen at ``-n`` by the reflected parameter; an involution."""
        return WindowPattern(self.w, 1 - self.cut)

    def name(self) -> str:
        if self.cut == -self.w:
            return "allzero"
        if self.cut == self.w + 1:
            return "allone"
        return f"cut:{self.cut}"

    @classmethod
    def parse(cls, w: int, name: str) -> "WindowPattern":
        if name == "allzero":
            return cls(w, -w)
        if name == "allone":
            return cls(w, w + 1)
        if isinstance(name, str) and name.startswith("cut:"):
            try:
                return cls(w, int(name[len("cut:"):]))
            except ValueError as exc:
                raise ValueError(f"bad pattern name {name!r}: {exc}") from None
        raise ValueError(f"bad pattern name {name!r}: expected allzero, allone, or cut:P")

    @classmethod
    def from_zinf(cls, w: int, chi: ZInf, center: int) -> "WindowPattern":
        """The window of the decreasing parameter ``chi`` around ``center``."""
        if chi.kind < 0:
            return cls(w, -w)
        if chi.kind > 0:
            return cls(w, w + 1)
        return cls(w, max(-w, min(w + 1, chi.threshold - center)))


def all_patterns(w: int) -> tuple:
    """The ``2w + 2`` radius-``w`` patterns, in cut order."""
    return tuple(WindowPattern(w, cut) for cut in range(-w, w + 2))


class LocalRule(_Value):
    """A total table from radius-``w`` windows to odd displacements bounded by ``d``.

    ``offsets[cut + w]`` is the displacement tabled for the pattern with that
    cut.  The induced family is ``phi_chi(n) = n + offsets[...]`` with the
    window of ``chi`` read around the even integer ``n``.
    """

    w: int
    d: int
    offsets: tuple

    def __post_init__(self):
        _check_radius(self.w)
        _check_int(self.d, "displacement bound", "a positive integer", lambda d: d >= 1)
        offsets = tuple(self.offsets)
        if len(offsets) != 2 * self.w + 2:
            raise ValueError(
                f"table must cover all {2 * self.w + 2} patterns, got {len(offsets)} entries"
            )
        for pos, off in enumerate(offsets):
            _check_int(off, f"offset for cut {pos - self.w}")
            if off % 2 == 0:
                raise ValueError(f"offset for cut {pos - self.w} must be odd, got {off}")
            if abs(off) > self.d:
                raise ValueError(f"offset {off} for cut {pos - self.w} exceeds bound {self.d}")
        self.__dict__["offsets"] = offsets

    def offset(self, pattern: WindowPattern) -> int:
        if pattern.w != self.w:
            raise ValueError(f"pattern radius {pattern.w} does not match rule radius {self.w}")
        return self.offsets[pattern.cut + self.w]

    def apply(self, chi: ZInf, n: int) -> int:
        """The family value at even ``n`` with decreasing parameter ``chi``."""
        if n % 2 != 0:
            raise ValueError(f"the family is defined on even integers, got {n}")
        return n + self.offset(WindowPattern.from_zinf(self.w, chi, n))

    def to_json(self) -> dict:
        return {
            "w": self.w,
            "d": self.d,
            "table": {pat.name(): self.offset(pat) for pat in all_patterns(self.w)},
        }

    @classmethod
    def from_json(cls, obj) -> "LocalRule":
        _check_fields(obj, "rule", ("w", "table"), ("d",))
        w, table, d = obj["w"], obj["table"], obj.get("d")
        if not isinstance(table, dict):
            raise ValueError("table must be an object mapping pattern names to offsets")
        _check_radius(w)
        entries: dict = {}
        for name, off in table.items():
            pat = WindowPattern.parse(w, name)
            if pat.cut in entries:
                raise ValueError(f"pattern {pat.name()} tabled twice")
            entries[pat.cut] = _check_int(off, f"offset for {pat.name()}")
        # cuts are distinct and in range, so a short table is an incomplete one;
        # name only the first few gaps, so the work is bounded by the table
        absent = 2 * w + 2 - len(entries)
        if absent:
            gaps = (cut for cut in range(-w, w + 2) if cut not in entries)
            missing = [WindowPattern(w, cut).name() for cut in itertools.islice(gaps, 3)]
            more = f" and {absent - len(missing)} more" if absent > len(missing) else ""
            raise ValueError(f"table is missing patterns: {missing}{more}")
        offsets = tuple(entries[cut] for cut in range(-w, w + 2))
        if d is None:
            d = max(abs(off) for off in offsets)
        return cls(w, d, offsets)


def _equivariant_rule(w: int, d: int, free: tuple) -> LocalRule:
    """The rule with offsets ``free`` on cuts ``-w .. 0`` and ``free`` negated in reverse on ``1 .. w + 1``.

    It skips ``__post_init__``, so ``free`` must be ``w + 1`` odd ints bounded
    by ``d``, as in the rule enumeration and the search's survivors.
    """
    rule = object.__new__(LocalRule)
    rule.__dict__.update(w=w, d=d, offsets=free + tuple(-k for k in reversed(free)))
    return rule


def r_equivariance_witness(rule: LocalRule) -> WindowPattern | None:
    """First pattern violating reflection equivariance, or None if none does.

    The induced family commutes with the reflection exactly when each
    pattern's reflect-complement is tabled with the negated offset.
    """
    offsets = rule.offsets
    for pos, off in enumerate(offsets):
        # the reflect-complement of cut c is 1 - c, tabled at the mirrored position
        if offsets[-1 - pos] != -off:
            return WindowPattern(rule.w, pos - rule.w)
    return None


class NotReflectionEquivariant(ValueError):
    """Raised when an operation requires reflection equivariance and lacks it."""

    def __init__(self, pattern: WindowPattern):
        self.pattern = pattern
        super().__init__(
            f"rule is not reflection equivariant: offset at {pattern.reflect_complement().name()} "
            f"is not the negation of the offset at {pattern.name()}"
        )


class NaiveWitness(_Value):
    """A concrete equivariance failure for a constant-shift family."""

    g: DihedralElt
    chi: ZInf
    n: int
    lhs: int
    rhs: int


def naive_family_witness(delta: int = 1, chi: ZInf = fin(0), n: int = 0) -> NaiveWitness:
    """Where the family ``f(n) = n + delta`` fails to commute with the reflection.

    The left side is the family evaluated after acting, the right side is
    the action applied to the family's value; for the reflection they differ
    by ``2 * delta`` at every ``n``, so any point witnesses.
    """
    if delta % 2 == 0:
        raise ValueError(f"the shift must be odd to map evens to odds, got {delta}")
    if n % 2 != 0:
        raise ValueError(f"witness point must be even, got {n}")
    lhs = R.act_int(n) + delta
    rhs = R.act_int(n + delta)
    if lhs == rhs:
        raise RuntimeError(f"the shift by {delta} commutes with the reflection at n={n}")
    return NaiveWitness(R, chi, n, lhs, rhs)


class LinearTail(_Value):
    """Tail certificate: displacement ``k`` and an even bound ``N``.

    Beyond ``N`` the zero-threshold family is ``n + k`` on the right and
    ``n - k`` on the left.  ``k`` is odd, ``N`` is even and exceeds ``|k|``.
    """

    k: int
    N: int

    def __post_init__(self):
        _check_int(self.k, "tail displacement", "an odd integer", lambda k: k % 2)
        _check_int(self.N, "tail bound", "an even integer", lambda N: N % 2 == 0)
        if self.N <= abs(self.k):
            raise ValueError(f"tail bound {self.N} must exceed |k| = {abs(self.k)}")


class TailViolation(_Value):
    """A point where the claimed linear tail fails."""

    n: int
    expected: int
    actual: int


def _tail_windows(w: int, N: int) -> tuple:
    """The ends of the even windows ``(N, N + 2w + 4]`` and ``[-N - 2w - 4, -N)`` that ``eventually_linear`` checks."""
    return (N, N + 2 * w + 4), (-N - 2 * w - 4, -N)


def eventually_linear(rule: LocalRule):
    """Extract and verify the linear-tail certificate of an equivariant rule.

    Returns a LinearTail with ``k`` the all-zero offset and ``N`` the least
    even integer above ``max(w, |k|)``, after checking the zero-threshold
    family exactly on the even windows ``(N, N + 2w + 4]`` and
    ``[-N - 2w - 4, -N)``; a failure comes back as a TailViolation.  Raises
    NotReflectionEquivariant for rules outside its hypothesis.
    """
    bad = r_equivariance_witness(rule)
    if bad is not None:
        raise NotReflectionEquivariant(bad)
    k = rule.apply(MINUS_INF, 0)
    bound = max(rule.w, abs(k))
    N = bound + 1 if (bound + 1) % 2 == 0 else bound + 2
    zero = fin(0)
    right, left = _tail_windows(rule.w, N)
    for n in itertools.chain(range(right[0] + 2, right[1] + 1, 2), range(*left, 2)):
        expected = n + k if n > 0 else n - k
        actual = rule.apply(zero, n)
        if actual != expected:
            return TailViolation(n, expected, actual)
    return LinearTail(k, N)


def parity_counts(tail: LinearTail) -> tuple:
    """Sizes of the central even block and the odd block its image must fill.

    Counts the evens in ``[-N, N]`` and the odds in ``[-N - k, N + k]`` in
    O(1), for any size of ``N``.  The first is always odd and the second
    always even, which is the contradiction: a bijection cannot map the
    block onto its forced image.
    """

    def count(lo, hi, parity):
        # the integers of this parity in [lo, hi], for hi >= lo - 1
        return (hi - parity) // 2 - (lo - 1 - parity) // 2

    return (count(-tail.N, tail.N, 0), count(-tail.N - tail.k, tail.N + tail.k, 1))


class Collision(_Value):
    """Two even points sent to the same value at parameter ``chi``."""

    chi: ZInf
    n1: int
    n2: int
    value: int


class Gap(_Value):
    """An odd value missed by the family at parameter ``chi``."""

    chi: ZInf
    value: int


def _odd_offsets(d: int) -> tuple:
    return tuple(k for k in range(-d, d + 1) if k % 2 != 0)


@functools.lru_cache(maxsize=64)
def _scan_runs(w: int, d: int) -> tuple:
    """The threshold-0 probe scan as bit masks, ``(runs, gaps, origin)``.

    Value ``v`` is bit ``v + origin``.  ``runs`` lists, in scan order,
    ``(ns, i, ones, low)``: every even ``n`` in the range ``ns`` reads table
    position ``i = clamp(-n, -w, w + 1) + w``, so its family value is
    ``n + table[i]`` (free offset ``min(i, 2w + 1 - i)``, negated when
    ``i > w``), and the run's values are ``ones << (low + table[i])``.  Only
    the two tails are longer than one point, and each is one shift.
    ``gaps`` masks the odd values the scan must cover.
    """
    reach = w + 2 * d + 4
    span = w + d + 2
    origin = reach + d  # no value lies below -reach - d
    ns = range(-reach + reach % 2, reach + 1, 2)
    # position 2w + 1 for n < -w and position 0 for n >= w
    left, right = len(range(ns.start, -w, 2)), len(range(ns.start, w, 2))
    runs = [(ns[:left], 2 * w + 1)]
    runs += [(ns[k:k + 1], w - ns[k]) for k in range(left, right)]
    runs.append((ns[right:], 0))
    # a step-2 range of length L at bit 0 is the mask (4**L - 1) // 3
    runs = tuple((r, i, ((1 << 2 * len(r)) - 1) // 3, r.start + origin) for r, i in runs)
    odds = range(-span + 1 - span % 2, span + 1, 2)
    gaps = ((1 << 2 * len(odds)) - 1) // 3 << (odds.start + origin)
    return runs, gaps, origin


@functools.lru_cache(maxsize=64)
def _scan_plan(w: int, d: int) -> tuple:
    """The scan of ``_scan_runs`` with the search walk's levels, ``(runs, gaps, origin, order, rows)``.

    ``order`` lists the free offsets in the order the scan first reads them,
    and ``rows[k]`` pairs each value ``x`` of free offset ``order[k]`` with
    the mask of every point that reads it, or None if those points collide.
    Cached apart from the runs, so that a witness of a wide rule holds no rows.
    """
    runs, gaps, origin = _scan_runs(w, d)
    # the runs reading each free offset, keyed in the order the scan first reads them
    levels = {}
    for _, i, ones, low in runs:
        levels.setdefault(min(i, 2 * w + 1 - i), []).append((ones, low, 1 if i <= w else -1))
    rows = []
    for parts in levels.values():
        rows.append([])
        for x in _odd_offsets(d):
            masks = [ones << (low + sign * x) for ones, low, sign in parts]
            # the sum equals the union exactly when no two masks share a bit
            mask = functools.reduce(int.__or__, masks)
            rows[-1].append((x, mask if mask == sum(masks) else None))
    return runs, gaps, origin, tuple(levels), rows


def _scan(table, runs, gaps: int, origin: int):
    """The first Collision or Gap of the family with offsets ``table`` at threshold 0, or None.

    A run cannot collide with itself, so its first colliding point holds the
    lowest bit its mask shares with the runs before it.
    """
    images = 0
    for k, (ns, i, ones, low) in enumerate(runs):
        mask = ones << (low + table[i])
        hit = images & mask
        if hit:
            v = (hit & -hit).bit_length() - 1 - origin
            n1 = next(v - table[e] for ms, e, _, _ in runs[:k] if v - table[e] in ms)
            return Collision(fin(0), n1, v - table[i], v)
        images |= mask
    missed = gaps & ~images
    return Gap(fin(0), (missed & -missed).bit_length() - 1 - origin) if missed else None


def bijectivity_witness(rule: LocalRule):
    """First collision or gap of the family at threshold 0, or None.

    At a threshold ``m`` the family is a rigid shift outside the window
    ``|n - m| <= w``, so colliding pairs lie within ``w + 2d + 4`` of ``m``
    (two displacements differ by at most ``2d``) and uncovered odd values
    within ``w + d + 2`` (beyond that the matching tail covers).  Scanning
    those finite windows therefore decides bijectivity exactly.  Only
    threshold ``0`` is scanned: the infinities give rigid shifts, so ``0``
    is the first probe that can fail, and ``eventually_linear`` with
    ``parity_counts`` says it always does.  None would mean a rule that
    contradicts that lemma.  Raises NotReflectionEquivariant for rules
    outside the hypothesis.
    """
    bad = r_equivariance_witness(rule)
    if bad is not None:
        raise NotReflectionEquivariant(bad)
    return _scan(rule.offsets, *_scan_runs(rule.w, rule.d))


def equivariant_rules(w: int, d: int):
    """All reflection-equivariant rules of radius ``w``, bound ``d``, lexicographically.

    The equivariance condition pairs each cut ``c`` with ``1 - c`` and forces
    negated offsets, so the free choices sit exactly on cuts ``-w .. 0`` and
    the offsets at cuts ``1 .. w + 1`` are the free ones negated in reverse.
    Enumerating those ascending by offset yields the same order as filtering
    the full table space lexicographically.
    """
    for free in itertools.product(_odd_offsets(d), repeat=w + 1):
        yield _equivariant_rule(w, d, free)


def iterate_verdicts(w: int, d: int):
    """Yield ``(rule, witness)`` over the equivariant rules; witness None means survivor."""
    plan = _scan_plan(w, d)[:3]
    for rule in equivariant_rules(w, d):
        yield rule, _scan(rule.offsets, *plan)


class SearchReport(_Value):
    """Outcome of an exhaustive scan of one ``(w, d)`` rule space."""

    w: int
    d: int
    candidates: int
    equivariant: int
    failed_collision: int
    failed_gap: int
    survivors: tuple

    def to_json(self) -> dict:
        return dict(vars(self), survivors=[rule.to_json() for rule in self.survivors])


MAX_SEARCH_W = 4
MAX_SEARCH_D = 9


def _partition_terms(m: int) -> tuple:
    """The set partitions of ``range(m)`` as ``(mu, blocks)``, each block its bitmask minus one.

    ``mu`` is the partition's Möbius coefficient, the product over its blocks
    of ``(-1)**(n - 1) * (n - 1)!`` for a block of ``n`` elements.  It is
    built without ``math``, an extension module whose import took 0.4 ms of
    every command's start-up on a 2-core machine.
    """
    parts = [()]
    for i in range(m):
        # element i joins a block of each partition of range(i), or starts a block of its own
        parts = [p[:k] + (p[k] | 1 << i,) + p[k + 1:] for p in parts for k in range(len(p))] + [
            p + (1 << i,) for p in parts
        ]
    # a block of n elements gives the product of -1 .. -(n - 1)
    mu = [functools.reduce(int.__mul__, [-k for b in p for k in range(1, b.bit_count())], 1) for p in parts]
    return tuple(zip(mu, (tuple(b - 1 for b in p) for p in parts)))


# the search walk decides this many last levels in one closed form, over partitions of up to this many rows
_CLOSED_LEVELS = 4
_PARTITIONS = tuple(_partition_terms(m) for m in range(_CLOSED_LEVELS + 1))


def _covering_tails(rows, level: int, used: int, uncovered: int, reach) -> list:
    """Each pick of one value per row of ``rows[level:]`` with distinct bits outside ``used`` that cover ``uncovered``.

    Each row pairs values with one-bit masks, and ``reach[k]`` is the OR of
    the masks of ``rows[k:]``, so a pick stops as soon as an uncovered bit
    lies in no row after it.
    """
    if level == len(rows):
        return [()]
    tails = []
    later = reach[level + 1]
    for x, bit in rows[level]:
        if not used & bit and not uncovered & ~bit & ~later:
            tails += [(x, *tail) for tail in _covering_tails(rows, level + 1, used | bit, uncovered & ~bit, reach)]
    return tails


def _search_counts(w: int, d: int) -> tuple:
    """``[collisions, gaps]`` and the survivors of the ``(w, d)`` rule space.

    A depth-first walk fixes the free offsets in the order the threshold-0
    scan first reads them, and each level ORs the values of every point that
    reads its offset (both tails at level 0) into its parent's image mask.
    A collision there fails every completion, so the walk never visits
    them.  It counts gaps and lists survivors; every completion is a
    collision, a gap or a survivor, so the collisions are the rest of the
    ``k**(w + 1)`` completions, for the row length ``k``.

    Below a level, the walk reads its parent's mask only on ``fut[level]``,
    the union of the masks of ``rows[level:]``, and through one flag: some
    gap bit outside it is uncovered, so every completion without a collision
    fails on a gap.  Each level caches its outcome (gaps, and survivors'
    offsets from that level on) under that key and flag.  A child keys on
    ``(key | mask) & fut[level + 1]``, and sets the flag if a gap bit of
    ``drop[level]`` is uncovered.  Level 0 keys on nothing, so a gap bit no
    row reaches is in ``drop[0]`` and sets the flag of every child.

    Past level 0 a row holds one point, since of the two table positions
    reading a free offset ``j >= 1`` exactly one belongs to an even ``n``.
    So there each value is one bit, and the bits of a row are distinct.
    Every walk ends in one closed form, which decides each entry of level
    ``top = max(1, last - 3)`` over the ``m <= 4`` levels from it on (over
    zero rows for ``w = 0``).  With ``A_i`` the bits of row ``top + i``
    outside the key, a completion without a collision picks one bit of each
    ``A_i``, no bit twice.  Möbius inversion on the set partitions of the
    ``m`` rows counts those picks: the sum over partitions of their
    coefficient times, per block, the popcount of the AND of its rows'
    ``A_i`` (1, 1, 2, 5 and 15 terms for ``m`` = 0 to 4).  A pick survives
    if the flag is clear and it covers every gap bit of ``fut[top]`` outside
    the key.  So survivors are listed only when at most ``m`` such bits are
    open, and the listing stops at the first open bit no later row reaches;
    every other pick fails on a gap.

    Four levels suit both corners of the space.  Level 0 holds the tails,
    so ``top`` is at least 1, and for ``w <= 4`` the closed form decides
    every level past 0.  In process on 2 cores, deciding three levels ran
    (4, 9) 1.7 times slower, and deciding five, with 52 terms, ran (12, 11)
    1.4 times and (20, 9) 1.2 times slower.
    """
    _, gaps, _, order, rows = _scan_plan(w, d)
    last = len(order) - 1
    top = max(1, last - _CLOSED_LEVELS + 1)
    # the OR of each row's masks past level 0, whose bits are distinct, so it is their sum; level 0 keys on no bit
    ors = [-1] + [sum([mask for _, mask in row]) for row in rows[1:]]
    fut = [*itertools.accumulate(reversed(ors), int.__or__, initial=0)][::-1]
    # the gap bits that each level of the loop keys on and its children do not
    drop = [gaps & fut[level] & ~fut[level + 1] for level in range(top)]
    # the AND of every nonempty set s of the closed form's rows, at index s - 1
    bits, m = ors[top:], last + 1 - top
    meets = [-1]
    for s in range(1, 1 << m):
        meets.append(meets[s & s - 1] & bits[(s & -s).bit_length() - 1])
    del meets[0]
    terms, window = _PARTITIONS[m], fut[top]
    memo = [{} for _ in range(top + 1)]

    def closed(key: int, lost: bool) -> tuple:
        free = window ^ key
        size = [(meet & free).bit_count() for meet in meets]
        fits = 0
        for mu, blocks in terms:
            for s in blocks:
                mu *= size[s]
            fits += mu
        opened = gaps & free
        tails = () if lost or opened.bit_count() > m else _covering_tails(rows, top, key, opened, fut)
        return fits - len(tails), tails

    def walk(level: int, key: int, lost: bool) -> tuple:
        slot = ~key if lost else key
        done = memo[level].get(slot)
        if done is not None:
            return done
        if level == top:
            memo[level][slot] = done = closed(key, lost)
            return done
        missed = 0
        tails = []
        for x, mask in rows[level]:
            if mask is not None and not key & mask:
                child = key | mask
                sub = walk(level + 1, child & fut[level + 1], lost or drop[level] & ~child != 0)
                missed += sub[0]
                if sub[1]:
                    tails += [(x, *tail) for tail in sub[1]]
        memo[level][slot] = done = (missed, tails)
        return done

    missed, tails = walk(0, 0, False)
    # walk reaches itself through its closure cell; unbinding it frees the memo now, not at a collection
    del walk
    # a tail lists the free offsets in ``order``, a permutation of 0 .. w
    survivors = [_equivariant_rule(w, d, tuple(x for _, x in sorted(zip(order, tail)))) for tail in tails]
    return [len(rows[0]) ** (w + 1) - missed - len(survivors), missed], survivors


def exhaustive_search(w: int, d: int, jobs: int = 1) -> SearchReport:
    """Scan every rule of radius ``w`` with displacements bounded by ``d``.

    The full table space has ``(#odd offsets)^(2w + 2)`` candidates; it is
    counted in closed form and only its reflection-equivariant subspace is
    materialized, which loses nothing because every rule outside it fails
    the finite table condition the subspace is defined by.  Each surviving
    candidate is then put through the threshold-0 bijectivity scan, shared
    between rules by a depth-first walk whose levels each add every point
    that reads one free offset (the tails at level 0), so every point of
    every rule's window is checked.  The walk counts gaps and lists
    survivors, and the completions it never visits, those below a collision,
    are the collisions.  It decides each subtree once per distinct set of
    image bits its masks can still hit, with one flag for a gap no deeper
    point can cover; prefixes that agree on both have the same completions
    fail in the same way, so the memo changes no count and no survivor.
    ``jobs`` must be a positive integer but does not change the run: inside
    the size limits the whole search takes less time than starting a worker
    pool.
    """
    for name, value, lo, hi in (("radius", w, 0, MAX_SEARCH_W), ("bound", d, 1, MAX_SEARCH_D)):
        _check_int(value, name, f"an integer in [{lo}, {hi}] for the exhaustive search", lambda v: lo <= v <= hi)
    _check_int(jobs, "jobs", "a positive integer", lambda jobs: jobs >= 1)
    (collisions, gaps), survivors = _search_counts(w, d)
    candidates = len(_odd_offsets(d)) ** (2 * w + 2)
    survivors.sort(key=lambda r: r.offsets)
    return SearchReport(w, d, candidates, collisions + gaps + len(survivors), collisions, gaps, tuple(survivors))
