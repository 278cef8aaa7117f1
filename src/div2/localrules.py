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
every rule extending it, and the search counts all of those at once.
"""

from __future__ import annotations

import functools
import itertools

from .dihedral import R, DihedralElt
from .sequences import MINUS_INF, ZInf, _check_fields, _check_int, _Value, fin


class WindowPattern(_Value):
    """A decreasing bit vector on ``[-w, w]``: ones strictly below ``cut``.

    ``cut`` ranges over ``[-w, w + 1]``; the extremes are the all-zero and
    all-one windows.  There are ``2w + 2`` patterns of radius ``w``.
    """

    w: int
    cut: int

    def __post_init__(self):
        if not isinstance(self.w, int) or isinstance(self.w, bool) or self.w < 0:
            raise ValueError(f"radius must be a non-negative integer, got {self.w!r}")
        _check_int(self.cut, "cut")
        if not -self.w <= self.cut <= self.w + 1:
            raise ValueError(f"cut {self.cut} out of range [{-self.w}, {self.w + 1}]")

    @property
    def is_all_zero(self) -> bool:
        return self.cut == -self.w

    @property
    def is_all_one(self) -> bool:
        return self.cut == self.w + 1

    def reflect_complement(self) -> "WindowPattern":
        """The window seen at ``-n`` by the reflected parameter; an involution."""
        return WindowPattern(self.w, 1 - self.cut)

    def name(self) -> str:
        if self.is_all_zero:
            return "allzero"
        if self.is_all_one:
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
        if not isinstance(self.w, int) or isinstance(self.w, bool) or not 0 <= self.w:
            raise ValueError(f"radius must be a non-negative integer, got {self.w!r}")
        if not isinstance(self.d, int) or isinstance(self.d, bool) or self.d < 1:
            raise ValueError(f"displacement bound must be a positive integer, got {self.d!r}")
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
        object.__setattr__(self, "offsets", offsets)

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
        if not isinstance(w, int) or isinstance(w, bool) or w < 0:
            raise ValueError(f"radius must be a non-negative integer, got {w!r}")
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
            missing = []
            cut = -w
            while len(missing) < min(absent, 3):
                if cut not in entries:
                    missing.append(WindowPattern(w, cut).name())
                cut += 1
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
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k % 2 == 0:
            raise ValueError(f"tail displacement must be an odd integer, got {self.k!r}")
        if not isinstance(self.N, int) or isinstance(self.N, bool) or self.N % 2 != 0:
            raise ValueError(f"tail bound must be an even integer, got {self.N!r}")
        if self.N <= abs(self.k):
            raise ValueError(f"tail bound {self.N} must exceed |k| = {abs(self.k)}")


class TailViolation(_Value):
    """A point where the claimed linear tail fails."""

    n: int
    expected: int
    actual: int


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
    for n in range(N + 2, N + 2 * rule.w + 5, 2):
        actual = rule.apply(zero, n)
        if actual != n + k:
            return TailViolation(n, n + k, actual)
    for n in range(-N - 2 * rule.w - 4, -N, 2):
        actual = rule.apply(zero, n)
        if actual != n - k:
            return TailViolation(n, n - k, actual)
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


MAX_PAD = 10**6


def _odd_offsets(d: int) -> tuple:
    return tuple(k for k in range(-d, d + 1) if k % 2 != 0)


@functools.lru_cache(maxsize=64)
def _scan_plan(w: int, d: int, pad: int) -> tuple:
    """The threshold-0 probe scan as bit masks, ``(runs, gaps, origin, order, rows)``.

    Value ``v`` is bit ``v + origin``.  ``runs`` lists, in scan order,
    ``(ns, i, ones, low)``: every even ``n`` in the range ``ns`` reads table
    position ``i = clamp(-n, -w, w + 1) + w``, so its family value is
    ``n + table[i]`` (free offset ``min(i, 2w + 1 - i)``, negated when
    ``i > w``), and the run's values are ``ones << (low + table[i])``.  Only
    the two tails are longer than one point, and each is one shift.
    ``gaps`` masks the odd values the scan must cover.  ``order`` lists the
    free offsets in the order the scan first reads them.  For ``pad = 0``,
    ``rows[k]`` pairs each value ``x`` of free offset ``order[k]`` with the
    mask of every point that reads it, or None if those points collide.
    """
    reach = w + 2 * d + 4 + pad
    span = w + d + 2 + pad
    origin = reach + d  # no value lies below -reach - d
    ns = range(-reach + reach % 2, reach + 1, 2)
    # position 2w + 1 for n < -w and position 0 for n >= w
    left, right = len(range(ns.start, -w, 2)), len(range(ns.start, w, 2))
    runs = [(ns[:left], 2 * w + 1)]
    runs += [(ns[k:k + 1], w - ns[k]) for k in range(left, right)]
    runs.append((ns[right:], 0))
    order = tuple(dict.fromkeys(min(i, 2 * w + 1 - i) for _, i in runs))
    # a step-2 range of length L at bit 0 is the mask (4**L - 1) // 3
    runs = tuple((r, i, ((1 << 2 * len(r)) - 1) // 3, r.start + origin) for r, i in runs)
    odds = range(-span + 1 - span % 2, span + 1, 2)
    gaps = ((1 << 2 * len(odds)) - 1) // 3 << (odds.start + origin)
    rows = []
    for j in order if pad == 0 else ():
        rows.append([])
        for x in _odd_offsets(d):
            parts = [ones << (low + (x if i <= w else -x)) for _, i, ones, low in runs if min(i, 2 * w + 1 - i) == j]
            # the sum equals the union exactly when no two parts share a bit
            mask = functools.reduce(int.__or__, parts)
            rows[-1].append((x, mask if mask == sum(parts) else None))
    return runs, gaps, origin, order, rows


def _scan(table, runs, gaps: int, origin: int):
    """First failure at threshold 0: ``(n1, n2, v)`` for a collision, ``(v,)`` for a gap, or None.

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
            return (n1, v - table[i], v)
        images |= mask
    missed = gaps & ~images
    return ((missed & -missed).bit_length() - 1 - origin,) if missed else None


def _witness(failure):
    """The public Collision or Gap for a failure tuple from ``_scan``."""
    if failure is None:
        return None
    return Collision(fin(0), *failure) if len(failure) == 3 else Gap(fin(0), *failure)


def bijectivity_witness(rule: LocalRule, pad: int = 0):
    """First collision or gap of the family at threshold 0, or None.

    At a threshold ``m`` the family is a rigid shift outside the window
    ``|n - m| <= w``, so colliding pairs lie within ``w + 2d + 4`` of ``m``
    (two displacements differ by at most ``2d``) and uncovered odd values
    within ``w + d + 2`` (beyond that the matching tail covers).  Scanning
    those finite windows therefore decides bijectivity exactly; ``pad``
    widens both scans, which must never change the verdict.  Only threshold
    ``0`` is scanned: the infinities give rigid shifts, so ``0`` is the
    first probe that can fail, and ``eventually_linear`` with
    ``parity_counts`` says it always does.  None would mean a rule that
    contradicts that lemma.  Raises NotReflectionEquivariant for rules
    outside the hypothesis, and ValueError for a ``pad`` that is not an
    integer in ``[0, MAX_PAD]``.
    """
    bad = r_equivariance_witness(rule)
    if bad is not None:
        raise NotReflectionEquivariant(bad)
    if not isinstance(pad, int) or isinstance(pad, bool) or not 0 <= pad <= MAX_PAD:
        raise ValueError(f"pad must be a non-negative integer at most {MAX_PAD}, got {pad!r}")
    return _witness(_scan(rule.offsets, *_scan_plan(rule.w, rule.d, pad)[:3]))


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
    plan = _scan_plan(w, d, 0)[:3]
    for rule in equivariant_rules(w, d):
        yield rule, _witness(_scan(rule.offsets, *plan))


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
        return {
            "w": self.w,
            "d": self.d,
            "candidates": self.candidates,
            "equivariant": self.equivariant,
            "failed_collision": self.failed_collision,
            "failed_gap": self.failed_gap,
            "survivors": [rule.to_json() for rule in self.survivors],
        }


MAX_SEARCH_W = 4
MAX_SEARCH_D = 9


def _search_counts(w: int, d: int) -> tuple:
    """``[collisions, gaps]`` and the survivors of the ``(w, d)`` rule space.

    A depth-first walk fixes the free offsets in the order the threshold-0
    scan first reads them, and each level ORs the values of every point that
    reads its offset (both tails at level 0) into its parent's image mask.
    A collision there fails every completion, so all of them are counted at
    once.  A leaf holds every point of the window; only gaps are left.

    The walk below a level reads its parent's mask only through
    ``parent & mask`` and ``gaps & ~(parent | mask)`` for the masks of that
    level and the deeper ones, so its outcome depends only on the parent's
    bits in ``seen[level]``, the gap window ORed with every mask of
    ``rows[level:]``.  Each level caches its outcome under that key: the
    collision and gap counts and the survivors' offsets from that level on.  The memo is exact: ``seen`` shrinks
    with depth, so a key determines the keys below it, and every leaf
    outcome still comes from the same mask tests.
    """
    _, gaps, _, order, rows = _scan_plan(w, d, 0)
    last = len(order) - 1
    decided = [len(rows[0]) ** (last - level) for level in range(last + 1)]
    seen = [gaps]
    for row in reversed(rows):
        seen.append(functools.reduce(int.__or__, (mask for _, mask in row if mask is not None), seen[-1]))
    seen.reverse()
    memo = [{} for _ in rows]

    def walk(level: int, parent: int) -> tuple:
        key = parent & seen[level]
        done = memo[level].get(key)
        if done is not None:
            return done
        collisions = missed = 0
        tails = []
        for x, mask in rows[level]:
            if mask is None or key & mask:
                collisions += decided[level]
            elif level < last:
                below = walk(level + 1, key | mask)
                collisions += below[0]
                missed += below[1]
                tails += [(x, *tail) for tail in below[2]]
            elif gaps & ~(key | mask):
                missed += 1
            else:
                tails.append((x,))
        memo[level][key] = done = (collisions, missed, tails)
        return done

    collisions, missed, tails = walk(0, 0)
    # walk reaches itself through its closure cell; unbinding it frees the memo now, not at a collection
    del walk
    # a tail lists the free offsets in ``order``, a permutation of 0 .. w
    survivors = [_equivariant_rule(w, d, tuple(x for _, x in sorted(zip(order, tail)))) for tail in tails]
    return [collisions, missed], survivors


def exhaustive_search(w: int, d: int, jobs: int = 1) -> SearchReport:
    """Scan every rule of radius ``w`` with displacements bounded by ``d``.

    The full table space has ``(#odd offsets)^(2w + 2)`` candidates; it is
    counted in closed form and only its reflection-equivariant subspace is
    materialized, which loses nothing because every rule outside it fails
    the finite table condition the subspace is defined by.  Each surviving
    candidate is then put through the threshold-0 bijectivity scan, shared
    between rules by a depth-first walk whose levels each add every point
    that reads one free offset (the tails at level 0), so every point of
    every rule's window is checked.  The walk decides each subtree once per
    distinct set of image bits its masks and the gap window can still read;
    prefixes that agree on those bits have the same completions fail in the
    same way, so the memo changes no count and no survivor.  ``jobs`` must
    be a positive integer but does not change the run: inside the size
    limits the whole search takes less time than starting a worker pool.
    """
    for name, value, lo, hi in (("radius", w, 0, MAX_SEARCH_W), ("bound", d, 1, MAX_SEARCH_D)):
        if not isinstance(value, int) or isinstance(value, bool) or not lo <= value <= hi:
            raise ValueError(
                f"{name} must be an integer in [{lo}, {hi}] for the exhaustive search, got {value!r}"
            )
    if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
        raise ValueError(f"jobs must be a positive integer, got {jobs!r}")
    (collisions, gaps), survivors = _search_counts(w, d)
    candidates = len(_odd_offsets(d)) ** (2 * w + 2)
    survivors.sort(key=lambda r: r.offsets)
    return SearchReport(w, d, candidates, collisions + gaps + len(survivors), collisions, gaps, tuple(survivors))
