"""Two-sided binary sequences with eventually constant tails.

A ``BiSeq`` is a function from the integers to bits that equals ``left``
strictly below ``start``, runs through a finite ``core`` block, and equals
``right`` from ``start + len(core)`` on.  This fragment is closed under
everything done to sequences here -- shifts, reflect-complement, finitely
many bit flips -- and keeps equality, monotonicity, classification, and
window agreement decidable.

Decreasing sequences are classified by ``ZInf``: the constant sequences are
the two infinities, and the step with ones strictly below ``n`` is the
finite point ``n``.

The package's value classes derive from ``_Value``: frozen records that
compare, hash and print by field, built without importing ``dataclasses``.
"""

from __future__ import annotations

import collections
import functools


class _Value:
    """Base of the frozen value classes: the fields are the class's own annotations.

    A class attribute of a field's name is its default.  ``__init__`` takes
    the fields by position or keyword into the instance dict, which holds
    nothing else, then runs ``__post_init__`` to check them; a check that
    normalizes a field writes it back into that dict.  Python binds the
    arguments: a call that does not pass every field by position goes
    through the constructor of ``_binder(cls)``, which raises Python's own
    ``TypeError`` for a missing, extra, repeated or unknown argument.  As in
    a frozen dataclass, instances of one class are equal when their fields
    are, hash as the field tuple and print as ``Name(field=value, ...)``;
    assignment and deletion raise ``AttributeError``.  ``__match_args__``
    lists the fields.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self.__match_args__):
            args = _binder(self.__class__)(*args, **kwargs)
        self.__dict__.update(zip(self.__match_args__, args))
        self.__post_init__()

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(tuple(map(self.__dict__.__getitem__, self.__match_args__)))

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


@functools.cache
def _binder(cls) -> type:
    """A namedtuple of ``cls``'s fields and defaults, whose constructor binds arguments as ``cls`` takes them.

    namedtuple gives its defaults to the last fields, so a defaulted field
    must not come before one without a default.
    """
    fields = cls.__match_args__
    return collections.namedtuple(cls.__name__, fields, defaults=[vars(cls)[name] for name in fields if name in vars(cls)])


def _check_bit(value, what: str = "bit") -> int:
    """``value`` as the int 0 or 1; ``True``, ``False``, ``1.0`` and ``0.0`` are read as 1 and 0."""
    if value not in (0, 1):
        raise ValueError(f"{what} must be 0 or 1, got {value!r}")
    return 1 if value else 0


def _check_int(value, what: str, kind: str = "an integer", ok=None) -> int:
    """``value`` if an int, not a bool, for which ``ok`` holds when given; else ValueError ``{what} must be {kind}``."""
    if isinstance(value, bool) or not isinstance(value, int) or ok is not None and not ok(value):
        raise ValueError(f"{what} must be {kind}, got {value!r}")
    return value


def _check_fields(obj, what: str, required, optional=(), error=ValueError) -> None:
    """Raise ``error`` unless ``obj`` is a dict with every ``required`` field and no other but ``optional``.

    Missing fields are named before unknown ones; unknown keys of any type
    are named sorted by type name and then by text.
    """
    if not isinstance(obj, dict):
        raise error(f"{what} must be an object, got {type(obj).__name__}")
    missing = set(required) - set(obj)
    if missing:
        raise error(f"missing {what} fields: {sorted(missing)}")
    extra = sorted(set(obj) - set(required) - set(optional), key=lambda key: (type(key).__name__, str(key)))
    if extra:
        raise error(f"unknown {what} fields: {extra}")


class ZInf(_Value):
    """A point of the extended integer line: ``-inf``, a finite ``n``, or ``+inf``.

    Each point names a decreasing sequence: ``fin(n)`` is 1 strictly below
    ``n`` and 0 from ``n`` on, and the infinities name the two constants.
    ``kind`` is -1, 0, or +1; ``n`` is meaningful only when ``kind`` is 0.
    """

    kind: int
    n: int = 0

    def __post_init__(self):
        if self.kind not in (-1, 0, 1):
            raise ValueError(f"kind must be -1, 0, or 1, got {self.kind!r}")
        _check_int(self.n, "n")
        if self.kind != 0 and self.n != 0:
            raise ValueError("infinite points carry no threshold")

    @property
    def threshold(self) -> int:
        if self.kind != 0:
            raise ValueError(f"{self} has no threshold")
        return self.n

    def to_json(self):
        if self.kind < 0:
            return "-inf"
        if self.kind > 0:
            return "+inf"
        return self.n

    def __str__(self) -> str:
        return f"nbar:{self.n}" if self.kind == 0 else self.to_json()


MINUS_INF = ZInf(-1, 0)
PLUS_INF = ZInf(1, 0)


def fin(n: int) -> ZInf:
    """The finite point with threshold ``n``."""
    return ZInf(0, n)


def parse_zinf(text: str) -> ZInf:
    """Parse ``-inf``, ``+inf``, ``nbar:K``, or a bare integer."""
    text = text.strip()
    if text == "-inf":
        return MINUS_INF
    if text in ("+inf", "inf"):
        return PLUS_INF
    if text.startswith("nbar:"):
        text = text[len("nbar:"):]
    try:
        return fin(int(text))
    except ValueError:
        raise ValueError(
            f"cannot parse {text!r} as a point: expected -inf, +inf, nbar:K, or an integer"
        ) from None


class BiSeq(_Value):
    """An eventually constant two-sided binary sequence, in canonical form.

    The constructor trims core entries that merely repeat the adjacent tail
    value and pins ``start`` to 0 for constants, so structural equality is
    extensional equality.
    """

    left: int
    start: int
    core: tuple = ()
    right: int = 0

    def __post_init__(self):
        left = _check_bit(self.left, "left")
        right = _check_bit(self.right, "right")
        start = _check_int(self.start, "start")
        core = tuple(_check_bit(b, "core entry") for b in self.core)
        i, j = 0, len(core)
        while i < j and core[i] == left:
            i += 1
        while j > i and core[j - 1] == right:
            j -= 1
        start += i
        core = core[i:j]
        if not core and left == right:
            start = 0
        self.__dict__.update(left=left, start=start, core=core, right=right)

    @property
    def end(self) -> int:
        """First index of the right tail."""
        return self.start + len(self.core)

    def at(self, n: int) -> int:
        """The bit at index ``n``."""
        if n < self.start:
            return self.left
        if n < self.end:
            return self.core[n - self.start]
        return self.right

    def first_increase(self) -> int | None:
        """Least ``n`` with ``at(n) < at(n+1)``, or None if decreasing."""
        for n in range(self.start - 1, self.end + 1):
            if self.at(n) < self.at(n + 1):
                return n
        return None

    def is_decreasing(self) -> bool:
        return self.first_increase() is None

    def classify(self) -> ZInf:
        """The extended-integer point this sequence is, if it is decreasing.

        The constants map to the infinities and the downward step at ``n``
        maps to the finite point ``n``.  Raises ValueError, naming the first
        rising index, when the sequence is not decreasing.
        """
        n = self.first_increase()
        if n is not None:
            raise ValueError(f"sequence is not decreasing: rises between indices {n} and {n + 1}")
        if not self.core and self.left == self.right:
            return MINUS_INF if self.left == 0 else PLUS_INF
        # a canonical decreasing non-constant sequence is a bare 1|0 step
        return fin(self.start)

    def agrees_within(self, other: "BiSeq", radius: int) -> bool:
        """Whether the two sequences are equal at every index ``|m| < radius``."""
        if radius < 1:
            return True
        # both sequences are constant up to ``first`` and from ``last`` on, so the window is clamped to that range
        first, last = min(self.start, other.start) - 1, max(self.end, other.end)
        lo, hi = min(max(1 - radius, first), last), max(min(radius - 1, last), first)
        return all(self.at(m) == other.at(m) for m in range(lo, hi + 1))

    def flip_at(self, n: int) -> "BiSeq":
        """A copy with the bit at index ``n`` flipped."""
        lo = min(self.start, n)
        hi = max(self.end - 1, n)
        bits = [self.at(m) for m in range(lo, hi + 1)]
        bits[n - lo] ^= 1
        return BiSeq(self.left, lo, tuple(bits), self.right)

    @classmethod
    def constant(cls, bit: int) -> "BiSeq":
        return cls(bit, 0, (), bit)

    def to_json(self) -> dict:
        return dict(vars(self), core=list(self.core))

    @classmethod
    def from_json(cls, obj) -> "BiSeq":
        _check_fields(obj, "sequence", ("left", "start", "core", "right"))
        if not isinstance(obj["core"], (list, tuple)):
            raise ValueError("core must be an array of bits")
        return cls(obj["left"], obj["start"], tuple(obj["core"]), obj["right"])


def embed(p: ZInf) -> BiSeq:
    """The decreasing sequence a point stands for."""
    if p.kind < 0:
        return BiSeq(0, 0, (), 0)
    if p.kind > 0:
        return BiSeq(1, 0, (), 1)
    return BiSeq(1, p.n, (), 0)
