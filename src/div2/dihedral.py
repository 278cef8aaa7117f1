"""The infinite dihedral group, in normal form, with its actions.

Elements are written ``r^s t^a`` with ``s`` a reflection bit and ``a`` an
integer shift; the defining relations are ``r^2 = 1`` and ``r t r = t^-1``.
On the integers, ``t`` adds 2 and ``r`` negates, so the group is exactly the
parity-preserving isometries of the line.  The matching actions on
sequences, on extended-integer points, and on tagged points are below.
"""

from __future__ import annotations

from .sequences import MINUS_INF, PLUS_INF, BiSeq, ZInf, _check_bit, _check_int, _Value, fin

EVEN = "even"
ODD = "odd"


class ParityPoint(_Value):
    """An integer with a copy bit; the parity tag is read off ``n``."""

    n: int
    i: int

    def __post_init__(self):
        _check_int(self.n, "n")
        object.__setattr__(self, "i", _check_bit(self.i, "copy bit"))

    @property
    def parity(self) -> str:
        return EVEN if self.n % 2 == 0 else ODD

    def __str__(self) -> str:
        return f"({self.n}, {self.i})"


def _compose(s1: int, a1: int, s2: int, a2: int) -> tuple:
    """``r^s1 t^a1 . r^s2 t^a2 = r^(s1 xor s2) t^(a2 + (-1)^s2 a1)`` as ``(s, a)``, since ``t^a r = r t^-a``."""
    return s1 ^ s2, a2 - a1 if s2 else a2 + a1


_GENERATORS = {"t": (0, 1), "T": (0, -1), "r": (1, 0)}


class DihedralElt(_Value):
    """Group element ``r^reflect t^shift`` with ``reflect`` in {0, 1}."""

    reflect: int
    shift: int

    def __post_init__(self):
        object.__setattr__(self, "reflect", _check_bit(self.reflect, "reflect"))
        _check_int(self.shift, "shift")

    def __mul__(self, other: "DihedralElt") -> "DihedralElt":
        if not isinstance(other, DihedralElt):
            return NotImplemented
        return DihedralElt(*_compose(self.reflect, self.shift, other.reflect, other.shift))

    def inverse(self) -> "DihedralElt":
        # reflections are involutions; pure translations invert the shift
        return DihedralElt(self.reflect, self.shift if self.reflect else -self.shift)

    @classmethod
    def from_word(cls, word: str) -> "DihedralElt":
        """Fold a word over t, T (= t inverse), r into normal form.

        The word reads left to right as a composition applied right to left
        to points, matching ``*``.  Whitespace is ignored.
        """
        s, a = 0, 0
        for pos, ch in enumerate(word):
            if ch.isspace():
                continue
            if ch not in _GENERATORS:
                raise ValueError(f"bad generator {ch!r} at position {pos}: expected t, T, or r")
            s, a = _compose(s, a, *_GENERATORS[ch])
        return cls(s, a)

    def __str__(self) -> str:
        return f"r^{self.reflect} t^{self.shift}"

    def act_int(self, n: int) -> int:
        """Action on the integers: ``t`` adds 2, ``r`` negates."""
        v = n + 2 * self.shift
        return -v if self.reflect else v

    def act_seq(self, chi: BiSeq) -> BiSeq:
        """Action on sequences: (t.chi)(n) = chi(n-2), (r.chi)(n) = 1 - chi(-n)."""
        shifted = BiSeq(chi.left, chi.start + 2 * self.shift, chi.core, chi.right)
        if not self.reflect:
            return shifted
        core = tuple(1 - b for b in reversed(shifted.core))
        return BiSeq(1 - shifted.right, 1 - shifted.start - len(core), core, 1 - shifted.left)

    def act_zinf(self, p: ZInf) -> ZInf:
        """Action on extended-integer points, matching act_seq through embed."""
        if not p.is_finite:
            if self.reflect:
                return PLUS_INF if p.kind < 0 else MINUS_INF
            return p
        n = p.threshold + 2 * self.shift
        return fin(1 - n) if self.reflect else fin(n)

    def act_point(self, p: ParityPoint) -> ParityPoint:
        """Action on tagged points: move the integer, keep the copy bit."""
        return ParityPoint(self.act_int(p.n), p.i)


IDENTITY = DihedralElt(0, 0)
T = DihedralElt(0, 1)
R = DihedralElt(1, 0)
