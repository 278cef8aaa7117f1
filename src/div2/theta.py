"""The explicit pairing family between even and odd tagged integers.

For a parameter sequence chi, the map sends a pair (n, i) to

    (n + 1, 1 - chi(n + 1))   when i = chi(n),
    (n - 1, chi(n - 1))       otherwise.

Applied to even n it lands on odd integers and vice versa, it flips the
copy bit, and the same formula run backwards is its own inverse.  The
value reads chi only at n - 1, n, n + 1, so two parameters that agree on
the window |m| < |n| + 2 give the same image -- the family is continuous
with an explicit modulus.  It also commutes with the dihedral action on
parameter and point together, which is what the naive shift-by-one
families cannot do.
"""

from __future__ import annotations

from .dihedral import DihedralElt, ParityPoint
from .sequences import BiSeq, _Value


class ThetaResult(_Value):
    """Image point plus the chi indices the value actually read."""

    point: ParityPoint
    depends_on: tuple


def theta(chi: BiSeq, p: ParityPoint) -> ThetaResult:
    """Evaluate the pairing map at ``p`` with parameter ``chi``."""
    n = p.n
    if p.i == chi.at(n):
        out = ParityPoint(n + 1, 1 - chi.at(n + 1))
    else:
        out = ParityPoint(n - 1, chi.at(n - 1))
    return ThetaResult(out, (n - 1, n, n + 1))


def window_radius(p: ParityPoint) -> int:
    """Agreement radius at ``p``: parameters equal on ``|m| < radius`` give equal images."""
    return abs(p.n) + 2


class SelfInverseWitness(_Value):
    chi: BiSeq
    p: ParityPoint
    image: ParityPoint
    back: ParityPoint


def self_inverse_witness(chi: BiSeq, p: ParityPoint) -> SelfInverseWitness | None:
    """None if applying the map twice returns to ``p``; otherwise the failure."""
    image = theta(chi, p).point
    back = theta(chi, image).point
    if back == p:
        return None
    return SelfInverseWitness(chi, p, image, back)


class EquivarianceWitness(_Value):
    g: DihedralElt
    chi: BiSeq
    p: ParityPoint
    lhs: ParityPoint
    rhs: ParityPoint


def equivariance_witness(g: DihedralElt, chi: BiSeq, p: ParityPoint) -> EquivarianceWitness | None:
    """Check theta_{g.chi}(g.p) = g.theta_chi(p); None on success, else both sides."""
    lhs = theta(g.act_seq(chi), g.act_point(p)).point
    rhs = g.act_point(theta(chi, p).point)
    if lhs == rhs:
        return None
    return EquivarianceWitness(g, chi, p, lhs, rhs)
