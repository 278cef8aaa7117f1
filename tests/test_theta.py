import random

from hypothesis import given
from hypothesis import strategies as st

from div2.dihedral import R, T, DihedralElt, ParityPoint
from div2.sequences import MINUS_INF, PLUS_INF, BiSeq, embed, fin
from div2.theta import (
    ThetaResult,
    equivariance_witness,
    self_inverse_witness,
    theta,
    window_radius,
)

bits = st.integers(0, 1)
biseqs = st.builds(
    BiSeq,
    left=bits,
    start=st.integers(-10, 10),
    core=st.lists(bits, max_size=6).map(tuple),
    right=bits,
)
points = st.builds(ParityPoint, n=st.integers(-20, 20), i=bits)
even_points = st.builds(ParityPoint, n=st.integers(-10, 10).map(lambda k: 2 * k), i=bits)
elements = st.builds(DihedralElt, reflect=st.integers(0, 1), shift=st.integers(-10, 10))


def brute_theta(chi, p):
    """The defining formula, restated directly against at()."""
    if p.i == chi.at(p.n):
        return ParityPoint(p.n + 1, 1 - chi.at(p.n + 1))
    return ParityPoint(p.n - 1, chi.at(p.n - 1))


def test_examples_at_zero_threshold():
    zero = embed(fin(0))
    assert theta(zero, ParityPoint(0, 0)).point == ParityPoint(1, 1)
    assert theta(zero, ParityPoint(0, 1)).point == ParityPoint(-1, 1)


def test_example_at_minus_infinity():
    chi = embed(MINUS_INF)
    for n in (-6, -2, 0, 4):
        assert theta(chi, ParityPoint(n, 0)).point == ParityPoint(n + 1, 1)
        assert theta(chi, ParityPoint(n, 1)).point == ParityPoint(n - 1, 0)


def test_example_at_plus_infinity():
    chi = embed(PLUS_INF)
    for n in (-4, 0, 2):
        assert theta(chi, ParityPoint(n, 1)).point == ParityPoint(n + 1, 0)
        assert theta(chi, ParityPoint(n, 0)).point == ParityPoint(n - 1, 1)


@given(biseqs, points)
def test_matches_defining_formula(chi, p):
    assert theta(chi, p).point == brute_theta(chi, p)


@given(biseqs, points)
def test_flips_parity_and_moves_by_one(chi, p):
    out = theta(chi, p).point
    assert abs(out.n - p.n) == 1
    assert out.parity != p.parity


@given(biseqs, points)
def test_self_inverse(chi, p):
    assert self_inverse_witness(chi, p) is None


@given(biseqs, even_points)
def test_generator_equivariance(chi, p):
    assert equivariance_witness(T, chi, p) is None
    assert equivariance_witness(R, chi, p) is None


@given(elements, biseqs, even_points)
def test_equivariance_for_arbitrary_elements(g, chi, p):
    assert equivariance_witness(g, chi, p) is None


def shift_by_one(chi, p):
    """A stand-in for theta that is neither self-inverse nor reflection equivariant."""
    return ThetaResult(ParityPoint(p.n + 1, 1 - p.i), (p.n,))


def test_self_inverse_witness_reports_a_failure(monkeypatch):
    monkeypatch.setattr("div2.theta.theta", shift_by_one)
    chi, p = embed(fin(0)), ParityPoint(0, 0)
    witness = self_inverse_witness(chi, p)
    assert (witness.chi, witness.p, witness.image, witness.back) == (chi, p, ParityPoint(1, 1), ParityPoint(2, 0))


def test_equivariance_witness_reports_a_failure(monkeypatch):
    monkeypatch.setattr("div2.theta.theta", shift_by_one)
    chi, p = embed(fin(0)), ParityPoint(2, 0)
    witness = equivariance_witness(R, chi, p)
    assert (witness.g, witness.chi, witness.p) == (R, chi, p)
    assert (witness.lhs, witness.rhs) == (ParityPoint(-1, 1), ParityPoint(-3, 1))


def test_depends_on_is_the_three_point_window():
    chi = embed(fin(2))
    assert theta(chi, ParityPoint(6, 0)).depends_on == (5, 6, 7)


def test_window_radius_examples():
    assert window_radius(ParityPoint(0, 0)) == 2
    assert window_radius(ParityPoint(6, 1)) == 8
    assert window_radius(ParityPoint(-6, 1)) == 8


@given(biseqs, points, st.data())
def test_agreement_inside_radius_fixes_value(chi, p, data):
    radius = window_radius(p)
    # perturb chi anywhere outside the open window |m| < radius
    far = data.draw(
        st.lists(
            st.integers(radius, radius + 10).flatmap(lambda m: st.sampled_from([m, -m])),
            max_size=4,
        )
    )
    other = chi
    for m in far:
        other = other.flip_at(m)
    assert other.agrees_within(chi, radius)
    assert theta(other, p).point == theta(chi, p).point


def test_radius_is_tight():
    # flipping chi exactly at n + 1 = |n| + 1 (inside radius |n| + 2,
    # outside |n| + 1) changes the image, so the radius cannot shrink
    chi = embed(fin(0))
    p = ParityPoint(0, 0)
    bumped = chi.flip_at(1)
    assert bumped.agrees_within(chi, 1)
    assert theta(bumped, p).point != theta(chi, p).point


def test_randomized_suite_seeded():
    rng = random.Random(4096)
    for _ in range(500):
        core = tuple(rng.randrange(2) for _ in range(rng.randrange(0, 6)))
        chi = BiSeq(rng.randrange(2), rng.randrange(-8, 9), core, rng.randrange(2))
        p = ParityPoint(rng.randrange(-10, 11), rng.randrange(2))
        assert self_inverse_witness(chi, p) is None
        out = theta(chi, p).point
        assert out.parity != p.parity
