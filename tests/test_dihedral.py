import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from div2.dihedral import EVEN, IDENTITY, ODD, R, T, DihedralElt, ParityPoint
from div2.sequences import MINUS_INF, PLUS_INF, BiSeq, embed, fin

elements = st.builds(DihedralElt, reflect=st.integers(0, 1), shift=st.integers(-40, 40))
bits = st.integers(0, 1)
biseqs = st.builds(
    BiSeq,
    left=bits,
    start=st.integers(-15, 15),
    core=st.lists(bits, max_size=6).map(tuple),
    right=bits,
)
zinfs = st.one_of(st.just(MINUS_INF), st.just(PLUS_INF), st.builds(fin, st.integers(-30, 30)))
words = st.text(alphabet="tTr", max_size=10)


def word_to_int_fn(word):
    """Independent oracle: compose the generator actions literally."""

    def act(n):
        for ch in reversed(word):
            if ch == "t":
                n = n + 2
            elif ch == "T":
                n = n - 2
            else:
                n = -n
        return n

    return act


def rewrite_to_normal_form(word):
    """Independent oracle: reduce a word with t^a r -> r t^-a, r r -> 1."""
    reflect, shift = 0, 0
    for ch in word:
        if ch == "t":
            shift += 1
        elif ch == "T":
            shift -= 1
        else:  # appending r on the right: r^s t^a r = r^(s+1) t^-a
            reflect ^= 1
            shift = -shift
    return reflect, shift


# --- group structure ---


def test_defining_relations():
    assert R * R == IDENTITY
    assert R * T * R == T.inverse()


def test_normal_form_product_example():
    g = DihedralElt(1, 1) * DihedralElt(1, 2)
    assert g == DihedralElt(0, 1)


def test_inverse_examples():
    assert DihedralElt(0, 5).inverse() == DihedralElt(0, -5)
    assert DihedralElt(1, 5).inverse() == DihedralElt(1, 5)


@given(elements)
def test_inverse_law(g):
    assert g * g.inverse() == IDENTITY
    assert g.inverse() * g == IDENTITY


@given(elements, elements, elements)
def test_associativity(g, h, k):
    assert (g * h) * k == g * (h * k)


@given(words)
def test_from_word_matches_rewriting_oracle(word):
    g = DihedralElt.from_word(word)
    assert (g.reflect, g.shift) == rewrite_to_normal_form(word)


@given(words, st.integers(-25, 25))
def test_word_action_matches_literal_composition(word, n):
    assert DihedralElt.from_word(word).act_int(n) == word_to_int_fn(word)(n)


def test_from_word_rejects_garbage():
    with pytest.raises(ValueError, match="position 2"):
        DihedralElt.from_word("trx")


def test_product_with_a_non_element_is_a_type_error():
    with pytest.raises(TypeError):
        T * 3
    with pytest.raises(TypeError):
        3 * R


def test_str_is_normal_form():
    assert str(DihedralElt(1, -3)) == "r^1 t^-3"
    assert str(IDENTITY) == "r^0 t^0"


def test_validation():
    with pytest.raises(ValueError):
        DihedralElt(2, 0)
    with pytest.raises(ValueError):
        DihedralElt(0, 1.5)
    # a bit given as a float or a bool is stored as an int
    assert DihedralElt(1.0, 0) * R == IDENTITY
    assert DihedralElt(1.0, 3).inverse() * DihedralElt(1.0, 3) == IDENTITY
    assert str(ParityPoint(0, True)) == "(0, 1)"


# --- action on integers ---


def test_act_int_generators():
    assert T.act_int(0) == 2
    assert R.act_int(5) == -5
    assert DihedralElt.from_word("rt").act_int(0) == -2
    assert DihedralElt.from_word("tr").act_int(0) == 2


@given(elements)
def test_act_int_preserves_parity(g):
    assert g.act_int(4) % 2 == 0
    assert g.act_int(7) % 2 == 1


# --- action on sequences ---


def test_act_seq_generators_pointwise():
    chi = BiSeq(1, 0, (0, 1), 0)
    t_chi = T.act_seq(chi)
    r_chi = R.act_seq(chi)
    for n in range(-8, 8):
        assert t_chi.at(n) == chi.at(n - 2)
        assert r_chi.at(n) == 1 - chi.at(-n)


@given(elements, biseqs, st.integers(-20, 20))
def test_act_seq_pointwise_formula(g, chi, n):
    # r^s t^a acts by (g.chi)(n) = chi applied at the inverse-moved index,
    # with a complement when reflecting
    moved = g.act_seq(chi)
    if g.reflect:
        assert moved.at(n) == 1 - chi.at(-n - 2 * g.shift)
    else:
        assert moved.at(n) == chi.at(n - 2 * g.shift)


@given(elements, elements, biseqs)
def test_act_seq_is_an_action(g, h, chi):
    assert (g * h).act_seq(chi) == g.act_seq(h.act_seq(chi))
    assert IDENTITY.act_seq(chi) == chi


@given(elements, biseqs)
def test_act_seq_preserves_decreasing(g, chi):
    assert g.act_seq(chi).is_decreasing() == chi.is_decreasing()


# --- action on extended points ---


def test_act_zinf_examples():
    assert R.act_zinf(MINUS_INF) == PLUS_INF
    assert R.act_zinf(PLUS_INF) == MINUS_INF
    assert T.act_zinf(fin(-2)) == fin(0)
    assert R.act_zinf(fin(3)) == fin(-2)
    assert T.act_zinf(MINUS_INF) == MINUS_INF


@given(elements, zinfs)
def test_act_zinf_matches_act_seq_through_embed(g, p):
    assert g.act_seq(embed(p)).classify() == g.act_zinf(p)


@given(elements, elements, zinfs)
def test_act_zinf_is_an_action(g, h, p):
    assert (g * h).act_zinf(p) == g.act_zinf(h.act_zinf(p))


# --- action on tagged points ---


def test_act_point_moves_integer_keeps_bit():
    p = ParityPoint(4, 1)
    assert T.act_point(p) == ParityPoint(6, 1)
    assert R.act_point(p) == ParityPoint(-4, 1)


def test_parity_tag():
    assert ParityPoint(0, 0).parity == EVEN
    assert ParityPoint(-3, 1).parity == ODD


@given(elements, elements, st.integers(-30, 30), bits)
def test_act_point_is_an_action(g, h, n, i):
    p = ParityPoint(n, i)
    assert (g * h).act_point(p) == g.act_point(h.act_point(p))


def test_random_word_fold_is_faithful_on_integers():
    rng = random.Random(20260819)
    samples = [-9, -2, 0, 1, 6, 13]
    for _ in range(300):
        word = "".join(rng.choice("tTr") for _ in range(rng.randrange(0, 12)))
        g = DihedralElt.from_word(word)
        oracle = word_to_int_fn(word)
        for n in samples:
            assert g.act_int(n) == oracle(n)
