import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import div2
from div2.divider import FinInstance, InstanceError
from div2.localrules import LocalRule
from div2.sequences import (
    MINUS_INF,
    PLUS_INF,
    BiSeq,
    ZInf,
    embed,
    fin,
    parse_zinf,
)

bits = st.integers(0, 1)
starts = st.integers(-30, 30)
cores = st.lists(bits, max_size=8).map(tuple)
biseqs = st.builds(BiSeq, left=bits, start=starts, core=cores, right=bits)
zinfs = st.one_of(st.just(MINUS_INF), st.just(PLUS_INF), st.builds(fin, st.integers(-50, 50)))


def brute_eval(left, start, core, right, n):
    if n < start:
        return left
    if n < start + len(core):
        return core[n - start]
    return right


# --- canonical form ---


def test_canonical_trims_redundant_core():
    assert BiSeq(1, 0, (1, 1, 0, 0), 0) == BiSeq(1, 2, (), 0)
    assert BiSeq(0, 5, (0, 1, 0), 1) == BiSeq(0, 6, (1, 0), 1)


def test_constant_normalizes_start():
    assert BiSeq(0, 17, (), 0) == BiSeq(0, 0, (), 0)
    assert BiSeq(1, -3, (1, 1), 1) == BiSeq.constant(1)


@given(biseqs)
def test_canonical_idempotent(chi):
    assert BiSeq(chi.left, chi.start, chi.core, chi.right) == chi


@given(st.tuples(bits, starts, cores, bits))
def test_canonical_preserves_values(raw):
    left, start, core, right = raw
    chi = BiSeq(left, start, core, right)
    for n in range(start - 3, start + len(core) + 3):
        assert chi.at(n) == brute_eval(left, start, core, right, n)


def test_rejects_bad_bits():
    with pytest.raises(ValueError):
        BiSeq(2, 0, (), 0)
    with pytest.raises(ValueError):
        BiSeq(0, 0, (0, 3), 0)
    with pytest.raises(ValueError):
        BiSeq(0, "0", (), 0)


# --- evaluation ---


def test_eval_examples():
    assert embed(fin(0)).at(-1) == 1
    assert embed(fin(0)).at(0) == 0
    assert embed(MINUS_INF).at(7) == 0
    assert BiSeq(1, 0, (0, 1), 0).at(1) == 1


# --- monotonicity and classification ---


def test_decreasing_examples():
    assert embed(fin(5)).is_decreasing()
    assert embed(PLUS_INF).is_decreasing()
    assert not BiSeq(0, 0, (1,), 0).is_decreasing()
    assert not BiSeq(0, 0, (), 1).is_decreasing()


def test_first_increase_reports_least_index():
    assert BiSeq(0, 0, (), 1).first_increase() == -1
    assert BiSeq(1, 0, (0, 1), 0).first_increase() == 0
    assert embed(fin(3)).first_increase() is None


@given(biseqs)
def test_first_increase_is_correct(chi):
    n = chi.first_increase()
    lo, hi = chi.start - 2, chi.end + 2
    rises = [m for m in range(lo, hi) if chi.at(m) < chi.at(m + 1)]
    assert n == (min(rises) if rises else None)


def test_classify_examples():
    assert BiSeq(1, 4, (), 0).classify() == fin(4)
    assert BiSeq.constant(0).classify() == MINUS_INF
    assert BiSeq.constant(1).classify() == PLUS_INF
    with pytest.raises(ValueError, match="rises"):
        BiSeq(0, 0, (), 1).classify()


@given(zinfs)
def test_embed_classify_round_trip(p):
    assert embed(p).classify() == p


@given(zinfs, st.integers(-60, 60))
def test_embed_threshold_semantics(p, n):
    want = {-1: 0, 1: 1}.get(p.kind, 1 if n < p.n else 0)
    assert embed(p).at(n) == want


# --- window agreement ---


def test_agreement_examples():
    zero = embed(fin(0))
    assert zero.agrees_within(embed(MINUS_INF), 1)
    assert not zero.agrees_within(embed(MINUS_INF), 2)
    assert zero.agrees_within(zero, 10**9)


@given(biseqs, biseqs, st.integers(-3, 12))
@example(BiSeq(0, 5, (1,), 0), BiSeq(1, 5, (1,), 0), 0)  # an empty window, with both cores above it
@example(BiSeq(0, 5, (1,), 0), BiSeq(1, 5, (1,), 0), 3)  # a window wholly in the left tails
def test_agreement_matches_brute_force(a, b, radius):
    brute = all(a.at(m) == b.at(m) for m in range(-radius + 1, radius))
    assert a.agrees_within(b, radius) == brute


@given(biseqs, biseqs, st.integers(1, 12))
def test_agreement_is_monotone(a, b, radius):
    if a.agrees_within(b, radius):
        assert a.agrees_within(b, radius - 1)


def test_agreement_with_huge_radius_is_structural():
    # must not try to enumerate the window
    a = BiSeq(1, 10**15, (0, 1), 0)
    b = BiSeq(1, 10**15, (0, 1), 0)
    assert a.agrees_within(b, 10**18)
    assert not a.agrees_within(b.flip_at(10**15), 10**18)


# --- perturbation ---


@given(biseqs, st.integers(-20, 20))
def test_flip_at_flips_exactly_one_bit(chi, n):
    flipped = chi.flip_at(n)
    assert flipped.at(n) == 1 - chi.at(n)
    for m in range(min(n, chi.start) - 2, max(n, chi.end) + 3):
        if m != n:
            assert flipped.at(m) == chi.at(m)
    assert flipped.flip_at(n) == chi


# --- extended points ---


def test_zinf_validation():
    with pytest.raises(ValueError):
        ZInf(2)
    with pytest.raises(ValueError):
        ZInf(1, 5)
    with pytest.raises(ValueError):
        fin("0")


def test_zinf_threshold():
    assert fin(7).threshold == 7
    with pytest.raises(ValueError):
        MINUS_INF.threshold


def test_zinf_json_round_trip():
    assert [p.to_json() for p in (MINUS_INF, PLUS_INF, fin(0), fin(-12))] == ["-inf", "+inf", 0, -12]
    for p in (MINUS_INF, PLUS_INF, fin(0), fin(-12)):
        assert parse_zinf(str(p)) == p


def test_parse_zinf():
    assert parse_zinf("nbar:4") == fin(4)
    assert parse_zinf("-7") == fin(-7)
    assert parse_zinf("+inf") == PLUS_INF
    assert parse_zinf("-inf") == MINUS_INF
    with pytest.raises(ValueError):
        parse_zinf("nbar:x")


# --- JSON ---


@given(biseqs)
def test_biseq_json_round_trip(chi):
    assert BiSeq.from_json(chi.to_json()) == chi


def test_biseq_json_validation():
    with pytest.raises(ValueError, match="missing"):
        BiSeq.from_json({"left": 0, "start": 0, "core": []})
    with pytest.raises(ValueError, match="unknown"):
        BiSeq.from_json({"left": 0, "start": 0, "core": [], "right": 0, "x": 1})
    with pytest.raises(ValueError):
        BiSeq.from_json([0, 0])


def test_unknown_fields_of_mixed_key_types_raise_the_callers_error():
    cases = (
        (FinInstance.from_json, {"X": [], "Y": [], "map": []}, InstanceError, "instance"),
        (BiSeq.from_json, {"left": 0, "start": 0, "core": [], "right": 0}, ValueError, "sequence"),
        (LocalRule.from_json, {"w": 0, "table": {"allzero": 1, "allone": -1}}, ValueError, "rule"),
    )
    for from_json, fields, error, what in cases:
        for extra in ({1: 0, "z": 0}, {"z": 0, 1: 0}):
            with pytest.raises(error) as info:
                from_json({**fields, **extra})
            assert type(info.value) is error
            assert str(info.value) == f"unknown {what} fields: [1, 'z']"


def test_unknown_fields_are_named_in_the_same_order_under_any_hash_seed():
    code = (
        "from div2.sequences import _check_fields\n"
        "try:\n"
        "    _check_fields({'a': 0, **{k: 0 for k in ('q', 'b', 7, 'zz', -3, None, (1, 'x'), 'y')}}, 'thing', ('a',))\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    outputs = set()
    for seed in ("0", "1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(Path(div2.__file__).parents[1])}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        outputs.add(run.stdout)
    assert outputs == {"unknown thing fields: [None, -3, 7, 'b', 'q', 'y', 'zz', (1, 'x')]\n"}
