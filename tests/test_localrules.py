import functools
import gc
import hashlib
import itertools
import random
import time
import tracemalloc

import pytest

from div2 import localrules
from div2.localrules import (
    Collision,
    Gap,
    LinearTail,
    LocalRule,
    NotReflectionEquivariant,
    SearchReport,
    TailViolation,
    WindowPattern,
    all_patterns,
    bijectivity_witness,
    equivariant_rules,
    eventually_linear,
    exhaustive_search,
    iterate_verdicts,
    naive_family_witness,
    parity_counts,
    r_equivariance_witness,
)
from div2.sequences import MINUS_INF, PLUS_INF, embed, fin

RULE_GAP = LocalRule(0, 1, (1, -1))  # allzero -> +1, allone -> -1
RULE_COLLIDE = LocalRule(0, 1, (-1, 1))  # allzero -> -1, allone -> +1


def odd_offsets(d):
    return [k for k in range(-d, d + 1) if k % 2 != 0]


def brute_equivariant_offset_tuples(w, d):
    """Independent route: filter the full table space by the pairing condition."""
    out = []
    for combo in itertools.product(odd_offsets(d), repeat=2 * w + 2):
        if all(combo[(1 - cut) + w] == -combo[cut + w] for cut in range(-w, w + 2)):
            out.append(combo)
    return out


def canonical_probes(w, d):
    """Both infinities, then every threshold ``|m| <= w + d + 2`` by size, negative first."""
    span = w + d + 2
    finite = sorted(range(-span, span + 1), key=lambda m: (abs(m), m))
    return [MINUS_INF, PLUS_INF] + [fin(m) for m in finite]


def reference_witness(rule, pad=0):
    """Independent route: scan every finite threshold in canonical order with ``rule.apply``.

    ``pad`` widens the collision and gap windows around each threshold, which
    must never change the verdict.
    """
    reach = rule.w + 2 * rule.d + 4 + pad
    span = rule.w + rule.d + 2 + pad
    for chi in canonical_probes(rule.w, rule.d)[2:]:
        m = chi.threshold
        images = {}
        for n in range(m - reach + (m - reach) % 2, m + reach + 1, 2):
            v = rule.apply(chi, n)
            if v in images:
                return Collision(chi, images[v], n, v)
            images[v] = n
        for v in range(m - span, m + span + 1):
            if v % 2 != 0 and v not in images:
                return Gap(chi, v)
    return None


def assert_witness_is_real(rule, witness):
    """Re-check a search verdict from scratch, with a wider scan than the search used."""
    reach = rule.w + 3 * rule.d + 9
    if isinstance(witness, Collision):
        assert witness.n1 != witness.n2
        assert rule.apply(witness.chi, witness.n1) == witness.value
        assert rule.apply(witness.chi, witness.n2) == witness.value
    elif isinstance(witness, Gap):
        assert witness.value % 2 != 0
        m = witness.chi.threshold
        lo = m - reach + (m - reach) % 2
        hits = [n for n in range(lo, m + reach + 1, 2) if rule.apply(witness.chi, n) == witness.value]
        assert hits == []
    else:
        raise AssertionError(f"unexpected verdict {witness!r}")


# --- window patterns ---


def bits(pat):
    """The window as a bit vector on ``[-w, w]``: ones strictly below the cut."""
    return tuple(1 if j < pat.cut else 0 for j in range(-pat.w, pat.w + 1))


def test_pattern_bits_and_extremes():
    assert bits(WindowPattern(1, -1)) == (0, 0, 0)
    assert bits(WindowPattern(1, 2)) == (1, 1, 1)
    assert bits(WindowPattern(1, 0)) == (1, 0, 0)
    assert WindowPattern(1, -1).name() == "allzero"
    assert WindowPattern(1, 2).name() == "allone"


def test_pattern_count():
    for w in range(4):
        assert len(all_patterns(w)) == 2 * w + 2


def test_from_bits_round_trip_and_rejection():
    # the patterns are exactly the decreasing windows, each once
    for w in range(3):
        windows = [bits(pat) for pat in all_patterns(w)]
        vectors = itertools.product((0, 1), repeat=2 * w + 1)
        decreasing = [b for b in vectors if list(b) == sorted(b, reverse=True)]
        assert sorted(windows) == sorted(decreasing)
        assert len(set(windows)) == len(windows)
    assert (0, 1, 0) not in [bits(pat) for pat in all_patterns(1)]


def test_reflect_complement_is_a_fixed_point_free_involution():
    for w in range(4):
        for pat in all_patterns(w):
            rc = pat.reflect_complement()
            assert rc != pat
            assert rc.reflect_complement() == pat
    assert WindowPattern(2, -2).reflect_complement() == WindowPattern(2, 3)


def test_reflect_complement_matches_bitwise_definition():
    for w in range(4):
        for pat in all_patterns(w):
            assert bits(pat.reflect_complement()) == tuple(1 - b for b in reversed(bits(pat)))


def test_pattern_names_parse_back():
    for w in range(3):
        for pat in all_patterns(w):
            assert WindowPattern.parse(w, pat.name()) == pat
    assert WindowPattern.parse(0, "cut:0") == WindowPattern.parse(0, "allzero")
    assert WindowPattern.parse(0, "cut:1") == WindowPattern.parse(0, "allone")
    with pytest.raises(ValueError):
        WindowPattern.parse(1, "nonsense")


def test_from_zinf_windows():
    assert WindowPattern.from_zinf(1, fin(0), 4) == WindowPattern(1, -1)  # all zero
    assert WindowPattern.from_zinf(1, fin(0), -4) == WindowPattern(1, 2)  # all one
    assert WindowPattern.from_zinf(1, fin(0), 0) == WindowPattern(1, 0)
    assert WindowPattern.from_zinf(2, MINUS_INF, 0) == WindowPattern(2, -2)
    assert WindowPattern.from_zinf(2, PLUS_INF, 0) == WindowPattern(2, 3)


def test_from_zinf_agrees_with_sequence_bits():
    for m in range(-6, 7):
        chi = embed(fin(m))
        for center in range(-6, 7, 2):
            pat = WindowPattern.from_zinf(2, fin(m), center)
            assert bits(pat) == tuple(chi.at(center + j) for j in range(-2, 3))


# --- rules ---


def test_rule_validation():
    with pytest.raises(ValueError, match="odd"):
        LocalRule(0, 2, (2, -2))
    with pytest.raises(ValueError, match="exceeds bound"):
        LocalRule(0, 1, (3, -3))
    with pytest.raises(ValueError, match="cover all"):
        LocalRule(1, 1, (1, -1))
    with pytest.raises(ValueError, match="positive"):
        LocalRule(0, 0, ())


def test_rule_apply_on_thresholds():
    # gap rule sends n >= 0 up and n < 0 down at the zero threshold
    for n in (0, 2, 8):
        assert RULE_GAP.apply(fin(0), n) == n + 1
    for n in (-2, -6):
        assert RULE_GAP.apply(fin(0), n) == n - 1
    for n in (-4, 0, 4):
        assert RULE_GAP.apply(MINUS_INF, n) == n + 1
        assert RULE_GAP.apply(PLUS_INF, n) == n - 1


def test_rule_apply_requires_even_argument():
    with pytest.raises(ValueError, match="even"):
        RULE_GAP.apply(fin(0), 3)


def test_rule_table_and_offset():
    rule = LocalRule(1, 3, (1, 3, -3, -1))
    assert rule.offset(WindowPattern(1, -1)) == 1
    assert rule.offset(WindowPattern(1, 2)) == -1
    assert rule.offset(WindowPattern(1, 0)) == 3
    assert rule.to_json()["table"] == {"allzero": 1, "cut:0": 3, "cut:1": -3, "allone": -1}
    with pytest.raises(ValueError, match="radius"):
        rule.offset(WindowPattern(2, 0))


def test_rule_json_round_trip():
    rule = LocalRule(1, 5, (1, 3, -3, -1))
    again = LocalRule.from_json(rule.to_json())
    assert again == rule
    parsed = LocalRule.from_json({"w": 0, "table": {"cut:1": 1, "cut:0": -1}})
    assert parsed == LocalRule(0, 1, (-1, 1))
    named = LocalRule.from_json({"w": 0, "table": {"allzero": -1, "allone": 1}})
    assert named == parsed


def test_rule_json_validation():
    with pytest.raises(ValueError, match=r"missing patterns: \['cut:0', 'cut:1'\]$"):
        LocalRule.from_json({"w": 1, "table": {"allzero": 1, "allone": -1}})
    few = r"missing patterns: \['allzero', 'cut:-2', 'cut:1'\] and 3 more$"
    with pytest.raises(ValueError, match=few):
        LocalRule.from_json({"w": 3, "table": {"cut:-1": 1, "cut:0": -1}})
    with pytest.raises(ValueError, match="tabled twice"):
        LocalRule.from_json({"w": 0, "table": {"allzero": 1, "cut:0": 1, "allone": -1}})
    with pytest.raises(ValueError, match="pattern allzero tabled twice"):
        LocalRule.from_json({"w": 1, "table": {"allzero": 1, "cut:-1": 1}})
    with pytest.raises(ValueError, match="bad pattern name 'cut:9'"):
        LocalRule.from_json({"w": 1, "table": {"cut:9": 1}})
    with pytest.raises(ValueError, match="unknown rule fields"):
        LocalRule.from_json({"w": 0, "table": {"allzero": 1, "allone": -1}, "zz": 0})
    for w in ("x", True, -1, 1.0):
        with pytest.raises(ValueError, match="radius"):
            LocalRule.from_json({"w": w, "table": {"allzero": 1, "allone": -1}})
    with pytest.raises(ValueError, match="offset for allzero must be an integer, got 1.0"):
        LocalRule.from_json({"w": 0, "table": {"allzero": 1.0, "allone": -1}})


# --- reflection equivariance ---


def test_equivariance_table_condition():
    assert r_equivariance_witness(RULE_GAP) is None
    assert r_equivariance_witness(RULE_COLLIDE) is None
    bad = r_equivariance_witness(LocalRule(0, 1, (1, 1)))
    assert bad is not None and bad.name() == "allzero"


def test_equivariant_table_condition_matches_pointwise_action():
    # table condition <=> phi_{r.chi}(-n) = -phi_chi(n) on probes
    from div2.dihedral import R

    for rule in equivariant_rules(1, 3):
        for chi in canonical_probes(1, 3):
            for n in range(-8, 9, 2):
                assert rule.apply(R.act_zinf(chi), -n) == -rule.apply(chi, n)


def test_non_equivariant_rule_violates_pointwise_somewhere():
    from div2.dihedral import R

    rule = LocalRule(0, 1, (1, 1))
    violations = [
        (chi, n)
        for chi in canonical_probes(0, 1)
        for n in range(-6, 7, 2)
        if rule.apply(R.act_zinf(chi), -n) != -rule.apply(chi, n)
    ]
    assert violations


# --- the naive families ---


def test_naive_witness_golden():
    from div2.dihedral import R

    witness = naive_family_witness()
    assert witness.g == R
    assert witness.chi == fin(0)
    assert witness.n == 0
    assert (witness.lhs, witness.rhs) == (1, -1)
    assert witness.lhs - witness.rhs == 2


def test_naive_witness_gap_is_twice_delta():
    for delta in (1, -1, 3):
        for n in (-4, 0, 10):
            witness = naive_family_witness(delta, n=n)
            assert witness.lhs - witness.rhs == 2 * delta
            assert witness.lhs != witness.rhs


def test_naive_family_does_commute_with_translation():
    # only the reflection witnesses: f(n + 2) == f(n) + 2 holds identically
    for delta in (1, -1):
        for n in range(-6, 7, 2):
            assert (n + 2) + delta == (n + delta) + 2


def test_naive_witness_check_survives_optimisation(monkeypatch):
    # a shift commutes with the identity, so the witness check must raise,
    # and not through an assert that python -O strips
    import div2.localrules
    from div2.dihedral import IDENTITY

    monkeypatch.setattr(div2.localrules, "R", IDENTITY)
    with pytest.raises(RuntimeError, match="commutes"):
        naive_family_witness()


def test_naive_witness_validation():
    with pytest.raises(ValueError, match="odd"):
        naive_family_witness(2)
    with pytest.raises(ValueError, match="even"):
        naive_family_witness(1, n=3)


# --- eventual linearity ---


def test_eventually_linear_goldens():
    assert eventually_linear(RULE_GAP) == LinearTail(1, 2)
    assert eventually_linear(LocalRule(0, 3, (3, -3))) == LinearTail(3, 4)
    assert eventually_linear(LocalRule(2, 1, (1, 1, 1, -1, -1, -1))) == LinearTail(1, 4)
    assert eventually_linear(RULE_COLLIDE) == LinearTail(-1, 2)


def test_eventually_linear_requires_equivariance():
    with pytest.raises(NotReflectionEquivariant):
        eventually_linear(LocalRule(0, 1, (1, 1)))


def test_eventually_linear_tails_hold_well_beyond_the_checked_window():
    for rule in equivariant_rules(1, 5):
        tail = eventually_linear(rule)
        assert isinstance(tail, LinearTail)
        zero = fin(0)
        for n in range(tail.N + 2, tail.N + 60, 2):
            assert rule.apply(zero, n) == n + tail.k
            assert rule.apply(zero, -n) == -n - tail.k


def test_linear_tail_validation():
    with pytest.raises(ValueError):
        LinearTail(2, 4)
    with pytest.raises(ValueError):
        LinearTail(1, 3)
    with pytest.raises(ValueError):
        LinearTail(3, 2)


def test_tail_violation_type_is_reachable():
    assert TailViolation(4, 5, 7).expected == 5


# --- the parity contradiction ---


def test_parity_counts_goldens():
    assert parity_counts(LinearTail(1, 4)) == (5, 6)
    assert parity_counts(LinearTail(1, 2)) == (3, 4)
    assert parity_counts(LinearTail(-1, 4)) == (5, 4)
    assert parity_counts(LinearTail(3, 6)) == (7, 10)


def test_parity_counts_match_closed_form():
    cases = [(k, N) for N in range(2, 21, 2) for k in range(-N + 1, N, 2)]
    # counted, not listed: a bound of 2e9 costs no memory
    big = 2_000_000_000
    cases += [(k, big) for k in (1, -1, big - 1, 1 - big)]
    # past sys.maxsize, where the length of a range object overflows
    huge = 10**30
    cases += [(k, huge) for k in (1, -1, huge - 1, 1 - huge)]
    for k, N in cases:
        evens, odds = parity_counts(LinearTail(k, N))
        assert (evens, odds) == (N + 1, N + k + 1)
        assert evens % 2 == 1
        assert odds % 2 == 0


# --- bijectivity ---


def test_bijectivity_witness_goldens():
    assert bijectivity_witness(RULE_GAP) == Gap(fin(0), -1)
    assert bijectivity_witness(RULE_COLLIDE) == Collision(fin(0), -2, 0, -1)


def test_bijectivity_witness_matches_a_padded_reference_scan():
    # the scan's windows are exactly wide enough: widening the reference's never changes a witness
    for pad in (0, 3, 20, 50):
        assert reference_witness(RULE_GAP, pad) == Gap(fin(0), -1)
        for w, d in ((1, 3), (2, 5), (3, 3)):
            for rule in equivariant_rules(w, d):
                assert bijectivity_witness(rule) == reference_witness(rule, pad), (rule, pad)


def test_bijectivity_requires_equivariance():
    with pytest.raises(NotReflectionEquivariant):
        bijectivity_witness(LocalRule(0, 1, (1, 1)))


def test_first_witness_of_a_wide_radius_comes_within_a_second():
    # the scan's runs grow linearly with the radius
    w = 2000
    rule = LocalRule(w, 9, (1,) * (w + 1) + (-1,) * (w + 1))
    localrules._scan_runs.cache_clear()
    start = time.perf_counter()
    witness = bijectivity_witness(rule)
    elapsed = time.perf_counter() - start
    assert witness == Gap(fin(0), -1)
    assert elapsed < 1.0, elapsed


def test_a_witness_of_a_wide_radius_holds_no_walk_rows():
    # only the search's plan holds the walk's rows, about 8 MB at this radius; the witness's cached runs stay small
    w = 2000
    rule = LocalRule(w, 9, (1,) * (w + 1) + (-1,) * (w + 1))
    localrules._scan_runs.cache_clear()
    localrules._scan_plan.cache_clear()
    tracemalloc.start()
    try:
        witness = bijectivity_witness(rule)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert witness == Gap(fin(0), -1)
    assert held < 1 << 20, held


def decode(mask, origin):
    """The values a scan-plan mask holds: bit ``b`` is the value ``b - origin``."""
    return {b - origin for b in range(mask.bit_length()) if mask >> b & 1}


def test_plan_masks_hold_the_family_values():
    # the bit arithmetic of the scan plan and of the walk's level rows, against
    # LocalRule.apply, which reads each window through WindowPattern instead;
    # at random (w, d) up to (12, 13), where the walk's counts are pinned past the search limits
    rng = random.Random(8)
    zero = fin(0)
    colliding_levels = 0
    for _ in range(60):
        w, d = rng.randint(0, 12), rng.randint(1, 13)
        free = tuple(rng.choice(odd_offsets(d)) for _ in range(w + 1))
        rule = LocalRule(w, d, free + tuple(-k for k in reversed(free)))
        runs, gaps, origin, order, rows = localrules._scan_plan(w, d)
        reach, span = w + 2 * d + 4, w + d + 2
        window = range(-reach + reach % 2, reach + 1, 2)
        assert [n for ns, *_ in runs for n in ns] == list(window)
        for ns, i, ones, low in runs:
            assert decode(ones << (low + rule.offsets[i]), origin) == {rule.apply(zero, n) for n in ns}
        assert decode(gaps, origin) == {v for v in range(-span, span + 1) if v % 2}
        # the table position each point reads, through the pattern instead of the plan
        pos = {n: WindowPattern.from_zinf(w, zero, n).cut + w for n in window}
        assert sorted(order) == list(range(w + 1)) and len(rows) == w + 1
        for j, row in zip(order, rows):
            assert [x for x, _ in row] == odd_offsets(d)
            mask = dict(row)[free[j]]
            values = [rule.apply(zero, n) for n in window if min(pos[n], 2 * w + 1 - pos[n]) == j]
            if len(set(values)) < len(values):
                colliding_levels += 1
                assert mask is None
            else:
                assert decode(mask, origin) == set(values)
    assert colliding_levels


def test_two_probe_witness_matches_a_scan_of_every_threshold():
    for w in range(3):
        for d in range(1, 8):
            for rule in equivariant_rules(w, d):
                expected = reference_witness(rule)
                assert bijectivity_witness(rule) == expected


def test_witnesses_are_real_for_small_spaces():
    for w, d in ((0, 1), (0, 3), (1, 3)):
        for rule, witness in iterate_verdicts(w, d):
            assert witness is not None
            assert_witness_is_real(rule, witness)


# --- enumeration and search ---


def test_equivariant_enumeration_matches_brute_filter():
    for w, d in ((0, 1), (0, 3), (1, 3)):
        direct = [rule.offsets for rule in equivariant_rules(w, d)]
        assert direct == brute_equivariant_offset_tuples(w, d)


def test_equivariant_count_formula():
    for w, d in ((0, 1), (1, 1), (1, 5), (2, 3)):
        count = sum(1 for _ in equivariant_rules(w, d))
        assert count == len(odd_offsets(d)) ** (w + 1)


# (candidates, equivariant, failed_collision, failed_gap) for every guarded (w, d)
GOLDEN_SEARCH_COUNTS = {
    (0, 1): (4, 2, 1, 1),
    (0, 2): (4, 2, 1, 1),
    (0, 3): (16, 4, 2, 2),
    (0, 4): (16, 4, 2, 2),
    (0, 5): (36, 6, 3, 3),
    (0, 6): (36, 6, 3, 3),
    (0, 7): (64, 8, 4, 4),
    (0, 8): (64, 8, 4, 4),
    (0, 9): (100, 10, 5, 5),
    (1, 1): (16, 4, 2, 2),
    (1, 2): (16, 4, 2, 2),
    (1, 3): (256, 16, 10, 6),
    (1, 4): (256, 16, 10, 6),
    (1, 5): (1296, 36, 24, 12),
    (1, 6): (1296, 36, 24, 12),
    (1, 7): (4096, 64, 44, 20),
    (1, 8): (4096, 64, 44, 20),
    (1, 9): (10000, 100, 70, 30),
    (2, 1): (64, 8, 5, 3),
    (2, 2): (64, 8, 5, 3),
    (2, 3): (4096, 64, 45, 19),
    (2, 4): (4096, 64, 45, 19),
    (2, 5): (46656, 216, 159, 57),
    (2, 6): (46656, 216, 159, 57),
    (2, 7): (262144, 512, 387, 125),
    (2, 8): (262144, 512, 387, 125),
    (2, 9): (1000000, 1000, 769, 231),
    (3, 1): (256, 16, 12, 4),
    (3, 2): (256, 16, 12, 4),
    (3, 3): (65536, 256, 206, 50),
    (3, 4): (65536, 256, 206, 50),
    (3, 5): (1679616, 1296, 1048, 248),
    (3, 6): (1679616, 1296, 1048, 248),
    (3, 7): (16777216, 4096, 3330, 766),
    (3, 8): (16777216, 4096, 3330, 766),
    (3, 9): (100000000, 10000, 8180, 1820),
    (4, 1): (1024, 32, 27, 5),
    (4, 2): (1024, 32, 27, 5),
    (4, 3): (1048576, 1024, 903, 121),
    (4, 4): (1048576, 1024, 903, 121),
    (4, 5): (60466176, 7776, 6815, 961),
    (4, 6): (60466176, 7776, 6815, 961),
    (4, 7): (1073741824, 32768, 28487, 4281),
    (4, 8): (1073741824, 32768, 28487, 4281),
    (4, 9): (10**10, 100_000, 86_535, 13_465),
}


def test_search_reports_golden_counts():
    assert len(GOLDEN_SEARCH_COUNTS) == 45
    for (w, d), (cands, equiv, coll, gaps) in GOLDEN_SEARCH_COUNTS.items():
        for jobs in (1, 2):
            report = exhaustive_search(w, d, jobs=jobs)
            assert report == SearchReport(w, d, cands, equiv, coll, gaps, ()), (w, d, jobs)


def test_search_never_finds_survivors():
    for w in range(3):
        for d in (1, 3, 5):
            assert exhaustive_search(w, d).survivors == ()


def test_parallel_search_report_is_identical():
    assert exhaustive_search(1, 5, jobs=2) == exhaustive_search(1, 5)
    assert exhaustive_search(0, 3, jobs=4) == exhaustive_search(0, 3)


def verdict_digest(pairs):
    """sha256 over ``(rule, witness)`` pairs, one line of offsets and witness repr each."""
    h = hashlib.sha256()
    for rule, witness in pairs:
        h.update(f"{rule.offsets} {witness!r}\n".encode())
    return h.hexdigest()


@functools.cache
def verdict_summary(w, d):
    """Collision and gap witnesses counted rule by rule through ``iterate_verdicts``, and their digest.

    Cached so the count check and the digest pin share one pass over each space.
    """
    pairs = list(iterate_verdicts(w, d))
    collisions = sum(isinstance(witness, Collision) for _, witness in pairs)
    gaps = sum(isinstance(witness, Gap) for _, witness in pairs)
    return collisions, gaps, verdict_digest(pairs)


VERDICT_SPACES = [(w, d) for w in range(4) for d in range(1, 10)] + [(4, 9)]


def test_prefix_search_counts_match_the_per_rule_path():
    expected = {wd: verdict_summary(*wd)[:2] for wd in VERDICT_SPACES}
    for jobs in (1, 2):
        for (w, d), (collisions, gaps) in expected.items():
            report = exhaustive_search(w, d, jobs=jobs)
            assert (report.failed_collision, report.failed_gap) == (collisions, gaps), (w, d, jobs)
            assert report.equivariant == collisions + gaps == len(odd_offsets(d)) ** (w + 1)
            assert report.survivors == ()


def test_iterate_verdicts_digest_is_pinned():
    digests = "".join(verdict_summary(w, d)[2] for w, d in VERDICT_SPACES)
    assert hashlib.sha256(digests.encode()).hexdigest() == (
        "8c3bab77492cfb974763ad8d41d88668904b1705681c68db47a43bad598ecdd6"
    )


def test_forced_survivors_come_back_as_rules_in_offset_order(monkeypatch):
    # rules whose threshold-0 scan has no collision reach the leaf's gap check;
    # with an empty gap window all of them pass it, and the search must hand
    # back exactly those rules
    real = localrules._scan_plan

    def lenient(w, d):
        runs, _, origin, order, rows = real(w, d)
        return runs, 0, origin, order, rows

    w, d = 3, 7
    verdicts = list(iterate_verdicts(w, d))
    forced = [rule for rule, witness in verdicts if isinstance(witness, Gap)]
    kept = [witness for _, witness in verdicts if not isinstance(witness, Gap)]
    assert forced
    monkeypatch.setattr(localrules, "_scan_plan", lenient)
    for jobs in (1, 2):
        report = exhaustive_search(w, d, jobs=jobs)
        assert all(isinstance(rule, LocalRule) for rule in report.survivors)
        assert [rule.offsets for rule in report.survivors] == sorted(rule.offsets for rule in forced)
        assert report.survivors == tuple(forced)
        assert report.failed_collision == sum(isinstance(wit, Collision) for wit in kept)
        assert report.failed_gap == sum(isinstance(wit, Gap) for wit in kept)


def test_leaf_gap_check_sees_every_level(monkeypatch):
    # with a gap window of the one value 1, a rule without a collision survives
    # exactly when one of its points, the last level's among them, lands on 1
    real = localrules._scan_plan

    def one_gap(w, d):
        runs, _, origin, order, rows = real(w, d)
        return runs, 1 << (1 + origin), origin, order, rows

    w, d = 3, 7
    reach = w + 2 * d + 4
    window = range(-reach + reach % 2, reach + 1, 2)
    gapped = [rule for rule, witness in iterate_verdicts(w, d) if isinstance(witness, Gap)]
    covered = [rule for rule in gapped if any(rule.apply(fin(0), n) == 1 for n in window)]
    assert 0 < len(covered) < len(gapped)
    monkeypatch.setattr(localrules, "_scan_plan", one_gap)
    report = exhaustive_search(w, d)
    assert report.survivors == tuple(covered)
    assert report.failed_gap == len(gapped) - len(covered)


def test_search_agrees_with_the_per_rule_path_on_random_gap_windows(monkeypatch):
    # a random part of the real gap window lets many rules survive, so the
    # memoized walk hands back survivor tails from subtrees it shares between
    # prefixes; counts and survivors must match a scan of each rule alone
    real = localrules._scan_plan
    rng = random.Random(10)
    survived = 0
    for w, d in ((2, 7), (3, 7), (2, 9), (0, 9), (1, 9), (4, 3)):
        runs, gaps, origin, order, rows = real(w, d)
        bits = [b for b in range(gaps.bit_length()) if gaps >> b & 1]
        for _ in range(10):
            window = sum(1 << b for b in rng.sample(bits, rng.randint(0, len(bits))))
            monkeypatch.setattr(localrules, "_scan_plan", lambda *_: (runs, window, origin, order, rows))
            verdicts = list(iterate_verdicts(w, d))
            report = exhaustive_search(w, d)
            assert report.failed_collision == sum(isinstance(wit, Collision) for _, wit in verdicts)
            assert report.failed_gap == sum(isinstance(wit, Gap) for _, wit in verdicts)
            assert report.survivors == tuple(rule for rule, wit in verdicts if wit is None)
            survived += len(report.survivors)
    assert survived


def plain_search_counts(w, d):
    """``[collisions, gaps]`` and the survivor count, by a depth-first search with a stack and nothing shared.

    Each prefix of the walk's levels extends by every value of the next row;
    a collision fails the prefix and all its completions at once, and every
    full prefix without one is a gap or a survivor.  It keeps no memo and no
    closed form, but it reads the same ``_scan_plan`` rows as the walk, so
    it checks the walk and not the rows: ``test_plan_masks_hold_the_family_values``
    and the per-rule path's agreement on small spaces check those.
    """
    _, gaps, _, _, rows = localrules._scan_plan(w, d)
    last = len(rows) - 1
    # the completions of a prefix that a value of row ``level`` fails
    below = [len(rows[0]) ** (last - level) for level in range(last + 1)]
    collisions = gapped = survivors = 0
    stack = [(0, 0)]
    while stack:
        level, images = stack.pop()
        for _, mask in rows[level]:
            if mask is None or images & mask:
                collisions += below[level]
            elif level < last:
                stack.append((level + 1, images | mask))
            elif gaps & ~(images | mask):
                gapped += 1
            else:
                survivors += 1
    return [collisions, gapped], survivors


def test_search_counts_agree_with_a_plain_search():
    # every admitted space, and past the limits the spaces of up to about 4e8 rules that it runs in about a second
    for w, d in [*GOLDEN_SEARCH_COUNTS, (6, 9), (7, 9), (8, 7), (10, 5), (4, 29)]:
        counts, survivors = localrules._search_counts(w, d)
        assert plain_search_counts(w, d) == (counts, len(survivors)), (w, d)
        assert sum(counts) + len(survivors) == len(odd_offsets(d)) ** (w + 1)


def test_search_agrees_with_a_plain_search_on_random_gap_windows_and_level_orders(monkeypatch):
    # a gap window with a few bits dropped lets rules survive, and the levels past 0 may come in any order
    real = localrules._scan_plan
    rng = random.Random(26)
    runs, gaps, origin, order, rows = real(6, 9)
    bits = [b for b in range(gaps.bit_length()) if gaps >> b & 1]
    survived = 0
    for _ in range(2):
        window = gaps & ~sum(1 << b for b in rng.sample(bits, rng.randint(1, 3)))
        perm = [0, *rng.sample(range(1, len(order)), len(order) - 1)]
        plan = (runs, window, origin, tuple(order[k] for k in perm), [rows[k] for k in perm])
        monkeypatch.setattr(localrules, "_scan_plan", lambda *_: plan)
        counts, survivors = localrules._search_counts(6, 9)
        assert plain_search_counts(6, 9) == (counts, len(survivors)), perm
        survived += len(survivors)
    assert survived


def test_the_plain_search_rederives_the_oldest_pins():
    pinned = {(5, 11): [2693008, 292976], (5, 13): [6759506, 770030], (6, 11): [33460187, 2371621]}
    for (w, d), counts in pinned.items():
        assert plain_search_counts(w, d) == (counts, 0)


def test_search_counts_past_the_limits_are_pinned():
    # counts of the plain walk before it was memoized; no rule survives
    pinned = {(5, 11): [2693008, 292976], (5, 13): [6759506, 770030], (6, 11): [33460187, 2371621]}
    for (w, d), counts in pinned.items():
        assert localrules._search_counts(w, d) == (counts, [])
    # counts given by two memo keys, every bit the deeper levels and the gap window read and the deeper
    # levels' bits with one lost-gap flag; (12, 11) only by the second, which makes it fast enough to run
    pinned = {
        (9, 9): [9885734334, 114265666],
        (10, 9): [99381325487, 618674513],
        (10, 11): [736752428979, 6255941709],
        (12, 9): [9983048495044, 16951504956],
        (12, 11): [106729499617335, 263705761737],
        (2, 999): [832584499, 167415501],
        (3, 199): [1392217410, 207782590],
        (4, 49): [275087159, 37412841],
        (4, 99): [8888834439, 1111165561],
        (0, 999): [500, 500],
        (1, 99): [7450, 2550],
        (1, 299): [67350, 22650],
        (1, 999): [749500, 250500],
    }
    for (w, d), counts in pinned.items():
        assert sum(counts) == (d + 1) ** (w + 1)
        assert localrules._search_counts(w, d) == (counts, [])


def test_search_counts_past_every_pin_agree_with_a_seeded_sample():
    # these spaces are too large for the per-rule path; a uniform sample of rules, each scanned alone, must
    # find gaps in the share the walk counts, within 4 standard deviations
    rng = random.Random(23)
    for w, d in ((4, 499), (3, 999), (12, 11)):
        (collisions, gaps), survivors = localrules._search_counts(w, d)
        share = gaps / (collisions + gaps)
        assert sum((collisions, gaps)) == (d + 1) ** (w + 1) and survivors == []
        offsets, plan = odd_offsets(d), localrules._scan_runs(w, d)
        sampled = 0
        for _ in range(20_000):
            free = tuple(rng.choice(offsets) for _ in range(w + 1))
            witness = localrules._scan(free + tuple(-x for x in reversed(free)), *plan)
            assert witness is not None
            sampled += isinstance(witness, Gap)
        z = (sampled / 20_000 - share) / (share * (1 - share) / 20_000) ** 0.5
        assert abs(z) <= 4, (w, d, z)


def test_search_does_not_depend_on_the_order_of_its_levels(monkeypatch):
    # collision and gap do not depend on the order the walk fixes the free offsets in, so permuting
    # levels 1 .. last of the plan must change no count and no survivor; level 0 stays first, since it
    # holds the tails and every later level one point.  Dropping a few bits of the gap window lets
    # thousands of rules survive, whose tails the walk shares between prefixes and rebuilds in order
    real = localrules._scan_plan
    rng = random.Random(16)
    survived = 0
    for w, d in ((6, 13), (9, 9)):
        runs, gaps, origin, order, rows = real(w, d)
        bits = [b for b in range(gaps.bit_length()) if gaps >> b & 1]
        for window in (gaps, gaps & ~sum(1 << b for b in rng.sample(bits, rng.randint(1, 3)))):
            monkeypatch.setattr(localrules, "_scan_plan", lambda *_: (runs, window, origin, order, rows))
            counts, survivors = localrules._search_counts(w, d)
            perm = [0, *rng.sample(range(1, len(order)), len(order) - 1)]
            permuted = (runs, window, origin, tuple(order[k] for k in perm), [rows[k] for k in perm])
            monkeypatch.setattr(localrules, "_scan_plan", lambda *_: permuted)
            again, others = localrules._search_counts(w, d)
            assert again == counts, (w, d, perm)
            assert sorted(rule.offsets for rule in others) == sorted(rule.offsets for rule in survivors)
            survived += len(survivors)
    assert survived


def test_search_memo_is_freed_when_the_search_returns():
    # the walk refers to itself; a memo left in that cycle would wait for a collection
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for w, d in ((4, 9), (3, 7), (9, 9), (1, 99), (0, 9), (0, 999)):
            localrules._search_counts(w, d)
            assert gc.collect() == 0, (w, d)
    finally:
        if was_enabled:
            gc.enable()


def test_search_guards():
    with pytest.raises(ValueError, match="radius"):
        exhaustive_search(5, 1)
    with pytest.raises(ValueError, match="bound"):
        exhaustive_search(0, 11)
    with pytest.raises(ValueError, match="jobs"):
        exhaustive_search(0, 1, jobs=0)
    for w, d in ((True, 1), (1.0, 1), (0, True), (0, 1.0)):
        with pytest.raises(ValueError, match="must be an integer"):
            exhaustive_search(w, d)


def test_search_report_json_shape():
    blob = exhaustive_search(0, 1).to_json()
    assert blob == {
        "w": 0,
        "d": 1,
        "candidates": 4,
        "equivariant": 2,
        "failed_collision": 1,
        "failed_gap": 1,
        "survivors": [],
    }


def test_first_failures_always_happen_at_the_zero_threshold():
    # reflection-equivariant rules break exactly where the parity argument
    # says they must: the witness parameter is always the zero threshold
    rng = random.Random(5)
    rules = list(equivariant_rules(2, 5))
    for rule in rng.sample(rules, 40):
        witness = bijectivity_witness(rule)
        assert witness.chi == fin(0)
