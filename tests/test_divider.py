import hashlib
import itertools
import json
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sigma_orbits

from div2 import divider
from div2.divider import (
    CopyElem,
    FinInstance,
    InstanceError,
    chi_trace,
    divide,
    matching_violation,
    phi,
    theta_cyclic_instance,
    verify_matching,
)


def make_instance(xs, ys, assignment):
    """Build an instance from a permutation of Y x 2 listed in X x 2 order."""
    sources = [(x, i) for x in xs for i in (0, 1)]
    return FinInstance(xs, ys, list(zip(sources, assignment)))


def random_instance(rng, size):
    xs = [f"x{k}" for k in range(size)]
    ys = [f"y{k}" for k in range(size)]
    targets = [(y, j) for y in ys for j in (0, 1)]
    rng.shuffle(targets)
    return make_instance(xs, ys, targets)


def shuffled_copy(rng, inst):
    xs = list(inst.xs)
    ys = list(inst.ys)
    entries = inst.to_json()["map"]
    rng.shuffle(xs)
    rng.shuffle(ys)
    rng.shuffle(entries)
    return FinInstance(xs, ys, entries)


ONE = FinInstance(["x"], ["y"], {("x", 0): ("y", 0), ("x", 1): ("y", 1)})
TWO = FinInstance(
    ["a", "b"],
    ["c", "d"],
    {("a", 0): ("c", 0), ("a", 1): ("d", 1), ("b", 0): ("d", 0), ("b", 1): ("c", 1)},
)


# --- validation ---


def test_rejects_duplicate_labels():
    with pytest.raises(InstanceError, match=r"X\[1\]: duplicate"):
        FinInstance(["a", "a"], ["c", "d"], [])


def test_rejects_size_mismatch():
    with pytest.raises(InstanceError, match="cannot be a bijection"):
        FinInstance(["a"], ["c", "d"], [])


def test_rejects_missing_and_duplicate_entries():
    with pytest.raises(InstanceError, match="has no image"):
        FinInstance(["x"], ["y"], [(("x", 0), ("y", 0))])
    with pytest.raises(InstanceError, match="already mapped"):
        FinInstance(["x"], ["y"], [(("x", 0), ("y", 0)), (("x", 0), ("y", 1))])
    with pytest.raises(InstanceError, match="already hit"):
        FinInstance(["x"], ["y"], [(("x", 0), ("y", 0)), (("x", 1), ("y", 0))])


def test_rejects_unknown_labels_and_bad_bits():
    with pytest.raises(InstanceError, match="not in X"):
        FinInstance(["x"], ["y"], [(("z", 0), ("y", 0)), (("x", 1), ("y", 1))])
    with pytest.raises(InstanceError, match="not in Y"):
        FinInstance(["x"], ["y"], [(("x", 0), ("z", 0)), (("x", 1), ("y", 1))])
    with pytest.raises(InstanceError, match="bit"):
        FinInstance(["x"], ["y"], [(("x", 0), ("y", 2)), (("x", 1), ("y", 1))])
    with pytest.raises(InstanceError, match="labels must be"):
        FinInstance([("x",)], [("y",)], [])


# Every InstanceError message pinned in full, as the checker wrote it before the
# acceptance pass existed: the malformed cases above, the further cases checked
# when copies became integer ids, and what the acceptance pass must decline.
MALFORMED = [
    pytest.param(["a", "a"], ["c", "d"], [], "X[1]: duplicate label 'a' (first at 0)", id="duplicate-x"),
    pytest.param(["a"], ["c", "d"], [], "|X| = 1 but |Y| = 2: the copy map cannot be a bijection", id="size-mismatch"),
    pytest.param(["x"], ["y"], [(("x", 0), ("y", 0))], "copy ('x', 1) of X has no image", id="no-image"),
    pytest.param(
        ["x"], ["y"], [(("x", 0), ("y", 0)), (("x", 0), ("y", 1))],
        "map entry 1: source ('x', 0) already mapped", id="already-mapped",
    ),
    pytest.param(
        ["x"], ["y"], [(("x", 0), ("y", 0)), (("x", 1), ("y", 0))],
        "map entry 1: target ('y', 0) already hit from ('x', 0)", id="already-hit",
    ),
    pytest.param(
        ["x"], ["y"], [(("z", 0), ("y", 0)), (("x", 1), ("y", 1))],
        "map entry 0: source label 'z' is not in X", id="source-not-in-x",
    ),
    pytest.param(
        ["x"], ["y"], [(("x", 0), ("z", 0)), (("x", 1), ("y", 1))],
        "map entry 0: target label 'z' is not in Y", id="target-not-in-y",
    ),
    pytest.param(
        ["x"], ["y"], [(("x", 0), ("y", 2)), (("x", 1), ("y", 1))],
        "map entry 0: target bit must be 0 or 1, got 2", id="bad-target-bit",
    ),
    pytest.param([("x",)], [("y",)], [], "X[0]: labels must be strings or integers, got ('x',)", id="tuple-label"),
    # the further cases
    pytest.param(
        ["x"], ["y"], [5, [["x", 1], ["y", 1]]],
        "map entry 0: expected [source, target], got 5", id="entry-not-a-list",
    ),
    pytest.param(
        ["x"], ["y"], [[["x", 0], ["y", 0], ["y", 1]], [["x", 1], ["y", 1]]],
        "map entry 0: expected [source, target], got [['x', 0], ['y', 0], ['y', 1]]", id="entry-of-three",
    ),
    pytest.param(
        ["x"], ["y"], [[["x"], ["y", 0]], [["x", 1], ["y", 1]]],
        "map entry 0: source must be a [label, bit] pair, got ['x']", id="source-not-a-pair",
    ),
    pytest.param(
        ["x"], ["y"], [[["x", 0], 7], [["x", 1], ["y", 1]]],
        "map entry 0: target must be a [label, bit] pair, got 7", id="target-not-a-pair",
    ),
    pytest.param(
        ["x"], ["y"], [[["x", 0], ["y", 0]], [["x", 1], ["y", 1]], [["x", 0], ["y", 1]]],
        "map entry 2: source ('x', 0) already mapped", id="surplus-entry",
    ),
    pytest.param(
        [0, "0"], [1, "1"], [[[0, 0], [1, 0]], [["0", 0], [1, 0]]],
        "map entry 1: target (1, 0) already hit from (0, 0)", id="mixed-type-collision",
    ),
    pytest.param([True], ["y"], [], "X[0]: labels must be strings or integers, got True", id="bool-x-label"),
    pytest.param(["x"], [None], [], "Y[0]: labels must be strings or integers, got None", id="none-y-label"),
    pytest.param(
        ["x"], ["y"], [[[None, 0], ["y", 0]], [["x", 1], ["y", 1]]],
        "map entry 0 (source): labels must be strings or integers, got None", id="none-map-label",
    ),
    # what the acceptance pass must decline: labels that hash equal to a label
    # of X or Y, ends that unpack but are not lists or tuples, repeated copies
    pytest.param(
        [1], [2], [[[True, 0], [2, 0]], [[1, 1], [2, 1]]],
        "map entry 0 (source): labels must be strings or integers, got True", id="true-source-label",
    ),
    pytest.param(
        [1], [2], [[[1.0, 0], [2, 0]], [[1, 1], [2, 1]]],
        "map entry 0 (source): labels must be strings or integers, got 1.0", id="float-source-label",
    ),
    pytest.param(
        [2], [1], [[[2, 0], [1, 0]], [[2, 1], [True, 1]]],
        "map entry 1 (target): labels must be strings or integers, got True", id="true-target-label",
    ),
    pytest.param([1.0], [2], [], "X[0]: labels must be strings or integers, got 1.0", id="float-x-label"),
    pytest.param(
        [1], [2], [{(1, 0), (2, 0)}, [[1, 1], [2, 1]]],
        "map entry 0: expected [source, target], got {(1, 0), (2, 0)}", id="set-entry",
    ),
    pytest.param(
        ["x"], ["y"], ["xy", [["x", 1], ["y", 1]]],
        "map entry 0: expected [source, target], got 'xy'", id="string-entry",
    ),
    pytest.param(
        [0], [2], [[{0, 1}, [2, 0]], [[0, 0], [2, 1]]],
        "map entry 0: source must be a [label, bit] pair, got {0, 1}", id="set-source",
    ),
    pytest.param(
        ["x"], ["y"], [["x0", ["y", 0]], [["x", 1], ["y", 1]]],
        "map entry 0: source must be a [label, bit] pair, got 'x0'", id="string-source",
    ),
    pytest.param(
        ["x"], ["y"], [[["x", 0], "y0"], [["x", 1], ["y", 1]]],
        "map entry 0: target must be a [label, bit] pair, got 'y0'", id="string-target",
    ),
    pytest.param(
        ["x"], ["y"], [[["x", -1], ["y", 0]], [["x", 1], ["y", 1]]],
        "map entry 0: source bit must be 0 or 1, got -1", id="bad-source-bit",
    ),
    pytest.param(
        ["x"], ["y"], [[["x", 0], ["y", "1"]], [["x", 1], ["y", 0]]],
        "map entry 0: target bit must be 0 or 1, got '1'", id="string-bit",
    ),
    pytest.param(
        ["a", "b"], ["c", "d"],
        [[["a", 0], ["c", 0]], [["a", 1], ["d", 1]], [["b", 0], ["c", 0]], [["b", 1], ["c", 1]]],
        "map entry 2: target ('c', 0) already hit from ('a', 0)", id="repeated-target",
    ),
    pytest.param(
        ["a", "b"], ["c", "d"],
        [[["a", 1], ["c", 1]], [["a", 0], ["d", 1]], [["b", 0], ["c", True]], [["b", 1], ["c", 0]]],
        "map entry 2: target ('c', True) already hit from ('a', 1)", id="repeated-target-true-bit",
    ),
    pytest.param(["a", "b"], ["c", "c"], [], "Y[1]: duplicate label 'c' (first at 0)", id="duplicate-y"),
    pytest.param(
        ["a", "b"], ["c", "d"], [[["a", 0], ["c", 0]], [["a", 1], ["d", 1]], [["b", 0], ["d", 0]]],
        "copy ('b', 1) of X has no image", id="missing-entry",
    ),
]

MALFORMED_JSON = [
    pytest.param({"X": [], "Y": []}, "missing instance fields: ['map']", id="missing-map"),
    pytest.param([1, 2], "instance must be an object, got list", id="not-an-object"),
    pytest.param({"X": [], "Y": [], "map": [], "extra": 1}, "unknown instance fields: ['extra']", id="unknown-field"),
    pytest.param({"X": "ab", "Y": [], "map": []}, "X and Y must be arrays of labels", id="x-not-an-array"),
    pytest.param({"X": [], "Y": [], "map": {}}, "map must be an array of [source, target] pairs", id="map-not-an-array"),
    pytest.param({}, "missing instance fields: ['X', 'Y', 'map']", id="no-fields"),
    pytest.param(None, "instance must be an object, got NoneType", id="null"),
]


@pytest.mark.parametrize("xs, ys, mapping, message", MALFORMED)
def test_instance_error_messages_are_pinned(xs, ys, mapping, message):
    with pytest.raises(InstanceError) as info:
        FinInstance(xs, ys, mapping)
    assert str(info.value) == message


@pytest.mark.parametrize("obj, message", MALFORMED_JSON)
def test_instance_json_error_messages_are_pinned(obj, message):
    with pytest.raises(InstanceError) as info:
        FinInstance.from_json(obj)
    assert str(info.value) == message


@pytest.mark.parametrize("target", [{0: 0, 1: 0}, {0, 1}], ids=["dict", "set"])
def test_a_target_that_unpacks_to_a_valid_copy_is_still_rejected(target):
    # each target unpacks to (0, 1), a valid copy, so only the exact-type test rejects it
    with pytest.raises(InstanceError) as info:
        FinInstance([0], [0], [[[0, 0], target], [[0, 1], [0, 0]]])
    assert str(info.value) == f"map entry 0: target must be a [label, bit] pair, got {target!r}"


def test_bool_and_float_bits_are_read_as_ints():
    inst = FinInstance(["x"], ["y"], [[["x", True], ["y", 0.0]], [["x", 0.0], ["y", 1.0]]])
    entries = inst.to_json()["map"]
    assert entries == [[["x", 0], ["y", 1]], [["x", 1], ["y", 0]]]
    assert all(type(end[1]) is int for entry in entries for end in entry)
    assert type(CopyElem("X", "a", 1.0).bit) is int


class IntLabel(int):
    pass


class StrLabel(str):
    pass


def built(xs, ys, mapping):
    """The fields of ``FinInstance(xs, ys, mapping)``, or its error message."""
    try:
        inst = FinInstance(xs, ys, mapping)
    except InstanceError as exc:
        return str(exc)
    return inst._xpos, inst._ypos, inst._swap, inst.to_json()


POOL = [0, 1, 2, "0", "1", "a", "b", "c"]
# labels and bits that are wrong, or right only in the checker's broader sense
ODD_LABELS = [True, False, 1.0, 0.0, None, ("a",), IntLabel(1), StrLabel("a"), "zz", 7]
ODD_BITS = [2, -1, "1", None, True, False, 1.0, 0.0, [0], 0.5]


@st.composite
def near_valid(draw):
    """A valid instance as (xs, ys, mapping), then at most one mutation of it."""
    n = draw(st.integers(1, 4))
    xs = draw(st.permutations(POOL))[:n]
    ys = draw(st.permutations(POOL))[:n]
    targets = draw(st.permutations([[y, c] for y in ys for c in (0, 1)]))
    mapping = [[[x, b], list(targets[2 * i + b])] for i, x in enumerate(xs) for b in (0, 1)]
    mapping = draw(st.permutations(mapping))
    kind = draw(st.sampled_from(["none", "subclass", "side", "label", "bit", "entry", "end", "drop", "repeat"]))
    k = draw(st.integers(0, len(mapping) - 1))
    role = draw(st.integers(0, 1))
    if kind == "subclass":  # still valid, but only the checker takes it
        side = draw(st.sampled_from([xs, ys]))
        i = draw(st.integers(0, n - 1))
        side[i] = (IntLabel if type(side[i]) is int else StrLabel)(side[i])
    elif kind == "side":
        side = draw(st.sampled_from([xs, ys]))
        side[draw(st.integers(0, n - 1))] = draw(st.sampled_from(ODD_LABELS + POOL))
    elif kind == "label":
        mapping[k][role][0] = draw(st.sampled_from(ODD_LABELS + POOL))
    elif kind == "bit":
        mapping[k][role][1] = draw(st.sampled_from(ODD_BITS))
    elif kind == "entry":
        shape = draw(st.sampled_from([tuple, set, str, lambda e: e + e[:1], lambda e: e[:1]]))
        mapping[k] = shape(map(tuple, mapping[k])) if shape is set else shape(mapping[k])
    elif kind == "end":
        shape = draw(st.sampled_from([tuple, set, str, lambda e: e + e[:1], lambda e: e[:1]]))
        mapping[k][role] = shape(mapping[k][role])
    elif kind == "drop":
        del mapping[k]
    elif kind == "repeat":
        mapping.insert(draw(st.integers(0, len(mapping))), mapping[k])
    return xs, ys, mapping


@settings(max_examples=300, deadline=None)
@given(near_valid())
def test_acceptance_pass_agrees_with_the_checker_alone(instance):
    xs, ys, mapping = instance
    # no exact type passes: every side takes the per-label loop, every entry the checker
    with mock.patch.multiple(divider, _LABEL_TYPES=frozenset(), _PAIR_TYPES=frozenset()):
        expected = built(xs, ys, mapping)
    assert built(xs, ys, mapping) == expected


def test_entry_checker_runs_only_on_a_faulty_entry():
    n = 2000
    xs = [f"x{k}" for k in range(n)]
    ys = [f"y{k}" for k in range(n)]
    mapping = [[[x, b], [y, b]] for x, y in zip(xs, ys) for b in (0, 1)]
    with mock.patch.object(divider, "_check_entry", wraps=divider._check_entry) as checker:
        FinInstance(xs, ys, mapping)
        assert checker.call_count == 0
        mapping[-1][1][1] = 2
        with pytest.raises(InstanceError) as info:
            FinInstance(xs, ys, mapping)
        assert checker.call_count == 1
    assert str(info.value) == "map entry 3999: target bit must be 0 or 1, got 2"


# --- the two involutions ---


def test_theta_applies_both_directions():
    assert TWO.theta(CopyElem("X", "a", 0)) == CopyElem("Y", "c", 0)
    assert TWO.theta(CopyElem("Y", "c", 0)) == CopyElem("X", "a", 0)


def test_phi_flips_bit():
    z = CopyElem("X", "a", 0)
    assert phi(z) == CopyElem("X", "a", 1)
    assert phi(phi(z)) == z


def test_involutions_on_random_instances():
    rng = random.Random(7)
    for _ in range(20):
        inst = random_instance(rng, rng.randrange(1, 9))
        for z in inst.copies():
            assert inst.theta(inst.theta(z)) == z
            assert inst.sigma_inv(inst.sigma(z)) == z


def test_orbits_alternate_sides_and_have_even_length():
    rng = random.Random(9)
    for _ in range(20):
        inst = random_instance(rng, rng.randrange(1, 9))
        for orbit in sigma_orbits(inst):
            assert len(orbit) % 2 == 0
            for pos, z in enumerate(orbit):
                assert z.side == ("X" if pos % 2 == 0 else "Y")


# --- traces ---


def test_trace_golden_one_by_one():
    assert chi_trace(ONE, CopyElem("X", "x", 0), 0, 3) == [0, 1, 0, 1]
    assert chi_trace(ONE, CopyElem("X", "x", 1), 0, 3) == [1, 0, 1, 0]


def test_trace_negative_range():
    assert chi_trace(ONE, CopyElem("X", "x", 0), -2, 1) == [0, 1, 0, 1]


def test_trace_rejects_empty_range():
    with pytest.raises(ValueError, match="empty trace range"):
        chi_trace(ONE, CopyElem("X", "x", 0), 2, 1)


def test_trace_first_bit_is_the_copy_bit():
    rng = random.Random(11)
    for _ in range(15):
        inst = random_instance(rng, rng.randrange(1, 7))
        for z in inst.copies():
            assert chi_trace(inst, z, 0, 0) == [z.bit]


def test_trace_is_periodic_with_orbit_length():
    rng = random.Random(13)
    for _ in range(10):
        inst = random_instance(rng, rng.randrange(1, 7))
        for orbit in sigma_orbits(inst):
            period = len(orbit)
            z = orbit[0]
            bits = chi_trace(inst, z, 0, 2 * period - 1)
            assert bits[:period] == bits[period:]


def test_trace_agrees_with_the_whole_cycle_read_modulo_its_length():
    # ranges shorter than the cycle, at its length and far past it, on both sides of 0
    rng = random.Random(23)
    checked = set()
    for size in [1, 1, 2, 3] + [rng.randrange(4, 25) for _ in range(36)]:
        xs = [k if k % 3 else f"x{k}" for k in range(size)]
        ys = [f"{k}" if k % 2 else -k - 1 for k in range(size)]
        targets = [(y, j) for y in ys for j in (0, 1)]
        rng.shuffle(targets)
        inst = make_instance(xs, ys, targets)
        for z in rng.sample(inst.copies(), min(6, 4 * size)):
            # the cycle's bits from z on, followed through the public sigma
            orbit, cur = [z.bit], inst.sigma(z)
            while cur != z:
                orbit.append(cur.bit)
                cur = inst.sigma(cur)
            p = len(orbit)
            checked.add((p, z.side, z.bit))
            far = rng.randrange(3 * p, 40 * p)
            ranges = [
                (-p - 1, -1), (-p + 1, -1), (-p, -p + 1), (-1, -1), (-3 * p - 2, -p - 1), (-far - 5, -far),
                (0, 0), (0, p - 1), (0, p), (0, p + 1), (1, p - 1), (p - 1, p + 1), (far, far + 7),
                (-1, 0), (-p + 1, p - 1), (-p - 1, p + 1), (-p, p), (-2 * p - 3, 3 * p + 5), (-far, far),
            ]
            for lo, hi in ranges:
                assert chi_trace(inst, z, lo, hi) == [orbit[k % p] for k in range(lo, hi + 1)], (lo, hi)
    assert {p for p, _, _ in checked} >= {2, 4, 6, 8} and max(p for p, _, _ in checked) >= 40
    assert {(side, bit) for _, side, bit in checked} == {("X", 0), ("X", 1), ("Y", 0), ("Y", 1)}


def test_trace_of_a_foreign_copy_names_it_as_before():
    # a backward range names the copy flipped, as sigma_inv names it
    foreign = CopyElem("X", "zz", 0)
    for lo, hi, named in ((0, 3, "('zz', 0)"), (-3, 3, "('zz', 1)"), (-3, -1, "('zz', 1)")):
        with pytest.raises(InstanceError) as err:
            chi_trace(TWO, foreign, lo, hi)
        assert str(err.value) == f"copy {named} is not in this instance's X side"
    with pytest.raises(InstanceError) as err:
        chi_trace(TWO, CopyElem("Y", "a", 1), -1, 0)
    assert str(err.value) == "copy ('a', 0) is not in this instance's Y side"


# --- divide ---


def test_divide_golden_examples():
    assert divide(ONE) == {"x": "y"}
    assert divide(TWO) == {"a": "c", "b": "d"}


def test_divide_other_orientation_two_by_two():
    inst = FinInstance(
        ["a", "b"],
        ["c", "d"],
        {("a", 0): ("c", 1), ("a", 1): ("d", 0), ("b", 0): ("d", 1), ("b", 1): ("c", 0)},
    )
    matching = divide(inst)
    assert verify_matching(inst, matching)


def test_divide_is_exhaustively_correct_up_to_two():
    count = 0
    for size in (1, 2):
        xs = [f"x{k}" for k in range(size)]
        ys = [f"y{k}" for k in range(size)]
        targets = [(y, j) for y in ys for j in (0, 1)]
        for perm in itertools.permutations(targets):
            inst = make_instance(xs, ys, perm)
            assert verify_matching(inst, divide(inst))
            count += 1
    assert count == 2 + 24


def test_divide_ignores_presentation_order():
    rng = random.Random(17)
    for _ in range(40):
        inst = random_instance(rng, rng.randrange(1, 12))
        expected = divide(inst)
        assert divide(shuffled_copy(rng, inst)) == expected


def test_divide_respects_relabeling():
    # renaming labels commutes with dividing
    rng = random.Random(19)
    inst = random_instance(rng, 6)
    ren_x = {x: f"u{k}" for k, x in enumerate(inst.xs)}
    ren_y = {y: f"v{k}" for k, y in enumerate(inst.ys)}
    entries = [
        [[ren_x[x], i], [ren_y[y], j]] for (x, i), (y, j) in
        [(tuple(e[0]), tuple(e[1])) for e in inst.to_json()["map"]]
    ]
    renamed = FinInstance(list(ren_x.values()), list(ren_y.values()), entries)
    expected = {ren_x[x]: ren_y[y] for x, y in divide(inst).items()}
    assert divide(renamed) == expected


@settings(max_examples=40)
@given(st.integers(1, 8), st.randoms(use_true_random=False))
def test_divide_always_verifies(size, rnd):
    inst = random_instance(rnd, size)
    assert verify_matching(inst, divide(inst))


def blocked_mixed_instance(rng, size, block):
    """Mixed int and str labels, copies permuted within blocks of ``block`` labels, all presented shuffled."""
    xs = [k if rng.random() < 0.5 else f"x{k}" for k in range(size)]
    ys = [-k - 1 if rng.random() < 0.5 else f"y{k}" for k in range(size)]
    rng.shuffle(xs)
    rng.shuffle(ys)
    entries = []
    for start in range(0, size, block):
        targets = [[y, b] for y in ys[start:start + block] for b in (0, 1)]
        rng.shuffle(targets)
        entries += [[[x, b], targets[2 * k + b]] for k, x in enumerate(xs[start:start + block]) for b in (0, 1)]
    for seq in (xs, ys, entries):
        rng.shuffle(seq)
    return FinInstance(xs, ys, entries)


def divide_by_definition(inst):
    """Enter each cycle with no matched label at its first copy in ``copies()``, follow ``sigma``, pair neighbours."""
    matching = {}
    for orbit in sigma_orbits(inst):
        if orbit[0].label not in matching:
            matching.update((x.label, y.label) for x, y in zip(orbit[::2], orbit[1::2]))
    return matching


def test_divide_follows_its_definition_on_both_bench_shapes():
    # uniform: a few long cycles; blocked within 4 labels: many short ones.  A walk entered at the
    # wrong copy, or stopped before its cycle closes, pairs some label with another Y label
    rng = random.Random(29)
    longest = {}
    for shape, block in (("uniform", 300), ("blocked", 4)):
        for size in [1, 2, 3, 4, 5] + [rng.randrange(6, 301) for _ in range(15)]:
            inst = blocked_mixed_instance(rng, size, block)
            assert divide(inst) == divide_by_definition(inst), (shape, size)
            longest[shape] = max(longest.get(shape, 0), *map(len, sigma_orbits(inst)))
    assert longest["blocked"] <= 16 < longest["uniform"]


# --- matching verification ---


def test_divide_checks_sides_without_assert():
    # a walk that meets two X copies in a row must raise, also under python -O;
    # the corrupt swap pairs X copies (a, 0), (b, 0) and Y copies (c, 0), (d, 0)
    # but stays an involution, so the walk still closes
    inst = FinInstance(TWO.xs, TWO.ys, TWO.to_json()["map"])
    swap = inst._swap
    for u, v in ((0, 2), (4, 6)):
        swap[u], swap[v] = v, u
    with pytest.raises(RuntimeError, match="does not alternate"):
        divide(inst)


def test_matching_violations_are_reported():
    assert matching_violation(TWO, {"a": "c", "b": "d"}) is None
    assert "unmatched" in matching_violation(TWO, {"a": "c"})
    assert "matched twice" in matching_violation(TWO, {"a": "c", "b": "c"})
    # labels are read in canonical order, ints before strings, so 1 comes first
    mixed = make_instance([1, "a"], ["c", "d"], [("c", 0), ("d", 1), ("d", 0), ("c", 1)])
    assert matching_violation(mixed, {"a": "c", 1: "c"}) == "Y label 'c' is matched twice (from 1 and 'a')"
    assert "not in Y" in matching_violation(TWO, {"a": "c", "b": "q"})
    assert "not in X" in matching_violation(TWO, {"a": "c", "b": "d", "q": "c"})
    assert not verify_matching(TWO, {"a": "d"})


# --- cyclic instances ---


def test_cyclic_golden_m1():
    inst = theta_cyclic_instance([0, 0])
    assert inst.theta(CopyElem("X", 0, 0)) == CopyElem("Y", 1, 1)
    assert inst.theta(CopyElem("X", 0, 1)) == CopyElem("Y", 1, 0)
    assert verify_matching(inst, divide(inst))


def test_cyclic_golden_matchings():
    assert divide(theta_cyclic_instance([0, 1, 1, 0])) == {0: 1, 2: 3}
    assert divide(theta_cyclic_instance([0, 0, 1, 0, 1, 1])) == {0: 1, 2: 3, 4: 5}


def test_cyclic_always_valid_all_tables_m2():
    for table in itertools.product((0, 1), repeat=4):
        inst = theta_cyclic_instance(table)
        assert verify_matching(inst, divide(inst))


def test_cyclic_random_tables():
    rng = random.Random(23)
    for _ in range(60):
        half = rng.randrange(1, 9)
        table = [rng.randrange(2) for _ in range(2 * half)]
        inst = theta_cyclic_instance(table)
        assert verify_matching(inst, divide(inst))


def test_cyclic_instances_are_pinned_up_to_m10():
    # every even table of length 2..10, with the instance each one builds
    digest = hashlib.sha256()
    for size in range(2, 11, 2):
        for bits in itertools.product((0, 1), repeat=size):
            digest.update(json.dumps([bits, theta_cyclic_instance(bits).to_json()]).encode())
    assert digest.hexdigest() == "2f17ea506c9c4baeff0bc528f34c31b673e7f6d255b3ea5053c9943a8b50ff13"


def test_cyclic_rejects_odd_or_empty():
    with pytest.raises(ValueError):
        theta_cyclic_instance([0, 1, 0])
    with pytest.raises(ValueError):
        theta_cyclic_instance([])
    with pytest.raises(ValueError):
        theta_cyclic_instance([0, 2])


# --- JSON ---


def test_instance_json_round_trip():
    blob = json.dumps(TWO.to_json())
    again = FinInstance.from_json(json.loads(blob))
    assert again.to_json() == TWO.to_json()
    assert divide(again) == divide(TWO)


def test_instance_json_validation():
    with pytest.raises(InstanceError, match="missing"):
        FinInstance.from_json({"X": [], "Y": []})
    with pytest.raises(InstanceError, match="must be an object"):
        FinInstance.from_json([1, 2])
    with pytest.raises(InstanceError, match="unknown"):
        FinInstance.from_json({"X": [], "Y": [], "map": [], "extra": 1})


def test_mixed_label_types_are_kept_apart():
    inst = FinInstance(
        [0, "0"],
        [1, "1"],
        {
            (0, 0): (1, 0),
            (0, 1): (1, 1),
            ("0", 0): ("1", 0),
            ("0", 1): ("1", 1),
        },
    )
    assert divide(inst) == {0: 1, "0": "1"}
    # copies() lists X before Y, labels by type name and then value, bit last
    xs, ys = [2, "b", IntLabel(1), 0, "a"], ["y", 5, IntLabel(3), "x", 4]
    inst = FinInstance(xs, ys, [[[x, b], [y, b]] for x, y in zip(xs, ys) for b in (0, 1)])
    sides = (("X", xs), ("Y", ys))
    expected = sorted((side, type(label).__name__, label, b) for side, labels in sides for label in labels for b in (0, 1))
    assert [(z.side, type(z.label).__name__, z.label, z.bit) for z in inst.copies()] == expected
