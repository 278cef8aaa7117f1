"""The value semantics every value class shares.

Each of the sixteen value classes is frozen and compares by its fields:
these checks pin its ``repr``, equality, hash, immutability, pickling and
copying, construction by position and keyword, defaults, argument errors
and field validation, whatever machinery provides them.
"""

import copy
import pickle

import pytest

from div2.dihedral import R, DihedralElt, ParityPoint
from div2.divider import CopyElem
from div2.localrules import (
    Collision,
    Gap,
    LinearTail,
    LocalRule,
    NaiveWitness,
    SearchReport,
    TailViolation,
    WindowPattern,
    exhaustive_search,
)
from div2.sequences import MINUS_INF, BiSeq, ZInf, fin
from div2.theta import EquivarianceWitness, SelfInverseWitness, ThetaResult

CHI = BiSeq(0, 2, (1, 0, 1), 0)
P = ParityPoint(3, 1)
RULE = LocalRule(1, 3, (1, 3, -3, -1))

# (class, field names, two instances' field values, the first one's repr)
CASES = [
    (ParityPoint, ("n", "i"), ((3, 1), (3, 0)), "ParityPoint(n=3, i=1)"),
    (DihedralElt, ("reflect", "shift"), ((1, -2), (1, 2)), "DihedralElt(reflect=1, shift=-2)"),
    (CopyElem, ("side", "label", "bit"), (("X", "a", 1), ("Y", "a", 1)), "CopyElem(side='X', label='a', bit=1)"),
    (WindowPattern, ("w", "cut"), ((2, -1), (2, 3)), "WindowPattern(w=2, cut=-1)"),
    (LocalRule, ("w", "d", "offsets"), ((1, 3, (1, 3, -3, -1)), (1, 5, (1, 3, -3, -1))),
     "LocalRule(w=1, d=3, offsets=(1, 3, -3, -1))"),
    (NaiveWitness, ("g", "chi", "n", "lhs", "rhs"), ((R, fin(0), 0, 1, -1), (R, MINUS_INF, 0, 1, -1)),
     "NaiveWitness(g=DihedralElt(reflect=1, shift=0), chi=ZInf(kind=0, n=0), n=0, lhs=1, rhs=-1)"),
    (LinearTail, ("k", "N"), ((-3, 4), (3, 4)), "LinearTail(k=-3, N=4)"),
    (TailViolation, ("n", "expected", "actual"), ((6, 7, 9), (6, 7, 5)), "TailViolation(n=6, expected=7, actual=9)"),
    (Collision, ("chi", "n1", "n2", "value"), ((fin(2), 0, 2, 1), (fin(2), 0, 4, 1)),
     "Collision(chi=ZInf(kind=0, n=2), n1=0, n2=2, value=1)"),
    (Gap, ("chi", "value"), ((MINUS_INF, 3), (MINUS_INF, -3)), "Gap(chi=ZInf(kind=-1, n=0), value=3)"),
    (SearchReport, ("w", "d", "candidates", "equivariant", "failed_collision", "failed_gap", "survivors"),
     ((1, 3, 81, 9, 5, 4, ()), (1, 3, 81, 9, 5, 3, (RULE,))),
     "SearchReport(w=1, d=3, candidates=81, equivariant=9, failed_collision=5, failed_gap=4, survivors=())"),
    (ZInf, ("kind", "n"), ((0, 5), (0, -5)), "ZInf(kind=0, n=5)"),
    (BiSeq, ("left", "start", "core", "right"), ((0, 2, (1, 0, 1), 0), (0, 2, (1, 1), 0)),
     "BiSeq(left=0, start=2, core=(1, 0, 1), right=0)"),
    (ThetaResult, ("point", "depends_on"), ((P, (2, 3, 4)), (P, (1, 2, 3))),
     "ThetaResult(point=ParityPoint(n=3, i=1), depends_on=(2, 3, 4))"),
    (SelfInverseWitness, ("chi", "p", "image", "back"), ((CHI, P, ParityPoint(4, 0), ParityPoint(5, 1)),
                                                         (CHI, P, ParityPoint(4, 0), ParityPoint(3, 0))),
     "SelfInverseWitness(chi=BiSeq(left=0, start=2, core=(1, 0, 1), right=0), p=ParityPoint(n=3, i=1), "
     "image=ParityPoint(n=4, i=0), back=ParityPoint(n=5, i=1))"),
    (EquivarianceWitness, ("g", "chi", "p", "lhs", "rhs"),
     ((R, CHI, P, ParityPoint(-4, 0), ParityPoint(-2, 0)), (R, CHI, P, ParityPoint(-4, 0), ParityPoint(-4, 1))),
     "EquivarianceWitness(g=DihedralElt(reflect=1, shift=0), chi=BiSeq(left=0, start=2, core=(1, 0, 1), right=0), "
     "p=ParityPoint(n=3, i=1), lhs=ParityPoint(n=-4, i=0), rhs=ParityPoint(n=-2, i=0))"),
]
IDS = [case[0].__name__ for case in CASES]


def test_every_value_class_is_covered():
    assert len({case[0] for case in CASES}) == 16


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=IDS)
def test_fields_repr_and_match_args(cls, names, values, text):
    x = cls(*values[0])
    assert tuple(getattr(x, name) for name in names) == values[0]
    assert repr(x) == text
    assert cls.__match_args__ == names


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=IDS)
def test_equality_and_hash_go_by_fields(cls, names, values, text):
    x, twin, other = cls(*values[0]), cls(*values[0]), cls(*values[1])
    assert x == twin and not x != twin
    assert x != other and not x == other
    assert hash(x) == hash(twin) == hash(values[0])
    assert x != values[0]  # not a tuple
    assert len({x, twin, other}) == 2
    with pytest.raises(TypeError):
        x < twin  # noqa: B015 - no ordering


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=IDS)
def test_no_equality_across_classes(cls, names, values, text):
    x = cls(*values[0])
    for other_cls, _, other_values, _ in CASES:
        if other_cls is not cls:
            y = other_cls(*other_values[0])
            assert x != y and not x == y


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=IDS)
def test_instances_are_frozen(cls, names, values, text):
    x = cls(*values[0])
    for name in (names[0], names[-1], "extra"):
        with pytest.raises(AttributeError):
            setattr(x, name, 0)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert tuple(getattr(x, name) for name in names) == values[0]
    assert not hasattr(x, "extra")


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=IDS)
def test_pickle_and_copy_round_trip(cls, names, values, text):
    x = cls(*values[1])
    for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(y) is cls and y == x and hash(y) == hash(x) and repr(y) == repr(x)


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=IDS)
def test_construction_by_keyword(cls, names, values, text):
    kwargs = dict(zip(names, values[0]))
    assert cls(**kwargs) == cls(*values[0])
    assert cls(values[0][0], **dict(list(kwargs.items())[1:])) == cls(*values[0])


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=IDS)
def test_argument_errors(cls, names, values, text):
    args = values[0]
    with pytest.raises(TypeError):
        cls(*args, 0)
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*args, bogus=0)
    with pytest.raises(TypeError):
        cls(*args, **{names[0]: args[0]})


def test_defaults():
    assert ZInf(1) == ZInf(1, 0) == ZInf(kind=1) == ZInf(n=0, kind=1)
    assert ZInf(1).n == 0 and repr(ZInf(-1)) == "ZInf(kind=-1, n=0)"
    assert BiSeq(0, 0) == BiSeq(0, 0, (), 0)
    assert repr(BiSeq(1, 0)) == "BiSeq(left=1, start=0, core=(), right=0)"
    assert BiSeq(1, 7, right=1) == BiSeq.constant(1)
    with pytest.raises(TypeError):
        BiSeq(0)
    with pytest.raises(TypeError):
        ParityPoint(3)


@pytest.mark.parametrize("make, message", [
    (lambda: ParityPoint(0, 2), "copy bit must be 0 or 1, got 2"),
    (lambda: ParityPoint(n="0", i=0), "n must be an integer, got '0'"),
    (lambda: DihedralElt(2, 0), "reflect must be 0 or 1, got 2"),
    (lambda: CopyElem("Z", "a", 0), "side must be 'X' or 'Y', got 'Z'"),
    (lambda: WindowPattern(-1, 0), "radius must be a non-negative integer, got -1"),
    (lambda: WindowPattern(1, 3), "cut 3 out of range [-1, 2]"),
    (lambda: LocalRule(1, 3, (1, 3, -3)), "table must cover all 4 patterns, got 3 entries"),
    (lambda: LinearTail(2, 4), "tail displacement must be an odd integer, got 2"),
    (lambda: ZInf(2), "kind must be -1, 0, or 1, got 2"),
    (lambda: ZInf(1, 3), "infinite points carry no threshold"),
    (lambda: BiSeq(2, 0), "left must be 0 or 1, got 2"),
    (lambda: BiSeq(0, 0, core=(0, 5)), "core entry must be 0 or 1, got 5"),
    (lambda: LocalRule(-1, 3, ()), "radius must be a non-negative integer, got -1"),
    (lambda: LocalRule(True, 3, (1, -1, 1, -1)), "radius must be a non-negative integer, got True"),
    (lambda: LocalRule(0, 0, (1, -1)), "displacement bound must be a positive integer, got 0"),
    (lambda: LocalRule.from_json({"w": "1", "table": {}}), "radius must be a non-negative integer, got '1'"),
    (lambda: LinearTail(1, 3), "tail bound must be an even integer, got 3"),
    (lambda: LinearTail(True, 4), "tail displacement must be an odd integer, got True"),
    (lambda: exhaustive_search(2.0, 7), "radius must be an integer in [0, 4] for the exhaustive search, got 2.0"),
    (lambda: exhaustive_search(2, 7, jobs=True), "jobs must be a positive integer, got True"),
])
def test_field_checks_still_run(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_field_checks_normalise_what_they_store():
    assert ParityPoint(1, True).i == 1 and type(ParityPoint(1, True).i) is int
    assert BiSeq(0, 0, [0, 1, 1], 1) == BiSeq(0, 1, (), 1)
    assert LocalRule(0, 1, [1, -1]).offsets == (1, -1)
