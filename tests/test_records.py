"""Record values: repr text, equality, hashing and immutability.

One instance of each of the package's 26 record classes.  A value record
equals a copy built from its fields by keyword, hashes like the tuple of its
compared fields (a spec's tuple starts with ``declared_profile``) and never
equals a record of another class; ``PartStream`` and ``Decomposition``
compare by identity.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from meanweave.aarset import AARSet, Interval
from meanweave.balance import BalanceVerdict, NumericEvidence, RatioEntry
from meanweave.extreal import ExtendedReal
from meanweave.harness import EnvelopeReport, PermutationReport
from meanweave.realizer import ScheduleEntry
from meanweave.seqspec import (
    Affine,
    AffineMap,
    BalanceKind,
    Condition,
    Constant,
    Decomposition,
    DensityReport,
    ExplicitPrefix,
    Geometric,
    Interleave,
    Linear,
    Negate,
    NegLinear,
    PartStream,
    PointwiseSquare,
    PointwiseSum,
    PowerOfIndex,
    RunLength,
    SequenceSpec,
    SumJump,
    WovenMap,
)

F = Fraction
HALF = "Constant(declared_profile=None, value=Fraction(1, 2))"
LINEAR = "Linear(declared_profile=None)"
PART = ("PartStream(spec=" + HALF + ", witness=AffineMap(slope=1, offset=1), "
        "limit=ExtendedReal('1/2'))")


def part():
    return PartStream(Constant(F(1, 2)), AffineMap(1, 1), ExtendedReal(F(1, 2)))


# (build one instance, compared field names in order, repr text)
VALUES = [
    (lambda: DensityReport(Condition.HOLDS, "r", path=("first",)),
     ("condition", "reason", "path"),
     "DensityReport(condition=<Condition.HOLDS: 'Holds'>, reason='r', path=('first',))"),
    (lambda: SequenceSpec(declared_profile=AARSet.of(1)), ("declared_profile",),
     "SequenceSpec(declared_profile=AARSet({1}))"),
    (lambda: Constant(F(1, 2)), ("declared_profile", "value"), HALF),
    (lambda: PowerOfIndex(2), ("declared_profile", "exponent"),
     "PowerOfIndex(declared_profile=None, exponent=2)"),
    (lambda: Geometric(F(3, 2)), ("declared_profile", "ratio"),
     "Geometric(declared_profile=None, ratio=Fraction(3, 2))"),
    (lambda: Linear(), ("declared_profile",), LINEAR),
    (lambda: NegLinear(declared_profile=AARSet.of(-1)), ("declared_profile",),
     "NegLinear(declared_profile=AARSet({-1}))"),
    (lambda: RunLength(2), ("declared_profile", "rule"),
     "RunLength(declared_profile=None, rule=<RunRule.STAIRS: 2>)"),
    (lambda: SumJump(), ("declared_profile",), "SumJump(declared_profile=None)"),
    (lambda: ExplicitPrefix((1, F(1, 3)), Linear()), ("declared_profile", "values", "tail"),
     "ExplicitPrefix(declared_profile=None, values=(Fraction(1, 1), Fraction(1, 3)), "
     "tail=" + LINEAR + ")"),
    (lambda: Affine(Linear(), 2, F(-1, 2)), ("declared_profile", "base", "scale", "shift"),
     "Affine(declared_profile=None, base=" + LINEAR
     + ", scale=Fraction(2, 1), shift=Fraction(-1, 2))"),
    (lambda: PointwiseSquare(Constant(F(1, 2))), ("declared_profile", "base"),
     "PointwiseSquare(declared_profile=None, base=" + HALF + ")"),
    (lambda: Negate(Constant(F(1, 2))), ("declared_profile", "base"),
     "Negate(declared_profile=None, base=" + HALF + ")"),
    (lambda: Interleave(Constant(F(1, 2)), Linear()), ("declared_profile", "first", "second"),
     "Interleave(declared_profile=None, first=" + HALF + ", second=" + LINEAR + ")"),
    (lambda: PointwiseSum(Constant(F(1, 2)), Linear()), ("declared_profile", "first", "second"),
     "PointwiseSum(declared_profile=None, first=" + HALF + ", second=" + LINEAR + ")"),
    (lambda: AffineMap(2, 1), ("slope", "offset"), "AffineMap(slope=2, offset=1)"),
    (lambda: WovenMap(AffineMap(2, 1), AffineMap(2, 2)), ("first", "second"),
     "WovenMap(first=AffineMap(slope=2, offset=1), second=AffineMap(slope=2, offset=2))"),
    (lambda: Interval(ExtendedReal(0), ExtendedReal(1)), ("lo", "hi"),
     "Interval(lo=ExtendedReal('0'), hi=ExtendedReal('1'))"),
    (lambda: RatioEntry(2, F(2), F(1), F(2), F(1, 2), F(2, 3)),
     ("n", "term", "s_prev", "r_n", "A_n", "r_incl"),
     "RatioEntry(n=2, term=Fraction(2, 1), s_prev=Fraction(1, 1), r_n=Fraction(2, 1), "
     "A_n=Fraction(1, 2), r_incl=Fraction(2, 3))"),
    (lambda: NumericEvidence(10, 9, F(1, 3), None, False),
     ("horizon", "window_start", "max_ratio", "last_ratio", "ratio_small"),
     "NumericEvidence(horizon=10, window_start=9, max_ratio=Fraction(1, 3), "
     "last_ratio=None, ratio_small=False)"),
    (lambda: BalanceVerdict(BalanceKind.BALANCED, "why"),
     ("kind", "reason", "limsup_estimate", "evidence"),
     "BalanceVerdict(kind=<BalanceKind.BALANCED: 'Balanced'>, reason='why', "
     "limsup_estimate=None, evidence=None)"),
    (lambda: PermutationReport(True, 5, ((2, 4, 2),)), ("ok", "distinct_checked", "coverage"),
     "PermutationReport(ok=True, distinct_checked=5, coverage=((2, 4, 2),))"),
    (lambda: EnvelopeReport(F(1), F(2), (F(1), F(2))), ("min_avg", "max_avg", "achievable"),
     "EnvelopeReport(min_avg=Fraction(1, 1), max_avg=Fraction(2, 1), "
     "achievable=(Fraction(1, 1), Fraction(2, 1)))"),
    (lambda: ScheduleEntry(F(0), F(1), 3, "tube", 1, F(1, 2)),
     ("lo", "hi", "from_index", "kind", "stage", "target"),
     "ScheduleEntry(lo=Fraction(0, 1), hi=Fraction(1, 1), from_index=3, kind='tube', "
     "stage=1, target=Fraction(1, 2))"),
]
IDENTITIES = [
    (part, ("spec", "witness", "limit"), PART),
    (lambda: Decomposition(part(), None, None), ("b", "c", "d"),
     "Decomposition(b=" + PART + ", c=None, d=None)"),
]
RECORDS = VALUES + IDENTITIES


def name_of(case):
    return case[2].partition("(")[0]


def test_every_record_class_is_pinned():
    assert len({name_of(case) for case in RECORDS}) == len(RECORDS) == 26


@pytest.mark.parametrize("build, names, text", RECORDS, ids=[name_of(c) for c in RECORDS])
def test_repr_and_immutability(build, names, text):
    x = build()
    assert repr(x) == text
    for name in names:
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert repr(x) == text


@pytest.mark.parametrize("build, names, text", VALUES, ids=[name_of(c) for c in VALUES])
def test_values_compare_and_hash_by_their_fields(build, names, text):
    x = build()
    key = tuple(getattr(x, name) for name in names)
    copy = type(x)(**dict(zip(names, key)))
    assert copy is not x and copy == x and not copy != x
    assert hash(x) == hash(copy) == hash(key)
    assert x != key
    assert len({x, copy}) == 1


@pytest.mark.parametrize("build, names, text", IDENTITIES,
                         ids=[name_of(c) for c in IDENTITIES])
def test_part_streams_and_decompositions_compare_by_identity(build, names, text):
    x = build()
    copy = type(x)(**{name: getattr(x, name) for name in names})
    assert x == x and x != copy
    assert hash(x) == object.__hash__(x)


@pytest.mark.parametrize("build, names, text", RECORDS, ids=[name_of(c) for c in RECORDS])
def test_records_survive_pickle_and_copy(build, names, text):
    x = build()
    by_value = type(x) not in (PartStream, Decomposition)
    for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(y) is type(x) and repr(y) == text
        assert (y == x) is by_value
    if isinstance(x, SumJump):  # its cache of terms comes along or is rebuilt
        assert pickle.loads(pickle.dumps(x)).term(5) == copy.copy(x).term(5) == 8


@pytest.mark.parametrize("make, other", [
    (Negate, PointwiseSquare),
    (lambda b: Interleave(b, b), lambda b: PointwiseSum(b, b)),
    (lambda b: Linear(), lambda b: NegLinear()),
    (lambda b: SequenceSpec(), lambda b: Linear()),
    (lambda b: Linear(), lambda b: SumJump()),
], ids=["neg-square", "interleave-sum", "linear-neglinear", "base-linear", "linear-sumjump"])
def test_records_of_different_classes_never_compare_equal(make, other):
    b = Constant(F(1, 2))
    x, y = make(b), other(b)
    assert x != y and y != x and not x == y


def test_index_maps_keep_their_slots():
    for x in (AffineMap(2, 1), WovenMap(AffineMap(2, 1), AffineMap(2, 2))):
        assert not hasattr(x, "__dict__")
