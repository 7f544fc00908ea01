"""Decision tree from accumulation profiles to attainable-average sets."""

from fractions import Fraction

import pytest

from meanweave.aarset import AARSet
from meanweave.balance import BalanceKind, Condition
from meanweave.classifier import classify, classify_spec
from meanweave.dsl import parse_spec
from meanweave.errors import InsufficientEvidence
from meanweave.extreal import NEG_INF, POS_INF

F = Fraction
B, NB = BalanceKind.BALANCED, BalanceKind.NOT_BALANCED
H, X = Condition.HOLDS, Condition.FAILS


def points(*ps, neg=False, pos=False):
    infinities = [NEG_INF] * neg + [POS_INF] * pos
    return AARSet.of(*[F(p) for p in ps], *infinities)


# ---------------------------------------------------------------------------
# End-to-end classification of descriptors


def test_standard_catalog(catalog_specs):
    for spec, expected in catalog_specs:
        assert classify_spec(spec).render() == expected


@pytest.mark.parametrize(
    "text,expected",
    [
        ("const(7)", "{7}"),
        ("affine(const(1), 3/2, 0)", "{3/2}"),
        ("interleave(const(0), pow(1))", "[0, +inf]"),
        ("interleave(const(0), pow(3))", "[0, +inf]"),
        ("interleave(neg(pow(1)), const(0))", "[-inf, 0]"),
        ("interleave(neg(geom(2)), const(0))", "{-inf} ∪ {0}"),
        ("linear()", "{+inf}"),
        ("neglinear()", "{-inf}"),
        ("geom(2)", "{+inf}"),
        ("neg(geom(2))", "{-inf}"),
        ("interleave(neg(runlen(4)), runlen(4))", "[-inf, +inf]"),
        # Steep strands defeat the density condition on one or both sides.
        ("interleave(neg(geom(2)), pow(1))", "{-inf} ∪ {+inf}"),
        ("interleave(neg(pow(1)), runlen(4))", "{-inf} ∪ {+inf}"),
        # A finite head never changes the attainable set.
        ("prefix(100, interleave(const(0), geom(2)))", "{0} ∪ {+inf}"),
        ("prefix(-5, 11, interleave(const(0), pow(2)))", "[0, +inf]"),
        ("interleave(const(0), prefix(5, interleave(const(1), linear())))",
         "[0, +inf]"),
        ("interleave(neg(runlen(4)), square(prefix(1, runlen(4))))",
         "{-inf} ∪ {+inf}"),
    ],
)
def test_classify_spec_derives_needed_verdicts(text, expected):
    assert classify_spec(parse_spec(text)).render() == expected


def test_catalog_round_trips_through_serialization(catalog_specs):
    for spec, _ in catalog_specs:
        result = classify_spec(spec)
        assert AARSet.deserialize(result.serialize()) == result
        assert AARSet.parse(result.render()) == result


# ---------------------------------------------------------------------------
# Direct decision-tree cases


def test_bounded_profile_yields_its_hull():
    assert classify(points(0, 1)).render() == "[0, 1]"
    assert classify(points("3/2")).render() == "{3/2}"


def test_single_infinity_without_finite_points():
    assert classify(points(neg=True)).render() == "{-inf}"
    assert classify(points(pos=True)).render() == "{+inf}"


def test_both_infinities_density_decides_the_middle():
    assert classify(points(neg=True, pos=True), b_density=H, c_density=H).render() == "[-inf, +inf]"
    assert classify(points(neg=True, pos=True), b_density=X, c_density=H).render() == "{-inf} ∪ {+inf}"
    assert classify(points(neg=True, pos=True), b_density=H, c_density=X).render() == "{-inf} ∪ {+inf}"
    assert classify(points(neg=True, pos=True), b_density=X, c_density=X).render() == "{-inf} ∪ {+inf}"


def test_one_sided_divergence_balance_decides_the_bridge():
    assert classify(points(0, pos=True), c_balance=B).render() == "[0, +inf]"
    assert classify(points(0, pos=True), c_balance=NB).render() == "{0} ∪ {+inf}"
    assert classify(points(0, neg=True), b_balance=B).render() == "[-inf, 0]"
    assert classify(points(0, neg=True), b_balance=NB).render() == "{-inf} ∪ {0}"


def test_two_sided_divergence_around_finite_middle():
    p = points(0, neg=True, pos=True)
    assert classify(p, b_balance=B, c_balance=B).render() == "[-inf, +inf]"
    assert classify(p, b_balance=B, c_balance=NB).render() == "[-inf, 0] ∪ {+inf}"
    assert classify(p, b_balance=NB, c_balance=B).render() == "{-inf} ∪ [0, +inf]"
    assert classify(p, b_balance=NB, c_balance=NB).render() == "{-inf} ∪ {0} ∪ {+inf}"


def test_finite_hull_spanning_values_is_kept():
    assert classify(points(-2, 0, 5, pos=True), c_balance=B).render() == "[-2, +inf]"
    assert classify(points(-2, 0, 5, pos=True), c_balance=NB).render() == "[-2, 5] ∪ {+inf}"


@pytest.mark.parametrize(
    "prof,expected",
    [
        ("[-inf, +inf]", "[-inf, +inf]"),
        ("[-inf, 0]", "[-inf, 0]"),
        ("{-inf} ∪ [0, +inf]", "{-inf} ∪ [0, +inf]"),
        ("[-inf, 0] ∪ [1, 2] ∪ {+inf}", "[-inf, 2] ∪ {+inf}"),
    ],
)
def test_infinite_endpoints_are_finite_accumulation(prof, expected):
    # Pieces reaching an infinity still count as finite accumulation: the
    # hull plus the infinities, whatever the verdicts say.
    prof = AARSet.parse(prof)
    result = classify(prof, b_balance=NB, c_balance=NB, b_density=X, c_density=X)
    assert result.render() == expected


def test_missing_evidence_is_an_error_not_a_guess():
    with pytest.raises(InsufficientEvidence):
        classify(points(0, pos=True))
    with pytest.raises(InsufficientEvidence):
        classify(points(0, neg=True, pos=True), b_balance=B)
    with pytest.raises(InsufficientEvidence):
        classify(points(neg=True, pos=True), b_density=H)
    with pytest.raises(InsufficientEvidence):
        classify(points(0, pos=True), c_balance=BalanceKind.UNKNOWN)


@pytest.mark.parametrize("prof, verdicts, missing", [
    (points(neg=True, pos=True), {"c_density": H}, ("b_density",)),
    (points(neg=True, pos=True), {}, ("b_density", "c_density")),
    (points(0, neg=True), {}, ("b_balance",)),
    (points(0, neg=True, pos=True), {"c_balance": B}, ("b_balance",)),
    (points(0, neg=True, pos=True), {}, ("b_balance", "c_balance")),
])
def test_missing_evidence_names_each_missing_verdict(prof, verdicts, missing):
    with pytest.raises(InsufficientEvidence) as caught:
        classify(prof, **verdicts)
    assert caught.value.missing == missing


def test_membership_helper_matches_set_contains():
    aar = classify(points(0, pos=True), c_balance=NB)
    assert aar.contains(F(0)) and aar.contains(POS_INF)
    assert not aar.contains(F(1)) and not aar.contains(NEG_INF)


def test_a_verdicts_kind_decides_the_bridge():
    from meanweave.balance import balanced_verdict

    v = balanced_verdict(parse_spec("pow(1)"))
    assert classify(points(0, pos=True), c_balance=v.kind).render() == "[0, +inf]"
