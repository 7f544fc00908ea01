"""Sequence descriptors: term evaluation, profiles, decomposition, negation."""

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

import pytest

from meanweave import seqspec
from meanweave.dsl import parse_spec, render
from meanweave.errors import MalformedDescriptor, TermTooLarge
from meanweave.extreal import NEG_INF, POS_INF
from meanweave.seqspec import (
    Affine,
    AffineMap,
    Constant,
    ExplicitPrefix,
    Geometric,
    Linear,
    Negate,
    NegLinear,
    PointwiseSquare,
    PointwiseSum,
    PowerOfIndex,
    RunLength,
    SequenceSpec,
    WovenMap,
    decompose,
    negated_spec,
    profile,
    push_pointwise,
)

F = Fraction


def terms(spec, k):
    return [spec.term(n) for n in range(1, k + 1)]


# ---------------------------------------------------------------------------
# Frozen term prefixes (each checked by hand against its closed form)

TERM_PREFIXES = [
    ("const(7)", [7, 7, 7, 7, 7, 7]),
    ("linear()", [1, 2, 3, 4, 5, 6]),
    ("neglinear()", [-1, -2, -3, -4, -5, -6]),
    ("pow(2)", [1, 4, 9, 16, 25, 36]),
    ("pow(3)", [1, 8, 27, 64, 125, 216]),
    ("geom(2)", [2, 4, 8, 16, 32, 64]),
    ("geom(3)", [3, 9, 27, 81, 243, 729]),
    ("neg(geom(2))", [-2, -4, -8, -16, -32, -64]),
    ("square(linear())", [1, 4, 9, 16, 25, 36]),
    ("sum(linear(), const(1))", [2, 3, 4, 5, 6, 7]),
    ("interleave(const(0), linear())", [0, 1, 0, 2, 0, 3]),
    ("prefix(5, -3, const(0))", [5, -3, 0, 0, 0, 0]),
    # Index runs whose sums jump: 1,2,3 then 7..10 then 41..45 and so on.
    ("sumjump()", [1, 2, 3, 7, 8, 9, 10, 41, 42, 43, 44, 45]),
    # Run-length families: doubling blocks, staircase, factorial blocks,
    # and the integer ceiling of sqrt(n).
    ("runlen(1)", [1, 2, 2, 4, 4, 4, 8, 8, 8, 8, 16, 16]),
    ("runlen(2)", [1, 1, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4]),
    ("runlen(3)", [1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2]),
    ("runlen(4)", [1, 2, 2, 2, 3, 3, 3, 3, 3, 4, 4, 4]),
]


@pytest.mark.parametrize("text,expected", TERM_PREFIXES, ids=[t for t, _ in TERM_PREFIXES])
def test_frozen_term_prefixes(text, expected):
    spec = parse_spec(text)
    assert terms(spec, len(expected)) == [F(v) for v in expected]


def test_affine_scales_then_shifts():
    spec = parse_spec("affine(linear(), 2, 1/2)")
    assert terms(spec, 4) == [F(5, 2), F(9, 2), F(13, 2), F(17, 2)]


def test_runlen_ceiling_sqrt_matches_closed_form():
    import math

    spec = parse_spec("runlen(4)")
    for n in range(1, 400):
        assert spec.term(n) == F(math.isqrt(n - 1) + 1)


def test_factorial_terms_follow_the_blocks_up_to_the_block_limit():
    spec = RunLength(3)
    assert list(islice(spec.iter_terms(), 5000)) == terms(spec, 5000)
    # block v ends at index (v+1)(v+2)(2v+3)/6 - 1: the last block is exact
    last = 10_001 * 10_002 * 20_003 // 6 - 1
    assert spec.term(last - 10_001**2 + 1) == spec.term(last)
    assert spec.term(last) == 10_000 * spec.term(last - 10_001**2)
    for n in (last + 1, 10**40, 10**400):
        with pytest.raises(TermTooLarge):
            spec.term(n)


def test_iter_terms_agrees_with_eval_term():
    spec = parse_spec("interleave(neg(geom(2)), interleave(const(0), geom(2)))")
    from itertools import islice

    assert list(islice(spec.iter_terms(), 12)) == terms(spec, 12)


@dataclass(frozen=True)
class FreshRuns(SequenceSpec):
    """runlen(4)'s terms, each pair a new tuple: equal values in a run are
    distinct objects, so a wrapper must map every one of them."""

    def term(self, n):
        return RunLength(4).term(n)

    def iter_pairs(self):
        return ((num, den) for num, den in RunLength(4).iter_pairs())


HALF = F(1, 2)
WRAPPED_BASES = [
    RunLength(2),
    RunLength(4),
    Constant(F(2, 3)),
    # one object twice, then two equal objects, then runs
    ExplicitPrefix((HALF, HALF, F(-3), F(-3)), RunLength(2)),
    FreshRuns(),
]
WRAPPERS = [
    Negate,
    PointwiseSquare,
    lambda b: Affine(b, F(3, 4), F(-5, 2)),
    lambda b: Affine(b, 0, F(1, 3)),
    lambda b: Affine(b, F(-2, 3), 7),
]


@pytest.mark.parametrize(
    "spec",
    [Constant(F(-2, 3)), Linear(), PowerOfIndex(3), NegLinear()]
    + [Geometric(F(2)), Geometric(F(3, 2)), Geometric(F(7, 5))]
    + [wrap(base) for wrap in WRAPPERS for base in WRAPPED_BASES]
    + [PointwiseSum(Linear(), Constant(F(-2, 3))),
       PointwiseSum(Geometric(F(3, 2)), Affine(RunLength(4), F(1, 5), F(-1, 7))),
       PointwiseSum(FreshRuns(), Negate(RunLength(4)))],
    ids=repr,
)
def test_own_iter_terms_agree_with_term(spec):
    assert type(spec).iter_pairs is not SequenceSpec.iter_pairs
    expected = [spec.term(n) for n in range(1, 1001)]
    assert list(islice(spec.iter_terms(), 1000)) == expected
    pairs = list(islice(spec.iter_pairs(), 1000))
    assert all(den > 0 for _num, den in pairs)
    assert [F(num, den) for num, den in pairs] == expected


def test_iter_terms_keep_one_object_per_run():
    woven = parse_spec("interleave(const(-1), interleave(const(2), const(1/2)))")
    held = {id(c.value) for c in (woven.first, woven.second.first, woven.second.second)}
    assert {id(v) for v in islice(woven.iter_terms(), 3000)} == held
    for text in ("neg(runlen(4))", "affine(runlen(2), 3/4, -5/2)"):
        values = list(islice(parse_spec(text).iter_terms(), 3000))
        # block values differ, so one object per block is one per value
        assert len({id(v) for v in values}) == len(set(values)), text
    # a cached family re-yields the Fractions it built on the first read
    jumps = parse_spec("sumjump()")
    first = list(islice(jumps.iter_terms(), 3000))
    assert all(a is b for a, b in zip(first, islice(jumps.iter_terms(), 3000)))
    # the Fraction view is built in one place; families that override it
    # re-yield objects they hold, or (Geometric) multiply the last term by
    # the ratio, where the pair view would take a gcd of n-digit integers
    own = {
        name
        for name, cls in vars(seqspec).items()
        if isinstance(cls, type) and issubclass(cls, SequenceSpec) and "iter_terms" in vars(cls)
    }
    assert own == {"SequenceSpec", "Constant", "Interleave", "ExplicitPrefix", "Geometric",
                   "SumJump"}


# ---------------------------------------------------------------------------
# Profiles


def test_profile_bounded_two_level():
    p = profile(parse_spec("interleave(const(0), const(1))"))
    assert [(ivl.lo.render(), ivl.hi.render()) for ivl in p.finite] == [("0", "0"), ("1", "1")]
    assert not p.contains(NEG_INF) and not p.contains(POS_INF)
    assert p.lo.render() == "0" and p.hi.render() == "1"


def test_profile_one_sided_divergence():
    p = profile(parse_spec("interleave(const(0), geom(2))"))
    assert [(ivl.lo.render(), ivl.hi.render()) for ivl in p.finite] == [("0", "0")]
    assert not p.contains(NEG_INF) and p.contains(POS_INF)


def test_profile_two_sided_divergence_without_finite_points():
    p = profile(parse_spec("interleave(neg(linear()), linear())"))
    assert p.finite == ()
    assert p.contains(NEG_INF) and p.contains(POS_INF)


def test_profile_of_prefix_ignores_the_finite_head():
    p = profile(parse_spec("prefix(100, -100, interleave(const(0), const(1)))"))
    assert [(ivl.lo.render(), ivl.hi.render()) for ivl in p.finite] == [("0", "0"), ("1", "1")]


# ---------------------------------------------------------------------------
# Decomposition


def test_decompose_three_strand_witnesses_partition_source_indices():
    spec = parse_spec("interleave(neg(geom(2)), interleave(const(0), geom(2)))")
    dec = decompose(spec)
    assert dec.b.limit.is_neg_inf and dec.c.limit.is_pos_inf
    assert dec.d.limit == 0
    assert [str(v) for v in terms(dec.b.spec, 4)] == ["-2", "-4", "-8", "-16"]
    assert [str(v) for v in terms(dec.c.spec, 4)] == ["2", "4", "8", "16"]
    assert [str(v) for v in terms(dec.d.spec, 4)] == ["0", "0", "0", "0"]
    assert [dec.b.witness(k) for k in range(1, 5)] == [1, 3, 5, 7]
    assert [dec.c.witness(k) for k in range(1, 5)] == [4, 8, 12, 16]
    assert [dec.d.witness(k) for k in range(1, 5)] == [2, 6, 10, 14]
    # Witnesses are injective with disjoint images covering every index once.
    seen = [part.witness(k) for part in (dec.b, dec.c, dec.d) for k in range(1, 41)]
    assert len(seen) == len(set(seen))
    covered = sorted(seen)
    assert covered[:40] == list(range(1, 41))


def test_folded_witness_weaves_the_strand_maps():
    dec = decompose(parse_spec("interleave(const(0), interleave(const(0), linear()))"))
    b = dec.b.witness
    assert b == WovenMap(AffineMap(2, 1), AffineMap(4, 2))
    assert [b(k) for k in range(1, 9)] == [1, 2, 3, 6, 5, 10, 7, 14]
    assert list(islice(b, 8)) == [1, 2, 3, 6, 5, 10, 7, 14]
    assert dec.c.witness == AffineMap(4, 4)
    assert repr(b) == (
        "WovenMap(first=AffineMap(slope=2, offset=1), "
        "second=AffineMap(slope=4, offset=2))"
    )


def test_many_same_limit_strands_fold_into_a_map_of_linear_size():
    strands = 20
    text = "linear()"
    for _ in range(strands):
        text = f"interleave(const(0), {text})"
    spec = parse_spec(text)
    dec = decompose(spec)
    b = dec.b.witness
    # one woven node per fold: a flat periodic form would need 2**19 residues
    assert repr(b).count("AffineMap") == strands
    images = list(islice(b, 200))
    assert images == [b(k) for k in range(1, 201)]
    assert len(set(images)) == 200
    assert all(spec.term(i) == 0 for i in images)
    assert dec.c.witness(3) == 3 * 2**strands


def test_prefix_values_are_dealt_to_the_strand_maps():
    # an even head keeps each strand in place: 5 | 7 | 0, 1 | 0, 2 | ...
    spec = parse_spec("prefix(5, 7, interleave(const(0), linear()))")
    assert render(push_pointwise(spec)) == (
        "interleave(prefix(5, const(0)), prefix(7, linear()))"
    )
    dec = decompose(spec)
    assert dec.b.witness == AffineMap(2, 1)
    assert dec.c.witness == AffineMap(2, 2)
    assert list(islice(dec.emissions("b"), 4)) == [(1, F(5)), (3, F(0)), (5, F(0)), (7, F(0))]
    # an odd head starts the tail on an even rank, so its strands swap
    spec = parse_spec(
        "prefix(5, 7, 9, interleave(const(0), interleave(const(0), linear())))"
    )
    assert render(push_pointwise(spec)) == (
        "interleave(interleave(prefix(5, const(0)), prefix(9, linear())), "
        "prefix(7, const(0)))"
    )
    dec = decompose(spec)
    b = dec.b.witness
    assert b == WovenMap(AffineMap(4, 1), AffineMap(2, 2))
    assert list(islice(b, 8)) == [1, 2, 5, 4, 9, 6, 13, 8]
    assert dec.c.witness == AffineMap(4, 3)
    assert [spec.term(i) for i in islice(dec.c.witness, 4)] == [9, 1, 2, 3]


def test_a_prefix_over_one_strand_stays_whole():
    spec = parse_spec("prefix(30, affine(linear(), 2, 0))")
    assert push_pointwise(spec) is spec
    dec = decompose(spec)
    assert dec.b.spec is spec and dec.b.witness == AffineMap(1, 1)


def test_decompose_witness_values_match_source_terms():
    spec = parse_spec("interleave(neg(geom(2)), interleave(const(0), geom(2)))")
    dec = decompose(spec)
    for part in (dec.b, dec.c, dec.d):
        for k in range(1, 30):
            assert part.spec.term(k) == spec.term(part.witness(k))


def test_decompose_emissions_stream():
    dec = decompose(parse_spec("interleave(const(0), geom(2))"))
    from itertools import islice

    got = list(islice(dec.emissions("c"), 3))
    assert got == [(2, F(2)), (4, F(4)), (6, F(8))]


# ---------------------------------------------------------------------------
# Structural negation


@pytest.mark.parametrize(
    "text",
    [
        "const(7)",
        "linear()",
        "neglinear()",
        "geom(2)",
        "affine(linear(), 2, 1/2)",
        "interleave(neg(geom(2)), interleave(const(0), geom(2)))",
        "prefix(5, -3, const(0))",
        "sumjump()",
    ],
)
def test_negated_spec_is_pointwise_negation(text):
    spec = parse_spec(text)
    neg = negated_spec(spec)
    for n in range(1, 60):
        assert neg.term(n) == -spec.term(n)


def test_negated_spec_simplifies_structurally():
    assert isinstance(negated_spec(NegLinear()), Linear)
    assert isinstance(negated_spec(Linear()), NegLinear)
    c = negated_spec(Constant(F(7)))
    assert isinstance(c, Constant) and c.term(1) == F(-7)


def test_negated_spec_is_an_involution_pointwise():
    spec = parse_spec("interleave(neg(geom(2)), interleave(const(0), geom(2)))")
    twice = negated_spec(negated_spec(spec))
    for n in range(1, 40):
        assert twice.term(n) == spec.term(n)


# ---------------------------------------------------------------------------
# Constructor validation


def test_constructor_rejections():
    with pytest.raises(MalformedDescriptor):
        Geometric(F(1))
    with pytest.raises(MalformedDescriptor):
        Geometric(F(1, 2))
    with pytest.raises(MalformedDescriptor):
        PowerOfIndex(0)
    with pytest.raises(MalformedDescriptor):
        RunLength(9)
