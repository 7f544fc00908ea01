"""Rearrangement constructors: frozen prefixes and convergence behavior."""

import time
from fractions import Fraction
from itertools import islice

import pytest

from meanweave.dsl import parse_spec
from meanweave.errors import (
    DensityFails,
    NotDivergent,
    TargetUnreachable,
    UndeclaredLimit,
)
from meanweave.extreal import NEG_INF, POS_INF
from meanweave.harness import (
    PermutationReport,
    check_permutation,
    check_tube,
    iter_trace,
)
from meanweave.rearrange import (
    PartStream,
    Rearrangement,
    RunningAverage,
    construct_target,
    identity_rearrangement,
    merge_preserving,
    mirror_rearrangement,
    oscillator,
    sort_increasing,
    target_above_limsup,
    two_sided_balance,
    weighted_merge,
)
from meanweave.seqspec import decompose

F = Fraction


def avg_at(r, n):
    last = None
    for last in iter_trace(r, n):
        pass
    return last.average


def parts(text):
    dec = decompose(parse_spec(text))
    return dec.b, dec.c


# ---------------------------------------------------------------------------
# RunningAverage


def test_running_average_exact_and_comparisons():
    ra = RunningAverage()
    for v in (F(1), F(0), F(1, 2)):
        ra.add(v)
    assert F(ra.num, ra.den * ra.n) == F(1, 2)
    assert ra.cmp(F(1, 2)) == 0 and ra.cmp(F(0)) > 0 and ra.cmp(F(1)) < 0
    assert ra.cmp(F(1, 4)) > 0 and ra.cmp(F(3, 4)) < 0
    assert not (ra.cmp(F(1, 2)) > 0 and ra.cmp(F(1)) < 0)
    # cmp(bound, x) reads the state as if x were added too: avg -> 7/8.
    assert ra.cmp(F(7, 8), F(2)) == 0
    assert ra.cmp(F(1, 2), F(2)) > 0 and ra.cmp(F(1), F(2)) < 0


def test_running_average_matches_fraction_arithmetic_on_mixed_input():
    import random

    rng = random.Random(7)
    ra = RunningAverage()
    total = F(0)
    for i in range(1, 300):
        v = F(rng.randint(-50, 50), rng.randint(1, 20))
        ra.add(v)
        total += v
        assert F(ra.num, ra.den * ra.n) == total / i


# ---------------------------------------------------------------------------
# Identity and mirror


def test_identity_rearrangement_preserves_order():
    r = identity_rearrangement(parse_spec("const(7)"))
    got = [(e.n, e.source_index, e.value, e.average) for e in iter_trace(r, 4)]
    assert got == [(1, 1, F(7), F(7)), (2, 2, F(7), F(7)), (3, 3, F(7), F(7)), (4, 4, F(7), F(7))]


def test_mirror_negates_values_but_keeps_sources():
    base = identity_rearrangement(parse_spec("linear()"))
    m = mirror_rearrangement(base, parse_spec("neglinear()"))
    got = [(e.source_index, e.value) for e in iter_trace(m, 5)]
    assert got == [(1, F(-1)), (2, F(-2)), (3, F(-3)), (4, F(-4)), (5, F(-5))]


# ---------------------------------------------------------------------------
# Bounded targets


def test_bounded_target_one_third_frozen_prefix_and_average():
    r = construct_target(parse_spec("interleave(const(0), const(1))"), F(1, 3))
    ones = [e.n for e in iter_trace(r, 13) if e.value == 1]
    assert ones == [1, 3, 6, 9, 12]
    assert avg_at(r, 3000) == F(1001, 3000)


def test_bounded_target_hits_the_endpoints():
    # Every element must still appear, so the opposite level shows up with
    # vanishing density; these exact prefixes have eleven stray elements
    # each, at the slots (l+1)**3 = 8, 27, ..., 1728.
    spec = parse_spec("interleave(const(0), const(1))")
    assert avg_at(construct_target(spec, F(0)), 2000) == F(11, 2000)
    assert avg_at(construct_target(spec, F(1)), 2000) == F(1989, 2000)


def test_bounded_target_at_the_top_places_zero_extras_at_cubic_slots():
    # the deferred part is all zeros, so the l-th enters at (l+1)**3: at
    # most 26 by position 20,000, not one per position
    r = construct_target(parse_spec("interleave(const(0), const(1))"), F(1))
    tags = [tag for _src, _value, tag in islice(r.tagged_stream(), 20_000)]
    assert tags.count("extra") <= 26
    assert avg_at(r, 20_000) > F(99, 100)


def test_bounded_target_rejects_targets_outside_the_hull():
    spec = parse_spec("interleave(const(0), const(1))")
    for t in (F(-1, 100), F(101, 100), F(2)):
        with pytest.raises(TargetUnreachable):
            construct_target(spec, t)


MIDDLE = "interleave(const(-1), interleave(const(2), const(1/2)))"


@pytest.mark.parametrize("t", [F(-1), F(2)])
def test_bounded_target_at_an_end_keeps_the_gate_for_middle_strands(t):
    # an end of the hull leaves the middle strand at vanishing density
    r = construct_target(parse_spec(MIDDLE), t)
    assert r.name == f"bounded_target[{t}]"
    assert r.coverage_bound is None and "weights" not in r.meta
    tags = {tag for _src, _value, tag in islice(r.tagged_stream(), 20_000)}
    assert "extra" in tags and "rest" not in tags
    assert abs(avg_at(r, 2_000) - t) > abs(avg_at(r, 20_000) - t)
    assert abs(avg_at(r, 20_000) - t) < F(1, 100)


def test_bounded_target_with_a_middle_strand_rejects_targets_outside_the_hull():
    spec = parse_spec(MIDDLE)
    for t in (F(-1001, 1000), F(2001, 1000), F(-5), F(7)):
        with pytest.raises(TargetUnreachable):
            construct_target(spec, t)


def test_bounded_target_degenerate_single_value():
    r = construct_target(parse_spec("const(5)"), F(5))
    assert avg_at(r, 50) == F(5)
    with pytest.raises(TargetUnreachable):
        construct_target(parse_spec("const(5)"), F(6))


# ---------------------------------------------------------------------------
# Weighted merge


def test_weighted_merge_frozen_low_ranks_and_density():
    zeros, ones = parts("interleave(const(0), const(1))")
    r = weighted_merge(zeros, ones, F(1, 3))
    low_ranks = [e.n for e in iter_trace(r, 13) if e.value == 0]
    assert low_ranks == [1, 3, 6, 9, 12]
    count = 0
    worst = F(0)
    for e in iter_trace(r, 2000):
        if e.value == 0:
            count += 1
        worst = max(worst, abs(count - e.n * F(1, 3)))
    assert worst <= 1  # frozen: the deviation never exceeds 1 on this prefix
    assert abs(avg_at(r, 3000) - F(2, 3)) < F(1, 100)


def test_a_merge_of_constant_parts_draws_nothing_ahead_of_its_first_emission():
    drawn = []

    class Counted(PartStream):
        """A part that notes each element drawn from it."""

        def emissions(self):
            for e in PartStream.emissions(self):
                drawn.append(self)
                yield e

    zeros, ones = (Counted(p.spec, p.witness, p.limit)
                   for p in parts("interleave(const(0), const(1))"))
    # a period of 4,099 positions: recording it ahead would draw thousands
    blocks = weighted_merge(zeros, ones, F(2051, 4099)).blocks()
    assert next(blocks) == ("lead", F(1), 1, 2, 0)
    assert drawn.count(zeros) <= 2 and drawn.count(ones) <= 2  # a cursor's head and its next


def test_weighted_merge_rejects_weights_outside_the_unit_interval():
    from meanweave.errors import WeightOutOfRange

    for alpha in (F(-1, 2), F(3, 2)):
        zeros, ones = parts("interleave(const(0), const(1))")
        with pytest.raises(WeightOutOfRange):
            weighted_merge(zeros, ones, alpha)


@pytest.mark.parametrize(
    "target, sources",
    [
        pytest.param(F(1), [2, 4, 6, 8], id="at_limsup"),
        pytest.param(F(0), [1, 3, 5, 7], id="at_liminf"),
    ],
)
def test_bounded_route_at_an_end_defers_the_other_part(target, sources):
    from meanweave.errors import WeightOutOfRange

    r = construct_target(parse_spec("interleave(const(0), const(1))"), target)
    # the part at the target plays in its own order; the other one is deferred
    head = list(islice(r.tagged_stream(), 4))
    assert head == [(src, target, "core") for src in sources]
    assert abs(avg_at(r, 3000) - target) < F(1, 100)
    zeros, ones = parts("interleave(const(0), const(1))")
    with pytest.raises(WeightOutOfRange):
        weighted_merge(zeros, ones, 1 - target)


# ---------------------------------------------------------------------------
# Oscillator


def test_oscillator_frozen_prefix():
    r = oscillator(parse_spec("interleave(const(0), const(1))"))
    got = [(e.n, e.source_index, e.value) for e in iter_trace(r, 12)]
    assert got == [
        (1, 1, F(0)), (2, 2, F(1)), (3, 4, F(1)), (4, 6, F(1)),
        (5, 3, F(0)), (6, 5, F(0)), (7, 7, F(0)), (8, 9, F(0)),
        (9, 11, F(0)), (10, 13, F(0)), (11, 8, F(1)), (12, 10, F(1)),
    ]


def test_oscillator_alternates_across_both_thresholds():
    r = oscillator(parse_spec("interleave(const(0), const(1))"))
    p, q = F(1, 3), F(2, 3)
    crossings = []
    state = None
    for e in iter_trace(r, 1600):
        side = "low" if e.average < p else "high" if e.average > q else None
        if side and side != state:
            state = side
            crossings.append(e.n)
    assert crossings == [1, 4, 10, 22, 46, 94, 190, 382, 766, 1534]


def test_oscillator_requires_a_bounded_profile():
    from meanweave.errors import MalformedDescriptor

    with pytest.raises(MalformedDescriptor):
        oscillator(parse_spec("interleave(const(0), geom(2))"))


# ---------------------------------------------------------------------------
# Sorting a divergent strand


def test_sort_increasing_frozen_source_order():
    spec = parse_spec("prefix(3, 1, 2, affine(linear(), 1, 3))")
    r = sort_increasing(spec)
    srcs = [e.source_index for e in iter_trace(r, 8)]
    assert srcs == [2, 3, 1, 4, 5, 6, 7, 8]
    vals = [e.value for e in iter_trace(r, 8)]
    assert vals == sorted(vals)


def test_sort_increasing_splits_an_affine_wrapped_interleave():
    # the affine map is pushed through the interleave onto each strand
    spec = parse_spec("affine(interleave(linear(), geom(2)), 2, 1)")
    entries = list(iter_trace(sort_increasing(spec), 8))
    assert [e.source_index for e in entries] == [1, 2, 3, 5, 4, 7, 9, 11]
    assert [e.value for e in entries] == [3, 5, 5, 7, 9, 9, 11, 13]
    assert all(spec.term(e.source_index) == e.value for e in entries)


@pytest.mark.parametrize("text,around", [
    # terms 100, 1, 2, 3, ...: the prefix value joins the run of 100s
    ("affine(prefix(100, linear()), 1, 0)",
     [(99, 98), (100, 99), (1, 100), (101, 100), (102, 101)]),
    # terms 400, 1, 4, 9, ...: the squared prefix value waits for 20^2
    ("square(prefix(-20, linear()))",
     [(19, 324), (20, 361), (1, 400), (21, 400), (22, 441)]),
    # terms 7, 1, 1, 2, 4, 3, 9, ...: the head joins the pow(2) strand
    ("prefix(7, interleave(linear(), pow(2)))",
     [(10, 5), (12, 6), (1, 7), (14, 7), (16, 8)]),
], ids=["affine_prefix", "square_prefix", "interleave_prefix"])
def test_sort_increasing_buffers_a_prefix_under_a_pointwise_wrapper(text, around):
    spec = parse_spec(text)
    entries = list(iter_trace(sort_increasing(spec), 120))
    pairs = [(e.source_index, e.value) for e in entries]
    assert pairs[:3] == [(2, spec.term(2)), (3, spec.term(3)), (4, spec.term(4))]
    start = pairs.index(around[0])
    assert pairs[start:start + 5] == around
    assert [v for _, v in pairs] == sorted(v for _, v in pairs)


@pytest.mark.parametrize("text,values", [
    # (n - 10)^2 falls to 0 before it rises: the nine negative base terms
    # are buffered
    ("square(affine(linear(), 1, -10))", [0, 1, 1, 4, 4, 9, 9, 16]),
    ("square(affine(linear(), 1/3, -1/2))",
     [F(1, 36), F(1, 36), F(1, 4), F(25, 36), F(49, 36), F(9, 4)]),
], ids=["integer_base", "rational_base"])
def test_sort_increasing_buffers_the_negative_run_of_a_squared_base(text, values):
    spec = parse_spec(text)
    pairs = list(islice(sort_increasing(spec).stream(), 200))
    assert [v for _, v in pairs[:len(values)]] == values
    assert [v for _, v in pairs] == sorted(v for _, v in pairs)
    assert all(spec.term(src) == v for src, v in pairs)


def test_sort_increasing_requires_divergence_to_plus_infinity():
    with pytest.raises(NotDivergent):
        sort_increasing(parse_spec("const(1)"))


# ---------------------------------------------------------------------------
# Finite targets above the limsup


def frozen_above():
    zeros, cs = parts("interleave(const(0), linear())")
    return target_above_limsup(zeros, cs, F(1))


def test_target_above_frozen_placements():
    entries = list(iter_trace(frozen_above(), 40))
    placed = [(e.n, e.source_index, e.value) for e in entries if e.value >= 3]
    # survivors 3, 4, 5, ... (bar = 2, rate 1) sit at floor(s_k - x_k/2)
    assert placed == [
        (1, 6, F(3)), (5, 8, F(4)), (9, 10, F(5)), (15, 12, F(6)),
        (21, 14, F(7)), (29, 16, F(8)), (37, 18, F(9)),
    ]
    by_n = {e.n: e for e in entries}
    assert [by_n[n].average for n in (1, 5, 9, 15, 21, 29, 37)] == [
        F(3), F(7, 5), F(13, 9), F(19, 15), F(26, 21), F(34, 29), F(43, 37)
    ]


def test_target_above_weaves_back_the_small_survivors():
    # the deferred values 1 and 2 have slots 2**3 * 1 = 8 and 3**3 * 2 = 54,
    # both fill positions
    entries = list(iter_trace(frozen_above(), 60))
    deferred = [(e.n, e.source_index, e.value) for e in entries if F(0) < e.value < F(3)]
    assert deferred == [(8, 2, F(1)), (54, 4, F(2))]


def test_target_above_fills_each_gap_as_runs_split_only_at_slots():
    blocks = list(islice(frozen_above().blocks(), 60))
    pos, extras = 0, []
    for i, (tag, value, count, src, step) in enumerate(blocks[:-1]):
        pos += count
        if tag == "fill":  # the zero strand holds the odd sources
            assert (value, step, src % 2) == (0, 2, 1)
            # a fill run ends at a placement or at a deferred value's slot
            assert blocks[i + 1][0] in ("place", "extra")
        elif tag == "extra":
            extras.append((pos, src, value))
    assert extras == [(8, 2, F(1)), (54, 4, F(2))]
    expanded = [
        (src + step * j, value, tag)
        for tag, value, count, src, step in blocks
        for j in range(count)
    ]
    assert list(islice(frozen_above().tagged_stream(), len(expanded))) == expanded


CLIMB_COVERAGE = ((10, None, 108), (100, None, 20835), (1000, None, 20833372))


@pytest.mark.parametrize("text, target", [
    ("interleave(const(2), pow(2))", 4),
    ("interleave(const(-2), neg(pow(2)))", -4),
])
def test_climb_over_a_square_strand_is_audited_within_two_seconds(text, target):
    # probe 1000 needs the 500th square, placed near position 2*10^7; the
    # audit reads each fill gap between placements as runs, split only at
    # the slots of the three deferred values 1, 2 and 4
    start = time.perf_counter()
    r = construct_target(parse_spec(text), F(target))
    report = check_permutation(r, 1000, probes=(10, 100, 1000))
    elapsed = time.perf_counter() - start
    assert report == PermutationReport(True, 1000, CLIMB_COVERAGE)
    assert elapsed < 2.0


@pytest.mark.parametrize("text, target, coverage", [
    pytest.param("interleave(const(0), interleave(const(1), const(1/2)))", F(0),
                 ((10, None, 67), (100, None, 17601), (1000, None, 15813501)),
                 id="bounded_low_end"),
    pytest.param("interleave(interleave(const(0), const(1)), pow(2))", F(3),
                 ((10, None, 111), (100, None, 17576), (1000, None, 15813251)),
                 id="climb_middle"),
    pytest.param("interleave(const(-1), interleave(const(2), const(1/2)))", F(-1),
                 ((10, None, 132), (100, None, 35183), (1000, None, 31626817)),
                 id="bounded_minus_one"),
    pytest.param("interleave(const(0), linear())", F(0),
                 ((10, None, 1080), (100, None, 6632550), (1000, None, 62875750500)),
                 id="at_limit"),
])
def test_routes_with_extras_at_slots_are_audited_within_one_second(text, target, coverage):
    # the core's runs pass whole between two slots, so the audit reaches the
    # slot of the extra that covers probe 1000 (about 250**3 for a quarter
    # of the sources; about 501**3 * 500 for linear()'s 500th term) in runs
    start = time.perf_counter()
    r = construct_target(parse_spec(text), target)
    report = check_permutation(r, 1000, probes=(10, 100, 1000))
    elapsed = time.perf_counter() - start
    assert report == PermutationReport(True, 1000, coverage)
    assert elapsed < 1.0


def test_mirrored_climb_passes_blocks_through_with_negated_values():
    up = construct_target(parse_spec("interleave(const(2), pow(2))"), F(4))
    down = construct_target(parse_spec("interleave(const(-2), neg(pow(2)))"), F(-4))
    flipped = ((tag, -v, count, src, step) for tag, v, count, src, step in up.blocks())
    mirrored = list(islice(down.blocks(), 200))
    assert any(count > 1 for _tag, _v, count, _src, _step in mirrored)
    assert mirrored == list(islice(flipped, 200))


def test_target_above_rejects_targets_at_or_below_the_limsup():
    from meanweave.errors import TargetNotAbove

    zeros, cs = parts("interleave(const(0), linear())")
    with pytest.raises(TargetNotAbove):
        target_above_limsup(zeros, cs, F(0))
    zeros2, cs2 = parts("interleave(const(0), linear())")
    with pytest.raises(TargetNotAbove):
        target_above_limsup(zeros2, cs2, F(-1))


# ---------------------------------------------------------------------------
# Merging without moving the limit


def test_merge_preserving_admits_extras_at_frozen_ranks():
    from meanweave.extreal import ExtendedReal

    core = identity_rearrangement(parse_spec("const(1)"), ExtendedReal(F(1)))
    extras = [(10**6, F(5)), (10**6 + 1, F(-3))]
    r = merge_preserving(core, extras)
    # slots 2**3 * 5 = 40 and max(41, 3**3 * 3) = 81
    got = [(e.n, e.source_index, e.value) for e in iter_trace(r, 100) if e.value != 1]
    assert got == [(40, 10**6, F(5)), (81, 10**6 + 1, F(-3))]
    assert abs(avg_at(r, 5000) - 1) < F(1, 100)


def test_merge_preserving_needs_a_declared_limit():
    bare = Rearrangement(
        parse_spec("const(1)"),
        lambda: iter(()),
        lambda n: n,
        "anonymous",
    )
    with pytest.raises(UndeclaredLimit):
        merge_preserving(bare, [(5, F(1))])


# ---------------------------------------------------------------------------
# Two-sided balance


def test_two_sided_frozen_prefix_and_dip():
    r = construct_target(parse_spec("interleave(neg(runlen(4)), runlen(4))"), F(0))
    got = [(e.n, e.source_index, e.value) for e in iter_trace(r, 12)]
    assert got == [
        (1, 2, F(1)), (2, 1, F(-1)), (3, 4, F(2)), (4, 3, F(-2)),
        (5, 6, F(2)), (6, 5, F(-2)), (7, 8, F(2)), (8, 7, F(-2)),
        (9, 10, F(3)), (10, 9, F(-3)), (11, 12, F(3)), (12, 11, F(-3)),
    ]
    worst, at = F(0), None
    for e in iter_trace(r, 20000):
        if e.n >= 10000 and abs(e.average) > worst:
            worst, at = abs(e.average), e.n
    assert (worst, at) == (F(24, 3361), 10083)


def test_two_sided_nonzero_target():
    r = construct_target(parse_spec("interleave(neg(runlen(4)), runlen(4))"), F(5))
    worst = F(0)
    for e in iter_trace(r, 20000):
        if e.n >= 10000:
            worst = max(worst, abs(e.average - 5))
    assert worst == F(37, 5039)


@pytest.mark.parametrize("wrapped", [
    "affine(interleave(runlen(2), linear()), 1, 0)",
    "neg(neg(interleave(runlen(2), linear())))",
])
def test_two_sided_balance_follows_the_density_path_through_wrappers(wrapped):
    negative = PartStream.whole(parse_spec("neg(runlen(2))"))

    def first_emissions(text):
        positive = PartStream.whole(parse_spec(text))
        return list(islice(two_sided_balance(negative, positive, 0).stream(), 200))

    assert first_emissions(wrapped) == first_emissions("interleave(runlen(2), linear())")


def test_construct_target_two_sided_route_through_an_explicit_prefix():
    # the head 1 deals linear() onto the first rank of the positive side, so
    # the density path selects runlen(2) and the head returns as an extra
    spec = parse_spec(
        "interleave(neg(runlen(2)), prefix(1, interleave(runlen(2), linear())))"
    )
    r = construct_target(spec, F(0))
    entries = list(iter_trace(r, 3000))
    assert [(e.source_index, e.value) for e in entries[:8]] == [
        (4, 1), (1, -1), (8, 1), (3, -1), (12, 2), (5, -2), (16, 2), (2, 1)]
    assert len({e.source_index for e in entries}) == 3000
    assert all(spec.term(e.source_index) == e.value for e in entries)
    assert abs(entries[-1].average) < F(1, 100)
    # past n = 10,000 the swing stays inside the tube (largest 0.00623)
    assert check_tube(iter_trace(r, 20000), 0, F(1, 100), from_index=10001)
    # handed over whole, the positive side is walked through the same
    # pushed tree: the high elements come from runlen(2) on its even ranks
    negative = PartStream.whole(parse_spec("neg(runlen(2))"))
    positive = PartStream.whole(parse_spec("prefix(1, interleave(runlen(2), linear()))"))
    tagged = list(islice(two_sided_balance(negative, positive, 0).tagged_stream(), 8))
    assert [(src, v) for src, v, tag in tagged if tag == "high"] == [
        (2, 1), (4, 1), (6, 2), (8, 2)]


def test_two_sided_refuses_when_density_fails():
    with pytest.raises(DensityFails):
        construct_target(parse_spec("interleave(neg(linear()), linear())"), F(0))


# ---------------------------------------------------------------------------
# Target dispatch


def test_construct_target_routes_above_the_limsup():
    r = construct_target(parse_spec("interleave(const(0), linear())"), F(1))
    assert abs(avg_at(r, 20000) - 1) < F(1, 100)


def test_construct_target_routes_at_the_limit_point():
    r = construct_target(parse_spec("interleave(const(0), linear())"), F(0))
    assert abs(avg_at(r, 20000)) < F(1, 100)


def test_construct_target_mirrors_below_the_liminf():
    r = construct_target(parse_spec("interleave(neg(linear()), const(0))"), F(-1))
    assert abs(avg_at(r, 20000) + 1) < F(1, 100)


def test_construct_target_bounded_route():
    r = construct_target(parse_spec("interleave(const(0), const(1))"), F(1, 3))
    assert abs(avg_at(r, 3000) - F(1, 3)) < F(1, 1000)


def test_construct_target_two_sided_route():
    r = construct_target(parse_spec("interleave(neg(runlen(4)), runlen(4))"), F(0))
    got = [(e.n, e.source_index, e.value) for e in iter_trace(r, 4)]
    assert got == [(1, 2, F(1)), (2, 1, F(-1)), (3, 4, F(2)), (4, 3, F(-2))]


def test_construct_target_rejects_unreachable_targets():
    with pytest.raises(TargetUnreachable):
        construct_target(parse_spec("interleave(const(0), linear())"), F(-1))
    with pytest.raises(TargetUnreachable):
        construct_target(parse_spec("interleave(neg(linear()), const(0))"), F(1))


@pytest.mark.parametrize("target", [NEG_INF, POS_INF])
def test_construct_target_refuses_infinite_targets(target):
    with pytest.raises(TargetUnreachable, match="infinite target [+-]inf has no route yet"):
        construct_target(parse_spec("interleave(const(0), linear())"), target)


def test_construct_target_refuses_a_float_target():
    # 0.1 would otherwise enter as 3602879701896397/36028797018963968
    for spec in ("interleave(const(0), const(1))", "interleave(neg(runlen(4)), runlen(4))"):
        with pytest.raises(TypeError, match="no float"):
            construct_target(parse_spec(spec), 0.1)


def test_construct_target_refuses_finite_targets_of_a_single_infinity():
    # the profile {+inf} or {-inf} has no finite point, so no finite target
    for text in ("linear()", "neg(linear())"):
        with pytest.raises(TargetUnreachable, match="attainable range {"):
            construct_target(parse_spec(text), F(0))


@pytest.mark.parametrize("target", [F(1), F(0), F(-1, 2), F(3, 2)])
def test_construct_target_downward_with_middle_strands_of_several_limits(target):
    # the middle strands const(0) and const(1) fold into one part with no
    # single limit; negated for the downward route, it enters at slots
    spec = parse_spec(
        "interleave(interleave(const(0), const(1)), interleave(const(2), neglinear()))"
    )
    r = construct_target(spec, target)
    assert check_tube(iter_trace(r, 20000), target, F(1, 10), from_index=10001)


def test_construct_target_threads_middle_strands_through():
    spec = parse_spec("interleave(interleave(const(0), const(5)), linear())")
    r = construct_target(spec, F(2))
    assert abs(avg_at(r, 30000) - 2) < F(1, 50)
    # all three strands appear in the output
    vals = {e.value for e in iter_trace(r, 200)}
    assert F(0) in vals and F(5) in vals
