"""Prescribed-accumulation realizer: target enumeration, schedule, stream."""

from fractions import Fraction
from itertools import islice

import pytest

from meanweave.aarset import AARSet
from meanweave.dsl import parse_spec
from meanweave.errors import MissingInfinity, ZOutsideRange
from meanweave.harness import iter_trace
from meanweave.realizer import (
    ScheduleEntry,
    TubeSchedule,
    dense_targets,
    realizer_from_spec,
)

F = Fraction

FOUR_STRANDS = (
    "interleave(interleave(const(0), neg(square(linear()))),"
    " interleave(const(1), square(linear())))"
)


def four_strand_realizer(zset=None):
    if zset is None:
        zset = AARSet.of(F(1, 4), F(3, 4))
    return realizer_from_spec(parse_spec(FOUR_STRANDS), zset)


# ---------------------------------------------------------------------------
# Dense target enumeration


def test_points_enumerate_once_in_order():
    assert list(dense_targets([(F(1, 4), F(1, 4)), (F(3, 4), F(3, 4))])) == [F(1, 4), F(3, 4)]


def test_interval_enumerates_dyadic_grid_by_level():
    got = list(islice(dense_targets([(F(0), F(1))]), 9))
    assert got == [F(0), F(1), F(1, 2), F(1, 4), F(3, 4), F(1, 8), F(3, 8), F(5, 8), F(7, 8)]


def test_points_precede_interval_grid_and_nothing_repeats():
    got = list(islice(dense_targets([(F(1, 3), F(1, 3)), (F(0), F(1, 2))]), 8))
    assert got == [F(1, 3), F(0), F(1, 2), F(1, 4), F(1, 8), F(3, 8), F(1, 16), F(3, 16)]
    assert len(set(got)) == len(got)


def test_interval_enumeration_is_dense_near_any_point():
    import itertools

    target = F(5, 7)
    best = F(1)
    for x in itertools.islice(dense_targets([(F(0), F(1))]), 4000):
        best = min(best, abs(x - target))
    assert best < F(1, 1000)


# ---------------------------------------------------------------------------
# Schedule recording discipline


def entry(i, kind="transit", stage=1, target=None):
    return ScheduleEntry(F(0), F(1), i, kind, stage, target)


def test_replay_recording_is_idempotent():
    ts = TubeSchedule()
    ts.record(0, entry(1))
    ts.record(0, entry(99))  # replay of index 0 is ignored
    assert len(ts) == 1 and ts.entries[0].from_index == 1


def test_recording_rejects_gaps_and_stalled_windows():
    ts = TubeSchedule()
    ts.record(0, entry(1))
    with pytest.raises(AssertionError):
        ts.record(2, entry(5))
    with pytest.raises(AssertionError):
        ts.record(1, entry(1))


# ---------------------------------------------------------------------------
# Input validation


def test_prescribed_set_must_sit_inside_the_steering_band():
    with pytest.raises(ZOutsideRange):
        four_strand_realizer([F(2)])
    with pytest.raises(ZOutsideRange):
        four_strand_realizer([])


def test_a_float_in_the_prescribed_set_is_refused():
    with pytest.raises(TypeError, match="no float"):
        four_strand_realizer([0.25])


def test_both_divergent_strands_are_required():
    spec = parse_spec("interleave(const(0), interleave(const(1), square(linear())))")
    with pytest.raises(MissingInfinity):
        realizer_from_spec(spec, [F(1, 2)])


# ---------------------------------------------------------------------------
# Frozen stream prefix and schedule


def test_frozen_first_sixteen_emissions():
    r = four_strand_realizer()
    got = [(e.n, e.source_index, e.value) for e in iter_trace(r, 16)]
    assert got == [
        (1, 1, F(0)), (2, 2, F(1)), (3, 5, F(0)), (4, 9, F(0)),
        (5, 6, F(1)), (6, 13, F(0)), (7, 17, F(0)), (8, 21, F(0)),
        (9, 10, F(1)), (10, 25, F(0)), (11, 29, F(0)), (12, 33, F(0)),
        (13, 14, F(1)), (14, 37, F(0)), (15, 41, F(0)), (16, 45, F(0)),
    ]


def test_steering_by_a_constant_strand_arrives_as_runs():
    # The first 72 blocks reach position 2,460. Their runs come from every
    # state: the initial approach (2-3 long), tube dwells (3-28 long),
    # pre-jump steering (two runs of 3) and four descents (116, 200, 513 and
    # 1,461 long).
    r = four_strand_realizer()
    blocks = list(islice(r.blocks(), 72))
    runs = [b for b in blocks if b[2] > 1]
    assert [(value, count, src) for _tag, value, count, src, _step in runs] == [
        (F(0), 2, 5), (F(0), 3, 13), (F(0), 3, 25), (F(0), 3, 37),
        (F(0), 3, 49), (F(0), 3, 61), (F(0), 3, 73), (F(0), 3, 85),
        (F(1), 4, 38), (F(0), 3, 97), (F(0), 3, 109), (F(0), 3, 125),
        (F(0), 3, 137), (F(0), 3, 149), (F(1), 116, 74), (F(1), 11, 538),
        (F(0), 200, 161), (F(0), 15, 961), (F(1), 513, 582), (F(1), 28, 2634),
        (F(1), 22, 2746), (F(0), 3, 1021), (F(0), 1461, 1037),
    ]
    # the constant strands hold every fourth source
    assert {(tag, step) for tag, _value, _count, _src, step in runs} == {("steer", 4)}
    expanded = [
        (src + step * j, value, tag)
        for tag, value, count, src, step in blocks
        for j in range(count)
    ]
    assert list(islice(r.tagged_stream(), len(expanded))) == expanded


def test_twenty_thousand_emissions_arrive_in_few_blocks():
    # 1,864 blocks when only descents were runs; 181 with every steering run
    count = 0
    for number, block in enumerate(four_strand_realizer().blocks(), 1):
        count += block[2]
        if count >= 20_000:
            break
    assert number < 500


def test_frozen_schedule_through_three_thousand():
    r = four_strand_realizer()
    for _ in iter_trace(r, 3000):
        pass
    got = [
        (e.kind, e.stage, e.lo, e.hi, e.from_index, e.target)
        for e in r.meta["schedule"]
    ]
    assert got[:8] == [
        ("transit", 1, F(-1), F(3, 2), 1, None),
        ("tube", 1, F(-3, 4), F(5, 4), 33, F(1, 4)),
        ("transit", 2, F(-224, 73), F(22, 27), 73, None),
        ("tube", 2, F(-1, 4), F(3, 4), 190, F(1, 4)),
        ("transit", 3, F(16, 401), F(206, 67), 201, None),
        ("tube", 3, F(5, 12), F(13, 12), 402, F(3, 4)),
        ("transit", 4, F(-130, 61), F(97, 94), 427, None),
        ("tube", 4, F(0), F(1, 2), 941, F(1, 4)),
    ]


def test_stage_targets_revisit_every_value():
    # The target list is walked in growing blocks (first; first, second;
    # first, second; ...), so both prescribed points recur forever.
    r = four_strand_realizer()
    for _ in iter_trace(r, 3000):
        pass
    targets = [e.target for e in r.meta["schedule"] if e.kind == "tube"]
    assert targets == [F(1, 4), F(1, 4), F(3, 4), F(1, 4), F(3, 4)]


def test_restarting_the_stream_replays_identically():
    r = four_strand_realizer()
    first = [(e.n, e.source_index, e.value) for e in iter_trace(r, 300)]
    second = [(e.n, e.source_index, e.value) for e in iter_trace(r, 300)]
    assert first == second
    entries_after = len(r.meta["schedule"])
    for _ in iter_trace(r, 300):
        pass
    assert len(r.meta["schedule"]) == entries_after


def test_early_schedule_windows_hold_on_a_fresh_pass():
    from meanweave.harness import check_schedule

    r = four_strand_realizer()
    for _ in iter_trace(r, 3000):
        pass
    sched = [e for e in r.meta["schedule"] if e.stage <= 2]
    first_beyond = min(
        (e.from_index for e in r.meta["schedule"] if e.stage == 3), default=None
    )
    assert first_beyond is not None
    truncated = (e for e in iter_trace(r, first_beyond - 1))
    assert check_schedule(truncated, sched)


def test_an_explicit_prefix_joins_the_strand_it_heads():
    # prefix(5, ...) deals the head to the +inf strand square(linear())
    spec = parse_spec(f"prefix(5, {FOUR_STRANDS})")
    entries = list(iter_trace(realizer_from_spec(spec, [F(1, 2)]), 3000))
    sources = [e.source_index for e in entries]
    assert len(set(sources)) == 3000
    assert sources.index(1) == 32 and entries[32].value == 5
    assert all(spec.term(e.source_index) == e.value for e in entries)
