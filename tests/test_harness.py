"""Verification harness: traces, audits, tubes, schedules, oracle, CSV."""

import io
from fractions import Fraction

import pytest

from meanweave.dsl import parse_spec
from meanweave.errors import CoverageViolation, InjectivityViolation
from meanweave.extreal import NEG_INF, POS_INF
from meanweave.harness import (
    CSV_HEADER,
    PermutationReport,
    TraceEntry,
    check_permutation,
    check_schedule,
    check_tube,
    decimal_str,
    envelope_oracle,
    iter_trace,
    read_trace_csv,
    trace,
    verify_trace_identities,
    write_trace_csv,
)
from meanweave.rearrange import Rearrangement, construct_target, identity_rearrangement
from meanweave.realizer import ScheduleEntry

F = Fraction


def synthetic_trace(values):
    """Build a well-formed trace from raw values with sources 1, 2, 3, ..."""
    entries = []
    total = F(0)
    for i, v in enumerate(values, 1):
        total += F(v)
        entries.append(TraceEntry(i, i, F(v), total, total / i))
    return entries


def fake_rearrangement(pairs, bound=lambda n: 2 * n):
    """A stream of (source, value) pairs with a claimed coverage bound."""
    frozen = [(s, F(v)) for s, v in pairs]

    def factory():
        for s, v in frozen:
            yield s, v, "core"

    return Rearrangement(parse_spec("const(0)"), factory, bound, "fake")


# ---------------------------------------------------------------------------
# Traces


def test_trace_entries_carry_exact_partial_sums_and_averages():
    t = trace(identity_rearrangement(parse_spec("linear()")), 4)
    assert t == [
        TraceEntry(1, 1, F(1), F(1), F(1)),
        TraceEntry(2, 2, F(2), F(3), F(3, 2)),
        TraceEntry(3, 3, F(3), F(6), F(2)),
        TraceEntry(4, 4, F(4), F(10), F(5, 2)),
    ]
    assert len(t) == 4 and t[2].average == F(2)


def test_iter_trace_is_lazy_and_bounded():
    r = identity_rearrangement(parse_spec("geom(2)"))
    t = iter_trace(r, 3)
    got = list(t)
    assert [e.value for e in got] == [F(2), F(4), F(8)]
    assert list(t) == got  # each pass walks the stream afresh


def test_trace_requires_a_positive_length():
    with pytest.raises(ValueError):
        trace(identity_rearrangement(parse_spec("const(0)")), 0)


def test_iter_trace_refuses_a_nonpositive_length():
    r = identity_rearrangement(parse_spec("const(0)"))
    for n in (0, -1):
        with pytest.raises(ValueError, match="at least one entry"):
            iter_trace(r, n)  # refused at the call, before the trace is read


# ---------------------------------------------------------------------------
# Permutation audit


def test_audit_passes_on_a_true_permutation_prefix():
    r = fake_rearrangement([(3, 0), (1, 0), (2, 0), (4, 0), (6, 0), (5, 0)])
    report = check_permutation(r, 6, probes=(2,))
    assert report.ok and report.distinct_checked == 6
    assert report.coverage == ((2, 4, 3),)  # sources 1..2 all seen by rank 3


def test_audit_raises_on_duplicated_source():
    r = fake_rearrangement([(1, 0), (2, 0), (1, 0)])
    with pytest.raises(InjectivityViolation):
        check_permutation(r, 3)


def test_audit_raises_when_coverage_misses_its_bound():
    # Source 2 never appears among the first f(2)=4 outputs.
    r = fake_rearrangement([(1, 0), (3, 0), (4, 0), (5, 0), (6, 0), (2, 0)])
    with pytest.raises(CoverageViolation):
        check_permutation(r, 6, probes=(2,))


def test_audit_frozen_coverage_report_for_the_weighted_merge():
    from meanweave.rearrange import weighted_merge
    from meanweave.seqspec import decompose

    dec = decompose(parse_spec("interleave(const(0), const(1))"))
    r = weighted_merge(dec.b, dec.c, F(1, 3))
    report = check_permutation(r, 1000, probes=(10, 100, 1000))
    assert report.coverage == ((10, 33, 12), (100, 303, 147), (1000, 3003, 1497))


MIDDLE = "interleave(const(-1), interleave(const(2), const(1/2)))"


def delayed(r, src, after):
    """``r`` with the emission of source ``src`` moved to just after output
    ``after``: still injective, and covered later than ``r`` covers it."""

    def blocks():
        held, rank = None, 0
        for s, value, tag in r.tagged_stream():
            if s == src:
                held = (tag, value, 1, s, 0)
                continue
            rank += 1
            yield tag, value, 1, s, 0
            if rank == after:
                yield held

    return Rearrangement.of_blocks(r.source, blocks, r.coverage_bound, "delayed")


def test_the_middle_route_certifies_its_coverage():
    r = construct_target(parse_spec(MIDDLE), F(6, 5))
    report = check_permutation(r, 1000, probes=(10, 100, 1000))
    assert all(bound is not None and at <= bound for _p, bound, at in report.coverage)


@pytest.mark.parametrize("late, caught", [(0, False), (1, True)])
def test_a_middle_element_delayed_past_the_bound_is_a_coverage_violation(late, caught):
    # source 4 is the first element of the middle strand const(1/2)
    r = construct_target(parse_spec(MIDDLE), F(6, 5))
    bound = r.coverage_bound(10)
    broken = delayed(r, 4, bound - 1 + late)  # emitted at output bound + late
    if not caught:
        assert check_permutation(broken, 1000, probes=(10,)).coverage == ((10, bound, bound),)
        return
    with pytest.raises(CoverageViolation) as info:
        check_permutation(broken, 1000, probes=(10, 100, 1000))
    assert (info.value.prefix, info.value.bound) == (10, bound)


def test_a_merge_over_a_deeply_folded_strand_covers_within_its_bound():
    # the const(0) strands fold into one part whose source 3 has rank 5, so
    # a bound that takes a source's rank to be at most the source is too small
    spec = parse_spec(
        "interleave(const(0), interleave(const(1), interleave(const(0),"
        " interleave(const(0), interleave(const(0), const(0))))))"
    )
    r = construct_target(spec, F(2, 5))
    report = check_permutation(r, 1000, probes=(10, 100, 1000))
    assert all(at <= bound for _p, bound, at in report.coverage)


def test_audit_stops_once_outputs_and_probes_are_covered():
    # the identity covers probe p at rank p, so the audit reads 100 outputs
    # although the claimed bounds would let it read 1000
    pulled = []

    def factory():
        k = 0
        while True:
            k += 1
            pulled.append(k)
            yield k, F(0), "core"

    r = Rearrangement(parse_spec("const(0)"), factory, lambda n: 10 * n, "counted")
    report = check_permutation(r, 50, probes=(10, 100))
    assert report == PermutationReport(True, 50, ((10, 100, 10), (100, 1000, 100)))
    assert len(pulled) == 100


def test_audit_of_an_uncertified_stream_that_ends_uncovered_raises():
    # one run over sources 2, 3, 4: source 1 never appears, and no bound
    # says by when it should
    r = Rearrangement.of_blocks(None, lambda: iter([("core", F(0), 3, 2, 1)]), None, "gap")
    with pytest.raises(CoverageViolation) as info:
        check_permutation(r, 3, probes=(1,))
    assert (info.value.prefix, info.value.bound) == (1, None)
    assert str(info.value) == "source indices 1..1 not all emitted before the stream ended"


def test_audit_of_an_uncertified_construction_streams_it_once(monkeypatch):
    calls = []
    blocks = Rearrangement.blocks

    def counting(self):
        calls.append(self.name)
        return blocks(self)

    monkeypatch.setattr(Rearrangement, "blocks", counting)
    r = construct_target(parse_spec("interleave(const(0), linear())"), F(1))
    report = check_permutation(r, 100, probes=(10, 100))
    assert calls == [r.name]
    assert r.coverage_bound is None
    assert [bound for _p, bound, _at in report.coverage] == [None, None]


TWO_SIDED = "interleave(neg(runlen(4)), runlen(4))"
TWO_SIDED_EXTRAS = "interleave(neg(runlen(4)), interleave(runlen(4), const(0)))"


@pytest.mark.parametrize("text, target", [(TWO_SIDED, F(0)),  # uncertified: would never end
                                          ("interleave(const(0), const(1))", F(1, 3))])
@pytest.mark.parametrize("probe", [0, -3])
def test_a_probe_below_one_is_refused_before_streaming(monkeypatch, text, target, probe):
    r = construct_target(parse_spec(text), target)
    monkeypatch.setattr(Rearrangement, "blocks", lambda self: pytest.fail("streamed"))
    with pytest.raises(ValueError, match="at least 1"):
        check_permutation(r, 10, probes=(probe,))


def test_the_audit_of_the_two_sided_route_with_extras_reads_its_blocks():
    # 1..1000 is covered only at rank 15,813,251, so the audit must not visit positions
    r = construct_target(parse_spec(TWO_SIDED_EXTRAS), F(1, 2))
    report = check_permutation(r, 1000, probes=(10, 100, 1000))
    assert report.coverage == ((10, None, 27), (100, None, 17576), (1000, None, 15813251))


@pytest.mark.parametrize("text, target", [("interleave(const(0), const(1))", F(1, 3)),
                                          (TWO_SIDED, F(0))])
def test_the_audit_reads_period_blocks_without_unrolling_them(monkeypatch, text, target):
    r = construct_target(parse_spec(text), target)
    expected = check_permutation(r, 1000, probes=(10, 100, 1000))
    assert any(tag is None for tag, *_ in r.blocks())  # the stream has period blocks
    monkeypatch.setattr(Rearrangement, "unrolled", lambda self: pytest.fail("unrolled"))
    assert check_permutation(r, 1000, probes=(10, 100, 1000)) == expected


# ---------------------------------------------------------------------------
# Tube checks


def test_tube_is_open_and_respects_from_index():
    t = synthetic_trace([1, 0, "1/2", "1/2"])  # averages 1, 1/2, 1/2, 1/2
    assert check_tube(t, F(1, 2), F(1, 4), from_index=2)
    assert not check_tube(t, F(1, 2), F(1, 4))  # entry 1 escapes
    assert not check_tube(t, F(3, 4), F(1, 4), from_index=2)  # boundary excluded


def test_tube_around_infinite_targets_uses_reciprocal_threshold():
    up = synthetic_trace([200, 200, 200])
    assert check_tube(up, POS_INF, F(1, 100))
    assert not check_tube(up, POS_INF, F(1, 300))
    down = synthetic_trace([-200, -200, -200])
    assert check_tube(down, NEG_INF, F(1, 100))
    assert not check_tube(down, POS_INF, F(1, 100))


def test_tube_rejects_nonpositive_eps():
    with pytest.raises(ValueError):
        check_tube(synthetic_trace([0]), F(0), F(0))


def test_a_tested_row_at_n_0_or_below_fails_the_tube():
    # no average is defined there; a leading negative n raised UnboundLocalError
    for n in (0, -1):
        t = [TraceEntry(n, 1, F(1), F(1), F(1)), TraceEntry(2, 2, F(1), F(2), F(1))]
        assert not check_tube(t, F(1), F(1, 10))


# Averages that land exactly on a bound, read live and read back from CSV:
# values 1/3, 1/3, 4/3, 2/3 give averages 1/3, 1/3, 2/3, 2/3.
BOUNDARY_VALUES = ["1/3", "1/3", "4/3", "2/3"]


def live_trace(values):
    return iter_trace(fake_rearrangement([(i, v) for i, v in enumerate(values, 1)]))


def csv_trace(values):
    buf = io.StringIO()
    write_trace_csv(live_trace(values), buf)
    return read_trace_csv(io.StringIO(buf.getvalue()))


@pytest.mark.parametrize("source", [live_trace, csv_trace])
def test_tube_boundaries_are_excluded(source):
    t = lambda: source(BOUNDARY_VALUES)  # noqa: E731
    assert check_tube(t(), F(1, 2), F(1, 4))
    assert not check_tube(t(), F(1, 2), F(1, 6))  # 1/3 and 2/3 sit on lo and hi
    assert not check_tube(t(), F(1), F(1, 3), from_index=3)  # average == lo
    assert not check_tube(t(), F(1, 3), F(1, 3), from_index=3)  # average == hi
    assert check_tube(t(), F(1, 2), F(1, 5), from_index=3)


@pytest.mark.parametrize("source", [live_trace, csv_trace])
def test_infinite_tube_threshold_is_excluded(source):
    up = ["400/3", "400/3"]  # average 400/3 == 1/eps
    assert not check_tube(source(up), POS_INF, F(3, 400))
    assert check_tube(source(up), POS_INF, F(3, 399))
    down = ["-400/3", "-400/3"]
    assert not check_tube(source(down), NEG_INF, F(3, 400))
    assert check_tube(source(down), NEG_INF, F(3, 399))


@pytest.mark.parametrize("source", [live_trace, csv_trace])
def test_schedule_boundaries_are_excluded(source):
    t = lambda: source(BOUNDARY_VALUES)  # noqa: E731
    assert check_schedule(t(), [window(1, 0, 1), window(3, "1/2", 1)])
    assert not check_schedule(t(), [window(1, "1/3", 1)])  # average == lo
    assert not check_schedule(t(), [window(1, 0, "1/3"), window(3, 0, 1)])  # == hi
    assert not check_schedule(t(), [window(1, 0, 1), window(3, "2/3", 1)])
    assert not check_schedule(t(), [window(1, 0, "1/2"), window(3, "1/2", "2/3")])


def test_checks_read_the_explicit_average_of_a_hand_built_entry():
    # The sum says 0 but the stored average says 5: checks see the average.
    t = [TraceEntry(1, 1, F(0), F(0), F(5))]
    assert check_tube(t, F(5), F(1)) and not check_tube(t, F(0), F(1))
    assert check_schedule(t, [window(1, 4, 6)])
    assert not verify_trace_identities(t)


# ---------------------------------------------------------------------------
# Schedule checks


def window(from_index, lo, hi):
    return ScheduleEntry(F(lo), F(hi), from_index, "tube", 1)


def test_schedule_windows_partition_the_index_axis():
    t = synthetic_trace([0, 0, 6, 2])  # averages 0, 0, 2, 2
    assert check_schedule(t, [window(1, -1, 1), window(3, 1, 3)])
    assert not check_schedule(t, [window(1, -1, 1), window(4, 1, 3)])  # n=3 breaks w1
    assert not check_schedule(t, [window(1, -1, 1)])  # last window is open-ended


def test_schedule_entries_before_the_first_window_are_unconstrained():
    t = synthetic_trace([100, 0, "-94", 2])  # averages 100, 50, 2, 2
    assert check_schedule(t, [window(3, 1, 3)])


def test_empty_schedule_is_vacuously_satisfied():
    assert check_schedule(synthetic_trace([1, 2, 3]), [])


def run_trace():
    """Averages 0, 1/2, 2/3, ..., 10/11: a single 0, then one run of ten 1s."""
    blocks = [("core", F(0), 1, 1, 0), ("core", F(1), 10, 2, 1)]
    return iter_trace(Rearrangement.of_blocks(None, lambda: iter(blocks), None, "run"))


# A live trace is read as runs, a list of its entries as runs of one.
READS = pytest.mark.parametrize("read", [lambda t: t, list], ids=["runs", "entries"])


@READS
def test_schedule_windows_out_of_order_are_refused(read):
    first, second = window(1, -1, 1), window(5, 2, 3)
    assert not check_schedule(read(run_trace()), [first, second])  # 4/5 at n=5
    with pytest.raises(ValueError, match="strictly increase"):
        check_schedule(read(run_trace()), [second, first])
    with pytest.raises(ValueError, match="strictly increase"):
        check_schedule(read(run_trace()), [first, window(1, 2, 3)])


@READS
def test_a_window_starting_inside_a_run_splits_it(read):
    # Both ends of the run (1/2 at n=2, 10/11 at n=11) sit inside their
    # windows; only the split at n=5 finds the average 4/5 on the bound.
    assert not check_schedule(read(run_trace()), [window(1, -1, 1), window(5, "4/5", 1)])
    assert check_schedule(read(run_trace()), [window(1, -1, 1), window(5, "3/4", 1)])
    assert not check_tube(read(run_trace()), F(9, 10), F(1, 10), from_index=5)
    assert check_tube(read(run_trace()), F(17, 20), F(1, 10), from_index=5)


def period_stream(rows, repeats):
    """One period block: ``rows`` ``(tag, value, count, first_src, step,
    advance)`` played ``repeats`` times, with nothing streamed before it."""
    length = sum(row[2] for row in rows)
    total = sum(row[1] * row[2] for row in rows)
    block = (None, total, repeats * length, tuple(rows), length)
    return Rearrangement.of_blocks(None, lambda: iter([block]), None, "period")


def alternating():
    """Values 3, 0, 3, 0, ... from sources 1, 2, 3, ...: the average is 3/2
    at even n and 3k/(2k - 1) at n = 2k - 1, falling with the repeat k."""
    return period_stream([("hi", F(3), 1, 1, 0, 2), ("lo", F(0), 1, 2, 0, 2)], 100)


@READS
def test_a_window_starting_inside_a_period_block_is_tested_at_its_start(read):
    # 9/5 at n=5 lies above the tube 3/2 +- 1/4 and 12/7 at n=7 inside it:
    # only the third repeat, where the window starts, leaves the tube, and
    # the block's first two and last two repeats hold no failing position
    assert not check_tube(read(iter_trace(alternating(), 200)), F(3, 2), F(1, 4), from_index=5)
    assert check_tube(read(iter_trace(alternating(), 200)), F(3, 2), F(1, 4), from_index=7)
    # a window starting at n=6: the row of 3s first plays inside it one
    # repeat later, at n=7, where 12/7 lies above 3/2 + 1/5 and 15/9 does not
    assert not check_tube(read(iter_trace(alternating(), 200)), F(3, 2), F(1, 5), from_index=6)
    assert check_tube(read(iter_trace(alternating(), 200)), F(3, 2), F(1, 5), from_index=8)
    assert not check_schedule(read(iter_trace(alternating(), 200)),
                              [window(1, -1, 4), window(5, "5/4", "7/4")])
    assert check_schedule(read(iter_trace(alternating(), 199)),
                          [window(1, -1, 4), window(7, "5/4", "7/4")])
    assert [e.average for e in iter_trace(alternating(), 7)] == [
        3, F(3, 2), 2, F(3, 2), F(9, 5), F(3, 2), F(12, 7)]


def test_a_period_block_widens_the_sum_to_its_rows_denominators():
    # one period sums to 1, but each position adds 1/2
    r = period_stream([("a", F(1, 2), 1, 1, 0, 2), ("b", F(1, 2), 1, 2, 0, 2)], 3)
    assert [(e.partial_sum, e.average) for e in iter_trace(r)] == [
        (F(n, 2), F(1, 2)) for n in range(1, 7)]


def test_a_source_repeated_in_a_later_repeat_of_a_period_block_is_refused():
    # sources 1 + j and 3 + j at repeat j: the third repeat plays source 3 again
    r = period_stream([("a", F(1), 1, 1, 0, 1), ("b", F(2), 1, 3, 0, 1)], 10)
    with pytest.raises(InjectivityViolation) as caught:
        check_permutation(r, 20)
    assert vars(caught.value) == {"source_index": 3, "first_rank": 2, "second_rank": 5}


# ---------------------------------------------------------------------------
# Envelope oracle


def test_oracle_enumerates_small_multisets_exactly():
    rep = envelope_oracle([F(0), F(0), F(1), F(1)], 2)
    assert (rep.min_avg, rep.max_avg) == (F(0), F(1))
    assert rep.achievable == (F(0), F(1, 2), F(1))


def test_oracle_extremes_only_beyond_the_enumeration_cap():
    values = [F(i) for i in range(13)]
    rep = envelope_oracle(values, 3)
    assert rep.achievable is None
    assert rep.min_avg == F(0 + 1 + 2, 3) and rep.max_avg == F(10 + 11 + 12, 3)


def test_oracle_validates_subset_size():
    with pytest.raises(ValueError):
        envelope_oracle([F(1)], 2)
    with pytest.raises(ValueError):
        envelope_oracle([F(1)], 0)


def test_oracle_agrees_with_direct_enumeration_on_random_multisets():
    import random
    from itertools import combinations

    rng = random.Random(99)
    for _ in range(30):
        size = rng.randint(1, 8)
        vals = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(size)]
        k = rng.randint(1, size)
        rep = envelope_oracle(vals, k)
        expected = sorted({sum(c) / k for c in combinations(sorted(vals), k)})
        assert list(rep.achievable) == expected
        assert rep.min_avg == expected[0] and rep.max_avg == expected[-1]


# ---------------------------------------------------------------------------
# Exact identities


def test_identities_hold_on_real_traces():
    for text in ("linear()", "geom(2)", "interleave(const(0), const(1))"):
        t = trace(identity_rearrangement(parse_spec(text)), 300)
        assert verify_trace_identities(t)


def test_identities_catch_a_corrupted_entry():
    t = synthetic_trace([1, 2, 3])
    bad = list(t)
    e = bad[1]
    bad[1] = TraceEntry(e.n, e.source_index, e.value, e.partial_sum + 1, e.average)
    assert not verify_trace_identities(bad)
    worse = list(t)
    worse[2] = TraceEntry(3, 3, F(3), F(6), F(7, 3))
    assert not verify_trace_identities(worse)


@pytest.mark.parametrize("average", [F(1), None])
def test_identities_catch_a_value_that_disagrees_with_the_sum(average):
    # every average is its sum over n, but the sum rose by 1, not by the value 5
    t = [TraceEntry(1, 1, F(1), F(1), F(1)), TraceEntry(2, 2, F(5), F(2), average)]
    assert not verify_trace_identities(t)


def test_downward_jump_bound_on_positive_streams():
    # Averages 3, 2, 5/3, ... cross the level 2 slowly: each drop from
    # above 2 is at most (2 - 1)/(n - 1) when every value exceeds 1.
    from meanweave.harness import downward_jump_bound_holds

    t = synthetic_trace([3, 1 + F(1, 100), 1 + F(1, 100), 1 + F(1, 100)])
    assert downward_jump_bound_holds(t, F(2), F(1))
    with pytest.raises(ValueError):
        downward_jump_bound_holds(synthetic_trace([3, 1]), F(2), F(1))


# ---------------------------------------------------------------------------
# CSV boundary


def test_csv_round_trip_preserves_exact_fields():
    t = trace(identity_rearrangement(parse_spec("interleave(const(0), const(1))")), 7)
    buf = io.StringIO()
    write_trace_csv(t, buf)
    text = buf.getvalue()
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert lines[1] == "1,1,0/1,0/1,0,0/1"
    assert lines[2] == "2,2,1/1,1/1,0.5,1/2"
    back = read_trace_csv(io.StringIO(text))
    assert back == t
    assert verify_trace_identities(back)


def test_csv_exact_columns_always_carry_a_denominator():
    t = synthetic_trace([3, "1/3"])
    buf = io.StringIO()
    write_trace_csv(t, buf)
    rows = buf.getvalue().splitlines()
    assert rows[1].split(",")[2:] == ["3/1", "3/1", "3", "3/1"]
    assert rows[2].split(",")[2:] == ["1/3", "10/3", "1.66666666667", "5/3"]


def test_csv_reader_rejects_foreign_headers():
    with pytest.raises(ValueError):
        read_trace_csv(io.StringIO("a,b,c\n1,2,3\n"))


def test_csv_reader_names_the_line_of_a_malformed_row():
    header = ",".join(CSV_HEADER) + "\n"
    with pytest.raises(ValueError, match="^line 2: 3 fields, expected 6$"):
        read_trace_csv(io.StringIO(header + "1,1,0\n"))
    with pytest.raises(ValueError, match="^line 3: 7 fields, expected 6$"):
        read_trace_csv(io.StringIO(header + "1,1,0/1,0/1,0,0/1\n2,2,1,1,1,1,1\n"))


PARSE_TEXTS = ["3", "-3/4", "+1/2", " 1/2", "1/2 ", "1_000/3", "1.5", "1e3", "-0",
               "2/4", "1/0", "1/-2", "--1/2", "1/", "/2", "x", "", "\u0663/4",
               "\u00b2/4"]  # an Arabic-Indic three; a superscript two is no decimal digit


@pytest.mark.parametrize("column", [2, 3, 5], ids=["value", "partial_sum", "average"])
@pytest.mark.parametrize("text", PARSE_TEXTS)
def test_csv_reader_parses_exact_fields_as_fraction_does(text, column):
    row = ["1", "1", "1/1", "1/1", "1", "1/1"]
    row[column] = text
    csv_text = ",".join(CSV_HEADER) + "\n" + ",".join(row) + "\n"
    try:
        q = F(text)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(ValueError) as raised:
            read_trace_csv(io.StringIO(csv_text))
        assert str(raised.value) == f"line 2: {exc}"
        return
    fields = [1, 1, F(1), F(1), F(1)]
    fields[{2: 2, 3: 3, 5: 4}[column]] = q
    assert read_trace_csv(io.StringIO(csv_text)) == [TraceEntry(*fields)]


def test_csv_reader_shares_one_value_object_per_distinct_text():
    r = identity_rearrangement(parse_spec("interleave(const(0), const(1))"))
    buf = io.StringIO()
    write_trace_csv(iter_trace(r, 10_000), buf)
    back = read_trace_csv(io.StringIO(buf.getvalue()))
    assert len(back) == 10_000
    assert len({id(e.value) for e in back}) == 2


def test_decimal_rendering_frozen_examples():
    assert decimal_str(F(2, 3)) == "0.666666666667"
    assert decimal_str(F(1, 3)) == "0.333333333333"
    assert decimal_str(F(1, 4)) == "0.25"
    assert decimal_str(F(1)) == "1"
    assert decimal_str(F(0)) == "0"
    assert decimal_str(F(-7, 2)) == "-3.5"
    assert decimal_str(F(10**12)) == "1.00000000000E+12"


def test_identities_streaming_over_an_iterator_input():
    r = identity_rearrangement(parse_spec("pow(2)"))
    assert verify_trace_identities(iter_trace(r, 500))
