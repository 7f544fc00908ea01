"""Property-based invariants across the library (hypothesis-driven)."""

import io
import math
from fractions import Fraction
from itertools import accumulate, islice

import pytest
from hypothesis import HealthCheck, Phase, assume, example, given, seed, settings
from hypothesis import strategies as st

from meanweave.aarset import AARSet, Interval
from meanweave.balance import balanced_verdict, ratio_series
from meanweave.classifier import classify, classify_spec
from meanweave.dsl import parse_spec, render
from meanweave.errors import (
    CoverageViolation,
    InjectivityViolation,
    MeanweaveError,
    ParseError,
)
from meanweave.extreal import NEG_INF, POS_INF, ExtendedReal
from meanweave.harness import (
    TraceEntry,
    check_permutation,
    check_schedule,
    check_tube,
    decimal_str,
    downward_jump_bound_holds,
    envelope_oracle,
    iter_trace,
    read_trace_csv,
    verify_trace_identities,
    write_trace_csv,
)
from meanweave import rearrange
from meanweave.realizer import ScheduleEntry, _landing
from meanweave.rearrange import (
    Rearrangement,
    RunningAverage,
    construct_target,
    first_positive,
    merge_preserving,
)
from meanweave.seqspec import (
    IDENTITY_MAP,
    Affine,
    AffineMap,
    Constant,
    ExplicitPrefix,
    Geometric,
    Interleave,
    Linear,
    Negate,
    PartCursor,
    PartStream,
    PointwiseSquare,
    PowerOfIndex,
    RunLength,
    RunRule,
    WovenMap,
    decompose,
    negated_spec,
    push_pointwise,
    strands,
)

F = Fraction

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)

leaf_specs = st.one_of(
    rationals.map(Constant),
    st.integers(1, 3).map(PowerOfIndex),
    st.integers(2, 5).map(lambda d: Geometric(F(d))),
)

spec_trees = st.recursive(
    leaf_specs,
    lambda inner: st.one_of(
        inner.map(Negate),
        inner.map(PointwiseSquare),
        st.tuples(inner, rationals, rationals).map(lambda t: Affine(*t)),
        st.tuples(inner, inner).map(lambda t: Interleave(*t)),
    ),
    max_leaves=6,
)

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# Descriptor algebra


@settings(max_examples=120, **COMMON)
@given(spec_trees)
def test_render_parse_identity_everywhere(spec):
    assert parse_spec(render(spec)) == spec


@settings(max_examples=80, **COMMON)
@given(spec_trees, spec_trees, st.integers(1, 10_000))
def test_interleave_index_law(first, second, n):
    woven = Interleave(first, second)
    assert woven.term(2 * n - 1) == first.term(n)
    assert woven.term(2 * n) == second.term(n)


@settings(max_examples=80, **COMMON)
@given(spec_trees, rationals, rationals, st.integers(1, 500))
def test_affine_law(base, scale, shift, n):
    assert Affine(base, scale, shift).term(n) == scale * base.term(n) + shift


@settings(max_examples=80, **COMMON)
@given(spec_trees, st.integers(1, 500))
def test_negation_is_a_pointwise_involution(spec, n):
    neg = negated_spec(spec)
    assert neg.term(n) == -spec.term(n)
    assert negated_spec(neg).term(n) == spec.term(n)


@settings(max_examples=60, **COMMON)
@given(st.text(max_size=30))
def test_parser_never_crashes(text):
    try:
        spec = parse_spec(text)
    except ParseError as e:
        assert 0 <= e.offset <= len(text)
        assert e.expected
    else:
        assert parse_spec(render(spec)) == spec


# ---------------------------------------------------------------------------
# Decomposition


@settings(max_examples=40, **COMMON)
@given(spec_trees, spec_trees, st.integers(1, 60), st.lists(rationals, max_size=3))
def test_witnesses_are_injective_and_agree_with_source(first, second, k, head):
    spec = Interleave(first, second)
    if head:
        spec = ExplicitPrefix(tuple(head), spec)
    try:
        dec = decompose(spec)
    except MeanweaveError:
        return  # strands without extended-real limits are out of scope here
    seen = set()
    hits = []
    for part in (p for p in (dec.b, dec.c, dec.d) if p is not None):
        w = part.witness
        for j in range(1, k + 1):
            idx = w(j)
            assert idx not in seen
            seen.add(idx)
            assert part.spec.term(j) == spec.term(idx)
        big_k = _past(w, k)
        images = list(islice(w, big_k))
        assert images == [w(j) for j in range(1, big_k + 1)]
        hits.extend(i for i in images if i <= k)
    assert sorted(hits) == list(range(1, k + 1))


def _past(w, k):
    """An element count past which every image of w exceeds k (every slope
    and offset is at least 1)."""
    if isinstance(w, AffineMap):
        return k // w.slope + 1
    return 2 * max(_past(w.first, k), _past(w.second, k))


# Trees with explicit prefixes at any depth, over interleaves or not.
prefixed_trees = st.recursive(
    st.one_of(leaf_specs, st.sampled_from([Linear(), RunLength(2), RunLength(4)])),
    lambda inner: st.one_of(
        inner.map(Negate),
        inner.map(PointwiseSquare),
        st.tuples(inner, rationals, rationals).map(lambda t: Affine(*t)),
        st.tuples(inner, inner).map(lambda t: Interleave(*t)),
        st.tuples(st.lists(rationals, min_size=1, max_size=3), inner).map(
            lambda t: ExplicitPrefix(tuple(t[0]), t[1])),
    ),
    max_leaves=6,
)


def _without_prefixes(spec):
    if isinstance(spec, ExplicitPrefix):
        return _without_prefixes(spec.tail)
    if isinstance(spec, (Negate, PointwiseSquare)):
        return type(spec)(_without_prefixes(spec.base))
    if isinstance(spec, Affine):
        return Affine(_without_prefixes(spec.base), spec.scale, spec.shift)
    if isinstance(spec, Interleave):
        return Interleave(_without_prefixes(spec.first), _without_prefixes(spec.second))
    return spec


@settings(max_examples=60, **COMMON)
@given(prefixed_trees, st.integers(1, 60))
def test_pushed_prefixes_keep_the_terms_and_the_partition(spec, k):
    pushed = push_pointwise(spec)
    assert list(islice(pushed.iter_terms(), 200)) == list(islice(spec.iter_terms(), 200))
    try:
        dec = decompose(spec)
    except MeanweaveError:
        return
    hits = []
    for part in (p for p in (dec.b, dec.c, dec.d) if p is not None):
        w = part.witness
        images = list(islice(w, _past(w, k)))
        values = islice(part.spec.iter_terms(), len(images))
        assert all(spec.term(i) == v for i, v in zip(images, values))
        hits.extend(i for i in images if i <= k)
    assert sorted(hits) == list(range(1, k + 1))


def _classified(spec):
    try:
        return classify_spec(spec)
    except MeanweaveError:
        return None


@settings(max_examples=150, **COMMON)
@given(prefixed_trees)
def test_a_finite_head_never_changes_the_classification(spec):
    with_heads, without = _classified(spec), _classified(_without_prefixes(spec))
    if with_heads is not None or without is not None:
        assert with_heads == without


index_maps = st.recursive(
    st.builds(AffineMap, st.integers(1, 6), st.integers(1, 9)),
    lambda maps: st.builds(WovenMap, maps, maps),
    max_leaves=4,
)


@settings(max_examples=80, **COMMON)
@given(index_maps, index_maps)
def test_index_map_operations_follow_their_pointwise_definitions(m, other):
    ks = range(1, 41)
    odd, even = m.split()
    paired = m.pair(other)
    assert [odd(k) for k in ks] == [m(2 * k - 1) for k in ks]
    assert [even(k) for k in ks] == [m(2 * k) for k in ks]
    assert [paired(k) for k in ks] == [
        m((k + 1) // 2) if k % 2 else other(k // 2) for k in ks
    ]
    for w in (m, odd, even, paired):
        assert list(islice(w, 40)) == [w(k) for k in ks]


# ---------------------------------------------------------------------------
# Balance index identities


@settings(max_examples=30, **COMMON)
@given(
    st.sampled_from(["geom(2)", "geom(3)", "pow(1)", "pow(2)", "runlen(1)", "runlen(3)"]),
    st.integers(3, 120),
)
def test_balance_recurrence_and_reciprocals(text, n):
    entries = ratio_series(parse_spec(text), n)
    by_n = {e.n: e for e in entries}
    for m in range(2, n):
        cur, nxt = by_n[m], by_n[m + 1]
        assert nxt.A_n == (cur.A_n + 1) * cur.term / nxt.term
        assert cur.A_n == 1 / cur.r_n
        assert cur.r_incl == cur.r_n / (1 + cur.r_n)


@settings(max_examples=30, **COMMON)
@given(
    st.sampled_from(["geom(2)", "pow(2)", "runlen(1)"]),
    st.integers(1, 50).map(F),
    st.integers(2, 80),
)
def test_ratio_is_invariant_under_positive_scaling(text, k, n):
    base = ratio_series(parse_spec(text), n)
    scaled = ratio_series(Affine(parse_spec(text), k, F(0)), n)
    for a, b in zip(base, scaled):
        assert a.r_n == b.r_n and a.A_n == b.A_n


def _fraction_evidence(spec, horizon):
    """The tail-window ratios over a Fraction running sum, term by term from
    ``spec.term``: the loop numeric evidence ran before its integer pair."""
    window_start = max(2, horizon - horizon // 10)
    running = F(0)
    max_ratio = None
    last_ratio = None
    for i in range(1, horizon + 1):
        term = spec.term(i)
        if i >= window_start and running > 0:
            r = term / running
            last_ratio = r
            if max_ratio is None or r > max_ratio:
                max_ratio = r
        running += term
    small = max_ratio is not None and max_ratio < F(1, 1000)
    return window_start, max_ratio, last_ratio, small


evidence_bases = st.one_of(
    st.integers(1, 3).map(PowerOfIndex),
    st.just(Linear()),
    st.integers(1, 4).map(RunLength),
    st.sampled_from([F(2), F(3), F(3, 2), F(7, 5)]).map(Geometric),
)


# Fractional scales and shifts make the pair sum widen (past 2**128 under
# geom(3/2) and geom(7/5), where it reduces by a gcd); shifts down to -60
# keep the earlier sum at or below 0 into the window of long horizons.
@settings(max_examples=120, **COMMON)
@given(
    evidence_bases,
    st.fractions(min_value=F(1, 7), max_value=5, max_denominator=7),
    st.fractions(min_value=-60, max_value=10, max_denominator=6),
    st.integers(2, 400),
)
@example(Linear(), F(1, 3), F(-40), 260)  # earlier sum <= 0 (0 at 240) until 241
@example(RunLength(2), F(2, 3), F(-1, 2), 9)  # window_start == horizon
@example(Geometric(F(3, 2)), F(5, 7), F(-7, 6), 400)
def test_numeric_evidence_matches_a_fraction_reference(base, scale, shift, horizon):
    spec = Affine(base, scale, shift)
    ev = balanced_verdict(spec, mode="numeric", horizon=horizon).evidence
    assert ev.horizon == horizon
    assert (ev.window_start, ev.max_ratio, ev.last_ratio, ev.ratio_small) == (
        _fraction_evidence(spec, horizon)
    )


@settings(max_examples=20, **COMMON)
@given(st.integers(1, 3), st.integers(2, 400))
def test_power_sums_bracket_the_integral(k, n):
    e = ratio_series(parse_spec(f"pow({k})"), n)[-1]
    integral = (F(e.n) ** (k + 1) - 1) / (k + 1)
    # sum_{i<n} f <= integral over [1, n] <= sum_{i<=n} f for increasing f
    assert e.s_prev <= integral <= e.s_prev + e.term


# ---------------------------------------------------------------------------
# Running averages and trace identities


def synthetic_trace(values):
    entries = []
    total = F(0)
    for i, v in enumerate(values, 1):
        total += v
        entries.append(TraceEntry(i, i, v, total, total / i))
    return entries


@settings(max_examples=60, **COMMON)
@given(st.lists(rationals, min_size=1, max_size=40))
def test_running_average_matches_exact_fraction_mean(values):
    ra = RunningAverage()
    total = F(0)
    for i, v in enumerate(values, 1):
        ra.add(v)
        total += v
        assert F(ra.num, ra.den * ra.n) == total / i


PRIMES = [11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]

# k/p + m with p a prime >= 11, so every value carries its own denominator;
# every fifth value is an integer, which the running sum adds on its own path.
prime_fractions = st.tuples(
    st.sampled_from(PRIMES), st.integers(1, 96), st.integers(-5, 5)
).map(lambda t: F(t[1] % t[0] or 1, t[0]) + t[2])


@settings(max_examples=40, **COMMON)
@given(st.lists(prime_fractions, min_size=50, max_size=120))
def test_live_trace_entries_match_a_naive_fraction_reference(drawn):
    values = [F(v.numerator // v.denominator) if i % 5 == 4 else v
              for i, v in enumerate(drawn)]
    # 40 or more denominators >= 11 multiply past 2**128, where the running
    # sum reduces its integer pair by a gcd.
    assert math.prod(v.denominator for v in values) > 2**128
    stream = [(2 * i, v) for i, v in enumerate(values, 1)]
    r = Rearrangement(parse_spec("const(0)"),
                      lambda: ((s, v, "core") for s, v in stream), lambda n: n, "fixed")
    total = F(0)
    entries = list(iter_trace(r))
    assert len(entries) == len(values)
    for (n, e), (src, v) in zip(enumerate(entries, 1), stream):
        total += v
        row = (n, src, v, total, total / n)
        assert e == row and e == TraceEntry(*row) and hash(e) == hash(TraceEntry(*row))
        assert (e.n, e.source_index, e.value) == (n, src, v)
        assert e.partial_sum == total and e.average == total / n
        assert tuple(e) == row and list(e) == list(row)
        assert [e[i] for i in range(-5, 5)] == list(row[-5:] + row)
        assert e[1:4] == row[1:4]
        assert repr(e) == (
            "TraceEntry(n={!r}, source_index={!r}, value={!r}, "
            "partial_sum={!r}, average={!r})".format(*row)
        )
    assert verify_trace_identities(entries)
    assert verify_trace_identities(iter_trace(r))


# negatives and denominators up to 10**12; a drawn count repeats one value
# object, as a run of a block stream does
wide_runs = st.lists(
    st.tuples(st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**12),
              st.integers(1, 3)),
    min_size=1, max_size=30,
)


@settings(max_examples=60, **COMMON)
@given(wide_runs, st.data())
def test_csv_round_trip_is_byte_identical_and_keeps_the_identities(runs, data):
    stream = [(i, v) for i, v in enumerate(
        (v for v, k in runs for _ in range(k)), 1)]
    r = Rearrangement(parse_spec("const(0)"),
                      lambda: ((s, v, "core") for s, v in stream), lambda n: n, "fixed")
    first = io.StringIO()
    write_trace_csv(iter_trace(r), first)
    back = read_trace_csv(io.StringIO(first.getvalue()))
    second = io.StringIO()
    write_trace_csv(back, second)
    assert second.getvalue() == first.getvalue()
    live = list(iter_trace(r))
    assert back == live
    exact = lambda q: f"{q.numerator}/{q.denominator}"  # noqa: E731
    assert first.getvalue().splitlines()[1:] == [
        f"{e.n},{e.source_index},{exact(e.value)},{exact(e.partial_sum)},"
        f"{decimal_str(e.average)},{exact(e.average)}" for e in live
    ]
    assert verify_trace_identities(back)

    # move one stated average by 1/q: the pairs read back must fail
    lines = first.getvalue().splitlines()
    i = data.draw(st.integers(1, len(lines) - 1))
    row = lines[i].split(",")
    p, q = map(int, row[5].split("/"))
    row[5] = f"{p + data.draw(st.sampled_from([-1, 1]))}/{q}"
    lines[i] = ",".join(row)
    moved = read_trace_csv(io.StringIO("\n".join(lines) + "\n"))
    assert not verify_trace_identities(moved)


@settings(max_examples=60, **COMMON)
@given(st.lists(rationals, min_size=1, max_size=40))
def test_well_formed_traces_always_satisfy_the_identities(values):
    assert verify_trace_identities(synthetic_trace(values))


@settings(max_examples=60, **COMMON)
@given(
    st.lists(st.fractions(min_value=2, max_value=30, max_denominator=8), min_size=2, max_size=40),
    st.fractions(min_value=3, max_value=10, max_denominator=4),
)
def test_downward_jumps_of_bounded_below_streams_are_small(values, level):
    # Whenever every value exceeds 1, a drop of the average to or below the
    # level p from above is at most (p - 1)/(n - 1); this holds for
    # arbitrary streams of such values, so random ones must satisfy it.
    assert downward_jump_bound_holds(synthetic_trace(values), level, F(1))


@settings(max_examples=50, **COMMON)
@given(st.lists(rationals, min_size=1, max_size=9), st.data())
def test_small_prefix_averages_lie_in_the_oracle_set(values, data):
    k = data.draw(st.integers(1, len(values)))
    rep = envelope_oracle(values, k)
    chosen = data.draw(st.permutations(values))[:k]
    avg = sum(chosen, F(0)) / k
    assert rep.min_avg <= avg <= rep.max_avg
    assert avg in rep.achievable


# ---------------------------------------------------------------------------
# Extended-real order


extended_reals = st.one_of(
    st.sampled_from([NEG_INF, POS_INF]),
    st.fractions(max_denominator=10**6).map(ExtendedReal),
)


def _sign_value(x):
    """The (sign, value) key of the extended-real order, read off the public
    flags: -inf below every rational, +inf above."""
    if not isinstance(x, ExtendedReal):
        return 0, Fraction(x)
    if x.is_finite:
        return 0, x.value
    return (1 if x.is_pos_inf else -1), 0


@settings(max_examples=300, **COMMON)
@given(extended_reals, st.one_of(
    extended_reals,
    st.integers(-10**6, 10**6),
    st.fractions(max_denominator=10**6),
))
@example(ExtendedReal(3), 3)
@example(ExtendedReal(Fraction(-1, 3)), Fraction(-2, 6))
@example(POS_INF, POS_INF)
@example(NEG_INF, ExtendedReal(0))
def test_extended_reals_order_by_sign_then_value(x, y):
    kx, ky = _sign_value(x), _sign_value(y)
    assert (x < y, x <= y, x > y, x >= y) == (kx < ky, kx <= ky, kx > ky, kx >= ky)
    assert (x == y, x != y) == (kx == ky, kx != ky)
    # an int or a Fraction on the left is reflected onto the ExtendedReal
    assert (y < x, y <= x, y > x, y >= x) == (ky < kx, ky <= kx, ky > kx, ky >= kx)
    if kx == ky and isinstance(y, ExtendedReal):
        assert hash(x) == hash(y)


# ---------------------------------------------------------------------------
# Attainable-set canonical form


finite_points = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@st.composite
def aar_pieces(draw):
    pieces = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            pieces.append(draw(finite_points))
        else:
            a, b = sorted([draw(finite_points), draw(finite_points)])
            pieces.append(
                Interval(ExtendedReal(a), ExtendedReal(b))
            )
    if draw(st.booleans()):
        pieces.append(NEG_INF)
    if draw(st.booleans()):
        pieces.append(POS_INF)
    return pieces


@settings(max_examples=100, **COMMON)
@given(aar_pieces())
def test_attainable_sets_are_canonical_and_round_trip(pieces):
    a = AARSet.of(*pieces)
    ivs = a.intervals
    # sorted, pairwise disjoint with genuine gaps
    for left, right in zip(ivs, ivs[1:]):
        assert left.hi < right.lo
    for iv in ivs:
        assert iv.lo <= iv.hi
    # every constituent piece is contained
    for p in pieces:
        probe = p.lo if isinstance(p, Interval) else p
        assert a.contains(probe)
    assert AARSet.deserialize(a.serialize()) == a
    assert AARSet.parse(a.render()) == a


@st.composite
def extended_set_and_member(draw):
    """A set with infinite points or unbounded pieces, and a finite member."""
    pieces = [p if isinstance(p, Interval) else Interval.point(p)
              for p in draw(aar_pieces())]
    if draw(st.booleans()):
        pieces.append(Interval(NEG_INF, ExtendedReal(draw(finite_points))))
    if draw(st.booleans()):
        pieces.append(Interval(ExtendedReal(draw(finite_points)), POS_INF))
    s = AARSet(pieces)
    iv = draw(st.sampled_from(s.finite))
    # a finite window [lo, hi] inside the piece
    if iv.lo.is_finite:
        lo = iv.lo.value
    elif iv.hi.is_finite:
        lo = iv.hi.value - 10
    else:
        lo = F(0)
    hi = iv.hi.value if iv.hi.is_finite else lo + 10
    t = draw(st.fractions(min_value=0, max_value=1, max_denominator=8))
    return s, lo + t * (hi - lo)


@settings(max_examples=150, **COMMON)
@given(extended_set_and_member(),
       st.fractions(min_value=-5, max_value=5, max_denominator=4),
       st.fractions(min_value=-5, max_value=5, max_denominator=4))
def test_set_transforms_map_members_and_infinities(sx, scale, shift):
    s, x = sx
    assert s.contains(x) and s.lo <= x <= s.hi
    assert any(iv.contains(x) for iv in s.finite)
    has_neg, has_pos = s.contains(NEG_INF), s.contains(POS_INF)
    neg = s.negate()
    assert neg.contains(-x)
    assert (neg.contains(NEG_INF), neg.contains(POS_INF)) == (has_pos, has_neg)
    image = s.affine(scale, shift)
    assert image.contains(scale * x + shift)
    if scale == 0:
        assert image == AARSet.of(shift)
    else:
        lo_inf, hi_inf = (has_neg, has_pos) if scale > 0 else (has_pos, has_neg)
        assert (image.contains(NEG_INF), image.contains(POS_INF)) == (lo_inf, hi_inf)
    square = s.square()
    assert square.contains(x * x) and square.lo >= 0
    assert square.contains(POS_INF) == (has_neg or has_pos)
    assert not square.contains(NEG_INF)


# ---------------------------------------------------------------------------
# Classifier structural invariants


@st.composite
def profiles(draw):
    n_pieces = draw(st.integers(0, 3))
    pieces = []
    for _ in range(n_pieces):
        a, b = sorted([draw(finite_points), draw(finite_points)])
        pieces.append(Interval(ExtendedReal(a), ExtendedReal(b)))
    neg = draw(st.booleans())
    pos = draw(st.booleans())
    if not pieces and not neg and not pos:
        neg = True
    pieces += [Interval.point(NEG_INF)] * neg + [Interval.point(POS_INF)] * pos
    return AARSet(pieces)


verdicts = st.sampled_from(["Balanced", "NotBalanced"])
conditions = st.sampled_from(["Holds", "Fails"])


@settings(max_examples=150, **COMMON)
@given(profiles(), verdicts, verdicts, conditions, conditions)
def test_classifier_output_is_canonical_and_honest(prof, bb, cb, bd, cd):
    from meanweave.balance import BalanceKind, Condition

    result = classify(
        prof,
        b_balance=BalanceKind(bb),
        c_balance=BalanceKind(cb),
        b_density=Condition(bd),
        c_density=Condition(cd),
    )
    ivs = result.intervals
    for left, right in zip(ivs, ivs[1:]):
        assert left.hi < right.lo
    # declared accumulation points are attainable
    for iv in prof.finite:
        assert result.contains(iv.lo) and result.contains(iv.hi)
    if prof.contains(NEG_INF):
        assert result.contains(NEG_INF)
    if prof.contains(POS_INF):
        assert result.contains(POS_INF)
    # finite part stays within the liminf/limsup hull
    for iv in ivs:
        if iv.lo.is_finite:
            assert prof.lo <= iv.lo
        if iv.hi.is_finite:
            assert iv.hi <= prof.hi


# ---------------------------------------------------------------------------
# Placement law of the above-limsup construction


@pytest.mark.parametrize("text", [
    "interleave(const(0), linear())",
    # the explicit prefix sits under a wrapper: 30, 1, 2, 3, ... sorts to
    # 1, 2, ..., 29, 30, 30, 31, ...
    "interleave(const(0), affine(prefix(30, linear()), 1, 0))",
    # fractional survivors: the survivor sum widens its denominator
    "interleave(const(0), affine(linear(), 2/3, 1/5))",
], ids=["plain", "wrapped_prefix", "fractional"])
@settings(max_examples=12, **COMMON)
@given(st.fractions(min_value=F(1, 2), max_value=4, max_denominator=6))
def test_placement_slots_follow_the_survivor_sums(text, target):
    from meanweave.rearrange import target_above_limsup

    dec = decompose(parse_spec(text))
    r = target_above_limsup(dec.b, dec.c, target)
    # the output positions of the first 12 "place" blocks, as emitted
    placements = []
    pos = 0
    for tag, value, count, src, _step in r.blocks():
        pos += count
        if tag == "place":
            placements.append((pos, src, value))
            if len(placements) == 12:
                break
    # Independent recomputation: sort the divergent strand's first terms
    # (the smallest values needed here all lie among them); survivors are
    # the values above max(1, 2*target); the n-th survivor x_n sits at slot
    # floor((s_n - x_n/2) / target), where s_n is the sum of survivors so far.
    bar = max(F(1), 2 * target)
    ordered = sorted(islice(parse_spec(text).second.iter_terms(), 200))
    survivors = (v for v in ordered if v > bar)
    s = F(0)
    expected = []
    for v in survivors:
        if len(expected) == 12:
            break
        s += v
        expected.append((math.floor((s - v / 2) / target), v))
    assert [(slot, value) for slot, _src, value in placements] == expected


# ---------------------------------------------------------------------------
# A part cursor reads like a list of the part's emissions


# the catalog leaves, run-length blocks and explicit prefixes under the
# pointwise wrappers: trees with runs of every kind, and without
run_trees = st.recursive(
    st.one_of(leaf_specs, st.sampled_from(list(RunRule)).map(RunLength)),
    lambda inner: st.one_of(
        inner.map(Negate),
        inner.map(PointwiseSquare),
        st.tuples(inner, rationals, rationals).map(lambda t: Affine(*t)),
        st.tuples(st.lists(rationals, min_size=1, max_size=3), inner).map(
            lambda t: ExplicitPrefix(*t)),
        st.tuples(inner, inner).map(lambda t: Interleave(*t)),
    ),
    max_leaves=6,
)


@settings(max_examples=150, **COMMON)
@given(run_trees)
def test_runs_expand_to_the_terms(spec):
    """``iter_runs`` is the terms run by run: counts >= 1, None only for a
    last run without end; a family without runs says so with None."""
    runs = spec.iter_runs()
    if runs is None:
        assert not isinstance(spec._body, (Constant, RunLength))
        return
    terms, expanded = list(islice(spec.iter_terms(), 60)), []
    for (num, den), count in runs:
        if count is None:
            expanded += [F(num, den)] * (60 - len(expanded))
        else:
            assert count >= 1
            expanded += [F(num, den)] * count
        if len(expanded) >= 60:
            break
    assert expanded[:60] == terms


def _cursor_parts(tree, value):
    """``tree`` whole, then each strand of ``interleave(const(value), tree)``
    and the parts of its decomposition: so a constant strand over an affine
    map is always among them."""
    spec = Interleave(Constant(value), tree)
    parts = [PartStream(tree, IDENTITY_MAP, None)]
    parts += [PartStream(leaf, w, None) for leaf, w in strands(spec)]
    try:
        dec = decompose(spec)
    except MeanweaveError:
        return parts
    return parts + [p for p in (dec.b, dec.c, dec.d) if p is not None]


def _run_ends(part, count):
    """For each of the first ``count`` elements, the index past its run's
    last element (None when the run has no end); each element is its own
    run on a part whose strand has no runs or whose map is not affine."""
    runs = part.spec.iter_runs() if isinstance(part.witness, AffineMap) else None
    if runs is None:
        return list(range(1, count + 1))
    ends = []
    for _pair, size in runs:
        end = None if size is None else len(ends) + size
        ends += [end] * (count - len(ends) if size is None else size)
        if len(ends) >= count:
            return ends[:count]


cursor_ops = st.lists(st.one_of(
    st.tuples(st.just("take"), st.integers(0, 12)),
    st.just(("set_aside", 0)),
    st.just(("take_oldest", 0)),
), max_size=20)


@settings(max_examples=150, **COMMON)
@given(run_trees, rationals, st.data(), cursor_ops)
def test_part_cursor_emits_what_a_list_reference_gives(tree, value, data, ops):
    """The cursor against the part's emissions: ``take`` splits its count
    at run ends only, and ``left`` counts the head's run (None: no end)."""
    part = data.draw(st.sampled_from(_cursor_parts(tree, value)))
    ref = list(islice(part.emissions(), 12 * len(ops) + 1))
    ends = _run_ends(part, len(ref))
    head, aside = 0, []
    cur = PartCursor(part)
    for op, k in ops:
        assert cur.head == ref[head]
        assert cur.oldest() == (aside[0] if aside else ref[head])
        assert cur.left == (None if ends[head] is None else ends[head] - head)
        if op == "take":
            blocks = list(cur.take(k, "t"))
            cuts = sorted({head + k, *(e for e in ends[head:head + k] if e and e < head + k)})
            assert [b[2] for b in blocks] == [b - a for a, b in zip([head] + cuts, cuts) if b > a]
            got = [(src + step * j, value)
                   for tag, value, count, src, step in blocks for j in range(count)]
            assert all(b[0] == "t" for b in blocks)
            assert got == ref[head:head + k]
            head += k
        elif op == "set_aside":
            cur.set_aside()
            aside.append(ref[head])
            head += 1
        elif aside:
            assert cur.take_oldest() == aside.pop(0)
        else:
            assert cur.take_oldest() == ref[head]
            head += 1
    # blocks come lazily: a huge count yields its first block at once
    tag, value, count, src, _step = next(cur.take(10**12, "t"))
    assert (src, value, count) == (*ref[head], 10**12 if ends[head] is None else ends[head] - head)


# ---------------------------------------------------------------------------
# Block streams read like their emissions one at a time


@st.composite
def block_streams(draw):
    """Runs over m woven strands (strand r holds sources r, r + m, ...), each
    block the next stretch of one strand, with at most one mutation: a run
    that repeats one source, a single that a later run overlaps, or a strand
    that skips a source, which is then never emitted."""
    m = draw(st.integers(1, 4))
    values = draw(st.lists(st.fractions(-5, 5, max_denominator=3), min_size=m, max_size=m))
    picks = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(1, 12)),
                          min_size=1, max_size=25))
    mutation = draw(st.sampled_from(["none", "repeat", "overlap", "skip"]))
    at = draw(st.integers(0, len(picks) - 1))
    heads = list(range(1, m + 1))
    blocks = []
    for i, (k, size) in enumerate(picks):
        if mutation == "skip" and i == at:
            heads[k] += m
        blocks.append(("run", values[k], size, heads[k], m))
        heads[k] += m * size
    if mutation == "repeat":
        blocks.insert(at, ("repeat", values[0], draw(st.integers(2, 5)),
                           draw(st.integers(1, 30)), 0))
    elif mutation == "overlap":
        _tag, value, size, src, step = blocks[at]
        inside = src + step * draw(st.integers(0, size - 1))
        blocks.insert(draw(st.integers(0, at)), ("single", value, 1, inside, 0))
    return blocks


def outcome(call):
    try:
        return call()
    except (InjectivityViolation, CoverageViolation) as exc:
        return type(exc).__name__, vars(exc)


@settings(max_examples=300, **COMMON)
@given(block_streams(), st.integers(1, 60), st.lists(st.integers(1, 40), max_size=3),
       st.sampled_from([1, 2, 3, None]))
def test_block_streams_audit_and_trace_like_their_emissions(blocks, n, probes, slack):
    emissions = [(src + step * j, value, tag)
                 for tag, value, count, src, step in blocks for j in range(count)]
    # a certified bound slack*p + 5, or an uncertified stream (None)
    bound = None if slack is None else (lambda p: slack * p + 5)
    blocky = Rearrangement.of_blocks(None, lambda: iter(blocks), bound, "blocks")
    flat = Rearrangement(None, lambda: iter(emissions), bound, "flat")
    assert list(blocky.tagged_stream()) == emissions
    assert list(blocky.stream()) == [(src, value) for src, value, _tag in emissions]
    assert outcome(lambda: check_permutation(blocky, n, probes)) == outcome(
        lambda: check_permutation(flat, n, probes))
    entries = list(iter_trace(blocky))
    assert entries == list(iter_trace(flat))
    assert list(iter_trace(blocky, n)) == list(iter_trace(flat, n))
    total = F(0)
    for i, ((_src, value, _tag), e) in enumerate(zip(emissions, entries), 1):
        total += value
        assert (e.n, e.partial_sum) == (i, total)
        assert e.average == e.partial_sum / e.n


@st.composite
def period_block_streams(draw):
    """Plain runs and period blocks ``(None, total, count, rows, length)``
    over m woven strands (strand k holds sources k + 1, k + 1 + m, ...): a
    period row takes the next elements of one strand, and its advance is what
    one period takes of that strand, so the blocks play each strand in order.
    At most one mutation: a row with advance 0 (it plays its sources again at
    every repeat), a row moved onto sources of another row of its block, or
    a strand that skips a source, which is then never emitted.  With each
    draw comes a certified bound ``slack*p + 5`` or None (uncertified)."""
    m = draw(st.integers(1, 3))
    values = draw(st.lists(st.fractions(-5, 5, max_denominator=3), min_size=m, max_size=m))
    periods = draw(st.lists(st.booleans(), min_size=1, max_size=8))  # True: a period block
    mutation = draw(st.sampled_from(["none", "advance", "overlap", "skip"]))
    at = draw(st.integers(0, len(periods) - 1))
    heads = list(range(1, m + 1))
    blocks = []
    for i, period in enumerate(periods):
        if mutation == "skip" and i == at:
            heads[draw(st.integers(0, m - 1))] += m
        if not period:
            k, size = draw(st.integers(0, m - 1)), draw(st.integers(1, 12))
            blocks.append(("run", values[k], size, heads[k], m))
            heads[k] += m * size
            continue
        picks = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(1, 4)),
                              min_size=1, max_size=5))
        used = [0] * m
        rows = []
        for k, c in picks:
            rows.append((k, c, heads[k] + m * used[k]))
            used[k] += c
        rows = [[f"s{k}", values[k], c, s, m, m * used[k]] for k, c, s in rows]
        length = sum(c for _k, c in picks)
        repeats = draw(st.integers(1 if length > 1 else 2, 12))
        if mutation == "advance" and i == at:
            draw(st.sampled_from(rows))[5] = 0
        elif mutation == "overlap" and i == at and len(rows) > 1:
            a, b = draw(st.permutations(rows))[:2]
            b[3] = (a[3] + a[5] * draw(st.integers(0, repeats - 1))
                    + a[4] * draw(st.integers(0, a[2] - 1)))
        total = sum(value * c for _t, value, c, *_ in rows)
        blocks.append((None, total, repeats * length, tuple(map(tuple, rows)), length))
        heads = [h + m * u * repeats for h, u in zip(heads, used)]
    slack = draw(st.sampled_from([1, 2, 3, None]))
    return blocks, None if slack is None else (lambda p: slack * p + 5)


@seed(30)
@settings(max_examples=400, **COMMON)
@given(period_block_streams(), st.integers(1, 80), st.lists(st.integers(1, 40), max_size=3))
# past n, row b replays source 3 of row a's second repeat a rank before it: 1..3 at rank 3
@example(([("run", F(0), 1, 2, 1), (None, F(0), 6, (("a", F(0), 1, 1, 0, 2),
                                                    ("b", F(0), 1, 3, 0, 2)), 2)], None), 1, [3])
# a row of advance 0 plays source 1 at both repeats, the second past n: 1..3 at rank 4
@example(([(None, F(0), 4, (("a", F(0), 1, 1, 0, 0), ("b", F(0), 1, 2, 0, 1)), 2)], None), 2, [3])
def test_period_block_audits_match_the_audit_of_their_emissions(drawn, n, probes):
    blocks, bound = drawn
    emissions = []
    for tag, value, count, src, step in blocks:
        if tag is None:  # count // step repeats of the rows in src
            emissions += [(s + a * j + st_ * i, v, t) for j in range(count // step)
                          for t, v, c, s, st_, a in src for i in range(c)]
        else:
            emissions += [(src + step * j, value, tag) for j in range(count)]
    blocky = Rearrangement.of_blocks(None, lambda: iter(blocks), bound, "blocks")
    flat = Rearrangement(None, lambda: iter(emissions), bound, "flat")
    assert list(blocky.tagged_stream()) == emissions
    assert outcome(lambda: check_permutation(blocky, n, probes)) == outcome(
        lambda: check_permutation(flat, n, probes))


def windows_reference(avgs, windows):
    """Window k holds positions [from_k, from_{k+1}) strictly inside
    (lo_k, hi_k), tested position by position with Fractions."""
    for m, a in enumerate(avgs, 1):
        held = [w for w in windows if w[0] <= m]
        if held and not held[-1][1] < a < held[-1][2]:
            return False
    return True


@settings(max_examples=300, **COMMON)
@given(block_streams(), st.data())
def test_window_checks_over_runs_match_a_per_position_reference(blocks, data):
    """check_schedule and check_tube read a live trace as runs, split where a
    window starts inside a run; the verdict is the one a per-entry read and a
    Fraction reference give, also for bounds equal to an attained average."""
    positions = sum(count for _tag, _value, count, _src, _step in blocks)
    n = data.draw(st.integers(1, positions))  # a horizon that may cut a run
    r = Rearrangement.of_blocks(None, lambda: iter(blocks), None, "blocks")
    avgs, total = [], F(0)
    for _src, value in islice(r.stream(), n):
        total += value
        avgs.append(total / (len(avgs) + 1))
    entries = list(iter_trace(r, n))
    stated = [TraceEntry(e.n, e.source_index, e.value, e.partial_sum, e.average)
              for e in entries]
    slack = st.sampled_from([F(0), F(0), F(1, 1000), F(1), F(-1, 1000)])  # 0: attained

    starts = sorted(data.draw(st.sets(st.integers(1, n + 1), min_size=1, max_size=4)))
    windows = []
    for a, b in zip(starts, starts[1:] + [n + 1]):
        held = avgs[a - 1:b - 1] or [data.draw(st.fractions(-6, 6, max_denominator=3))]
        windows.append((a, min(held) - data.draw(slack), max(held) + data.draw(slack)))
    schedule = [ScheduleEntry(lo, hi, a, "tube", 1) for a, lo, hi in windows]
    want = windows_reference(avgs, windows)
    for t in (iter_trace(r, n), entries, stated):
        assert check_schedule(t, schedule) == want

    from_index = data.draw(st.integers(1, n + 1))
    tail = avgs[from_index - 1:] or avgs
    target = data.draw(st.sampled_from([POS_INF, NEG_INF]) | st.sampled_from(tail)
                       | st.fractions(-6, 6, max_denominator=3))
    if target is POS_INF:
        m = max(min(tail) - data.draw(slack), F(1, 7))
        eps, lo, hi = 1 / m, m, None
    elif target is NEG_INF:
        m = min(max(tail) + data.draw(slack), F(-1, 7))
        eps, lo, hi = -1 / m, None, m
    else:
        eps = max(abs(a - target) for a in tail) + data.draw(slack)
        eps = eps if eps > 0 else F(1, 5)
        lo, hi = target - eps, target + eps
    want = all((lo is None or lo < a) and (hi is None or a < hi)
               for a in avgs[from_index - 1:])
    for t in (iter_trace(r, n), entries, stated):
        assert check_tube(t, target, eps, from_index) == want


# ---------------------------------------------------------------------------
# The running sum and the shared run formula against Fraction arithmetic


@settings(max_examples=150, **COMMON)
@given(st.lists(st.tuples(st.one_of(rationals, prime_fractions,
                                    st.fractions(-3, 3, max_denominator=10**12)),
                          st.integers(0, 6), rationals),
                min_size=1, max_size=40))
def test_running_sum_adds_and_runs_like_fractions(ops):
    """``add`` (once for k = 0, k times for k >= 1) keeps the sum num/den
    over n and ``cmp`` equal to a Fraction sum, also once huge denominators
    force a reduction; ``toward``/``first_positive`` find the first k more
    values that put the average above the bound."""
    ra = RunningAverage()
    total, n = F(0), 0
    for value, k, bound in ops:
        if k == 0:
            ra.add(value)
        else:
            ra.add(value, k)
        total += value * max(k, 1)
        n += max(k, 1)
        avg = total / n
        assert F(ra.num, ra.den * ra.n) == avg
        assert ra.cmp(bound) == (avg > bound) - (avg < bound)
        first = next((j for j in range(200) if (total + j * value) / (n + j) > bound), None)
        got = first_positive(*ra.toward(value, bound))
        assert got == first if first is not None else got is None or got >= 200


class _Run:
    """The cursor ``swing`` reads: ``left`` elements of one value v from
    source 1 on, step 1 (``left`` None: a run without end)."""

    def __init__(self, v, left):
        self.head, self.left, self.step = (1, v), left, 1

    def skip(self, k):
        self.head = (self.head[0] + k, self.head[1])
        self.left = None if self.left is None else self.left - k


@seed(32)
@settings(max_examples=400, **COMMON)
@given(st.lists(rationals, max_size=5), rationals, st.one_of(st.none(), st.integers(1, 8)),
       st.one_of(rationals, st.integers(1, 6)), st.booleans(), st.booleans(),
       st.one_of(st.none(), st.integers(1, 5)))
def test_swing_ends_where_an_element_by_element_loop_does(prior, v, left, bound, up, reach, cap):
    """One ``swing`` block against Fraction arithmetic one element at a time,
    after a prior sum: the elements it takes, at most ``cap`` and ``left``,
    whether the last ends the swing (the average past ``bound``, above if
    ``up``, or onto it with ``reach``) and the sum after them.  An integer
    bound j stands for the average after j elements of v, met exactly."""
    total, n = sum(prior, F(0)), len(prior)
    if isinstance(bound, int):
        bound = (total + bound * v) / (n + bound)
    limit = min((x for x in (left, cap) if x is not None), default=2000)
    k, ended = 0, False
    while k < limit and not ended:
        k += 1
        avg = (total + k * v) / (n + k)
        ended = (avg > bound if up else avg < bound) or (reach and avg == bound)
    assume(ended or limit < 2000)  # a swing without an end has no block count
    ra, cur = RunningAverage(), _Run(v, left)
    for x in prior:
        ra.add(x)
    assert ra.swing(cur, bound, up, reach, "t", cap) == (("t", v, k, 1, 1), ended)
    assert (ra.n, F(ra.num, ra.den), cur.head) == (n + k, total + k * v, (1 + k, v))


# ---------------------------------------------------------------------------
# Extras enter at the slots of the stated schedule


def slot_reference(core, extras):
    """merge_preserving's emissions from the slot rule as stated: the l-th
    extra at output position max(slot_{l-1} + 1, (l+1)**3 * ceil(max(1, |e_l|))),
    the core in its order at every other position up to its end."""
    at, slot = {}, 0
    for l, (src, e) in enumerate(extras, 1):
        slot = max(slot + 1, (l + 1) ** 3 * math.ceil(max(1, abs(e))))
        at[slot] = (src, e, "extra")
    out = []
    for item in core:
        while len(out) + 1 in at:
            out.append(at[len(out) + 1])
        out.append(item)
    return out


@st.composite
def gated_cores(draw):
    """A limit, core runs whose averages settle near it, and deferred extras."""
    limit = draw(st.sampled_from([F(0), F(1, 2), F(-2), POS_INF, NEG_INF]))
    if isinstance(limit, F):
        values = st.sampled_from([limit + d for d in (F(-1), F(-1, 3), 0, F(1, 2), 1)])
        limit = ExtendedReal(limit)
    else:
        sign = 1 if limit is POS_INF else -1
        values = st.integers(5, 60).map(lambda v: F(sign * v))
    runs = draw(st.lists(st.tuples(values, st.integers(1, 40)), min_size=1, max_size=25))
    extras = draw(st.lists(
        st.one_of(st.just(F(0)), st.fractions(-30, 30, max_denominator=4)), max_size=8))
    return limit, runs, [(10**6 + i, e) for i, e in enumerate(extras)]


@settings(max_examples=200, **COMMON)
@given(gated_cores())
def test_merge_preserving_admits_alike_over_runs_and_singles(drawn):
    """A core of runs and the same core cut into blocks of one give the same
    stream, and both put each extra at its slot, finite limit or infinite:
    passing runs whole up to the next slot hides no extra."""
    limit, runs, extras = drawn
    blocks, src = [], 1
    for value, count in runs:
        blocks.append(("core", value, count, src, 1))
        src += count
    singles = [(tag, value, 1, src + j, 0)
               for tag, value, count, src, _step in blocks for j in range(count)]
    streams = [
        list(merge_preserving(
            Rearrangement.of_blocks(None, lambda b=b: iter(b), None, "core", limit),
            extras).tagged_stream())
        for b in (blocks, singles)
    ]
    core = [(src, value, tag) for tag, value, _one, src, _step in singles]
    assert streams[0] == streams[1] == slot_reference(core, extras)


@st.composite
def middle_targets(draw):
    """A bounded spec of 3-5 distinct constant strands in a random order, so
    1-3 middle strands, and a target strictly inside its hull."""
    values = draw(st.lists(rationals, min_size=3, max_size=5, unique=True))
    lo, hi = min(values), max(values)
    t = draw(st.fractions(lo, hi, max_denominator=24).filter(lambda x: lo < x < hi))
    order = draw(st.permutations(values))
    text = f"const({order[-1]})"
    for v in reversed(order[:-1]):
        text = f"interleave(const({v}), {text})"
    return text, t


# fixed before the first run: every count within LAG of n*w at every prefix
# up to HORIZON; the average is then within LAG*sum|l - t|/HORIZON <= 3*5*40/20000
# of the target, inside TOLERANCE
LAG, HORIZON, TOLERANCE = 3, 20_000, F(1, 25)


@settings(max_examples=40, **COMMON)
@given(middle_targets())
def test_middle_strands_merge_at_positive_density(drawn):
    text, t = drawn
    r = construct_target(parse_spec(text), t)
    weights = dict(r.meta["weights"])  # strand limit -> weight; limits are distinct
    assert len(weights) == text.count("const")
    assert all(w > 0 for w in weights.values())
    assert sum(weights.values()) == 1
    assert sum(w * limit for limit, w in weights.items()) == t

    den = math.lcm(*(w.denominator for w in weights.values()))
    # per strand [count, w*den]; a strand's count - n*w falls between its
    # emissions, so it is least just before one and greatest just after
    strands = {v: [0, int(w * den)] for v, w in weights.items()}
    for n, (_src, value, _tag) in enumerate(islice(r.tagged_stream(), HORIZON), 1):
        strand = strands[value]
        c, scaled = strand
        assert c * den - (n - 1) * scaled >= -LAG * den
        assert (c + 1) * den - n * scaled <= LAG * den
        strand[0] = c + 1
    for c, scaled in strands.values():
        assert c * den - HORIZON * scaled >= -LAG * den
    average = sum(c * v for v, (c, _scaled) in strands.items()) / HORIZON
    assert abs(average - t) < TOLERANCE

    report = check_permutation(r, 1000, probes=(10, 100, 1000))
    assert all(bound is not None and at <= bound for _p, bound, at in report.coverage)


@st.composite
def two_strand_targets(draw):
    """A bounded spec of two constant strands and a target strictly inside."""
    lo, hi = sorted(draw(st.lists(rationals, min_size=2, max_size=2, unique=True)))
    t = draw(st.fractions(lo, hi, max_denominator=24).filter(lambda x: lo < x < hi))
    return f"interleave(const({lo}), const({hi}))", t


# 60 examples from seed 26 to horizon 2,000; the trace's sources, values and
# partial sums are those of the stream with no period and its running sums,
# to the horizon and to horizons cutting each period block at its first,
# second and a drawn position; 1-3 windows start at positions
# inside period blocks (anywhere when there are none), each bounded by the
# extreme averages it holds, widened by one slack drawn per schedule: 0
# (attained, so the check must fail), 1/1000 (twice as likely) or -1/1000;
# the tube's from index is drawn the same way and its eps is the largest
# deviation after it, plus such a slack; a failure is reported as drawn,
# since shrinking 2,000-position examples takes minutes
PERIOD_HORIZON = 2_000


@seed(26)
@settings(max_examples=60, phases=[p for p in Phase if p is not Phase.shrink], **COMMON)
@given(middle_targets() | two_strand_targets(), st.data())
def test_period_blocks_check_and_audit_like_their_positions(drawn, data):
    text, t = drawn
    r = construct_target(parse_spec(text), t)
    # a merge that may record no row streams block by block, as before periods
    saved, rearrange.PERIOD_BLOCKS = rearrange.PERIOD_BLOCKS, 0
    try:
        reference = list(islice(construct_target(parse_spec(text), t).tagged_stream(),
                                PERIOD_HORIZON))
    finally:
        rearrange.PERIOD_BLOCKS = saved
    assert list(islice(r.tagged_stream(), PERIOD_HORIZON)) == reference
    inside, pos = [], 0  # the positions each period block covers
    for tag, _value, count, *_ in r.blocks():
        if tag is None:
            inside.append((pos + 1, min(pos + count, PERIOD_HORIZON)))
        pos += count
        if pos >= PERIOD_HORIZON:
            break
    entries = list(iter_trace(r, PERIOD_HORIZON))
    sums = list(accumulate(value for _src, value, _tag in reference))
    assert [(e.source_index, e.value, e.partial_sum) for e in entries] == [
        (src, value, total) for (src, value, _tag), total in zip(reference, sums)]
    # horizons that cut a period block at its first, second and a drawn position
    for a, b in inside:
        for n in {a, min(a + 1, b), data.draw(st.integers(a, b))}:
            last = list(iter_trace(r, n))[-1]
            assert (last.n, last.source_index, last.value, last.partial_sum) == (
                n, reference[n - 1][0], reference[n - 1][1], sums[n - 1])
    avgs = [e.average for e in entries]

    def start():
        a, b = data.draw(st.sampled_from(inside)) if inside else (1, PERIOD_HORIZON)
        return data.draw(st.integers(a, b))

    slack = st.sampled_from([F(0), F(1, 1000), F(1, 1000), F(-1, 1000)])
    starts = sorted({start() for _ in range(data.draw(st.integers(1, 3)))})
    widen = data.draw(slack)
    schedule = [ScheduleEntry(min(avgs[a - 1:b - 1]) - widen, max(avgs[a - 1:b - 1]) + widen,
                              a, "tube", 1)
                for a, b in zip(starts, starts[1:] + [PERIOD_HORIZON + 1])]
    assert check_schedule(iter_trace(r, PERIOD_HORIZON), schedule) == check_schedule(
        entries, schedule)
    from_index = start()
    eps = max(abs(a - t) for a in avgs[from_index - 1:]) + data.draw(slack)
    if eps > 0:
        assert check_tube(iter_trace(r, PERIOD_HORIZON), t, eps, from_index) == check_tube(
            entries, t, eps, from_index)

    def singles():
        return ((tag, value, 1, src, 0) for src, value, tag in r.tagged_stream())

    unrolled = Rearrangement.of_blocks(None, singles, r.coverage_bound, "singles")
    assert outcome(lambda: check_permutation(r, 500, (10, 100))) == outcome(
        lambda: check_permutation(unrolled, 500, (10, 100)))


# ---------------------------------------------------------------------------
# Two-sided steering in closed form reads like the greedy, element by element


@st.composite
def two_sided_targets(draw):
    """A spec diverging both ways: each side a ``runlen(2)`` or ``runlen(4)``
    strand, perhaps under an affine map of positive scale, the low one
    negated, either perhaps behind a prefix; perhaps a middle strand of
    constants, whose elements come back as extras; and a target p/q in
    [-12, 12]."""
    def side(negate):
        text = f"runlen({draw(st.sampled_from([2, 4]))})"
        if draw(st.booleans()):
            scale = draw(st.fractions(F(1, 4), 3, max_denominator=4).filter(lambda x: x > 0))
            text = f"affine({text}, {scale}, {draw(st.fractions(-3, 3, max_denominator=3))})"
        if negate:
            text = f"neg({text})"
        if draw(st.booleans()):
            values = draw(st.lists(st.fractions(-9, 9, max_denominator=2), min_size=1, max_size=3))
            text = f"prefix({', '.join(map(str, values))}, {text})"
        return text

    low, high = side(True), side(False)
    middle = draw(st.sampled_from(
        [None, "const(0)", "const(5/2)", "interleave(const(1/3), const(-2/7))"]))
    high = high if middle is None else f"interleave({high}, {middle})"
    q = draw(st.integers(1, 4))
    return f"interleave({low}, {high})", F(draw(st.integers(-12 * q, 12 * q)), q)


def greedy_two_sided(text, t, count):
    """The first ``count`` tagged emissions of the two-sided greedy, one
    element at a time: a high swing takes +inf-side elements, at least one,
    while the average is below t, then a low swing -inf-side elements while
    it is above; the l-th middle element takes the steering step at
    slot_l = max(slot_{l-1} + 1, (l+1)**3 * ceil(max(1, |e_l|)))."""
    dec = decompose(parse_spec(text))
    extras, slot = {}, 0
    for l in range(1, 20 if dec.d is not None else 1):
        value = dec.d.spec.term(l)
        slot = max(slot + 1, (l + 1) ** 3 * max(1, math.ceil(abs(value))))
        extras[slot] = dec.d.witness(l), value, "extra"
    taken, out, total = {"high": 0, "low": 0}, [], F(0)
    while True:
        for part, tag, sign in ((dec.c, "high", -1), (dec.b, "low", 1)):
            first = True
            while first or sign * (total - t * len(out)) > 0:
                if len(out) + 1 in extras:
                    out.append(extras[len(out) + 1])
                else:
                    taken[tag] += 1
                    k = taken[tag]
                    out.append((part.witness(k), part.spec.term(k), tag))
                    first = False
                total += out[-1][1]
                if len(out) == count:
                    return out


@seed(29)
@settings(max_examples=40, phases=[p for p in Phase if p is not Phase.shrink], **COMMON)
@given(two_sided_targets(), st.data())
def test_two_sided_blocks_read_like_the_greedy_element_by_element(drawn, data):
    """The first 3,000 tagged emissions equal the reference's, and the
    trace cut at a drawn horizon inside each of a few drawn blocks (period
    blocks among them when there are any) ends on the reference's entry."""
    text, t = drawn
    r = construct_target(parse_spec(text), t)
    expected = greedy_two_sided(text, t, 3_000)
    assert list(islice(r.tagged_stream(), 3_000)) == expected
    spans, pos = [], 0
    for tag, _value, count, *_ in r.blocks():
        if pos + count > 3_000:
            break
        spans.append((tag is None, pos + 1, pos + count))
        pos += count
    periods = [s for s in spans if s[0]]
    drawn_spans = data.draw(st.lists(st.sampled_from(periods or spans), min_size=1, max_size=3))
    sums = list(accumulate(value for _src, value, _tag in expected))
    for _period, a, b in drawn_spans:
        n = data.draw(st.integers(a, b))
        last = list(iter_trace(r, n))[-1]
        assert (last.n, last.source_index, last.value, last.partial_sum) == (
            n, expected[n - 1][0], expected[n - 1][1], sums[n - 1])


# ---------------------------------------------------------------------------
# Realizer jump rule


def fraction_landing(x, stage, m_floor, span1):
    """The jump rule in Fraction arithmetic, as ``select_jump`` wrote it
    before it ran in integers: P, or None when x is passed over."""
    h = Fraction(1, stage + 1)
    magnitude = abs(x)
    if magnitude > 1:
        p_low = max(m_floor + 1, math.isqrt(math.ceil(9 * magnitude / h)) + 1)
        if span1 * p_low < magnitude:
            return p_low
    return None


@st.composite
def jump_cases(draw):
    """(x, stage, m_floor, span1) for steering levels a < b and a length n,
    with x = p/q (q <= 7, either sign) at |x| = 1, near the edge span1·P =
    |x| at the least landing position, at or just off a square of 9|x|/h
    (where the ceiling decides P), or anywhere."""
    stage = draw(st.integers(0, 60))
    a = draw(st.fractions(min_value=-6, max_value=6, max_denominator=9))
    b = a + draw(st.fractions(min_value=F(1, 9), max_value=8, max_denominator=9))
    k_bound, span1 = max(abs(a - 1), abs(b + 1)), b - a + 1
    h = Fraction(1, stage + 1)
    m_floor = max(draw(st.integers(0, 10**5)),
                  math.ceil(9 * k_bound / h), math.ceil(18 * span1 / h))
    r = 9 * (stage + 1)
    q, d = draw(st.integers(1, 7)), draw(st.integers(-2, 2))
    kind = draw(st.sampled_from(["one", "edge", "square", "any"]))
    if kind == "one":
        p = q + d
    elif kind == "edge":
        p = math.floor(span1 * (m_floor + 1) * q) + d
    elif kind == "square":  # r·|x| = s² - j/q, for the first s found where r divides q·s² - j
        s, j = m_floor + 1 + draw(st.integers(0, 10**4)), draw(st.integers(-q, q))
        s = next((t for t in range(s, s + r) if (q * t * t - j) % r == 0), s)
        p = (q * s * s - j) // r
    else:
        p = draw(st.integers(0, 10**9))
    return F(p, q) * draw(st.sampled_from([1, -1])), stage, m_floor, span1


@seed(31)
@settings(max_examples=600, **COMMON)
@given(jump_cases())
def test_the_integer_jump_rule_matches_the_fraction_rule(case):
    x, stage, m_floor, span1 = case
    got = _landing(x, 9 * (stage + 1), m_floor + 1, span1)
    assert got == fraction_landing(x, stage, m_floor, span1)
