"""Rearrangement constructors: lazy injective index streams steering averages.

``construct_target`` is the entry point for a finite target: it derives a
spec's profile and decomposition once and routes the parts to the
part-level constructors here (weighted merge, two-sided balance, the climb
above the limsup, the limit-preserving merge, the mirror); ``oscillator``
builds an average with no limit.

Every constructor here returns a ``Rearrangement``: a deterministic stream of
``(source_index, value)`` pairs that is injective by construction and comes
with a coverage bound for the audits, or None when nothing certifies one.
Only the identity and the weighted merge certify theirs; the others pass
None, and the audit reports their coverage without a bound.

Streams are lazy and restartable: ``stream()`` always starts a fresh,
independent iterator (the constructors are deterministic, so every restart
replays the same emissions).

Each constructor builds its stream from blocks ``(tag, value, count,
first_src, step)`` (``Rearrangement.of_blocks``): ``count`` emissions of one
value from the sources ``first_src + step*j``.  Runs (count > 1) come only
from a strand with runs (``SequenceSpec.iter_runs``) over an ``AffineMap``,
cut by ``PartCursor.take`` (the weighted merge's stretch between two lead
positions, a core's takes of doubling length, the climb's fill gaps) or
by the steering kernel ``RunningAverage.swing`` (each swing of the
oscillator, the two-sided steering and the realizer, one block per run
of its side, its length from ``first_positive``).
``mirror_rearrangement`` passes runs through, and ``merge_preserving``
splits them only at slots.  Every run steps the running sum by one
integer.  Period blocks ``(None, total, count, rows, length)`` play rows
``(tag, value, count, first_src, step, advance)`` count // length times,
sources moved by advance a repeat; count > 1: a weighted merge of constant
parts past its first period, and each two-sided alternation stretch.

Elements that must come back at vanishing density (the extras) enter at
fixed output positions: the l-th at slot_l = max(slot_{l-1} + 1,
(l+1)**3 * ceil(max(1, |e_l|))) (``_slots``), a rule that reads neither the
running average nor the limit.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from fractions import Fraction
from typing import Callable, Iterator, List, Optional, Tuple

from .balance import BalanceKind, Condition, balanced_verdict, density_report
from .errors import (
    DegenerateRange,
    DensityFails,
    MalformedDescriptor,
    NotBalanced,
    NotDivergent,
    TargetNotAbove,
    TargetUnreachable,
    UndeclaredLimit,
    WeightOutOfRange,
)
from .extreal import NEG_INF, POS_INF, ExtendedReal, as_fraction, widen
from .seqspec import (
    IDENTITY_MAP,
    IndexMap,
    PartCursor,
    PartStream,
    SequenceSpec,
    decompose,
    limited_strands,
    profile,
    push_pointwise,
    strands,
)

Emission = Tuple[int, Fraction]
TaggedEmission = Tuple[int, Fraction, str]
Block = Tuple[str, Fraction, int, int, int]  # (tag, value, count, first_src, step)
PERIOD_BLOCKS = 4096  # the most rows a merge records for a period block


# ---------------------------------------------------------------------------
# The steering kernel: an exact running sum

class RunningAverage:
    """The steering kernel: the exact sum num/den of the first n values.

    The sum is an unreduced numerator/denominator pair that grows only when
    a value's denominator does not divide it, so that sums of integers or of
    values over a few denominators never pay for rational normalization;
    comparisons against rational bounds are integer cross-multiplications,
    and ``swing`` takes a side's elements run by run until one passes a bound.
    """

    __slots__ = ("n", "num", "den")

    def __init__(self):
        self.n = 0
        self.num = 0
        self.den = 1

    def add(self, value: Fraction, k: int = 1):
        """Add ``value`` k times, as one update."""
        vd = value.denominator
        if self.den % vd:
            self.num, self.den = widen(self.num, self.den, vd)
        self.num += value.numerator * (self.den // vd) * k
        self.n += k

    def cmp(self, bound: Fraction, x: Optional[Fraction] = None) -> int:
        """Sign of (average - bound) after also adding x, if given; n >= 1."""
        c0 = self.toward(bound, bound, x)[0]  # k = 0: v only scales c0
        return (c0 > 0) - (c0 < 0)

    def toward(self, v: Fraction, bound: Fraction, x: Optional[Fraction] = None):
        """(c0, c1): c0 + k*c1 has the sign of the average after k more v's
        (and then x, if given) minus bound.  Along such a run the average
        moves monotonically toward v, so ``first_positive`` finds where a
        comparison first flips."""
        num, den, m = self.num, self.den, self.n
        if x is not None:
            xn, xd = x.numerator, x.denominator
            num, den, m = num * xd + xn * den, den * xd, m + 1
        bn, bd = bound.numerator, bound.denominator
        return ((num * bd - bn * m * den) * v.denominator,
                (v.numerator * bd - bn * v.denominator) * den)

    def swing(self, cur: PartCursor, bound: Fraction, up: bool, reach: bool,
              tag: str, cap: Optional[int] = None):
        """(block, ended): the next block of a swing that takes ``cur``'s
        elements, added to the sum, at most ``cap`` of them and all in the
        head's run.  The swing ends at the first element (at least one) that
        takes the average above ``bound`` if ``up``, else below it, or onto
        it as well if ``reach``; ``ended`` tells whether the block holds it."""
        src, v = cur.head
        if self.den % v.denominator:
            self.num, self.den = widen(self.num, self.den, v.denominator)
        num, den, bn, bd = self.num, self.den, bound.numerator, bound.denominator
        vi = v.numerator * (den // v.denominator)  # v over den
        c0, c1 = num * bd - bn * den * self.n, vi * bd - bn * den  # toward(v, bound) / vd
        if not up:
            c0, c1 = -c0, -c1
        j = first_positive(c0 + c1 + reach, c1)
        end = None if j is None else j + 1  # the element that ends the swing
        k = min(filter(None, (end, cur.left, cap)))  # each >= 1 or None
        cur.skip(k)
        self.num, self.n = num + vi * k, self.n + k
        return (tag, v, k, src, cur.step), k == end


def first_positive(c0: int, c1: int) -> Optional[int]:
    """The first k >= 0 with c0 + k*c1 > 0, or None when there is none."""
    if c0 > 0:
        return 0
    return -c0 // c1 + 1 if c1 > 0 else None


# ---------------------------------------------------------------------------
# The Rearrangement type

class Rearrangement:
    """Deterministic lazy rearrangement of a source sequence.

    The stream is a factory of blocks ``(tag, value, count, first_src, step)``
    with ``step >= 0`` or period blocks, built by ``of_blocks``; ``blocks()``
    starts it afresh (the trace walker and the permutation audit read these),
    ``unrolled()`` unrolls its period blocks into their rows, and ``stream()``
    and ``tagged_stream()`` expand it.  The keyword constructor adapts a
    ``factory`` of tagged emissions ``(source_index, value, tag)``, each read as
    a block of one.  A ``coverage_bound`` of None means the stream is uncertified.
    """

    def __init__(
        self,
        source: SequenceSpec,
        factory: Optional[Callable[[], Iterator[TaggedEmission]]],
        coverage_bound: Optional[Callable[[int], int]],
        name: str,
        limit_in_average: Optional[ExtendedReal] = None,
        meta: Optional[dict] = None,
    ):
        self.source = source
        self._blocks = lambda: ((tag, value, 1, src, 0) for src, value, tag in factory())
        self.coverage_bound = coverage_bound
        self.name = name
        self.limit_in_average = limit_in_average
        self.meta = dict(meta or {})

    @classmethod
    def of_blocks(
        cls,
        source: SequenceSpec,
        blocks: Callable[[], Iterator[Block]],
        coverage_bound: Optional[Callable[[int], int]],
        name: str,
        limit_in_average: Optional[ExtendedReal] = None,
        meta: Optional[dict] = None,
    ) -> "Rearrangement":
        r = cls(source, None, coverage_bound, name, limit_in_average, meta)
        r._blocks = blocks
        return r

    def blocks(self) -> Iterator[Block]:
        """Fresh block iterator from the beginning."""
        return self._blocks()

    def unrolled(self) -> Iterator[Block]:
        """``blocks()`` with each period block unrolled into its rows."""
        for block in self.blocks():
            if block[0] is None:  # (None, total, count, rows, length)
                for j in range(block[2] // block[4]):
                    for t, v, n, s, st, a in block[3]:
                        yield t, v, n, s + a * j, st
            else:
                yield block

    def tagged_stream(self) -> Iterator[TaggedEmission]:
        """Fresh (source_index, value, tag) iterator from the beginning."""
        for tag, value, count, src, step in self.unrolled():
            if count == 1:
                yield src, value, tag
            else:
                sources = itertools.count(src, step)
                yield from zip(sources, itertools.repeat(value, count), itertools.repeat(tag))

    def stream(self) -> Iterator[Emission]:
        """Fresh (source_index, value) iterator from the beginning."""
        for src, value, _tag in self.tagged_stream():
            yield src, value

    def __repr__(self):
        return f"Rearrangement({self.name})"


def _core_stream(part: PartStream, source, coverage_bound, name) -> Rearrangement:
    """A stream that plays ``part`` in its own order, tagged "core": takes
    of doubling length, cut at run ends on a strand with runs over an
    affine map, blocks of one on any other part."""

    def blocks():
        cur, k = PartCursor(part), 1
        while True:
            yield from cur.take(k, "core")
            k *= 2

    return Rearrangement.of_blocks(source, blocks, coverage_bound, name, part.limit)


def identity_rearrangement(
    spec: SequenceSpec, limit_in_average: Optional[ExtendedReal] = None
) -> Rearrangement:
    return _core_stream(
        PartStream(spec, IDENTITY_MAP, limit_in_average), spec, lambda n: n, "identity"
    )


# ---------------------------------------------------------------------------
# Slot schedule of deferred elements


def _slots(deferred: Iterator[Emission]) -> Iterator[Tuple[int, int, Fraction]]:
    """(slot, source_index, value) of each deferred element, in order.

    The l-th element e_l enters at output position
    slot_l = max(slot_{l-1} + 1, (l+1)**3 * ceil(max(1, |e_l|))), read off
    l and |e_l| alone: neither the running average nor the limit.  By
    position n about n**(1/3) extras are placed, each with |e_l| <= n/(l+1)**3,
    so for every K they sum to at most S_K + n/K (S_K the first K): o(n), and
    the core's average limit, finite or infinite, survives.
    """
    slot = 0
    for l, (src, value) in enumerate(deferred, 1):
        size = max(1, -(-abs(value.numerator) // value.denominator))
        slot = max(slot + 1, (l + 1) ** 3 * size)
        yield slot, src, value


def merge_preserving(core: Rearrangement, extras) -> Rearrangement:
    """Weave deferred elements into a stream without moving its average limit.

    ``extras`` is a ``PartStream`` or an ordered collection of
    (source_index, value) pairs; the l-th enters at the output position
    slot_l of the slot schedule (``_slots``), and the core keeps its order
    in the positions between.  A run of the core passes whole up to the
    next slot.
    """
    if core.limit_in_average is None:
        raise UndeclaredLimit("core rearrangement has no declared average limit")
    if isinstance(extras, PartStream):
        fresh_extras = extras.emissions
    else:
        fresh_extras = tuple(extras).__iter__

    def blocks():
        due = _slots(fresh_extras())
        nxt = next(due, None)
        pos = 0
        for tag, value, count, src, step in core.unrolled():
            while count:
                while nxt is not None and nxt[0] == pos + 1:
                    pos += 1
                    yield "extra", nxt[2], 1, nxt[1], 0
                    nxt = next(due, None)
                k = count if nxt is None else min(count, nxt[0] - pos - 1)
                yield tag, value, k, src, step
                pos += k
                src += step * k
                count -= k

    return Rearrangement.of_blocks(
        source=core.source,
        blocks=blocks,
        coverage_bound=None,
        name=f"merge_preserving({core.name})",
        limit_in_average=core.limit_in_average,
        meta=dict(core.meta),
    )


# ---------------------------------------------------------------------------
# Weighted merge of convergent streams


def weighted_merge(
    a_stream: PartStream, b_stream: PartStream, alpha: Fraction, rest=()
) -> Rearrangement:
    """Interleave convergent streams, each at a positive asymptotic density.

    ``rest`` holds further (part, weight) pairs; a and b share what their
    weights leave as alpha : 1-alpha.  So part i holds weight w_i > 0, the
    weights sum to 1 (``meta["weights"]`` lists each (limit, w_i)), and the
    average tends to sum w_i * limit_i.  A weight of 0 or less is refused.

    The part of largest weight (the last of equals) fills; the others, of
    weight w_L together, lead.  Lead emission c+1 sits at position
    ceil(c/w_L) (the first at 1) and goes to the lead j of largest priority
    (c+1)*w_j - count_j*w_L, the first of equals; the filler's stretch
    between two lead emissions is one gap, cut only at the filler's run
    ends (``PartCursor.take``).  All of it is integer arithmetic over the weights'
    common denominator.

    Coverage: after N positions the filler lags N*w_fill by at most 1, and a
    lead, as the chosen priority is positive (they sum to w_L), lags its
    share of the lead emissions by less than k-2 over k parts.  So part i's
    K-th element comes by position ceil(1/w_min)*(K + k-1), with K the
    ``IndexMap.rank_bound`` of the sources up to n.
    """
    alpha = as_fraction(alpha)
    parts = [a_stream, b_stream] + [part for part, _w in rest]
    if not all(part.limit is not None and part.limit.is_finite for part in parts):
        raise UndeclaredLimit("weighted merge needs finite declared limits")
    share = 1 - sum(as_fraction(w) for _part, w in rest)
    weights = [share * alpha, share * (1 - alpha)] + [as_fraction(w) for _part, w in rest]
    if min(weights) <= 0:
        raise WeightOutOfRange(f"every weight must be positive, got {weights}")
    k = len(parts)
    den = math.lcm(*(w.denominator for w in weights))
    ws = [w.numerator * (den // w.denominator) for w in weights]  # sum to den
    fill = max(range(k), key=lambda i: (ws[i], i))
    tags = ["lead", "lead"] + ["rest"] * (k - 2)
    if fill < 2:
        tags[fill] = "other"
    leads = [i for i in range(k) if i != fill]
    lead_ws = [ws[j] for j in leads]
    lead_w = den - ws[fill]
    chooses = len(leads) > 1  # one lead leaves nothing to choose

    def blocks():
        curs = [PartCursor(part) for part in parts]
        filler, fill_tag = curs[fill], tags[fill]
        lead_curs, lead_tags = [curs[j] for j in leads], [tags[j] for j in leads]
        # rows of lead emissions 2..lead_w+1 and their gaps: one period
        period = [] if all(cur.left is None for cur in curs) else None
        priority = [0] * len(leads)
        i = c = 0
        pos = 1  # of the first lead emission
        while period is None or c <= lead_w:
            if chooses:
                priority = [p + w for p, w in zip(priority, lead_ws)]
                i = priority.index(max(priority))
                priority[i] -= lead_w
            src, value = lead_curs[i].advance()
            yield lead_tags[i], value, 1, src, 0
            c += 1
            head = -(-c * den // lead_w)  # > pos, as lead_w < den
            gap = head - pos - 1
            if period is not None and c > 1:  # (tag, value, count, first_src, step, advance)
                period.append((lead_tags[i], value, 1, src, 0, ws[leads[i]] * lead_curs[i].step))
                if gap:
                    period.append((fill_tag, filler.head[1], gap, filler.head[0],
                                   filler.step, ws[fill] * filler.step))
                period = period if len(period) <= PERIOD_BLOCKS else None
            if gap == 1:  # the common gap, without a generator
                src, value = filler.advance()
                yield fill_tag, value, 1, src, 0
            elif gap:  # adjacent lead positions leave no gap
                yield from filler.take(gap, fill_tag)
            pos = head
        # choices and lead positions recur; part i's sources advance ws[i] steps
        total = sum(value * count for _t, value, count, *_ in period)
        for repeats in (1 << j for j in itertools.count()):
            yield None, total, repeats * den, tuple(
                (t, v, n, s + a * repeats, st, a) for t, v, n, s, st, a in period), den

    scale = -(-den // min(ws))  # ceil(1 / w_min)
    limits = tuple((part.limit.value, w) for part, w in zip(parts, weights))

    def coverage(n: int) -> int:
        return scale * (max(part.witness.rank_bound(n) for part in parts) + k - 1)

    return Rearrangement.of_blocks(
        source=None,
        blocks=blocks,
        coverage_bound=coverage,
        name=f"weighted_merge[alpha={alpha}]",
        limit_in_average=ExtendedReal(sum(w * limit for limit, w in limits)),
        meta={"weights": limits},
    )


# ---------------------------------------------------------------------------
# Oscillation


def oscillator(spec: SequenceSpec) -> Rearrangement:
    """Rearrange a bounded spec so its average oscillates forever.

    With liminf m < limsup M, the running average is driven below
    p = m + (M-m)/3 using liminf-strand elements, then above
    q = M - (M-m)/3 using limsup-strand elements, with one rest element
    emitted at each turn; the average therefore has no limit.
    """
    prof = profile(spec)
    if not (prof.lo.is_finite and prof.hi.is_finite):
        raise MalformedDescriptor("oscillator needs a bounded profile")
    m, big_m = prof.lo.value, prof.hi.value
    if m == big_m:
        raise DegenerateRange("liminf equals limsup; nothing to oscillate")
    p = m + (big_m - m) / 3
    q = big_m - (big_m - m) / 3
    dec = decompose(spec, prof)

    def blocks():
        avg = RunningAverage()
        d_it = dec.emissions("d")
        sides = ((PartCursor(dec.b), p, False, "low"), (PartCursor(dec.c), q, True, "high"))
        while True:
            for cur, bound, up, tag in sides:
                rest = next(d_it, None)
                if rest is not None:
                    avg.add(rest[1])
                    yield "rest", rest[1], 1, rest[0], 0
                ended = False
                while not ended:  # a swing stops strictly past its bound
                    block, ended = avg.swing(cur, bound, up, False, tag)
                    yield block

    return Rearrangement.of_blocks(
        source=spec,
        blocks=blocks,
        coverage_bound=None,
        name="oscillator",
        limit_in_average=None,
    )


# ---------------------------------------------------------------------------
# Sorting a divergent part


def _sorted_emissions(part: PartStream) -> Iterator[Emission]:
    """Emissions of a +inf part in nondecreasing value order (ties by index).

    Works for interleaves of catalog strands that are nondecreasing after a
    finite head, also under pointwise wrappers and explicit prefixes, which
    ``strands`` pushes onto each strand; the head (``_sort_head`` terms, such
    as a prefix or a squared negative run) is buffered until the rest passes it.
    """
    import heapq

    # Each strand yields (value, src) nondecreasing.
    def strand_iter(spec: SequenceSpec, wit: IndexMap):
        head = spec._sort_head()
        if head is None:
            raise NotDivergent(
                f"cannot stream-sort a {type(spec._body).__name__} strand"
            )
        pairs = zip(spec.iter_terms(), wit)
        pending = deque(sorted(itertools.islice(pairs, head)))
        for pair in pairs:
            while pending and pending[0] <= pair:
                yield pending.popleft()
            yield pair

    iters = [strand_iter(s, w) for s, w in strands(part.spec, part.witness)]
    merged = heapq.merge(*iters)
    for value, src in merged:
        yield src, value


def sort_increasing(c_part) -> Rearrangement:
    """Emit a +inf-tending part in nondecreasing value order."""
    if isinstance(c_part, SequenceSpec):
        c_part = PartStream.whole(c_part)
    if c_part.limit != POS_INF:
        raise NotDivergent("sort_increasing needs a part tending to +inf")

    def blocks():
        for src, value in _sorted_emissions(c_part):
            yield "core", value, 1, src, 0

    return Rearrangement.of_blocks(c_part.spec, blocks, None, "sort_increasing", POS_INF)


# ---------------------------------------------------------------------------
# Finite target above the bounded part's limsup


def target_above_limsup(
    b_part: PartStream, c_part: PartStream, target
) -> Rearrangement:
    """Achieve a finite average strictly above the bounded strand's limit.

    The divergent strand is sorted, its values not exceeding
    max{1, 2(target-b)} are deferred, and the n-th surviving value x_n is
    emitted at output index floor((s_n - x_n/2) / (target-b)) where s_n is
    the running sum of survivors; all other positions carry bounded-strand
    elements, apart from the deferred values, each on the first of them at
    or after its slot in the slot schedule (``_slots``).
    Placing x_n half its own weight early centres the sawtooth of the
    average on the target: it overshoots by about (target-b) x_n/(2 s_n)
    right after a placement and undershoots by as much just before one,
    instead of dipping by the full (target-b) x_n/s_n below it.  Successive
    slots differ by more than (x_{n-1} + x_n) / (2(target-b)) - 1 > 1, so
    they strictly increase, and the first slot is at least 1.
    A constant bounded strand fills each gap between two placements as runs,
    split only at the deferred values' slots.
    """
    target = as_fraction(target)
    if not b_part.limit.is_finite:
        raise TargetNotAbove("bounded strand must have a finite limit")
    b_lim = b_part.limit.value
    if target <= b_lim:
        raise TargetNotAbove(f"target {target} is not above {b_lim}")
    verdict = balanced_verdict(c_part.spec)
    if verdict.kind is not BalanceKind.BALANCED:
        raise NotBalanced(
            f"divergent strand is not balanced ({verdict.kind.value}: {verdict.reason})"
        )
    v = 1 / (target - b_lim)
    vn, vd = v.numerator, v.denominator
    bar = max(Fraction(1), 2 * (target - b_lim))
    limit = ExtendedReal(target)

    def split_sorted():
        """Deferred initial segment (<= bar) and the surviving iterator."""
        it = _sorted_emissions(c_part)
        deferred = []
        first_survivor = None
        for src, value in it:
            if value > bar:
                first_survivor = (src, value)
                break
            deferred.append((src, value))
        return deferred, first_survivor, it

    def blocks():
        deferred, first_survivor, surv_it = split_sorted()
        due = _slots(iter(deferred))
        nxt = next(due, None)
        fill = PartCursor(b_part)
        pos = 0
        sn, sd = 0, 1  # the survivors' sum, an unreduced pair
        survivor = first_survivor
        while True:
            # slot = floor(v * (s - x/2)) with v = vn/vd, s = sn/sd, x = xn/sd
            x = survivor[1]
            if sd % x.denominator:
                sn, sd = widen(sn, sd, x.denominator)
            xn = x.numerator * (sd // x.denominator)
            sn += xn
            slot = vn * (2 * sn - xn) // (2 * vd * sd)
            while pos + 1 < slot:
                if nxt is not None and nxt[0] <= pos + 1:
                    # a deferred element takes the first fill position at
                    # or after its slot
                    pos += 1
                    yield "extra", nxt[2], 1, nxt[1], 0
                    nxt = next(due, None)
                else:
                    # the rest of the gap, up to the next due slot
                    gap = slot - 1 - pos if nxt is None else min(slot, nxt[0]) - 1 - pos
                    pos += gap
                    yield from fill.take(gap, "fill")
            pos += 1
            yield "place", survivor[1], 1, survivor[0], 0
            survivor = next(surv_it)

    return Rearrangement.of_blocks(
        source=None,
        blocks=blocks,
        coverage_bound=None,
        name=f"target_above_limsup[{target}]",
        limit_in_average=limit,
    )


# ---------------------------------------------------------------------------
# Two-sided balance: finite targets from opposite infinities


def _strand_for_path(part: PartStream, side: str):
    """Select the strand on which liminf |term|/n = 0 holds; its siblings
    become leftover parts.

    The density rule reads its path off ``push_pointwise(part.spec)``, the
    tree that ``strands`` walks, where every interleave sits above every
    pointwise wrapper and explicit prefix; so each step of the path is an
    interleave of that tree.
    """
    spec, wit = push_pointwise(part.spec), part.witness
    rep = density_report(spec)
    if rep.condition is not Condition.HOLDS:
        raise DensityFails(f"{side} side: {rep.reason} ({rep.condition.value})")
    leftovers: List[PartStream] = []
    for step in rep.path:
        halves = list(zip((spec.first, spec.second), wit.split()))
        if step == "second":
            halves.reverse()
        (spec, wit), (other, other_wit) = halves
        # leftovers only feed the slot schedule, which needs no limit
        leftovers.append(PartStream(other, other_wit, None))
    return PartStream(spec, wit, part.limit), leftovers


def two_sided_balance(
    b_part: PartStream, c_part: PartStream, target, extras=None
) -> Rearrangement:
    """Achieve any finite average target from strands diverging to -inf/+inf.

    Requires both strands to satisfy the liminf |term|/n = 0 density
    condition; the qualifying sub-strands alternate greedily around the
    target: a high swing takes +inf-side elements, at least one, while the
    average is below, a low swing -inf-side ones while it is above.
    Everything else is deferred and re-enters at the slots of the slot
    schedule (``_slots``); an extra due at the next position takes the
    place of a steering step, so the greedy average sees it.  The sides are
    ``PartCursor``s, and the kernel's ``swing`` steers in closed form, one
    run per run of its side, cut before the next extra's slot.  On its sum
    num/den of n values (the sign test against p/q: num*q - p*den*n), k >= 2
    (high, low) pairs whose swings each stop after one element, inside both
    head runs and before the next extra's slot, are one period block of two
    rows (an alternation stretch).
    """
    target = as_fraction(target)
    if b_part.limit != NEG_INF:
        raise DensityFails("first part must tend to -inf")
    if c_part.limit != POS_INF:
        raise DensityFails("second part must tend to +inf")
    b_sel, b_rest = _strand_for_path(b_part, "negative")
    c_sel, c_rest = _strand_for_path(c_part, "positive")

    deferred_parts: List[PartStream] = list(b_rest) + list(c_rest)
    if extras is not None:
        deferred_parts.extend(extras)
    limit = ExtendedReal(target)

    def deferred_emissions():
        iters = [p.emissions() for p in deferred_parts]
        # round-robin so every leftover strand is drained
        while iters:
            alive = []
            for it in iters:
                item = next(it, None)
                if item is not None:
                    yield item
                    alive.append(it)
            iters = alive

    def blocks():
        due = _slots(deferred_emissions())
        nxt = next(due, (0,))  # (slot, src, value); slot 0 once none is left
        tp, tq = target.numerator, target.denominator
        avg = RunningAverage()
        hi, lo = PartCursor(c_sel), PartCursor(b_sel)
        while True:
            # a stretch: pair j's high and low tests are linear in j
            (h_src, h), (l_src, l) = hi.head, lo.head
            if avg.den % h.denominator or avg.den % l.denominator:
                avg.num, avg.den = widen(avg.num, avg.den, math.lcm(h.denominator, l.denominator))
            num, den, n = avg.num, avg.den, avg.n
            hv, lv = h.numerator * (den // h.denominator), l.numerator * (den // l.denominator)
            a0 = tq * (num + hv) - tp * den * (n + 1)  # >= 0: pair 0's high swing stops
            b0 = a0 + tq * lv - tp * den  # <= 0: and its low swing
            if a0 >= 0 >= b0 and nxt[0] != n + 1:
                c1 = tq * (hv + lv) - 2 * tp * den  # what a pair adds to both tests
                k = min(hi.left, lo.left, (nxt[0] - n - 1) // 2 if nxt[0] else hi.left)
                if c1:  # the first pair whose high (c1 < 0) or low (c1 > 0) swing goes on
                    k = min(k, first_positive(-a0, -c1) if c1 < 0 else first_positive(b0, c1))
                if k > 1:
                    hi.skip(k)
                    lo.skip(k)
                    avg.num, avg.n = num + k * (hv + lv), n + 2 * k
                    yield None, h + l, 2 * k, (("high", h, 1, h_src, 0, hi.step),
                                               ("low", l, 1, l_src, 0, lo.step)), 2
                    continue
            # climb with +inf-side elements until the average reaches target,
            # then descend with -inf-side elements until it returns to it; an
            # extra due at the next position is emitted in place of a step
            for cur, tag, sign in ((hi, "high", 1), (lo, "low", -1)):
                block = None
                while not (block and ended):  # at least one element of the side
                    if avg.n + 1 == nxt[0]:
                        avg.add(nxt[2])
                        yield "extra", nxt[2], 1, nxt[1], 0
                        nxt = next(due, (0,))
                        ended = sign * avg.cmp(target) >= 0
                    else:
                        block, ended = avg.swing(cur, target, sign > 0, True, tag,
                                                 nxt[0] - avg.n - 1 if nxt[0] else None)
                        yield block

    return Rearrangement.of_blocks(
        source=None,
        blocks=blocks,
        coverage_bound=None,
        name=f"two_sided_balance[{target}]",
        limit_in_average=limit,
    )


# ---------------------------------------------------------------------------
# Target dispatch over arbitrary specs (CLI entry point)


def part_core(part: PartStream, source: SequenceSpec) -> Rearrangement:
    """A rearrangement that plays one part in its own order.

    Not surjective on its own (it covers only the part's source indices),
    so it carries no coverage bound; it exists to serve as the core of a
    limit-preserving merge that restores full coverage.
    """
    return _core_stream(part, source, None, "part_core")


def mirror_rearrangement(r: Rearrangement, source: SequenceSpec) -> Rearrangement:
    """Same index order, negated values: averages flip sign exactly.
    Blocks pass through with their values negated."""

    def blocks():
        for tag, v, count, src, step in r.unrolled():
            yield tag, -v, count, src, step

    lim = None if r.limit_in_average is None else -r.limit_in_average
    return Rearrangement.of_blocks(
        source=source,
        blocks=blocks,
        coverage_bound=r.coverage_bound,
        name=f"mirror({r.name})",
        limit_in_average=lim,
    )


def construct_target(spec: SequenceSpec, target) -> Rearrangement:
    """Rearrange any supported spec so its average tends to the target.

    Derives the profile and the decomposition once and routes by the
    profile's ends.  A bounded spec (the identity when liminf equals
    limsup) weight-merges its strands.  For t strictly inside (lo, hi), the
    m middle strands of ``limited_strands``, with mean limit m_bar, share
    delta = min(1/2, (t-lo)/(2(m_bar-lo)), (hi-t)/(2(hi-m_bar))) equally,
    and the extreme strands take 1-delta at the alpha solving
    (t - delta*m_bar)/(1-delta) = alpha*lo + (1-alpha)*hi: the weights are
    positive, sum to 1 and average the limits to t exactly.  At t = lo or
    hi the part with that limit plays in its own order, and the other
    extreme part, then the middle strands, need vanishing density, so they
    enter at the slots of the slot schedule (``merge_preserving``), as at
    t = limit below.  A spec divergent on both sides alternates greedily; a
    spec with one divergent side places the divergent elements at vanishing
    density (position ~ value/(target - limit)), mirrored when the divergence
    is downward; its middle strands, and at t = limit its divergent ones,
    enter at slots.  An infinite target has no route yet: TargetUnreachable.
    """
    target = ExtendedReal.of(target)
    if not target.is_finite:
        raise TargetUnreachable(f"infinite target {target.render()} has no route yet (ROADMAP item 4 (c))")
    t = target.value
    prof = profile(spec)
    lo, hi = prof.lo, prof.hi
    bounded = lo.is_finite and hi.is_finite
    if bounded and not lo.value <= t <= hi.value:
        raise TargetUnreachable(f"target {t} outside [{lo.value}, {hi.value}]")
    if lo == hi and not bounded:
        # a single infinity: the only attainable average limit
        raise TargetUnreachable(
            f"target {t} outside the attainable range {{{lo.render()}}}"
        )
    dec = decompose(spec, prof)

    if bounded and lo == hi:
        r = identity_rearrangement(spec, limit_in_average=lo)
        r.name = "bounded_target[degenerate]"
    elif bounded:
        a, b = lo.value, hi.value
        if t in (a, b):
            kept, other = (dec.b, dec.c) if t == a else (dec.c, dec.b)
            r = merge_preserving(part_core(kept, spec), other)
            if dec.d is not None:
                r = merge_preserving(r, dec.d)
        elif dec.d is None:
            r = weighted_merge(dec.b, dec.c, (b - t) / (b - a))
        else:
            middle = [s for s in limited_strands(spec) if s.limit not in (lo, hi)]
            mean = sum(s.limit.value for s in middle) / len(middle)
            delta = min(Fraction(1, 2), (t - a) / (mean - a) / 2, (b - t) / (b - mean) / 2)
            t_ex = (t - delta * mean) / (1 - delta)
            r = weighted_merge(dec.b, dec.c, (b - t_ex) / (b - a),
                               [(s, delta / len(middle)) for s in middle])
        r.name = f"bounded_target[{t}]"
    elif lo == NEG_INF and hi == POS_INF:
        extras = [dec.d] if dec.d is not None else None
        r = two_sided_balance(dec.b, dec.c, t, extras=extras)
    else:
        flip = hi != POS_INF
        if flip:
            # Downward divergence: solve the flipped problem, then negate.
            b_ps, c_ps, t = dec.c.negated(), dec.b.negated(), -t
        else:
            b_ps, c_ps = dec.b, dec.c
        b_lim = b_ps.limit.value
        if t > b_lim:
            r = target_above_limsup(b_ps, c_ps, t)
        elif t == b_lim:
            r = merge_preserving(part_core(b_ps, spec), c_ps)
            r.name = f"at_limit[{t}]"
        else:
            reach = f"(-inf, {-b_lim}]" if flip else f"[{b_lim}, +inf)"
            raise TargetUnreachable(f"target {target} outside the attainable range {reach}")
        if dec.d is not None:
            r = merge_preserving(r, dec.d.negated() if flip else dec.d)
        if flip:
            r = mirror_rearrangement(r, spec)
    r.source = spec
    return r
