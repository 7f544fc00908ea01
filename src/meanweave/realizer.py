"""Steer running averages through ever narrower tubes around a prescribed set.

``realizer_from_spec`` groups a spec's strands by limit into four parts —
values near a finite level a, values near a finite level b > a, values
diverging to -inf and values diverging to +inf — and builds a
rearrangement whose running average visits shrinking tubes
around a dense schedule of targets drawn from a prescribed closed set
Z inside [a, b], jumping past the band around [a, b] between visits.  The
checks (``check_schedule``, criterion 07, stream digests) test the windows,
visits, permutation and stream, not that Z and ±inf are all the accumulation
points: criterion 07's jumps do not grow (ROADMAP item 1, open).

Stage k runs three phases in order, toward its target t and its tube
(t - 1/k, t + 1/k):

* descent: the average is steered by choosing sides (values near b raise
  it, values near a lower it) until it settles well inside the tube, late
  enough for in-band steps to be small; the transit window, around the
  averages taken since the previous jump, is recorded there;
* dwell: the average is held by steering, while a splice candidate is
  spliced in whenever the exact post-splice average stays safely inside the
  tube.  The candidate is the element of least source index on offer: each
  part offers the first element it set aside (``PartCursor.oldest``), or
  else its head, and a steering side offers its head as well.  Over a part
  whose ``WovenMap`` is not increasing, that element need not be the part's
  oldest unemitted one;
* jump: the first element x = p/q of the divergent strand for the chosen
  direction with |x| > 1 and span1·P < |x| is emitted at position P, those
  before it set aside; in integers (``_landing``): |p| > q and
  span1.numerator·P·q < |p|·span1.denominator, where P = max(m_floor + 1,
  isqrt(ceil(r·|p|/q)) + 1), r = 9·(k + 1) = 9/h for the next tube
  half-width h, m_floor = max(n, ceil(r·K), ceil(2·r·span1)) after n
  emissions, span1 = b - a + 1 and K = max(|a - 1|, |b + 1|).  The average
  leaves the band around [a, b]; the tube window, which ends just before P,
  is recorded before the jump is emitted.

Like every stream, this one is a sequence of blocks: steering by a constant
strand (in a tube, before a jump or in a descent) is one run (the kernel's
``RunningAverage.swing``), except a step whose splice candidate is the
steering strand's own head; every other emission is a block of one.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .aarset import AARSet, Interval
from .errors import MalformedDescriptor, MissingInfinity, ZOutsideRange
from .extreal import NEG_INF, POS_INF, Record, as_fraction, first_positive, set_field
from .rearrange import Rearrangement, RunningAverage
from .seqspec import (
    PartCursor,
    SequenceSpec,
    fold_part,
    limited_strands,
    profile,  # not called here; bench/workloads.py traces realizer.profile
)

__all__ = [
    "ScheduleEntry",
    "TubeSchedule",
    "realizer_from_spec",
    "dense_targets",
]


# ---------------------------------------------------------------------------
# Tube schedule


class ScheduleEntry(Record):
    """One verification window: averages in [from_index, next from) lie in (lo, hi)."""

    _fields = ("lo", "hi", "from_index", "kind", "stage", "target")

    def __init__(self, lo, hi, from_index: int, kind: str, stage: int, target=None):
        set_field(self, "lo", lo)
        set_field(self, "hi", hi)
        set_field(self, "from_index", from_index)
        set_field(self, "kind", kind)  # "transit" or "tube"
        set_field(self, "stage", stage)
        set_field(self, "target", target)


class TubeSchedule:
    """Strictly increasing verification windows, populated as the stream runs.

    Restarting the (deterministic) stream re-records identical entries, so
    recording is idempotent.
    """

    def __init__(self):
        self.entries: List[ScheduleEntry] = []

    def record(self, index: int, entry: ScheduleEntry):
        if index < len(self.entries):
            return  # deterministic replay
        if index != len(self.entries):
            raise AssertionError("schedule entries recorded out of order")
        if self.entries and entry.from_index <= self.entries[-1].from_index:
            raise AssertionError("schedule from-indices must increase")
        self.entries.append(entry)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)


# ---------------------------------------------------------------------------
# Dense target enumeration


def _normalize_zset(zset, lo: Fraction, hi: Fraction) -> List[Tuple[Fraction, Fraction]]:
    """Validate Z as a finite union of rational points/intervals in [lo, hi]."""
    pieces: List[Tuple[Fraction, Fraction]] = []
    if isinstance(zset, AARSet):
        items: Iterable = zset.intervals
    else:
        items = zset
    for item in items:
        if isinstance(item, Interval):
            if not (item.lo.is_finite and item.hi.is_finite):
                raise ZOutsideRange("prescribed set must avoid infinities")
            p_lo, p_hi = item.lo.value, item.hi.value
        elif isinstance(item, tuple):
            p_lo, p_hi = as_fraction(item[0]), as_fraction(item[1])
        else:
            p_lo = p_hi = as_fraction(item)
        if p_lo > p_hi:
            raise ZOutsideRange(f"empty piece [{p_lo}, {p_hi}]")
        if p_lo < lo or p_hi > hi:
            raise ZOutsideRange(
                f"piece [{p_lo}, {p_hi}] leaves the steering band [{lo}, {hi}]"
            )
        pieces.append((p_lo, p_hi))
    if not pieces:
        raise ZOutsideRange("prescribed set must be nonempty")
    return pieces


def dense_targets(pieces: Sequence[Tuple[Fraction, Fraction]]) -> Iterator[Fraction]:
    """Enumerate a dense ordered subset of the pieces.

    Points come first (in the given order); intervals contribute the dyadic
    grid k/2^j, by increasing level j and, within a level, by increasing
    magnitude.  Each value is yielded once.
    """
    seen = set()
    for p_lo, p_hi in pieces:
        if p_lo == p_hi and p_lo not in seen:
            seen.add(p_lo)
            yield p_lo
    intervals = [(p_lo, p_hi) for p_lo, p_hi in pieces if p_lo < p_hi]
    if not intervals:
        return
    j = 0
    while True:
        level: List[Fraction] = []
        step = Fraction(1, 1 << j)
        for p_lo, p_hi in intervals:
            k = math.ceil(p_lo / step)
            while k * step <= p_hi:
                x = k * step
                if x not in seen:
                    seen.add(x)
                    level.append(x)
                k += 1
        level.sort(key=lambda x: (abs(x), x))
        yield from level
        j += 1


def _stage_targets(pieces) -> Iterator[Fraction]:
    """Triangular revisiting pattern over the dense target list.

    Stage targets follow w1; w1, w2; w1, w2, w3; ... so every enumerated
    value is revisited infinitely often.  A finite list repeats whole once
    it is exhausted.
    """
    gen = dense_targets(pieces)
    known: List[Fraction] = []
    for block in itertools.count(1):
        known.extend(itertools.islice(gen, block - len(known)))
        yield from known[:block]


# ---------------------------------------------------------------------------
# The realizer


def _landing(x: Fraction, r: int, p_min: int, span1: Fraction) -> Optional[int]:
    """The jump rule for a divergent element x = p/q in integers, with r = 9/h
    for the next tube half-width h and p_min = m_floor + 1: x lands at P =
    max(p_min, isqrt(ceil(r·|p|/q)) + 1) if |p| > q and span1.numerator·P·q <
    |p|·span1.denominator, that is |x| > 1 and span1·P < |x|.  Returns P or None."""
    p, q = abs(x.numerator), x.denominator
    if p <= q:
        return None
    land = max(p_min, math.isqrt(-(-r * p // q)) + 1)
    return land if span1.numerator * land * q < p * span1.denominator else None


def realizer_from_spec(spec: SequenceSpec, zset) -> Rearrangement:
    """Rearrange a spec so its averages visit ever narrower tubes around Z.

    The spec's strands are grouped by limit.  Every strand must converge
    (else UnknownProfile), and the strand limits must include two distinct
    finite levels and both infinities.  The parts at the smallest finite
    level a and the largest b steer, the parts at -inf and +inf jump, and
    the strands with limits inside (a, b) are consumed through the splice
    pool.  Z is a finite union of rational points and closed intervals
    inside [a, b].
    """
    leaves = limited_strands(spec)
    finite_limits = sorted({p.limit.value for p in leaves if p.limit.is_finite})
    if len(finite_limits) < 2:
        raise MalformedDescriptor("need two distinct finite strand limits to steer between")
    a, b_val = finite_limits[0], finite_limits[-1]
    b_part = fold_part(leaves, lambda lim: lim == a)
    c_part = fold_part(leaves, lambda lim: lim == b_val)
    d_part = fold_part(leaves, lambda lim: lim == NEG_INF)
    e_part = fold_part(leaves, lambda lim: lim == POS_INF)
    if d_part is None:
        raise MissingInfinity("no strand tends to -inf")
    if e_part is None:
        raise MissingInfinity("no strand tends to +inf")
    middle = fold_part(leaves, lambda lim: a < lim < b_val)  # None gives an empty cursor
    pieces = _normalize_zset(zset, a, b_val)

    band_lo, band_hi = a - 1, b_val + 1
    k_bound = max(abs(band_lo), abs(band_hi))  # bound on in-band values
    span1 = b_val - a + 1
    schedule = TubeSchedule()

    def n_min(stage: int) -> int:
        # positions this large keep in-band steps below an eighth tube width
        return math.ceil(16 * k_bound * Fraction(stage))

    midpoint = (a + b_val) / 2

    def blocks():
        targets = _stage_targets(pieces)
        b_cur = PartCursor(b_part)
        c_cur = PartCursor(c_part)
        d_cur = PartCursor(d_part)
        e_cur = PartCursor(e_part)
        # every part offers its oldest element to the splice
        curs = (b_cur, c_cur, d_cur, e_cur, PartCursor(middle))

        avg = RunningAverage()
        stage = 0  # completed tube entries
        target = next(targets)
        transit_from = 1  # where the open transit window starts
        up_minus_down = 0  # fairness: both infinities must keep accumulating

        def in_band_head(side_cur, limit):
            """Set values aside up to a head p/q within 1 of ln/ld: |p·ld - ln·q| < q·ld."""
            ln, ld = limit.numerator, limit.denominator
            while (head := side_cur.head) is not None:
                p, q = head[1].numerator, head[1].denominator
                if abs(p * ld - ln * q) < q * ld:
                    return head
                side_cur.set_aside()
            raise AssertionError("steering strand exhausted")

        def enters(v, x=None):
            """First k at which that average lies in (s_lo, s_hi), or None: it
            moves monotonically toward v, so where both edge tests first hold."""
            lo0, lo1 = avg.toward(v, s_lo, x)
            hi0, hi1 = avg.toward(v, s_hi, x)
            k_lo, k_hi = first_positive(lo0, lo1), first_positive(-hi0, -hi1)
            if k_lo is None or k_hi is None:
                return None
            k = max(k_lo, k_hi)
            return k if lo0 + k * lo1 > 0 and hi0 + k * hi1 < 0 else None

        def steer(limit=None, settle_from=None, cand=None):
            """Steer toward the current target: one emission, or one run.

            A constant side swings every step the per-step rule gives it:
            at most ``limit``, while the side holds, until the average
            lies in (s_lo, s_hi) at a step >= ``settle_from`` (descent), and
            until the post-splice average of the tube's oldest candidate
            ``cand`` (src, value) does, unless ``cand`` is the side's head.
            """
            n = avg.n
            if n == 0:
                side = c_cur if target >= midpoint else b_cur
            else:
                side = c_cur if avg.cmp(target) <= 0 else b_cur
            if side.left is None and n > 0 and cand is not side.head:
                # the side holds while the average stays <= target (c) or > target (b)
                v, up = side.head[1], side is c_cur
                caps = [limit]
                if settle_from is not None:
                    k = enters(v)
                    caps.append(k if k is None else max(k, settle_from))
                if cand is not None:
                    caps.append(enters(v, cand[1]))
                cap = min((k for k in caps if k is not None), default=None)
                return avg.swing(side, target, up, not up, "steer", cap)[0]
            src, value = in_band_head(side, b_val if side is c_cur else a)
            side.advance()
            avg.add(value)
            return "steer", value, 1, src, 0

        def oldest_candidate():
            """((src, value), cursor) of the oldest element on offer: every
            part offers its ``oldest()``, and a steering side its head too."""
            best = best_cur = None
            for cur in curs:
                head = cur.oldest()
                if head is not None and (best is None or head[0] < best[0]):
                    best, best_cur = head, cur
            for cur in (b_cur, c_cur):
                if cur.head[0] < best[0]:
                    best, best_cur = cur.head, cur
            return best, best_cur

        def select_jump(cur):
            """First element of the divergent part ``cur`` with a landing
            position P (``_landing``), and P."""
            r = 9 * (stage + 1)  # 9/h for the next tube half-width h
            p_min = max(avg.n, math.ceil(k_bound * r), math.ceil(2 * span1 * r)) + 1
            while (head := cur.head) is not None:
                if (land := _landing(head[1], r, p_min, span1)) is not None:
                    return cur.advance(), land
                cur.set_aside()
            raise MissingInfinity("divergent strand exhausted")

        while True:
            width = Fraction(1, stage + 1)
            # the stage's tube, intersected with the steering band
            t_lo, t_hi = max(target - width, band_lo), min(target + width, band_hi)
            s_lo, s_hi = t_lo + width / 8, t_hi - width / 8

            # descent: steer until the average settles in (s_lo, s_hi); the
            # transit window holds the averages taken on the way, as raw
            # num/den pairs (along a run the average moves monotonically
            # toward the value, so only a block's last average counts)
            settle = n_min(stage + 1)
            lo = hi = None
            while True:
                n = avg.n
                if n:
                    cn, cd = avg.num, avg.den * n
                    if lo is None:
                        lo = hi = cn, cd
                    elif cn * lo[1] < lo[0] * cd:
                        lo = cn, cd
                    elif cn * hi[1] > hi[0] * cd:
                        hi = cn, cd
                if n >= settle and avg.cmp(s_lo) > 0 and avg.cmp(s_hi) < 0:
                    break
                yield steer(settle_from=settle - n)
            stage += 1
            schedule.record(2 * stage - 2, ScheduleEntry(
                Fraction(*lo) - 1, Fraction(*hi) + 1, transit_from, "transit", stage, None))
            tube_from = n + 1

            # dwell: splice the oldest candidate wherever the tube allows it
            dwell_end = max(n + max(8, n >> 4), n_min(stage + 1))
            while (n := avg.n) < dwell_end:
                cand, cand_cur = oldest_candidate()
                if avg.cmp(s_lo, cand[1]) > 0 and avg.cmp(s_hi, cand[1]) < 0:
                    if cand is cand_cur.head:
                        src, value = cand_cur.advance()
                    else:
                        src, value = cand_cur.take_oldest()
                    avg.add(value)
                    yield "splice", value, 1, src, 0
                else:
                    yield steer(dwell_end - n, cand=cand)

            # jump: choose the direction so the excursion re-enters the next
            # tube cheaply (descents by low values reach high tubes fast and
            # vice versa), but never let either infinity starve
            next_target = next(targets)
            want_up = next_target >= midpoint
            if want_up and up_minus_down >= 3:
                want_up = False
            elif not want_up and up_minus_down <= -3:
                want_up = True
            up_minus_down += 1 if want_up else -1
            (src, value), jump_at = select_jump(e_cur if want_up else d_cur)
            while (n := avg.n) + 1 < jump_at:
                yield steer(jump_at - 1 - n)
            # the tube window ends just before the jump position
            schedule.record(2 * stage - 1, ScheduleEntry(
                t_lo, t_hi, tube_from, "tube", stage, target))
            transit_from = n + 1
            target = next_target
            avg.add(value)
            yield "jump", value, 1, src, 0

    return Rearrangement.of_blocks(
        source=spec,
        blocks=blocks,
        coverage_bound=None,
        name="accumulation_realizer",
        limit_in_average=None,
        meta={"schedule": schedule},
    )
