"""Exact-arithmetic verification: traces, permutation audits, tube checks.

Everything here is exact: averages are rationals compared by integer
cross-multiplication, and the envelope oracle enumerates subsets.  The
decimal column of CSV output is display-only and is never read back.

One walker reads a stream's blocks and keeps the exact running sum as an
unreduced integer pair, adding a period block's sum once per repeat.
``iter_trace`` returns a re-iterable trace that builds each position's entry
in line, a period block's from one flat row per position built once per
block; an entry builds ``partial_sum`` and ``average`` as Fractions only
when read.  ``check_tube`` and ``check_schedule`` share one window test, which
reads such a trace as runs, a period block's rows at the repeats next to a
window edge, and tests a run's stretch inside a window at its two ends; other
entries are runs of one.  ``check_permutation`` reads blocks as source
progressions: a run, and each row of a period block over its repeats.

The CSV boundary is on integer pairs as well: the writer formats each exact
column from a pair reduced by one gcd, and the reader yields one row at a
time, its sum and stated average as pairs (``read_trace_csv`` lists them).
"""

from __future__ import annotations

import csv
import decimal
from fractions import Fraction
from itertools import combinations, count, islice
from math import gcd, inf, lcm
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import CoverageViolation, InjectivityViolation
from .extreal import ExtendedReal, Record, as_fraction, set_field, widen

if TYPE_CHECKING:  # annotations only: verifying a trace loads no construction
    from .rearrange import Rearrangement

__all__ = [
    "TraceEntry",
    "trace",
    "iter_trace",
    "PermutationReport",
    "check_permutation",
    "check_tube",
    "check_schedule",
    "EnvelopeReport",
    "envelope_oracle",
    "verify_trace_identities",
    "downward_jump_bound_holds",
    "write_trace_csv",
    "read_trace_csv",
    "decimal_str",
]

_FIELDS = ("n", "source_index", "value", "partial_sum", "average")
FLAT_PERIOD = 1 << 14  # the most positions a trace expands a period into flat rows


class TraceEntry:
    """One trace position: ``(n, source_index, value, partial_sum, average)``.

    The sum is held as an integer pair ``_num/_den`` (not necessarily
    reduced, ``_den > 0``).  ``_avg`` is the stated average of a hand-built
    entry (a Fraction) or a CSV-read one (an integer pair ``(p, q)``, q > 0,
    until ``average`` is read), which may disagree with its sum; for a live
    entry it stays None until ``average`` is read.  Equality, hashing,
    indexing and iteration follow the 5-tuple of values.
    """

    __slots__ = ("n", "source_index", "value", "_num", "_den", "_sum", "_avg")

    def __init__(self, n, source_index, value, partial_sum, average):
        self.n = n
        self.source_index = source_index
        self.value = value
        self._num = partial_sum.numerator
        self._den = partial_sum.denominator
        self._sum = partial_sum
        self._avg = average

    @property
    def partial_sum(self) -> Fraction:
        s = self._sum
        if s is None:
            s = self._sum = Fraction(self._num, self._den)
        return s

    @property
    def average(self) -> Fraction:
        a = self._avg
        if a is None:
            a = self._avg = Fraction(self._num, self._den * self.n)
        elif a.__class__ is tuple:
            a = self._avg = Fraction(*a)
        return a

    def _average_pair(self) -> Tuple[int, int]:
        """The average as ``(p, q)`` with ``q > 0``, built without a Fraction."""
        a = self._avg
        if a is None:
            return self._num, self._den * self.n
        if a.__class__ is tuple:
            return a
        return a.numerator, a.denominator

    def __iter__(self):
        return iter((self.n, self.source_index, self.value,
                     self.partial_sum, self.average))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self)[i]
        return getattr(self, _FIELDS[i])

    def __eq__(self, other):
        if isinstance(other, (TraceEntry, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        body = ", ".join(f"{k}={v!r}" for k, v in zip(_FIELDS, self))
        return f"TraceEntry({body})"


_new_entry = object.__new__


def _live_entry(n, source_index, value, num, den, avg=None) -> TraceEntry:
    e = _new_entry(TraceEntry)
    e.n = n
    e.source_index = source_index
    e.value = value
    e._num = num
    e._den = den
    e._sum, e._avg = None, avg
    return e


def _walk(r: Rearrangement, n: Optional[int], starts=None):
    """The first n positions (all when n is None) as blocks ``(n0, count,
    value, first_src, step, num, v, den)``: positions n0+1..n0+count, the sum
    num/den before them, each adding the integer v over den.  The one loop
    that keeps the exact running sum; den widens by ``extreal.widen``.  A
    period block is ``(n0, count, None, flat, length, num, total, den)``, flat
    a row ``(src, advance, value, v)`` per position of a period, or, given
    window ``starts`` or a period past ``FLAT_PERIOD``, its rows' runs."""
    num, den, k = 0, 1, 0
    for tag, value, size, src, step in r.blocks():
        vd = value.denominator
        if den == vd:
            v = value.numerator
        else:
            if den % vd:
                num, den = widen(num, den, vd)
            v = value.numerator * (den // vd)
        if size == 1:
            yield k, 1, value, src, step, num, v, den
            num += v
            k += 1
        elif tag is not None:
            if n is not None and k + size > n:
                size = n - k
            yield k, size, value, src, step, num, v, den
            num += v * size
            k += size
        else:  # a period block: size // step repeats of the rows in src
            end = k + size if n is None else min(k + size, n)
            if den % (d := lcm(*(row[1].denominator for row in src))):
                num, den = widen(num, den, d)
            rows = [(*row, row[1].numerator * (den // row[1].denominator)) for row in src]
            v = sum(c * vi for _t, _x, c, *_, vi in rows)
            if starts is None and step <= FLAT_PERIOD:  # (n0, count, None, flat, length, num, total, den)
                flat = ((s + st * i, a, x, vi) for _t, x, c, s, st, a, vi in rows for i in range(c))
                yield k, end - k, None, list(islice(flat, end - k)), step, num, v, den
            else:  # the rows as runs: every repeat, or those next to the block's ends and window starts
                edges = [k + 1, end, *(e for s in starts or () if k + 1 < s <= end for e in (s - 1, s))]
                for j in range(-(-(end - k) // step)) if starts is None else sorted(
                        {min((end - k - 1) // step, max(0, (e - k - 1) // step + o))
                         for e in edges for o in (-1, 0, 1)}):
                    m, p = k + j * step, num + j * v
                    for _t, x, c, s, st, a, vi in rows:
                        if m < end:  # the horizon may cut the block in a repeat
                            yield m, min(c, end - m), x, s + a * j, st, p, vi, den
                        m, p = m + c, p + c * vi
            num, k = num + v * (size // step), end
        if k == n:
            return


class _Trace:
    """What ``iter_trace`` returns: each iteration walks the stream afresh,
    and position n0+j of a block holds the sum num + j*v over den."""

    def __init__(self, r: Rearrangement, n: Optional[int]):
        self.r, self.n = r, n

    def __iter__(self) -> Iterator[TraceEntry]:
        for k, size, value, src, step, num, v, den in _walk(self.r, self.n):
            if value is None:  # a period block: its flat rows, repeat by repeat
                for j in range(-(-size // step)):
                    for s, a, x, vi in src[:size - j * step]:
                        num += vi
                        k += 1
                        e = _new_entry(TraceEntry)
                        e.n = k
                        e.source_index = s + a * j
                        e.value = x
                        e._num = num
                        e._den = den
                        e._sum = e._avg = None
                        yield e
            elif size == 1:
                e = _new_entry(TraceEntry)
                e.n = k + 1
                e.source_index = src
                e.value = value
                e._num = num + v
                e._den = den
                e._sum = e._avg = None
                yield e
            else:
                for s in islice(count(src, step), size):
                    num += v
                    k += 1
                    e = _new_entry(TraceEntry)
                    e.n = k
                    e.source_index = s
                    e.value = value
                    e._num = num
                    e._den = den
                    e._sum = e._avg = None
                    yield e


def iter_trace(r: Rearrangement, n: Optional[int] = None) -> Iterable[TraceEntry]:
    """The first n trace entries (all of them when n is None), lazy and
    re-iterable; n < 1 raises ValueError here, not when the trace is read."""
    if n is not None and n < 1:
        raise ValueError("trace needs at least one entry")
    return _Trace(r, n)


def trace(r: Rearrangement, n: int) -> List[TraceEntry]:
    """The first n trace entries as a list."""
    return list(iter_trace(r, n))


# ---------------------------------------------------------------------------
# Permutation audit


class PermutationReport(Record):
    _fields = ("ok", "distinct_checked", "coverage")

    def __init__(self, ok: bool, distinct_checked: int, coverage: Tuple[tuple, ...]):
        set_field(self, "ok", ok)
        set_field(self, "distinct_checked", distinct_checked)
        set_field(self, "coverage", coverage)  # (probe, bound, satisfied_at)s


def check_permutation(
    r: Rearrangement, n: int, probes: Sequence[int] = ()
) -> PermutationReport:
    """Audit injectivity of the first n outputs and coverage at each probe.

    With a certified bound f = coverage_bound, every source index 1..p must
    appear within the first f(p) outputs.  An uncertified stream
    (coverage_bound None) reports each probe as ``(p, None, satisfied_at)``
    and is streamed until 1..p appears.  Streaming stops once the first n
    outputs are checked and every probe is covered or past its bound.
    Raises ValueError before streaming when a probe is below 1, then
    InjectivityViolation, or CoverageViolation when a probe misses its bound
    or the stream ends before covering it.  The audit reads blocks: a run, and
    each row of a period block over its repeats, as source progressions, each
    met by one set intersection per open probe and, over the first n
    positions, one ``set.update``; a repeat found there is located by reading
    the stream again position by position.  The work on a block is bounded by
    its period, n and the largest open probe, never by its repeats.
    """
    if any(p < 1 for p in probes):
        raise ValueError(f"coverage probes must be at least 1, got {sorted(probes)}")
    f = r.coverage_bound
    bounds = {p: None if f is None else f(p) for p in probes}
    seen, satisfied, rank = set(), {}, 0  # seen: the sources among the first n
    todo = [(p, set(range(1, p + 1))) for p in bounds]  # the open probes, with their missing sets
    horizon = max([n, *(inf if b is None else b for b in bounds.values())])
    for tag, _value, size, src, step in r.blocks():
        start, rank = rank, rank + size
        if size == 1:
            if rank <= n:
                if src in seen:
                    raise _first_repeat(r, n)
                seen.add(src)
            for p, need in todo:
                if src in need:
                    need.discard(src)
                    if not need:
                        satisfied[p] = rank
        else:
            # progressions (first source, step, terms, first rank, rank step)
            if tag is not None:
                progs = ((src, step, size, start + 1, 1),)
            else:  # a row's i-th position over the repeats, or its run in each repeat
                progs, o, reps = [], start + 1, size // step
                for _t, _x, c, s, st, a in src:
                    progs += ([(s, a, reps, o, step)] if c == 1 else
                              [(s + st * i, a, reps, o + i, step) for i in range(c)] if c <= reps else
                              [(s + a * j, st, c, o + step * j, 1) for j in range(reps)])
                    o += c
            if start < n:
                grown = len(seen)
                for s, d, k, at, e in progs:
                    if at <= n:
                        m = k if rank <= n else min(k, (n - at) // e + 1)
                        grown += m
                        seen.update(range(s, s + d * m, d) if d else (s,) * m)
                if len(seen) < grown:
                    raise _first_repeat(r, n)
            for p, need in todo:
                hits = []
                for s, d, k, at, e in progs:
                    if s <= p and (h := need.intersection(
                            range(s, min(s + d * k, p + 1), d) if d else (s,)[:k])):
                        hits.append((h, s, d, at, e))
                if hits:
                    left = len(need)
                    for hit in hits:
                        need -= hit[0]
                    if not need:
                        satisfied[p] = _last_rank(hits, left)
        if len(satisfied) + len(todo) > len(bounds):
            todo = [(p, need) for p, need in todo if need]
            horizon = max([n, *(inf if bounds[p] is None else bounds[p] for p, _ in todo)])
        if rank >= horizon:
            break
    for p in probes:
        if p not in satisfied or (bounds[p] is not None and satisfied[p] > bounds[p]):
            raise CoverageViolation(p, bounds[p])
    coverage = tuple((p, bounds[p], satisfied[p]) for p in sorted(probes))
    return PermutationReport(True, min(n, rank), coverage)


def _last_rank(hits, left):
    """The rank by which the ``left`` sources in ``hits`` (progressions'
    sources) have all appeared: that of the latest last hit when the hits
    are disjoint, else the latest of each source's first rank."""
    if sum(len(hit[0]) for hit in hits) == left:
        return max(at + e * ((max(h) - s) // (d or 1)) for h, s, d, at, e in hits)
    first = {}
    for h, s, d, at, e in hits:
        for x in h:
            first[x] = min(first.get(x, inf), at + e * ((x - s) // (d or 1)))
    return max(first.values())


def _first_repeat(r: Rearrangement, n: int) -> InjectivityViolation:
    """The first source repeated among the first n outputs, read afresh
    position by position."""
    seen = {}
    for rank, (x, _value) in zip(range(1, n + 1), r.stream()):
        prev = seen.setdefault(x, rank)
        if prev != rank:
            return InjectivityViolation(x, prev, rank)


# ---------------------------------------------------------------------------
# Tube and schedule checks


def check_tube(t, target, eps, from_index: int = 1) -> bool:
    """True iff every average from the given position onward sits in the tube.

    Finite targets use the open interval (target-eps, target+eps); infinite
    targets require |average| beyond M = 1/eps on the matching side.
    """
    return _check_windows(t, [(from_index, *tube_bounds(target, eps))])


def tube_bounds(target, eps):
    """The tube's ``(lo, hi)`` as ``_bound_pairs``; eps must be positive."""
    target = ExtendedReal.of(target)
    eps = as_fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if target.is_finite:
        return _bound_pairs(target.value - eps, target.value + eps)
    return _bound_pairs(1 / eps, None) if target.is_pos_inf else _bound_pairs(None, -1 / eps)


def check_schedule(t, schedule) -> bool:
    """True iff averages obey every schedule window.

    Window k constrains positions [from_k, from_{k+1}) — the last window
    extends to the end of the trace — to the open interval (lo_k, hi_k).
    Raises ValueError unless the from-indices strictly increase.
    """
    windows = [(w.from_index, *_bound_pairs(w.lo, w.hi)) for w in schedule]
    return not windows or _check_windows(t, windows)


def _entry_run(e: TraceEntry):
    p, q = e._average_pair()  # a run of one at the entry's stated average
    return e.n - 1, 1, None, None, None, p * e.n, 0, q


def _bound_pairs(lo, hi):
    """``(lo, hi)`` as integer pairs; a missing (None) bound passes every test."""
    return ((-1, 0) if lo is None else (lo.numerator, lo.denominator),
            (1, 0) if hi is None else (hi.numerator, hi.denominator))


def _check_windows(t, windows) -> bool:
    """True iff window k holds the averages at positions [from_k, from_{k+1})
    strictly inside (lo_k, hi_k), given as ``_bound_pairs``.  An ``iter_trace``
    trace is read as runs: the average is monotone along a run and, at one
    offset, over a period block's repeats, so each is tested at its ends."""
    windows = [(0, *_bound_pairs(None, None)), *windows]  # positions before the first are free
    starts = [w[0] for w in windows] + [None]
    if any(a >= b for a, b in zip(starts[1:], starts[2:-1])):
        raise ValueError("window from-indices must strictly increase")
    runs = _walk(t.r, t.n, starts[1:-1]) if isinstance(t, _Trace) else map(_entry_run, t)
    k, nxt = 0, starts[1]  # window k holds the positions before nxt
    _f, (ln, ld), (hn, hd) = windows[0]
    for n0, size, _value, _src, _step, num, v, den in runs:
        j, end = n0 + 1, n0 + size
        while j <= end:
            while nxt is not None and j >= nxt:
                k += 1
                _f, (ln, ld), (hn, hd) = windows[k]
                nxt = starts[k + 1]
            p, q = num + (j - n0) * v, den * j
            if not (ln * q < p * ld and p * hd < hn * q):
                return False
            # next: this stretch's last position, or the next stretch's first
            stop = end if nxt is None or nxt > end else nxt - 1
            j = stop if stop > j else j + 1
    return True


# ---------------------------------------------------------------------------
# Brute-force envelope oracle


class EnvelopeReport(Record):
    _fields = ("min_avg", "max_avg", "achievable")

    def __init__(self, min_avg: Fraction, max_avg: Fraction, achievable: Optional[tuple]):
        set_field(self, "min_avg", min_avg)
        set_field(self, "max_avg", max_avg)
        set_field(self, "achievable", achievable)  # sorted, only for <= 12 values


ORACLE_ENUMERATION_CAP = 12


def envelope_oracle(values, k: int) -> EnvelopeReport:
    """Exact min/max average over k-element subsets, with full enumeration
    of the achievable averages when at most 12 values are given."""
    vals = sorted(as_fraction(v) for v in values)
    if not 1 <= k <= len(vals):
        raise ValueError(f"k must be within 1..{len(vals)}")
    min_avg = sum(vals[:k]) / k
    max_avg = sum(vals[-k:]) / k
    achievable = None
    if len(vals) <= ORACLE_ENUMERATION_CAP:
        seen = {sum(c) / k for c in combinations(vals, k)}
        achievable = tuple(sorted(seen))
    return EnvelopeReport(min_avg, max_avg, achievable)


# ---------------------------------------------------------------------------
# Exact identities used by the test invariants


def verify_trace_identities(t) -> bool:
    """Exact sum/recurrence/jump identities at every entry (zero tolerance).

    average*n == partial_sum, and the recurrence
    average_n == average_{n-1}*(n-1)/n + value_n/n.  The jump identity
    average_{n-1} - average_n == (average_{n-1} - value_n)/n is the same
    equation rearranged, so it holds exactly when the recurrence does.
    Both are checked by integer cross-multiplication; a live entry's average
    is its sum over n, so only an explicit average can break the first.
    The entries must be positions 1, 2, 3, ... in order: a missing or
    repeated row fails, since the recurrence only links adjacent positions.
    """
    return identities_hold((e.n, e.source_index, e.value, e._num, e._den,
                             e._average_pair()) for e in t)


def identities_hold(rows) -> bool:
    """``verify_trace_identities`` on rows as ``read_rows`` yields them,
    read up to the first that fails."""
    prev = None
    for expected_n, (n, _src, value, num, den, (p, q)) in enumerate(rows, start=1):
        if n != expected_n or p * n * den != num * q:
            return False
        if prev is not None:
            pp, pq = prev
            vn, vd = value.numerator, value.denominator
            if n * p * pq * vd != q * ((n - 1) * pp * vd + vn * pq):
                return False
        prev = p, q
    return True


def downward_jump_bound_holds(t, level, value_bound) -> bool:
    """Bound on downward crossings of a level by averages of bounded-below values.

    If every value exceeds K, then whenever the average drops to p or below
    at step n, the drop satisfies
    average_{n-1} - average_n <= (p - K)/(n - 1).
    """
    p = as_fraction(level)
    k_bound = as_fraction(value_bound)
    prev_avg = None
    for entry in t:
        if entry.value <= k_bound:
            raise ValueError(
                f"value {entry.value} at n={entry.n} is not above {k_bound}"
            )
        if (
            prev_avg is not None
            and entry.average <= p < prev_avg
            and prev_avg - entry.average > (p - k_bound) / (entry.n - 1)
        ):
            return False
        prev_avg = entry.average
    return True


# ---------------------------------------------------------------------------
# CSV boundary

CSV_HEADER = [
    "n",
    "source_index",
    "value",
    "partial_sum",
    "average_decimal",
    "average_exact",
]

_DECIMAL_CTX = decimal.Context(prec=12, rounding=decimal.ROUND_HALF_EVEN)


def _decimal_text(p: int, q: int) -> str:
    return str(_DECIMAL_CTX.divide(decimal.Decimal(p), decimal.Decimal(q)))


def decimal_str(q: Fraction) -> str:
    """12 significant digits, round-half-even — display only."""
    return _decimal_text(q.numerator, q.denominator)


def _pair(text: str) -> Tuple[int, int]:
    """``p/q`` or integer text as an integer pair ``(p, q)``, q > 0, not
    reduced.  Any other spelling goes through ``Fraction(text)``, so the same
    texts parse, and fail with the same error, as there."""
    p, slash, q = text.partition("/")
    if p.removeprefix("-").isdecimal() and (q.isdecimal() or not slash):
        q = int(q) if slash else 1
        if q:
            return int(p), q
    x = Fraction(text)
    return x.numerator, x.denominator


def write_trace_csv(t, stream) -> None:
    """Write a trace in the canonical CSV layout (exact fields as reduced
    p/q, each from an integer pair by one gcd)."""
    write = stream.write
    write(",".join(CSV_HEADER) + "\n")
    value = vtext = None
    for e in t:
        if e.value is not value:  # a run repeats one value object
            value = e.value
            vtext = f"{value.numerator}/{value.denominator}"
        num, den = e._num, e._den
        g = gcd(num, den)
        p, q = e._average_pair()
        h = gcd(p, q)
        p //= h
        q //= h
        write(f"{e.n},{e.source_index},{vtext},{num // g}/{den // g},"
              f"{_decimal_text(p, q)},{p}/{q}\n")


def read_trace_csv(stream) -> List[TraceEntry]:
    """The entries of a trace CSV, as ``read_rows`` reads them: each keeps
    its sum and its stated average (apart from the sum) as integer pairs."""
    return [_live_entry(*row) for row in read_rows(stream)]


def read_rows(stream) -> Iterator[tuple]:
    """A trace CSV's rows one by one as ``(n, source_index, value, num, den,
    (p, q))``: the sum and the stated average as integer pairs, the value a
    Fraction built once per text (of the last 1,024); the decimal column is
    not read.  Raises ValueError on a wrong header, or naming the line of a
    malformed row when it is reached."""
    reader = csv.reader(stream)
    header = next(reader, None)
    if header != CSV_HEADER:
        raise ValueError("not a trace file: unexpected header")
    values = {}
    for row in reader:
        if not row:
            continue
        if len(row) != len(CSV_HEADER):
            raise ValueError(
                f"line {reader.line_num}: {len(row)} fields, "
                f"expected {len(CSV_HEADER)}"
            )
        try:
            n, src = int(row[0]), int(row[1])
            value = values.get(row[2])
            if value is None:
                if len(values) >= 1024:  # the cache stays small on a trace of distinct values
                    values.clear()
                value = values[row[2]] = Fraction(*_pair(row[2]))
            total, avg = _pair(row[3]), _pair(row[5])
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"line {reader.line_num}: {exc}") from exc
        yield n, src, value, *total, avg
