"""Exact-arithmetic verification: traces, permutation audits, tube checks.

Everything here is exact: averages are rationals compared by integer
cross-multiplication, and the envelope oracle enumerates subsets.  The
decimal column of CSV output is display-only and is never read back.

One walker reads a stream's blocks and keeps the exact running sum as an
unreduced integer pair.  ``iter_trace`` returns a re-iterable trace that
expands each block into entries, which build ``partial_sum`` and ``average``
as Fractions only when read.  ``check_tube`` and ``check_schedule`` share one
window test, which reads such a trace as runs and tests each stretch of a run
inside a window at its two ends; other entries are runs of one.  The audit
``check_permutation`` reads the blocks itself and streams once.

The CSV boundary is on integer pairs as well: the writer formats each exact
column from a pair reduced by one gcd, and an entry read from CSV holds its
sum and stated average as pairs and builds their Fractions only when read.
"""

from __future__ import annotations

import csv
import decimal
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count, islice
from math import gcd
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import CoverageViolation, InjectivityViolation
from .extreal import ExtendedReal, as_fraction, widen

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


def _live_entry(n, source_index, value, num, den) -> TraceEntry:
    e = _new_entry(TraceEntry)
    e.n = n
    e.source_index = source_index
    e.value = value
    e._num = num
    e._den = den
    e._sum = e._avg = None
    return e


def _walk(r: Rearrangement, n: Optional[int]):
    """The first n positions (all when n is None) as blocks ``(n0, count,
    value, first_src, step, num, v, den)``: positions n0+1..n0+count, the sum
    num/den before them, each adding the integer v over den.  The one loop
    that keeps the exact running sum; den widens by ``extreal.widen``."""
    num, den, k = 0, 1, 0
    for _tag, value, size, src, step in r.blocks():
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
        else:
            if n is not None and k + size > n:
                size = n - k
            yield k, size, value, src, step, num, v, den
            num += v * size
            k += size
        if k == n:
            return


class _Trace:
    """What ``iter_trace`` returns: each iteration walks the stream afresh,
    and position n0+j of a block holds the sum num + j*v over den."""

    def __init__(self, r: Rearrangement, n: Optional[int]):
        self.r, self.n = r, n

    def __iter__(self) -> Iterator[TraceEntry]:
        for k, size, value, src, step, num, v, den in _walk(self.r, self.n):
            if size == 1:
                yield _live_entry(k + 1, src, value, num + v, den)
            else:
                for s in islice(count(src, step), size):
                    num += v
                    k += 1
                    yield _live_entry(k, s, value, num, den)


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


@dataclass(frozen=True)
class PermutationReport:
    ok: bool
    distinct_checked: int
    coverage: Tuple[Tuple[int, Optional[int], int], ...]  # (probe, bound, satisfied_at)


def check_permutation(
    r: Rearrangement, n: int, probes: Sequence[int] = ()
) -> PermutationReport:
    """Audit injectivity of the first n outputs and coverage at each probe.

    With a certified bound f = coverage_bound, every source index 1..p must
    appear within the first f(p) outputs.  An uncertified stream
    (coverage_bound None) reports each probe as ``(p, None, satisfied_at)``
    and is streamed until 1..p appears.  Streaming stops once the first n
    outputs are checked and every probe is covered or past its bound.
    Raises InjectivityViolation, or CoverageViolation when a probe misses its
    bound or the stream ends before covering it.  The audit reads blocks; of
    a run it visits only the positions among the first n and, for each probe
    p, the sources up to p.
    """
    f = r.coverage_bound
    bounds = {p: None if f is None else f(p) for p in probes}
    first_seen = {}
    remaining = {p: set(range(1, p + 1)) for p in probes}
    satisfied = {}
    rank = 0

    def settled(p):  # covered, or past a certified bound it has missed
        return p in satisfied or (bounds[p] is not None and rank >= bounds[p])

    for _tag, _value, size, src, step in r.blocks():
        if size == 1:
            rank += 1
            if rank <= n:
                prev = first_seen.get(src)
                if prev is not None:
                    raise InjectivityViolation(src, prev, rank)
                first_seen[src] = rank
            for p, need in remaining.items():
                if need and src in need:
                    need.discard(src)
                    if not need:
                        satisfied[p] = rank
        else:
            start = rank
            rank += size
            for j in range(min(size, n - start)):
                s, at = src + step * j, start + j + 1
                prev = first_seen.get(s)
                if prev is not None:
                    raise InjectivityViolation(s, prev, at)
                first_seen[s] = at
            for p, need in remaining.items():
                if not need or src > p:
                    continue
                # only the run's sources up to p can be missing from 1..p
                for j in range(min(size, (p - src) // step + 1) if step else 1):
                    s = src + step * j
                    if s in need:
                        need.discard(s)
                        if not need:
                            satisfied[p] = start + j + 1
                            break
        if rank >= n and all(map(settled, remaining)):
            break
    for p in probes:
        if p not in satisfied or (bounds[p] is not None and satisfied[p] > bounds[p]):
            raise CoverageViolation(p, bounds[p])
    coverage = tuple((p, bounds[p], satisfied[p]) for p in sorted(probes))
    return PermutationReport(True, min(n, rank), coverage)


# ---------------------------------------------------------------------------
# Tube and schedule checks


def check_tube(t, target, eps, from_index: int = 1) -> bool:
    """True iff every average from the given position onward sits in the tube.

    Finite targets use the open interval (target-eps, target+eps); infinite
    targets require |average| beyond M = 1/eps on the matching side.
    """
    target = ExtendedReal.of(target)
    eps = as_fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if target.is_finite:
        lo, hi = target.value - eps, target.value + eps
    elif target.is_pos_inf:
        lo, hi = 1 / eps, None
    else:
        lo, hi = None, -1 / eps
    return _check_windows(t, [(from_index, lo, hi)])


def check_schedule(t, schedule) -> bool:
    """True iff averages obey every schedule window.

    Window k constrains positions [from_k, from_{k+1}) — the last window
    extends to the end of the trace — to the open interval (lo_k, hi_k).
    Raises ValueError unless the from-indices strictly increase.
    """
    windows = [(w.from_index, w.lo, w.hi) for w in schedule]
    return not windows or _check_windows(t, windows)


def _entry_run(e: TraceEntry):
    p, q = e._average_pair()  # a run of one at the entry's stated average
    return e.n - 1, 1, None, None, None, p * e.n, 0, q


def _check_windows(t, windows) -> bool:
    """True iff window k holds the averages at positions [from_k, from_{k+1})
    strictly inside (lo_k, hi_k), a None bound being none.  An ``iter_trace``
    trace is read as runs: the average moves monotonically toward a run's
    value, so a run's stretch inside one window is tested at its two ends."""
    windows = [(0, None, None), *windows]  # positions before the first are free
    starts = [w[0] for w in windows] + [None]
    if any(a >= b for a, b in zip(starts[1:], starts[2:-1])):
        raise ValueError("window from-indices must strictly increase")
    # a missing bound is a pair that passes every cross-multiplication below
    bounds = [((-1, 0) if lo is None else (lo.numerator, lo.denominator),
               (1, 0) if hi is None else (hi.numerator, hi.denominator))
              for _f, lo, hi in windows]
    runs = _walk(t.r, t.n) if isinstance(t, _Trace) else map(_entry_run, t)
    k, nxt = -1, 0  # window k holds the positions before nxt
    for n0, size, _value, _src, _step, num, v, den in runs:
        j, end = n0 + 1, n0 + size
        while j <= end:
            while nxt is not None and j >= nxt:
                k += 1
                (ln, ld), (hn, hd) = bounds[k]
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


@dataclass(frozen=True)
class EnvelopeReport:
    min_avg: Fraction
    max_avg: Fraction
    achievable: Optional[Tuple[Fraction, ...]]  # sorted, only for <= 12 values


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
    prev = None
    for expected_n, entry in enumerate(t, start=1):
        n = entry.n
        if n != expected_n:
            return False
        p, q = entry._average_pair()
        if entry._avg is not None and p * n * entry._den != entry._num * q:
            return False
        if prev is not None:
            pp, pq = prev
            vn, vd = entry.value.numerator, entry.value.denominator
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
    """The entries of a trace CSV; raises ValueError on a malformed row.

    Each entry holds its sum and stated average as integer pairs and builds
    their Fractions only when read; the value column builds one Fraction per
    distinct text.  The decimal column is not read."""
    reader = csv.reader(stream)
    header = next(reader, None)
    if header != CSV_HEADER:
        raise ValueError("not a trace file: unexpected header")
    entries = []
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
                value = values[row[2]] = Fraction(*_pair(row[2]))
            e = _live_entry(n, src, value, *_pair(row[3]))
            e._avg = _pair(row[5])  # the stated average, kept apart from the sum
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"line {reader.line_num}: {exc}") from exc
        entries.append(e)
    return entries
