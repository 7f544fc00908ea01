"""Closed extended-real intervals and canonical unions of them.

``AARSet`` (attainable-average-under-rearrangement set) is the one set type
for closed subsets of the extended line.  It holds both the accumulation
set of a sequence (``seqspec.profile``) and the answer of the classifier:
the set of extended reals reachable as the limit of running averages along
some rearrangement.  It is stored canonically as a sorted tuple of disjoint,
non-touching closed intervals, so equality is structural; the infinities are
pieces like any other, either as the points {-inf} and {+inf} or as the ends
of an unbounded interval.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Tuple, Union

from .extreal import NEG_INF, POS_INF, ExtendedReal, Record, set_field

PointLike = Union[int, Fraction, ExtendedReal]


class Interval(Record):
    """Closed interval [lo, hi] over the extended reals.

    Degenerate intervals (lo == hi) represent single points, including the
    point sets {-inf} and {+inf}.
    """

    _fields = ("lo", "hi")

    def __init__(self, lo: ExtendedReal, hi: ExtendedReal):
        set_field(self, "lo", lo)
        set_field(self, "hi", hi)
        if lo > hi:
            raise ValueError(f"interval endpoints out of order: {self}")

    @staticmethod
    def point(x: PointLike) -> "Interval":
        p = ExtendedReal.of(x)
        return Interval(p, p)

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, x: PointLike) -> bool:
        p = ExtendedReal.of(x)
        return self.lo <= p <= self.hi

    def render(self, exact: bool = False) -> str:
        if self.is_point:
            return "{" + self.lo.render(exact) + "}"
        return f"[{self.lo.render(exact)}, {self.hi.render(exact)}]"


class AARSet:
    """Canonical finite union of closed extended-real intervals."""

    __slots__ = ("intervals",)

    def __init__(self, intervals: Iterable[Interval]):
        self.intervals: Tuple[Interval, ...] = _canonicalize(intervals)
        if not self.intervals:
            raise ValueError("an AARSet holds at least one point")

    @staticmethod
    def of(*pieces: "Interval | PointLike") -> "AARSet":
        ivs = []
        for p in pieces:
            ivs.append(p if isinstance(p, Interval) else Interval.point(p))
        return AARSet(ivs)

    @staticmethod
    def whole_line() -> "AARSet":
        return AARSet([Interval(NEG_INF, POS_INF)])

    @property
    def lo(self) -> ExtendedReal:
        """The least point; the liminf of an accumulation set."""
        return self.intervals[0].lo

    @property
    def hi(self) -> ExtendedReal:
        """The greatest point; the limsup of an accumulation set."""
        return self.intervals[-1].hi

    @property
    def finite(self) -> Tuple[Interval, ...]:
        """The pieces other than the points {-inf} and {+inf}.

        An unbounded piece such as ``[-inf, +inf]`` stays: it holds finite
        points too.
        """
        return tuple(
            iv for iv in self.intervals if iv.lo.is_finite or not iv.is_point
        )

    def point(self) -> Optional[ExtendedReal]:
        """The only point of a one-point set, else None."""
        if len(self.intervals) == 1 and self.intervals[0].is_point:
            return self.intervals[0].lo
        return None

    def negate(self) -> "AARSet":
        """The image under x -> -x."""
        return AARSet(Interval(-iv.hi, -iv.lo) for iv in self.intervals)

    def affine(self, scale: Fraction, shift: Fraction) -> "AARSet":
        """The image under x -> scale*x + shift.  A negative scale swaps
        the infinities; scale 0 maps every point, infinite ones too, to
        shift."""
        if scale == 0:
            return AARSet.of(shift)
        if scale < 0:
            return self.negate().affine(-scale, shift)

        def mv(p: ExtendedReal) -> ExtendedReal:
            return p if not p.is_finite else ExtendedReal(scale * p.value + shift)

        return AARSet(Interval(mv(iv.lo), mv(iv.hi)) for iv in self.intervals)

    def square(self) -> "AARSet":
        """The image under x -> x*x; both infinities map to +inf."""

        def sq(p: ExtendedReal) -> ExtendedReal:
            return POS_INF if not p.is_finite else ExtendedReal(p.value * p.value)

        ivs = []
        for iv in self.intervals:
            if iv.lo >= 0:
                ivs.append(Interval(sq(iv.lo), sq(iv.hi)))
            elif iv.hi <= 0:
                ivs.append(Interval(sq(iv.hi), sq(iv.lo)))
            else:
                ivs.append(Interval(ExtendedReal(0), max(sq(iv.lo), sq(iv.hi))))
        return AARSet(ivs)

    def contains(self, x: PointLike) -> bool:
        p = ExtendedReal.of(x)
        # Intervals are sorted; a linear scan is fine at these sizes.
        return any(iv.contains(p) for iv in self.intervals)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AARSet):
            return NotImplemented
        return self.intervals == other.intervals

    def __hash__(self) -> int:
        return hash(self.intervals)

    def __repr__(self) -> str:
        return f"AARSet({self.render()})"

    def render(self, exact: bool = False) -> str:
        """``{0} ∪ [1, 2] ∪ {+inf}`` style; exact mode forces p/q endpoints."""
        return " ∪ ".join(iv.render(exact) for iv in self.intervals)

    def serialize(self) -> str:
        """Structured text: a list of ``[lo, hi]`` pairs.

        Endpoints are bit-exact ``p/q`` rationals or the ``-inf`` / ``+inf``
        tokens; points appear as degenerate pairs.  ``deserialize`` inverts
        this exactly.
        """
        pairs = ", ".join(
            f"[{iv.lo.render(exact=True)}, {iv.hi.render(exact=True)}]"
            for iv in self.intervals
        )
        return f"[{pairs}]"

    @staticmethod
    def deserialize(text: str) -> "AARSet":
        body = text.strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ValueError("serialized set must be a bracketed list")
        body = body[1:-1].strip()
        pieces = []
        while body:
            if not body.startswith("["):
                raise ValueError(f"expected '[' at: {body[:20]!r}")
            end = body.index("]")
            lo_txt, hi_txt = body[1:end].split(",")
            pieces.append(
                Interval(ExtendedReal.parse(lo_txt), ExtendedReal.parse(hi_txt))
            )
            body = body[end + 1 :].lstrip()
            if body.startswith(","):
                body = body[1:].lstrip()
        if not pieces:
            raise ValueError("serialized set is empty")
        return AARSet(pieces)

    @staticmethod
    def parse(text: str) -> "AARSet":
        """Read ``render`` output.  ``|`` also reads as ∪, and a brace may
        list several points: ``{1/4, 3/4} | [1, 2]``."""
        pieces = []
        for chunk in text.replace("|", "∪").split("∪"):
            chunk = chunk.strip()
            if not chunk:
                continue
            if chunk.startswith("{") and chunk.endswith("}"):
                for p in chunk[1:-1].split(","):
                    pieces.append(Interval.point(ExtendedReal.parse(p)))
            elif chunk.startswith("[") and chunk.endswith("]"):
                lo_txt, hi_txt = chunk[1:-1].split(",")
                pieces.append(
                    Interval(ExtendedReal.parse(lo_txt), ExtendedReal.parse(hi_txt))
                )
            else:
                raise ValueError(f"unrecognized interval chunk: {chunk!r}")
        return AARSet(pieces)


def _canonicalize(intervals: Iterable[Interval]) -> Tuple[Interval, ...]:
    merged: list[Interval] = []
    # Sorted by lower end, a piece merges with the last one exactly when
    # they share a point: when it starts at or before the last one ends.
    for iv in sorted(intervals, key=lambda iv: iv.lo):
        if merged and iv.lo <= merged[-1].hi:
            if iv.hi > merged[-1].hi:
                merged[-1] = Interval(merged[-1].lo, iv.hi)
        else:
            merged.append(iv)
    return tuple(merged)


def union(*sets: AARSet) -> AARSet:
    pieces: list[Interval] = []
    for s in sets:
        pieces.extend(s.intervals)
    return AARSet(pieces)
