"""Closed extended-real intervals and canonical unions of them.

``AARSet`` (attainable-average-under-rearrangement set) is the answer type of
the classifier: the set of extended reals reachable as the limit of running
averages along some rearrangement.  It is stored canonically as a sorted
tuple of disjoint, non-touching closed intervals, so equality is structural.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Tuple, Union

from .extreal import NEG_INF, POS_INF, ExtendedReal

PointLike = Union[int, Fraction, ExtendedReal]


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] over the extended reals.

    Degenerate intervals (lo == hi) represent single points, including the
    point sets {-inf} and {+inf}.
    """

    lo: ExtendedReal
    hi: ExtendedReal

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: {self}")

    @staticmethod
    def point(x: PointLike) -> "Interval":
        p = ExtendedReal.of(x)
        return Interval(p, p)

    @staticmethod
    def of(lo: PointLike, hi: PointLike) -> "Interval":
        return Interval(ExtendedReal.of(lo), ExtendedReal.of(hi))

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, x: PointLike) -> bool:
        p = ExtendedReal.of(x)
        return self.lo <= p <= self.hi

    def touches_or_overlaps(self, other: "Interval") -> bool:
        # Closed intervals merge when they share at least one point.
        return self.lo <= other.hi and other.lo <= self.hi

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
            raise ValueError("an attainable-average set is never empty")

    @staticmethod
    def of(*pieces: "Interval | PointLike") -> "AARSet":
        ivs = []
        for p in pieces:
            ivs.append(p if isinstance(p, Interval) else Interval.point(p))
        return AARSet(ivs)

    @staticmethod
    def whole_line() -> "AARSet":
        return AARSet([Interval(NEG_INF, POS_INF)])

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
        pieces = []
        for chunk in text.split("∪"):
            chunk = chunk.strip()
            if not chunk:
                continue
            if chunk.startswith("{") and chunk.endswith("}"):
                pieces.append(Interval.point(ExtendedReal.parse(chunk[1:-1])))
            elif chunk.startswith("[") and chunk.endswith("]"):
                lo_txt, hi_txt = chunk[1:-1].split(",")
                pieces.append(
                    Interval(ExtendedReal.parse(lo_txt), ExtendedReal.parse(hi_txt))
                )
            else:
                raise ValueError(f"unrecognized interval chunk: {chunk!r}")
        return AARSet(pieces)


def _canonicalize(intervals: Iterable[Interval]) -> Tuple[Interval, ...]:
    ivs = sorted(intervals, key=lambda iv: (iv.lo._key(), iv.hi._key()))
    merged: list[Interval] = []
    for iv in ivs:
        if merged and merged[-1].touches_or_overlaps(iv):
            last = merged[-1]
            hi = iv.hi if iv.hi > last.hi else last.hi
            merged[-1] = Interval(last.lo, hi)
        else:
            merged.append(iv)
    return tuple(merged)


def union(*sets: AARSet) -> AARSet:
    pieces: list[Interval] = []
    for s in sets:
        pieces.extend(s.intervals)
    return AARSet(pieces)
