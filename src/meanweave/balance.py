"""Partial-sum ratio diagnostics and the balanced/density verdicts.

A positive divergent sequence is *balanced* when each term is eventually
negligible against the sum of all earlier terms (term/prefix-sum ratio
tending to zero).  Balance decides whether averages can be steered to finite
targets above the bounded part's limsup; the separate *density* condition
(liminf |term|/n = 0) governs two-sided constructions.

Verdicts here are analytic: a fixed catalog of structural rules plus closure
under positive scaling, shifts and index-aligned sums.  Numeric runs only
attach evidence — they never upgrade a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import islice
from typing import List, Optional, Tuple

from .errors import NonPositiveTerm, NotDivergent
from .extreal import POS_INF
from .seqspec import (
    Affine,
    Constant,
    ExplicitPrefix,
    Geometric,
    Interleave,
    Linear,
    NegLinear,
    Negate,
    PointwiseSquare,
    PointwiseSum,
    PowerOfIndex,
    RunLength,
    RunRule,
    SequenceSpec,
    SumJump,
    profile,
)
from .errors import UnknownProfile


class BalanceKind(Enum):
    BALANCED = "Balanced"
    NOT_BALANCED = "NotBalanced"
    UNKNOWN = "Unknown"


class Condition(Enum):
    HOLDS = "Holds"
    FAILS = "Fails"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class RatioEntry:
    """Exact diagnostics at one index.

    Field names follow the module contract: ``s_prev`` is the sum of the
    terms before n, ``r_n`` the term divided by that sum, ``A_n`` its
    reciprocal (the balance index), and ``r_incl`` the term divided by the
    sum including itself.
    """

    n: int
    term: Fraction
    s_prev: Fraction
    r_n: Fraction
    A_n: Fraction
    r_incl: Fraction


def ratio_series(spec: SequenceSpec, n: int) -> List[RatioEntry]:
    """Entries for indices 2..n; all terms up to n must be positive."""
    if n < 2:
        raise ValueError("ratio series needs n >= 2")
    entries = []
    running = Fraction(0)
    for i, term in enumerate(islice(spec.iter_terms(), n), start=1):
        if term <= 0:
            raise NonPositiveTerm(f"term at index {i} is {term}")
        if i >= 2:
            r = term / running
            entries.append(
                RatioEntry(
                    n=i,
                    term=term,
                    s_prev=running,
                    r_n=r,
                    A_n=running / term,
                    r_incl=term / (running + term),
                )
            )
        running += term
    return entries


@dataclass(frozen=True)
class NumericEvidence:
    """Tail-window ratio statistics; advisory only."""

    horizon: int
    window_start: int
    max_ratio: Fraction
    last_ratio: Fraction
    ratio_small: bool  # max tail ratio below the 1e-3 evidence threshold


@dataclass(frozen=True)
class BalanceVerdict:
    kind: BalanceKind
    reason: str
    limsup_estimate: Optional[Fraction] = None
    evidence: Optional[NumericEvidence] = None

    @property
    def is_balanced(self) -> bool:
        return self.kind is BalanceKind.BALANCED

    @property
    def is_not_balanced(self) -> bool:
        return self.kind is BalanceKind.NOT_BALANCED


EVIDENCE_THRESHOLD = Fraction(1, 1000)


def _require_divergent_positive(spec: SequenceSpec):
    try:
        limit = profile(spec).converges_to()
    except UnknownProfile as exc:
        raise NotDivergent(f"divergence not derivable: {exc}") from exc
    if limit != POS_INF:
        raise NotDivergent("sequence is not declared to tend to +inf")


def _analytic_balance(spec: SequenceSpec) -> Tuple[BalanceKind, str, Optional[Fraction]]:
    if isinstance(spec, ExplicitPrefix):
        kind, reason, est = _analytic_balance(spec.tail)
        return kind, reason + " (finite prefix immaterial)", est
    if isinstance(spec, Affine):
        if spec.scale > 0:
            kind, reason, est = _analytic_balance(spec.base)
            return kind, reason + " (positive scaling and shift preserved)", est
        return BalanceKind.UNKNOWN, "non-positive scale leaves no rule", None
    if isinstance(spec, (Linear, PowerOfIndex)):
        k = spec.exponent if isinstance(spec, PowerOfIndex) else 1
        return (
            BalanceKind.BALANCED,
            f"polynomial terms: ratio falls like {k + 1}/n",
            None,
        )
    if isinstance(spec, Geometric):
        est = spec.ratio - 1
        return (
            BalanceKind.NOT_BALANCED,
            "geometric growth keeps the ratio near ratio-1 "
            "(consecutive-term quotient stays below 1)",
            est,
        )
    if isinstance(spec, RunLength):
        reasons = {
            RunRule.DOUBLING: "doubling blocks: ratio falls like 1/blocklength",
            RunRule.STAIRS: "staircase blocks: prefix sums grow cubically",
            RunRule.FACTORIAL: "factorial blocks: balance index grows with the block",
            RunRule.CEIL_SQRT: "ceil-sqrt growth: ratio falls like 3/sqrt(n)",
        }
        return BalanceKind.BALANCED, reasons[spec.rule], None
    if isinstance(spec, SumJump):
        return (
            BalanceKind.NOT_BALANCED,
            "each jump term exceeds the whole prefix sum",
            Fraction(1),
        )
    if isinstance(spec, PointwiseSquare):
        return _analytic_balance_square(spec.base)
    if isinstance(spec, PointwiseSum):
        left = _analytic_balance(spec.first)
        right = _analytic_balance(spec.second)
        if left[0] is BalanceKind.BALANCED and right[0] is BalanceKind.BALANCED:
            return (
                BalanceKind.BALANCED,
                "index-aligned sum of balanced sequences",
                None,
            )
        return BalanceKind.UNKNOWN, "sum closure needs both sides balanced", None
    if isinstance(spec, Interleave):
        return BalanceKind.UNKNOWN, "no analytic rule for interleaved strands", None
    return BalanceKind.UNKNOWN, f"no analytic rule for {type(spec).__name__}", None


def _analytic_balance_square(base: SequenceSpec) -> Tuple[BalanceKind, str, Optional[Fraction]]:
    if isinstance(base, ExplicitPrefix):
        return _analytic_balance_square(base.tail)
    if isinstance(base, (Linear, PowerOfIndex)):
        k = base.exponent if isinstance(base, PowerOfIndex) else 1
        return (
            BalanceKind.BALANCED,
            f"square of polynomial terms is polynomial (degree {2 * k})",
            None,
        )
    if isinstance(base, Geometric):
        est = base.ratio * base.ratio - 1
        return (
            BalanceKind.NOT_BALANCED,
            "square of geometric growth is geometric",
            est,
        )
    if isinstance(base, RunLength):
        if base.rule is RunRule.FACTORIAL:
            return (
                BalanceKind.NOT_BALANCED,
                "squared factorial blocks: the balance index at each block "
                "boundary stays below 2",
                Fraction(1, 2),
            )
        return (
            BalanceKind.BALANCED,
            "squared sub-geometric blocks keep a vanishing ratio",
            None,
        )
    if isinstance(base, SumJump):
        return (
            BalanceKind.NOT_BALANCED,
            "squared jumps still exceed the squared prefix sum",
            Fraction(1),
        )
    return BalanceKind.UNKNOWN, "no analytic rule for this square", None


def _numeric_evidence(spec: SequenceSpec, horizon: int) -> NumericEvidence:
    window_start = max(2, horizon - horizon // 10)
    running = Fraction(0)
    max_ratio = None
    last_ratio = None
    for i, term in enumerate(islice(spec.iter_terms(), horizon), start=1):
        if i >= window_start and running > 0:
            r = term / running
            last_ratio = r
            if max_ratio is None or r > max_ratio:
                max_ratio = r
        running += term
    if max_ratio is None:
        raise NotDivergent("horizon too small for a tail window")
    return NumericEvidence(
        horizon=horizon,
        window_start=window_start,
        max_ratio=max_ratio,
        last_ratio=last_ratio,
        ratio_small=max_ratio < EVIDENCE_THRESHOLD,
    )


def balanced_verdict(
    spec: SequenceSpec, mode: str = "analytic", horizon: int = 10_000
) -> BalanceVerdict:
    """Decide the balanced predicate for a spec tending to +inf.

    ``mode='numeric'`` additionally attaches tail-window ratio statistics;
    the verdict itself still comes only from the analytic rules.
    """
    if mode not in ("analytic", "numeric"):
        raise ValueError(f"unknown mode {mode!r}")
    _require_divergent_positive(spec)
    kind, reason, est = _analytic_balance(spec)
    evidence = None
    if mode == "numeric":
        evidence = _numeric_evidence(spec, horizon)
    return BalanceVerdict(kind=kind, reason=reason, limsup_estimate=est, evidence=evidence)


# ---------------------------------------------------------------------------
# Term-density condition: liminf |term|/n = 0


@dataclass(frozen=True)
class DensityReport:
    condition: Condition
    reason: str
    # Interleave-branch path ("first"/"second" steps) selecting a strand
    # along which |term|/n -> 0; () means the whole sequence qualifies.
    path: Optional[Tuple[str, ...]] = None


def _analytic_density(spec: SequenceSpec) -> DensityReport:
    if isinstance(spec, (Linear, NegLinear)):
        return DensityReport(Condition.FAILS, "|term|/n is constantly 1")
    if isinstance(spec, PowerOfIndex):
        if spec.exponent == 1:
            return DensityReport(Condition.FAILS, "|term|/n is constantly 1")
        return DensityReport(Condition.FAILS, "|term|/n grows polynomially")
    if isinstance(spec, Geometric):
        return DensityReport(
            Condition.FAILS, "|term|/n is increasing from index 2 onward"
        )
    if isinstance(spec, SumJump):
        return DensityReport(Condition.FAILS, "jump terms dominate the index")
    if isinstance(spec, RunLength):
        if spec.rule in (RunRule.STAIRS, RunRule.CEIL_SQRT):
            return DensityReport(
                Condition.HOLDS,
                "block values grow like the square root of the index",
                path=(),
            )
        return DensityReport(
            Condition.FAILS, "block values outgrow the index"
        )
    if isinstance(spec, Negate):
        inner = _analytic_density(spec.base)
        return DensityReport(inner.condition, inner.reason, inner.path)
    if isinstance(spec, Affine):
        if spec.scale == 0:
            return DensityReport(Condition.UNKNOWN, "degenerate scale")
        inner = _analytic_density(spec.base)
        return DensityReport(
            inner.condition, inner.reason + " (affine image)", inner.path
        )
    if isinstance(spec, ExplicitPrefix):
        inner = _analytic_density(spec.tail)
        return DensityReport(
            inner.condition, inner.reason + " (finite prefix immaterial)", inner.path
        )
    if isinstance(spec, PointwiseSquare):
        inner = _analytic_density(spec.base)
        if inner.condition is Condition.FAILS:
            return DensityReport(Condition.FAILS, "square of a dense-failing base")
        if isinstance(spec.base, RunLength) and spec.base.rule in (
            RunRule.STAIRS,
            RunRule.CEIL_SQRT,
        ):
            return DensityReport(
                Condition.FAILS,
                "squared root-growth values keep |term|/n bounded away from 0",
            )
        return DensityReport(Condition.UNKNOWN, "no analytic rule for this square")
    if isinstance(spec, Interleave):
        first = _analytic_density(spec.first)
        if first.condition is Condition.HOLDS:
            return DensityReport(
                Condition.HOLDS,
                first.reason + " (along the first strand)",
                path=("first",) + (first.path or ()),
            )
        second = _analytic_density(spec.second)
        if second.condition is Condition.HOLDS:
            return DensityReport(
                Condition.HOLDS,
                second.reason + " (along the second strand)",
                path=("second",) + (second.path or ()),
            )
        if first.condition is Condition.FAILS and second.condition is Condition.FAILS:
            return DensityReport(Condition.FAILS, "both strands fail the condition")
        return DensityReport(Condition.UNKNOWN, "strand verdicts incomplete")
    if isinstance(spec, Constant):
        return DensityReport(Condition.UNKNOWN, "not divergent")
    return DensityReport(
        Condition.UNKNOWN, f"no analytic rule for {type(spec).__name__}"
    )


def density_report(spec: SequenceSpec) -> DensityReport:
    """Full density analysis, including the qualifying strand when it holds."""
    try:
        prof = profile(spec)
    except UnknownProfile as exc:
        raise NotDivergent(f"divergence not derivable: {exc}") from exc
    if prof.finite_acc:
        raise NotDivergent("sequence does not diverge in modulus")
    return _analytic_density(spec)


def density_condition(spec: SequenceSpec) -> Condition:
    """Whether liminf |term|/n = 0: Holds, Fails or Unknown."""
    return density_report(spec).condition
