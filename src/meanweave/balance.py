"""Partial-sum ratio diagnostics and the balanced/density verdicts.

A positive divergent sequence is *balanced* when each term is eventually
negligible against the sum of all earlier terms (term/prefix-sum ratio
tending to zero).  Balance decides whether averages can be steered to finite
targets above the bounded part's limsup; the separate *density* condition
(liminf |term|/n = 0) governs two-sided constructions.

Verdicts here are analytic: a fixed catalog of structural rules plus closure
under positive scaling, shifts and index-aligned sums.  Each rule lives on
its family's class in ``seqspec``.  Numeric runs only attach evidence — they
never upgrade a verdict.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import List, Optional

from .errors import NonPositiveTerm, NotDivergent, UnknownProfile
from .extreal import POS_INF, Record, set_field, widen
from .seqspec import BalanceKind, Condition, DensityReport, SequenceSpec, profile


class RatioEntry(Record):
    """Exact diagnostics at one index.

    Field names follow the module contract: ``s_prev`` is the sum of the
    terms before n, ``r_n`` the term divided by that sum, ``A_n`` its
    reciprocal (the balance index), and ``r_incl`` the term divided by the
    sum including itself.  All but n are Fractions.
    """

    _fields = ("n", "term", "s_prev", "r_n", "A_n", "r_incl")

    def __init__(self, n: int, term, s_prev, r_n, A_n, r_incl):
        set_field(self, "n", n)
        set_field(self, "term", term)
        set_field(self, "s_prev", s_prev)
        set_field(self, "r_n", r_n)
        set_field(self, "A_n", A_n)
        set_field(self, "r_incl", r_incl)


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


class NumericEvidence(Record):
    """Tail-window ratio statistics; advisory only."""

    _fields = ("horizon", "window_start", "max_ratio", "last_ratio", "ratio_small")

    def __init__(self, horizon, window_start, max_ratio, last_ratio, ratio_small):
        set_field(self, "horizon", horizon)
        set_field(self, "window_start", window_start)
        set_field(self, "max_ratio", max_ratio)  # None: no positive earlier sum in window
        set_field(self, "last_ratio", last_ratio)
        set_field(self, "ratio_small", ratio_small)  # max tail ratio below 1e-3 threshold


class BalanceVerdict(Record):
    _fields = ("kind", "reason", "limsup_estimate", "evidence")

    def __init__(self, kind: BalanceKind, reason, limsup_estimate=None, evidence=None):
        set_field(self, "kind", kind)
        set_field(self, "reason", reason)
        set_field(self, "limsup_estimate", limsup_estimate)
        set_field(self, "evidence", evidence)


EVIDENCE_THRESHOLD = Fraction(1, 1000)


def _require_divergent_positive(spec: SequenceSpec):
    try:
        limit = profile(spec).point()
    except UnknownProfile as exc:
        raise NotDivergent(f"divergence not derivable: {exc}") from exc
    if limit != POS_INF:
        raise NotDivergent("sequence is not declared to tend to +inf")


def _numeric_evidence(spec: SequenceSpec, horizon: int) -> NumericEvidence:
    """The tail-window ratios over the spec's term pairs and an unreduced
    integer-pair sum num/den: the term over den is v, so its ratio to the
    earlier sum is v/num, and ratios compare by cross-multiplication.  Only
    the two reported ratios become Fractions."""
    window_start = max(2, horizon - horizon // 10)
    num, den = 0, 1
    best = last = None  # (v, num): the ratio v/num with num > 0
    for i, (vn, vd) in enumerate(islice(spec.iter_pairs(), horizon), start=1):
        if den == vd:
            v = vn
        else:
            if den % vd:
                num, den = widen(num, den, vd)
            v = vn * (den // vd)
        if i >= window_start and num > 0:
            last = v, num
            if best is None or v * best[1] > best[0] * num:
                best = last
        num += v
    max_ratio = None if best is None else Fraction(*best)
    return NumericEvidence(
        horizon=horizon,
        window_start=window_start,
        max_ratio=max_ratio,
        last_ratio=None if last is None else Fraction(*last),
        ratio_small=max_ratio is not None and max_ratio < EVIDENCE_THRESHOLD,
    )


def balanced_verdict(
    spec: SequenceSpec, mode: str = "analytic", horizon: int = 10_000
) -> BalanceVerdict:
    """Decide the balanced predicate for a spec tending to +inf.

    ``mode='numeric'`` additionally attaches tail-window ratio statistics
    over the first ``horizon`` terms (at least 2); the verdict itself still
    comes only from the analytic rules.
    """
    if mode not in ("analytic", "numeric"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "numeric" and horizon < 2:
        raise ValueError(f"numeric horizon must be at least 2, got {horizon}")
    _require_divergent_positive(spec)
    kind, reason, est = spec._balance()
    evidence = None
    if mode == "numeric":
        evidence = _numeric_evidence(spec, horizon)
    return BalanceVerdict(kind=kind, reason=reason, limsup_estimate=est, evidence=evidence)


# ---------------------------------------------------------------------------
# Term-density condition: liminf |term|/n = 0


def density_report(spec: SequenceSpec) -> DensityReport:
    """Full density analysis, including the qualifying strand when it holds."""
    try:
        prof = profile(spec)
    except UnknownProfile as exc:
        raise NotDivergent(f"divergence not derivable: {exc}") from exc
    if prof.finite:
        raise NotDivergent("sequence does not diverge in modulus")
    return spec._density()


def density_condition(spec: SequenceSpec) -> Condition:
    """Whether liminf |term|/n = 0: Holds, Fails or Unknown."""
    return density_report(spec).condition
