"""The balanced and density verdicts, and exact balance evidence.

A positive divergent sequence is *balanced* when each term is eventually
negligible against the sum of all earlier terms (term/prefix-sum ratio
tending to zero).  Balance decides whether averages can be steered to finite
targets above the bounded part's limsup; the separate *density* condition
(liminf |term|/n = 0) governs two-sided constructions.

Verdicts here are analytic: a fixed catalog of structural rules plus closure
under positive scaling, shifts and index-aligned sums.  Each rule lives on
its family's class in ``seqspec``.  Numeric runs only attach evidence, the
exact ratios over a tail window — they never upgrade a verdict.
"""

from __future__ import annotations

import math
import operator
import sys
from fractions import Fraction
from itertools import islice

from .aarset import AARSet
from .errors import NotDivergent, UnknownProfile
from .extreal import POS_INF, Record, first_positive, set_field, widen
from .seqspec import BalanceKind, Condition, DensityReport, SequenceSpec, profile


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


def _profile_of(spec: SequenceSpec) -> AARSet:
    try:
        return profile(spec)
    except UnknownProfile as exc:
        raise NotDivergent(f"divergence not derivable: {exc}") from exc


def _differences(values: list) -> list:
    """The forward differences of ``values`` at its first, of orders 0, 1, ..."""
    out = []
    while values:
        out.append(values[0])
        values = list(map(operator.sub, values[1:], values))
    return out


def _closed_form(spec: SequenceSpec, window_start: int, horizon: int):
    """The window's largest and last ratio as pairs (P, S) if the certificate
    of ``SequenceSpec._degree`` holds at w = window_start, else None.  With c
    the differences at 1 of P(1..d+1) over one denominator, P(n+1) =
    sum c_k*C(n, k) and S(n) = sum c_k*C(n, k+1)."""
    d = spec._degree()  # d*d big-integer steps, against one per term summed
    if d is None or d * d > horizon or horizon - window_start < 2 * d + 1:
        return None
    terms = [spec.term(n) for n in range(1, d + 2)]
    den = math.lcm(*(t.denominator for t in terms))
    c = _differences([int(t * den) for t in terms])

    def at(b):  # (P(n+1), S(n)) from b = [C(n, 0), ..., C(n, d+1)]
        return sum(map(operator.mul, c, b)), sum(map(operator.mul, c, b[1:]))

    b = [math.comb(window_start - 1, k) for k in range(d + 2)]
    p, s = at(b)
    step = [sum(map(operator.mul, c[j:], b)) for j in range(d + 1)]  # P's differences at w
    if s <= 0 or p <= 0 or min(step) < 0:
        return None
    best, D = (p, s), []  # D(w+t) for t = 0..2d, P(w+t) stepped by its differences
    for _ in range(2 * d + 1):
        for j in range(d):
            step[j] += step[j + 1]
        D.append(p * p - (step[0] - p) * s)
        p, s = step[0], s + p
    if min(_differences(D)) < 0:
        return None
    return best, at([math.comb(horizon - 1, k) for k in range(d + 2)])


def _summed(spec: SequenceSpec, window_start: int, horizon: int):
    """The largest and the last ratio in the window as pairs (v, num), read
    from the terms summed as an unreduced integer pair num/den: the term
    over den is v, so its ratio to the earlier sum is v/num, and ratios
    compare by cross-multiplication.  A spec with runs is read run by run:
    as v/num never rises along a run while num > 0, a run's first and last
    ratio in the window are its largest and its last."""
    num, den = 0, 1
    best = last = None  # (v, num): the ratio v/num with num > 0
    runs = spec.iter_runs()
    if runs is None:
        if horizon > sys.maxsize:
            raise ValueError(f"numeric horizon {horizon} is too long to read term by term")
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
        return best, last
    i = 0  # the terms summed so far
    for (vn, vd), c in runs:
        if den % vd:
            num, den = widen(num, den, vd)
        v = vn * (den // vd)
        c = horizon - i if c is None else min(c, horizon - i)
        lo, hi = max(0, window_start - 1 - i), c - 1  # the run's terms in the window
        if lo <= hi:  # the earlier sum num + j*v at its j-th term is > 0 on an interval
            a, b = first_positive(num + lo * v, v), first_positive(num + hi * v, -v)
            if a is not None and b is not None:
                last, top = (v, num + (hi - b) * v), num + (lo + a) * v
                if best is None or v * best[1] > best[0] * top:
                    best = v, top
        num, i = num + c * v, i + c
        if i == horizon:
            break
    return best, last


def _numeric_evidence(spec: SequenceSpec, horizon: int) -> NumericEvidence:
    """The tail-window ratios term/earlier sum: in closed form at any horizon
    of at least d*d for a spec of degree d whose window holds 2d+2 terms and
    passes the certificate, else summed.  Only the two reported ratios become
    Fractions."""
    window_start = max(2, horizon - horizon // 10)
    best, last = _closed_form(spec, window_start, horizon) or _summed(spec, window_start, horizon)
    max_ratio = None if best is None else Fraction(*best)
    last_ratio = None if last is None else Fraction(*last)
    small = max_ratio is not None and max_ratio < EVIDENCE_THRESHOLD
    return NumericEvidence(horizon, window_start, max_ratio, last_ratio, small)


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
    if mode == "numeric" and not isinstance(horizon, int):
        raise ValueError(f"numeric horizon must be an integer, got {horizon!r}")
    if mode == "numeric" and horizon < 2:
        raise ValueError(f"numeric horizon must be at least 2, got {horizon}")
    if _profile_of(spec).point() != POS_INF:
        raise NotDivergent("sequence is not declared to tend to +inf")
    kind, reason, est = spec._balance()
    evidence = _numeric_evidence(spec, horizon) if mode == "numeric" else None
    return BalanceVerdict(kind=kind, reason=reason, limsup_estimate=est, evidence=evidence)


# ---------------------------------------------------------------------------
# Term-density condition: liminf |term|/n = 0


def density_report(spec: SequenceSpec) -> DensityReport:
    """Full density analysis, including the qualifying strand when it holds."""
    if _profile_of(spec).finite:
        raise NotDivergent("sequence does not diverge in modulus")
    return spec._density()


def density_condition(spec: SequenceSpec) -> Condition:
    """Whether liminf |term|/n = 0: Holds, Fails or Unknown."""
    return density_report(spec).condition
