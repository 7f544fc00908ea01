"""Decision tree from accumulation profile to attainable-average set.

The tree is exhaustive over profiles.  Where reachability of finite targets
depends on balance or density facts, those verdicts are inputs: ``b_*``
arguments describe the part converging to the profile's liminf, ``c_*`` the
part converging to its limsup.  Unknown verdicts are rejected, never guessed.
"""

from __future__ import annotations

from typing import Union

from .aarset import AARSet, Interval
from .balance import (
    BalanceKind,
    BalanceVerdict,
    Condition,
    balanced_verdict,
    density_condition,
)
from .errors import InsufficientEvidence, MeanweaveError
from .extreal import NEG_INF, POS_INF, ExtendedReal
from .seqspec import (
    AccumulationProfile,
    SequenceSpec,
    decompose,
    profile,
)

BalanceInput = Union[BalanceVerdict, BalanceKind, None]
ConditionInput = Union[Condition, None]


def _balance_kind(v: BalanceInput) -> BalanceKind:
    if isinstance(v, BalanceVerdict):
        return v.kind
    if isinstance(v, BalanceKind):
        return v
    return BalanceKind.UNKNOWN


def _condition(v: ConditionInput) -> Condition:
    return v if isinstance(v, Condition) else Condition.UNKNOWN


def classify(
    profile: AccumulationProfile,
    b_balance: BalanceInput = None,
    c_balance: BalanceInput = None,
    b_density: ConditionInput = None,
    c_density: ConditionInput = None,
) -> AARSet:
    """The set of extended reals attainable as limits of running averages.

    Case split on the profile:
    - no finite accumulation: one infinity gives that single point; both
      infinities give the whole extended line exactly when both parts
      satisfy the |term|/n density condition, else just the two infinities;
    - bounded: the closed interval [liminf, limsup];
    - finite accumulation stretching to an infinity: interval plus the
      flagged infinities, verbatim;
    - finite accumulation between finite a..b plus infinities: balance of
      the divergent parts decides whether the reachable interval extends
      to the corresponding infinity.
    """
    fa = profile.finite_acc

    if not fa:
        if profile.has_neg_inf and profile.has_pos_inf:
            bd, cd = _condition(b_density), _condition(c_density)
            missing = []
            if bd is Condition.UNKNOWN:
                missing.append("b_density")
            if cd is Condition.UNKNOWN:
                missing.append("c_density")
            if missing:
                raise InsufficientEvidence(missing)
            if bd is Condition.HOLDS and cd is Condition.HOLDS:
                return AARSet.whole_line()
            return AARSet.of(NEG_INF, POS_INF)
        if profile.has_neg_inf:
            return AARSet.of(NEG_INF)
        return AARSet.of(POS_INF)

    a: ExtendedReal = fa[0].lo
    b: ExtendedReal = fa[-1].hi

    if not profile.has_neg_inf and not profile.has_pos_inf:
        return AARSet.of(Interval(a, b))

    if a == NEG_INF or b == POS_INF:
        # Unbounded finite accumulation: the hull plus flagged infinities.
        pieces = [Interval(a, b)]
        if profile.has_neg_inf:
            pieces.append(Interval.point(NEG_INF))
        if profile.has_pos_inf:
            pieces.append(Interval.point(POS_INF))
        return AARSet(pieces)

    if profile.has_neg_inf and not profile.has_pos_inf:
        kind = _balance_kind(b_balance)
        if kind is BalanceKind.UNKNOWN:
            raise InsufficientEvidence(["b_balance"])
        if kind is BalanceKind.BALANCED:
            return AARSet.of(Interval(NEG_INF, b))
        return AARSet.of(Interval(a, b), NEG_INF)

    if profile.has_pos_inf and not profile.has_neg_inf:
        kind = _balance_kind(c_balance)
        if kind is BalanceKind.UNKNOWN:
            raise InsufficientEvidence(["c_balance"])
        if kind is BalanceKind.BALANCED:
            return AARSet.of(Interval(a, POS_INF))
        return AARSet.of(Interval(a, b), POS_INF)

    # Both infinities around a finite middle.
    bk, ck = _balance_kind(b_balance), _balance_kind(c_balance)
    missing = []
    if bk is BalanceKind.UNKNOWN:
        missing.append("b_balance")
    if ck is BalanceKind.UNKNOWN:
        missing.append("c_balance")
    if missing:
        raise InsufficientEvidence(missing)
    if bk is BalanceKind.BALANCED and ck is BalanceKind.BALANCED:
        return AARSet.whole_line()
    if bk is BalanceKind.BALANCED:
        return AARSet.of(Interval(NEG_INF, b), POS_INF)
    if ck is BalanceKind.BALANCED:
        return AARSet.of(Interval(a, POS_INF), NEG_INF)
    return AARSet.of(Interval(a, b), NEG_INF, POS_INF)


def classify_spec(spec: SequenceSpec) -> AARSet:
    """Classify a spec end to end, deriving the verdicts the tree needs.

    Balance verdicts come from the strands the decomposition assigns to the
    divergent ends; density verdicts from the two divergent halves when no
    finite accumulation point exists.  Underivable verdicts surface as
    InsufficientEvidence, never as a guess.
    """
    prof = profile(spec)
    fa = prof.finite_acc
    kwargs = {}
    if not fa and prof.has_neg_inf and prof.has_pos_inf:
        dec = decompose(spec, prof)
        try:
            kwargs["b_density"] = density_condition(dec.b.spec)
        except MeanweaveError:
            pass
        try:
            kwargs["c_density"] = density_condition(dec.c.spec)
        except MeanweaveError:
            pass
    elif fa and fa[0].lo.is_finite and fa[-1].hi.is_finite and (
        prof.has_neg_inf or prof.has_pos_inf
    ):
        dec = decompose(spec, prof)
        if prof.has_neg_inf:
            try:
                kwargs["b_balance"] = balanced_verdict(dec.b.negated().spec)
            except MeanweaveError:
                pass
        if prof.has_pos_inf:
            try:
                kwargs["c_balance"] = balanced_verdict(dec.c.spec)
            except MeanweaveError:
                pass
    return classify(prof, **kwargs)
