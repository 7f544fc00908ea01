"""Decision tree from accumulation set to attainable-average set.

Both sets are ``AARSet`` values.  The tree is exhaustive over profiles.
Where reachability of finite targets depends on balance or density facts,
those verdicts are inputs: ``b_*`` arguments describe the part converging to
the profile's liminf, ``c_*`` the part converging to its limsup.  They
default to Unknown, and an Unknown verdict the tree needs is rejected, never
guessed.
"""

from __future__ import annotations

from .aarset import AARSet, Interval, union
from .balance import BalanceKind, Condition, balanced_verdict, density_condition
from .errors import InsufficientEvidence, MeanweaveError
from .extreal import NEG_INF, POS_INF
from .seqspec import SequenceSpec, decompose, profile


def classify(
    profile: AARSet,
    b_balance: BalanceKind = BalanceKind.UNKNOWN,
    c_balance: BalanceKind = BalanceKind.UNKNOWN,
    b_density: Condition = Condition.UNKNOWN,
    c_density: Condition = Condition.UNKNOWN,
) -> AARSet:
    """The set of extended reals attainable as limits of running averages.

    Case split on the profile (its accumulation set):
    - no finite accumulation: one infinity gives that single point; both
      infinities give the whole extended line exactly when both parts
      satisfy the |term|/n density condition, else just the two infinities;
    - otherwise the hull [a, b] of the finite accumulation plus the
      profile's infinities;
    - when a and b are finite, balance of the divergent parts decides
      whether the hull extends to the corresponding infinity.
    """
    fa = profile.finite
    neg, pos = profile.lo.is_neg_inf, profile.hi.is_pos_inf

    if not fa:
        if neg and pos:
            missing = []
            if b_density is Condition.UNKNOWN:
                missing.append("b_density")
            if c_density is Condition.UNKNOWN:
                missing.append("c_density")
            if missing:
                raise InsufficientEvidence(missing)
            if b_density is Condition.HOLDS and c_density is Condition.HOLDS:
                return AARSet.whole_line()
        return profile

    lo, hi = fa[0].lo, fa[-1].hi
    if lo.is_finite and hi.is_finite:
        missing = []
        if neg:
            if b_balance is BalanceKind.UNKNOWN:
                missing.append("b_balance")
            elif b_balance is BalanceKind.BALANCED:
                lo = NEG_INF
        if pos:
            if c_balance is BalanceKind.UNKNOWN:
                missing.append("c_balance")
            elif c_balance is BalanceKind.BALANCED:
                hi = POS_INF
        if missing:
            raise InsufficientEvidence(missing)
    return union(AARSet.of(Interval(lo, hi)), profile)


def classify_spec(spec: SequenceSpec) -> AARSet:
    """Classify a spec end to end, deriving the verdicts the tree needs.

    Balance verdicts come from the strands the decomposition assigns to the
    divergent ends; density verdicts from the two divergent halves when no
    finite accumulation point exists.  Underivable verdicts surface as
    InsufficientEvidence, never as a guess.
    """
    prof = profile(spec)
    fa = prof.finite
    neg, pos = prof.lo.is_neg_inf, prof.hi.is_pos_inf
    kwargs = {}
    if not fa and neg and pos:
        dec = decompose(spec, prof)
        try:
            kwargs["b_density"] = density_condition(dec.b.spec)
        except MeanweaveError:
            pass
        try:
            kwargs["c_density"] = density_condition(dec.c.spec)
        except MeanweaveError:
            pass
    elif fa and fa[0].lo.is_finite and fa[-1].hi.is_finite and (neg or pos):
        dec = decompose(spec, prof)
        if neg:
            try:
                kwargs["b_balance"] = balanced_verdict(dec.b.negated().spec).kind
            except MeanweaveError:
                pass
        if pos:
            try:
                kwargs["c_balance"] = balanced_verdict(dec.c.spec).kind
            except MeanweaveError:
                pass
    return classify(prof, **kwargs)
