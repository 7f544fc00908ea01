"""Balance index and density condition: exact ratios, verdicts, identities."""

from fractions import Fraction

import pytest

from meanweave.aarset import AARSet
from meanweave.balance import (
    BalanceKind,
    Condition,
    balanced_verdict,
    density_condition,
    density_report,
    ratio_series,
)
from meanweave.dsl import parse_spec
from meanweave.errors import NonPositiveTerm, NotDivergent
from meanweave.extreal import POS_INF
from meanweave.seqspec import Affine, Constant, Linear

F = Fraction


# ---------------------------------------------------------------------------
# Exact ratio series (r_n = term_n / sum of earlier terms; A_n = 1 / r_n)


def test_geometric_ratio_at_ten_exact():
    # Terms 2^n: earlier sum at n=10 is 2+...+512 = 1022, term is 1024.
    e = ratio_series(parse_spec("geom(2)"), 10)[-1]
    assert (e.n, e.term, e.s_prev) == (10, F(1024), F(1022))
    assert e.r_n == F(512, 511)
    assert e.A_n == F(511, 512)
    assert e.r_incl == F(512, 1023)


def test_constant_ratio_series_exact():
    e = ratio_series(parse_spec("const(1)"), 5)[-1]
    assert (e.n, e.term, e.s_prev) == (5, F(1), F(4))
    assert e.r_n == F(1, 4) and e.A_n == F(4) and e.r_incl == F(1, 5)


def test_square_power_ratio_exact():
    e = ratio_series(parse_spec("pow(2)"), 4)[-1]
    assert (e.n, e.term, e.s_prev) == (4, F(16), F(14))
    assert e.r_n == F(8, 7)


def test_series_starts_at_two_and_is_contiguous():
    entries = ratio_series(parse_spec("pow(1)"), 12)
    assert [e.n for e in entries] == list(range(2, 13))


def test_ratio_series_rejects_nonpositive_terms():
    with pytest.raises(NonPositiveTerm):
        ratio_series(parse_spec("neglinear()"), 5)
    with pytest.raises(NonPositiveTerm):
        ratio_series(parse_spec("interleave(const(0), const(1))"), 5)


# ---------------------------------------------------------------------------
# Exact identities linking the series quantities


@pytest.mark.parametrize("text", ["geom(2)", "pow(2)", "runlen(1)", "runlen(3)", "sumjump()"])
def test_reciprocal_and_inclusive_forms_agree(text):
    for e in ratio_series(parse_spec(text), 200):
        assert e.A_n == 1 / e.r_n
        assert e.r_incl == e.r_n / (1 + e.r_n)
        assert e.r_incl == e.term / (e.s_prev + e.term)


@pytest.mark.parametrize("text", ["geom(2)", "pow(2)", "runlen(3)"])
def test_balance_index_recurrence_exact(text):
    # A_{n+1} = (A_n + 1) * term_n / term_{n+1}, with zero tolerance.
    entries = ratio_series(parse_spec(text), 1000)
    by_n = {e.n: e for e in entries}
    for n in range(2, 1000):
        cur, nxt = by_n[n], by_n[n + 1]
        assert nxt.A_n == (cur.A_n + 1) * cur.term / nxt.term


@pytest.mark.parametrize("k", [1, 2, 3])
def test_power_sum_integral_sandwich(k):
    # For term n^k the integral (n^{k+1}-1)/(k+1) lies between the sums
    # up to n-1 and up to n, so the reciprocal comparison brackets it.
    entries = ratio_series(parse_spec(f"pow({k})"), 1000)
    for e in entries:
        integral = (F(e.n) ** (k + 1) - 1) / (k + 1)
        f_n = e.term
        assert f_n / (e.s_prev + f_n) <= f_n / integral <= f_n / e.s_prev


# ---------------------------------------------------------------------------
# Analytic verdicts


def test_geometric_is_never_balanced_with_ratio_limit():
    v = balanced_verdict(parse_spec("geom(2)"))
    assert v.kind is BalanceKind.NOT_BALANCED
    assert v.limsup_estimate == F(1)
    assert isinstance(v.reason, str) and v.reason
    assert balanced_verdict(parse_spec("geom(3)")).limsup_estimate == F(2)
    assert balanced_verdict(parse_spec("square(geom(2))")).limsup_estimate == F(3)


@pytest.mark.parametrize(
    "text",
    ["pow(1)", "pow(2)", "pow(3)", "runlen(1)", "runlen(2)", "runlen(3)",
     "square(runlen(1))", "square(runlen(2))", "affine(pow(2), 3, 0)"],
)
def test_balanced_families(text):
    assert balanced_verdict(parse_spec(text)).kind is BalanceKind.BALANCED


def test_factorial_blocks_balanced_but_their_squares_are_not():
    base = balanced_verdict(parse_spec("runlen(3)"))
    squared = balanced_verdict(parse_spec("square(runlen(3))"))
    assert base.kind is BalanceKind.BALANCED
    assert squared.kind is BalanceKind.NOT_BALANCED
    assert squared.limsup_estimate == F(1, 2)


def test_jumpy_partial_sums_are_not_balanced():
    v = balanced_verdict(parse_spec("sumjump()"))
    assert v.kind is BalanceKind.NOT_BALANCED
    assert v.limsup_estimate == F(1)


def test_balanced_verdict_requires_divergence():
    for text in ("const(1)", "neglinear()", "interleave(const(0), const(1))"):
        with pytest.raises(NotDivergent):
            balanced_verdict(parse_spec(text))


# ---------------------------------------------------------------------------
# Numeric mode evidence


def test_numeric_mode_reports_tail_window_ratios_exactly():
    v = balanced_verdict(parse_spec("pow(1)"), mode="numeric", horizon=4000)
    assert v.kind is BalanceKind.BALANCED
    ev = v.evidence
    assert ev.horizon == 4000 and ev.window_start == 3600
    # r_n for term n over sum n(n-1)/2 is 2/(n-1).
    assert ev.max_ratio == F(2, 3599)
    assert ev.last_ratio == F(2, 3999)
    assert ev.ratio_small is True


def test_numeric_mode_is_honest_when_ratios_are_not_yet_small():
    v = balanced_verdict(parse_spec("pow(1)"), mode="numeric", horizon=2000)
    assert v.evidence.max_ratio == F(2, 1799)
    assert v.evidence.ratio_small is False  # 2/1799 is still above 1/1000


@pytest.mark.parametrize("horizon", [1, 0, -5])
def test_numeric_mode_refuses_a_horizon_below_two(horizon):
    with pytest.raises(ValueError, match="numeric horizon must be at least 2"):
        balanced_verdict(parse_spec("linear()"), mode="numeric", horizon=horizon)
    v = balanced_verdict(parse_spec("linear()"), mode="numeric", horizon=2)
    assert v.evidence.window_start == 2


@pytest.mark.parametrize("horizon", [3, 10])
def test_numeric_mode_has_no_ratio_while_earlier_sums_are_not_positive(horizon):
    # terms -4, -3, -2, ...: the sum before index n is positive only from n = 11
    v = balanced_verdict(parse_spec("affine(linear(), 1, -5)"), mode="numeric", horizon=horizon)
    assert v.kind is BalanceKind.BALANCED
    ev = v.evidence
    assert (ev.max_ratio, ev.last_ratio, ev.ratio_small) == (None, None, False)


def test_numeric_mode_on_geometric_shows_ratio_near_one():
    v = balanced_verdict(parse_spec("geom(2)"), mode="numeric", horizon=200)
    assert v.kind is BalanceKind.NOT_BALANCED
    assert abs(v.evidence.last_ratio - 1) < F(1, 10**50)


# ---------------------------------------------------------------------------
# Density condition (liminf |term|/index = 0)


def test_sqrt_like_growth_satisfies_density():
    rep = density_report(parse_spec("runlen(4)"))
    assert rep.condition is Condition.HOLDS
    assert density_condition(parse_spec("runlen(4)")) is Condition.HOLDS


def test_linear_and_geometric_growth_fail_density():
    assert density_condition(parse_spec("linear()")) is Condition.FAILS
    assert density_condition(parse_spec("geom(2)")) is Condition.FAILS
    rep = density_report(parse_spec("linear()"))
    assert rep.condition is Condition.FAILS and rep.path is None


def test_density_requires_divergence_in_modulus():
    with pytest.raises(NotDivergent):
        density_condition(parse_spec("const(1)"))


# ---------------------------------------------------------------------------
# Every analytic balance and density rule, pinned with its reason text
# (``meanweave balanced`` prints the reason).  Rules reachable only when a
# declared profile overrides the structural one use a declared profile.

B, NB, UB = BalanceKind.BALANCED, BalanceKind.NOT_BALANCED, BalanceKind.UNKNOWN
H, X, U = Condition.HOLDS, Condition.FAILS, Condition.UNKNOWN
DIVERGES = AARSet.of(POS_INF)

BALANCE_RULES = [
    ("linear()", B, "polynomial terms: ratio falls like 2/n", None),
    ("pow(3)", B, "polynomial terms: ratio falls like 4/n", None),
    ("geom(3)", NB, "geometric growth keeps the ratio near ratio-1 "
     "(consecutive-term quotient stays below 1)", F(2)),
    ("runlen(1)", B, "doubling blocks: ratio falls like 1/blocklength", None),
    ("runlen(2)", B, "staircase blocks: prefix sums grow cubically", None),
    ("runlen(3)", B, "factorial blocks: balance index grows with the block", None),
    ("runlen(4)", B, "ceil-sqrt growth: ratio falls like 3/sqrt(n)", None),
    ("sumjump()", NB, "each jump term exceeds the whole prefix sum", F(1)),
    ("prefix(1, affine(pow(2), 2, 1))", B, "polynomial terms: ratio falls like "
     "3/n (positive scaling and shift preserved) (finite prefix immaterial)", None),
    ("affine(neglinear(), -1, 0)", UB, "non-positive scale leaves no rule", None),
    ("sum(linear(), pow(2))", B, "index-aligned sum of balanced sequences", None),
    ("sum(linear(), geom(2))", UB, "sum closure needs both sides balanced", None),
    ("interleave(linear(), pow(2))", UB,
     "no analytic rule for interleaved strands", None),
    ("neg(neglinear())", UB, "no analytic rule for Negate", None),
    ("square(prefix(1, linear()))", B,
     "square of polynomial terms is polynomial (degree 2)", None),
    ("square(pow(2))", B, "square of polynomial terms is polynomial (degree 4)", None),
    ("square(geom(2))", NB, "square of geometric growth is geometric", F(3)),
    ("square(runlen(3))", NB, "squared factorial blocks: the balance index at "
     "each block boundary stays below 2", F(1, 2)),
    ("square(runlen(1))", B, "squared sub-geometric blocks keep a vanishing ratio", None),
    ("square(sumjump())", NB, "squared jumps still exceed the squared prefix sum", F(1)),
    ("square(neglinear())", UB, "no analytic rule for this square", None),
]


@pytest.mark.parametrize("text,kind,reason,estimate", BALANCE_RULES,
                         ids=[row[0] for row in BALANCE_RULES])
def test_each_balance_rule_gives_its_verdict_and_reason(text, kind, reason, estimate):
    v = balanced_verdict(parse_spec(text))
    assert (v.kind, v.reason, v.limsup_estimate) == (kind, reason, estimate)


ROOT = "block values grow like the square root of the index"
DENSITY_RULES = [
    ("linear()", X, "|term|/n is constantly 1", None),
    ("neglinear()", X, "|term|/n is constantly 1", None),
    ("pow(1)", X, "|term|/n is constantly 1", None),
    ("pow(2)", X, "|term|/n grows polynomially", None),
    ("geom(2)", X, "|term|/n is increasing from index 2 onward", None),
    ("sumjump()", X, "jump terms dominate the index", None),
    ("runlen(2)", H, ROOT, ()),
    ("runlen(1)", X, "block values outgrow the index", None),
    ("neg(runlen(2))", H, ROOT, ()),
    (Affine(Linear(), 0, 0, declared_profile=DIVERGES), U, "degenerate scale", None),
    ("affine(runlen(4), 2, 1)", H, ROOT + " (affine image)", ()),
    ("prefix(1, runlen(2))", H, ROOT + " (finite prefix immaterial)", ()),
    ("square(linear())", X, "square of a dense-failing base", None),
    ("square(runlen(2))", X,
     "squared root-growth values keep |term|/n bounded away from 0", None),
    ("square(prefix(1, runlen(4)))", X,
     "squared root-growth values keep |term|/n bounded away from 0", None),
    ("interleave(runlen(2), linear())", H, ROOT + " (along the first strand)",
     ("first",)),
    ("interleave(neg(linear()), affine(interleave(geom(2), runlen(2)), -2, 1))", H,
     ROOT + " (along the second strand) (affine image) (along the second strand)",
     ("second", "second")),
    ("interleave(linear(), geom(2))", X, "both strands fail the condition", None),
    ("interleave(linear(), sum(linear(), linear()))", U,
     "strand verdicts incomplete", None),
    (Constant(1, declared_profile=DIVERGES), U, "not divergent", None),
    ("sum(linear(), linear())", U, "no analytic rule for PointwiseSum", None),
]


@pytest.mark.parametrize("spec,condition,reason,path", DENSITY_RULES,
                         ids=[str(row[0]) if isinstance(row[0], str)
                              else type(row[0]).__name__ for row in DENSITY_RULES])
def test_each_density_rule_gives_its_condition_reason_and_path(spec, condition,
                                                               reason, path):
    if isinstance(spec, str):
        spec = parse_spec(spec)
    rep = density_report(spec)
    assert (rep.condition, rep.reason, rep.path) == (condition, reason, path)
    assert density_condition(spec) is condition


@pytest.mark.parametrize("check,text", [
    (balanced_verdict, "const(1)"),
    (balanced_verdict, "sum(interleave(const(0), const(1)), linear())"),
    (density_report, "interleave(const(0), linear())"),
    (density_report, "sum(interleave(const(0), const(1)), linear())"),
])
def test_rules_refuse_what_does_not_diverge(check, text):
    with pytest.raises(NotDivergent):
        check(parse_spec(text))
