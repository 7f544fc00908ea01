"""Extended-real values: ordering, arithmetic negation, text round trips."""

import operator
from fractions import Fraction

import pytest

from meanweave.extreal import NEG_INF, POS_INF, ExtendedReal, as_fraction


def test_total_order_infinities_bracket_every_finite_value():
    finite = [ExtendedReal(Fraction(v)) for v in (-1000, -1, 0, 1, 1000)]
    for x in finite:
        assert NEG_INF < x < POS_INF
    assert NEG_INF < POS_INF
    for lo, hi in zip(finite, finite[1:]):
        assert lo < hi


def test_equality_and_flags():
    x = ExtendedReal(Fraction(3, 2))
    assert x == ExtendedReal(Fraction(3, 2))
    assert x.is_finite and not x.is_neg_inf and not x.is_pos_inf
    assert POS_INF.is_pos_inf and not POS_INF.is_finite
    assert NEG_INF.is_neg_inf and not NEG_INF.is_finite


@pytest.mark.parametrize("x", [ExtendedReal(0), ExtendedReal(Fraction(1, 2)), POS_INF])
def test_a_float_is_refused_by_the_order_and_never_equal(x):
    for order in ("__lt__", "__le__", "__gt__", "__ge__"):
        with pytest.raises(TypeError):
            getattr(operator, order)(x, 0.5)
        with pytest.raises(TypeError):
            getattr(operator, order)(0.5, x)
    assert x != 0.5 and x != float(0) and not x == "0"


def test_negation_flips_sign_and_swaps_infinities():
    assert -ExtendedReal(Fraction(3, 2)) == ExtendedReal(Fraction(-3, 2))
    assert -POS_INF == NEG_INF
    assert -NEG_INF == POS_INF


def test_render_default_and_exact():
    assert ExtendedReal(Fraction(3, 2)).render() == "3/2"
    assert ExtendedReal(Fraction(3)).render() == "3"
    assert ExtendedReal(Fraction(3)).render(exact=True) == "3/1"
    assert ExtendedReal(Fraction(0)).render(exact=True) == "0/1"
    assert POS_INF.render() == "+inf"
    assert NEG_INF.render() == "-inf"


@pytest.mark.parametrize(
    "text",
    ["0", "7", "-7/2", "3/2", "+inf", "-inf"],
)
def test_parse_render_round_trip(text):
    x = ExtendedReal.parse(text)
    assert ExtendedReal.parse(x.render()) == x


def test_parse_accepts_bare_inf_as_positive():
    assert ExtendedReal.parse("inf").is_pos_inf


def test_value_of_finite_point():
    assert ExtendedReal(Fraction(-7, 2)).value == Fraction(-7, 2)


def test_as_fraction_accepts_ints_and_fractions():
    assert as_fraction(3) == Fraction(3)
    assert as_fraction(Fraction(1, 2)) == Fraction(1, 2)
    for x in (0.1, 0.25, 2.0):
        with pytest.raises(TypeError):
            as_fraction(x)
