"""Descriptor language: parsing, rendering, diagnostics, totality."""

import random
import string
from fractions import Fraction

import pytest

from meanweave.dsl import parse_spec, render
from meanweave.errors import MalformedDescriptor, ParseError
from meanweave.seqspec import (
    Affine,
    Constant,
    Geometric,
    Interleave,
    Negate,
    PointwiseSquare,
    PowerOfIndex,
    SequenceSpec,
)

F = Fraction


def test_parse_builds_expected_shapes():
    spec = parse_spec("interleave(const(0), pow(2))")
    assert isinstance(spec, Interleave)
    assert isinstance(spec.first, Constant) and isinstance(spec.second, PowerOfIndex)
    assert [spec.term(n) for n in range(1, 7)] == [F(0), F(1), F(0), F(4), F(0), F(9)]


def test_parse_nested_three_strand_descriptor():
    spec = parse_spec("interleave(neg(geom(2)), interleave(const(0), geom(2)))")
    assert isinstance(spec, Interleave)
    assert isinstance(spec.first, Negate) and isinstance(spec.first.base, Geometric)
    assert isinstance(spec.second, Interleave)


def test_whitespace_is_insignificant():
    a = parse_spec("interleave(const(0),pow(2))")
    b = parse_spec("  interleave ( const( 0 ) ,  pow( 2 ) )  ")
    assert render(a) == render(b) == "interleave(const(0), pow(2))"


def test_rationals_parse_signs_and_denominators():
    assert parse_spec("const(-7/2)").term(1) == F(-7, 2)
    assert parse_spec("const(+3)").term(1) == F(3)
    assert isinstance(parse_spec("affine(linear(), -1, 1/3)"), Affine)


@pytest.mark.parametrize(
    "text,offset,expected_fragment",
    [
        ("", 0, "nonempty"),
        ("foo(1)", 0, "known constructor"),
        ("const(1) x", 9, "end of input"),
        ("interleave(const(0)", 19, "',' or ')'"),
        ("const()", 0, "const takes"),
        ("const(1,2)", 0, "const takes"),
        ("geom(1/2)", 0, "exceed 1"),
        ("geom(1)", 0, "exceed 1"),
        ("pow(0)", 0, "positive integer"),
        ("runlen(9)", 0, "unknown run-length rule"),
    ],
)
def test_parse_errors_carry_offset_and_expectation(text, offset, expected_fragment):
    with pytest.raises(ParseError) as exc:
        parse_spec(text)
    assert exc.value.offset == offset
    assert expected_fragment in exc.value.expected


@pytest.mark.parametrize(
    "text,offset,expected",
    [
        ("pow(3/2)", 0, "pow takes an integer exponent"),
        ("runlen(5/2)", 0, "runlen takes an integer rule number"),
        ("prefix(1, 2)", 0, "prefix takes (rational..., spec)"),
        ("interleave(const(0), prefix(linear()))", 21, "prefix takes (rational..., spec)"),
        ("prefix(linear(), 1, linear())", 0, "prefix takes (rational..., spec)"),
        ("affine(linear(), 1)", 0, "affine takes (spec, rational, rational)"),
        ("linear(1)", 0, "linear takes ()"),
    ],
)
def test_argument_errors_name_the_family_shape(text, offset, expected):
    with pytest.raises(ParseError) as exc:
        parse_spec(text)
    assert (exc.value.offset, exc.value.expected) == (offset, expected)


def test_render_refuses_a_spec_without_a_textual_form():
    with pytest.raises(MalformedDescriptor, match="no textual form for SequenceSpec"):
        render(SequenceSpec())


def test_error_offset_points_at_the_failing_constructor():
    with pytest.raises(ParseError) as exc:
        parse_spec("interleave(const(0), geom(1/2))")
    assert exc.value.offset == 21  # start of the inner geom call


@pytest.mark.parametrize(
    "text",
    [
        "const(7)",
        "const(-7/2)",
        "pow(3)",
        "geom(2)",
        "linear()",
        "neglinear()",
        "sumjump()",
        "neg(geom(2))",
        "square(linear())",
        "affine(linear(), 2, 1/2)",
        "affine(pow(2), -1/3, 0)",
        "sum(linear(), const(1))",
        "interleave(const(0), pow(2))",
        "interleave(neg(geom(2)), interleave(const(0), geom(2)))",
        "runlen(1)",
        "runlen(4)",
        "prefix(5, -3, const(0))",
        "prefix(1/2, interleave(const(0), const(1)))",
    ],
)
def test_render_parse_identity(text):
    spec = parse_spec(text)
    assert render(spec) == text
    assert parse_spec(render(spec)) == spec


def _random_spec(rng, depth=0):
    if depth > 3 or rng.random() < 0.35:
        return rng.choice(
            [
                Constant(F(rng.randint(-9, 9), rng.randint(1, 9))),
                PowerOfIndex(rng.randint(1, 3)),
                Geometric(F(rng.randint(2, 5))),
            ]
        )
    kind = rng.randrange(4)
    if kind == 0:
        return Negate(_random_spec(rng, depth + 1))
    if kind == 1:
        return PointwiseSquare(_random_spec(rng, depth + 1))
    if kind == 2:
        return Affine(
            _random_spec(rng, depth + 1),
            F(rng.randint(-5, 5), rng.randint(1, 5)),
            F(rng.randint(-5, 5), rng.randint(1, 5)),
        )
    return Interleave(_random_spec(rng, depth + 1), _random_spec(rng, depth + 1))


def test_render_parse_identity_on_random_trees():
    rng = random.Random(20260823)
    for _ in range(300):
        spec = _random_spec(rng)
        assert parse_spec(render(spec)) == spec


def test_parser_totality_on_fuzzed_text():
    rng = random.Random(4711)
    alphabet = string.ascii_lowercase + "0123456789()/,-+ "
    corpus = [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
        for _ in range(400)
    ]
    corpus += ["const(", "const(1))", "((((", "interleave(,)", "1/0", "const(1/0)"]
    for text in corpus:
        try:
            parse_spec(text)
        except ParseError as e:
            assert 0 <= e.offset <= len(text)
            assert isinstance(e.expected, str) and e.expected
