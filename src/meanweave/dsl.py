"""Textual descriptor language for sequence specs.

A descriptor is a nested call expression, e.g.
``interleave(const(0), pow(2))``.  ``parse_spec`` and ``render`` are exact
inverses on the constructible spec types, so command lines and reports can
round-trip specs losslessly.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, Tuple, Union

from . import seqspec
from .errors import MalformedDescriptor, ParseError
from .seqspec import SequenceSpec

__all__ = ["parse_spec", "render"]

Arg = Union[Fraction, SequenceSpec]

def _skip_ws(text: str, i: int) -> int:
    while i < len(text) and text[i].isspace():
        i += 1
    return i


def _parse_rational(text: str, i: int) -> Tuple[Fraction, int]:
    start = i
    if i < len(text) and text[i] in "+-":
        i += 1
    digits_start = i
    while i < len(text) and text[i].isdigit():
        i += 1
    if i == digits_start:
        raise ParseError(start, "a rational number")
    num = int(text[start:i])
    j = _skip_ws(text, i)
    if j < len(text) and text[j] == "/":
        j = _skip_ws(text, j + 1)
        den_start = j
        while j < len(text) and text[j].isdigit():
            j += 1
        if j == den_start:
            raise ParseError(den_start, "a positive denominator")
        den = int(text[den_start:j])
        if den == 0:
            raise ParseError(den_start, "a positive denominator")
        return Fraction(num, den), j
    return Fraction(num), i


def _parse_name(text: str, i: int) -> Tuple[str, int]:
    start = i
    while i < len(text) and (text[i].isalpha() or text[i] == "_"):
        i += 1
    if i == start:
        raise ParseError(start, "a constructor name")
    return text[start:i], i


def _parse_arg(text: str, i: int) -> Tuple[Arg, int]:
    i = _skip_ws(text, i)
    if i >= len(text):
        raise ParseError(i, "an argument")
    if text[i].isdigit() or text[i] in "+-":
        return _parse_rational(text, i)
    return _parse_call(text, i)


def _parse_call(text: str, i: int) -> Tuple[SequenceSpec, int]:
    i = _skip_ws(text, i)
    name_at = i
    name, i = _parse_name(text, i)
    i = _skip_ws(text, i)
    if i >= len(text) or text[i] != "(":
        raise ParseError(i, "'('")
    i = _skip_ws(text, i + 1)
    args: List[Arg] = []
    if i < len(text) and text[i] == ")":
        i += 1
    else:
        while True:
            arg, i = _parse_arg(text, i)
            args.append(arg)
            i = _skip_ws(text, i)
            if i < len(text) and text[i] == ",":
                i = _skip_ws(text, i + 1)
                continue
            if i < len(text) and text[i] == ")":
                i += 1
                break
            raise ParseError(i, "',' or ')'")
    try:
        return _build(name, args, name_at), i
    except MalformedDescriptor as exc:
        raise ParseError(name_at, str(exc)) from exc


def _build(name: str, args: List[Arg], at: int) -> SequenceSpec:
    try:
        family, fits = _BY_NAME[name]
    except KeyError:
        raise ParseError(at, "a known constructor name") from None
    kinds = "".join("q" if isinstance(a, Fraction) else "s" for a in args)
    if not fits(kinds):
        words = ", ".join(_TOKENS[t][0] for t in _TOKEN.findall(family.dsl_shape))
        raise ParseError(at, f"{name} takes ({words})")
    return family._from_dsl(args)


def parse_spec(text: str) -> SequenceSpec:
    """Parse a descriptor; trailing garbage is an error."""
    if not text or not text.strip():
        raise ParseError(0, "a nonempty descriptor")
    spec, i = _parse_call(text, 0)
    i = _skip_ws(text, i)
    if i != len(text):
        raise ParseError(i, "end of input")
    return spec


def _rat(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def render(spec: SequenceSpec) -> str:
    """Inverse of parse_spec on all constructible spec types."""
    args = _ARGS.get(type(spec))
    if args is None:
        raise MalformedDescriptor(f"no textual form for {type(spec).__name__}")
    shown = []
    for name, show in args:
        shown.append(show(getattr(spec, name)))
    return f"{spec.dsl_name}({', '.join(shown)})"


# Every family the language spells.  A family's ``dsl_shape`` checks the
# arguments of a call and picks how each of its fields renders, in order.
_FAMILIES = (
    seqspec.Constant, seqspec.PowerOfIndex, seqspec.Geometric, seqspec.Linear,
    seqspec.NegLinear, seqspec.SumJump, seqspec.Negate, seqspec.PointwiseSquare,
    seqspec.Affine, seqspec.Interleave, seqspec.PointwiseSum, seqspec.RunLength,
    seqspec.ExplicitPrefix,
)
# name -> (family, test of the argument kinds); a shape without a repeat is
# compared as a string, which costs a fifth of a regex match per node
_BY_NAME = {
    f.dsl_name: (f, re.compile(f.dsl_shape).fullmatch if "+" in f.dsl_shape
                 else f.dsl_shape.__eq__)
    for f in _FAMILIES
}
# shape token -> its word in error messages and how its field renders
_TOKEN = re.compile(r".\+?")
_TOKENS = {"q": ("rational", _rat), "s": ("spec", render),
           "q+": ("rational...", lambda values: ", ".join([_rat(v) for v in values]))}
_ARGS = {
    f: tuple(zip(f._fields[1:],  # after declared_profile
                 [_TOKENS[t][1] for t in _TOKEN.findall(f.dsl_shape)], strict=True))
    for f in _FAMILIES
}
