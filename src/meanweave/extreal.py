"""Extended real numbers: rationals plus the two infinities.

The library never touches floats on the exact path; finite values are
``fractions.Fraction`` and the infinities are two interned sentinels.
``ExtendedReal`` is totally ordered and hashable, so it can key dicts and
sort interval endpoints.  ``widen`` and ``first_positive`` are the steps
shared by every running sum kept as an unreduced integer pair, and
``Record`` the base of every record.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Optional, Tuple, Union

Rational = Union[int, Fraction]

_ZERO = Fraction(0)


class ExtendedReal:
    """Either a finite rational or one of the infinities.

    Use the module constants ``NEG_INF`` / ``POS_INF`` and the factory
    ``ExtendedReal.of`` rather than calling the constructor with sign != 0.
    """

    __slots__ = ("_sign", "_value")

    def __init__(self, value: Rational = 0, _sign: int = 0):
        # _sign: -1 for -inf, +1 for +inf, 0 for finite.
        self._sign = _sign
        self._value = as_fraction(value) if _sign == 0 else None

    @staticmethod
    def of(value: "Rational | ExtendedReal") -> "ExtendedReal":
        if isinstance(value, ExtendedReal):
            return value
        return ExtendedReal(value)

    @property
    def is_finite(self) -> bool:
        return self._sign == 0

    @property
    def is_pos_inf(self) -> bool:
        return self._sign > 0

    @property
    def is_neg_inf(self) -> bool:
        return self._sign < 0

    @property
    def value(self) -> Fraction:
        """The finite rational value; raises on infinities."""
        if self._sign != 0:
            raise ValueError("infinite ExtendedReal has no rational value")
        return self._value

    def _cmp(self, other):
        """An int with the sign of self - other (signs compare as ints,
        finite values by one integer cross-multiplication, an int or Fraction
        operand as it is), or None for any other operand."""
        t, b = 0, other
        if other.__class__ is ExtendedReal:
            t, b = other._sign, other._value
        elif not isinstance(other, (int, Fraction)):
            return None
        s, a = self._sign, self._value
        if s or t:
            return s - t
        return a.numerator * b.denominator - b.numerator * a.denominator

    def __eq__(self, other) -> bool:
        c = self._cmp(other)
        return NotImplemented if c is None else c == 0

    def __lt__(self, other) -> bool:
        c = self._cmp(other)
        return NotImplemented if c is None else c < 0

    def __le__(self, other) -> bool:
        c = self._cmp(other)
        return NotImplemented if c is None else c <= 0

    def __gt__(self, other) -> bool:
        c = self._cmp(other)
        return NotImplemented if c is None else c > 0

    def __ge__(self, other) -> bool:
        c = self._cmp(other)
        return NotImplemented if c is None else c >= 0

    def __hash__(self) -> int:
        return hash((self._sign, _ZERO) if self._sign else (0, self._value))

    def __neg__(self) -> "ExtendedReal":
        if self._sign != 0:
            return NEG_INF if self._sign > 0 else POS_INF
        return ExtendedReal(-self._value)

    def __repr__(self) -> str:
        return f"ExtendedReal({self.render()!r})"

    def render(self, exact: bool = False) -> str:
        """Human form: ``-inf`` / ``+inf`` / ``3`` / ``1/2``.

        With ``exact=True`` finite values always carry a denominator
        (``3/1``), so round-tripping never loses the rational type.
        """
        if self._sign < 0:
            return "-inf"
        if self._sign > 0:
            return "+inf"
        v = self._value
        if exact:
            return f"{v.numerator}/{v.denominator}"
        if v.denominator == 1:
            return str(v.numerator)
        return f"{v.numerator}/{v.denominator}"

    @staticmethod
    def parse(text: str) -> "ExtendedReal":
        text = text.strip()
        if text == "-inf":
            return NEG_INF
        if text == "+inf" or text == "inf":
            return POS_INF
        return ExtendedReal(Fraction(text))


NEG_INF = ExtendedReal(_sign=-1)
POS_INF = ExtendedReal(_sign=+1)


def as_fraction(x: Rational) -> Fraction:
    """Cheap normalizer used throughout the package; refuses a float (TypeError)."""
    if x.__class__ is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError(f"exact arithmetic takes no float, got {x!r}")
    return Fraction(x)


def widen(num: int, den: int, vd: int) -> Tuple[int, int]:
    """``num/den`` over a multiple of ``vd``; a pair past 2**128 is reduced
    first.  The trace walker, the steering kernel ``RunningAverage`` and
    balance evidence widen their sums by it."""
    if den > 1 << 128:
        g = math.gcd(num, den)
        num, den = num // g, den // g
    return num * vd, den * vd


def first_positive(c0: int, c1: int) -> Optional[int]:
    """The first k >= 0 with c0 + k*c1 > 0, or None when there is none."""
    if c0 > 0:
        return 0
    return -c0 // c1 + 1 if c1 > 0 else None


set_field = object.__setattr__  # a record's __init__ sets its fields with it


class Record:
    """Base of the package's immutable values, written out, not generated:
    a subclass names its fields in ``_fields``, and its ``__init__`` sets
    exactly those with ``set_field``.  A record equals a record of its class
    with an equal ``__dict__`` (compared in C), hashes like the tuple of its
    fields (``_key``, read in C), shows them by keyword and refuses
    assignment and deletion."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def __init_subclass__(cls):
        names = cls._fields
        get = operator.attrgetter(*names) if names else None
        # attrgetter returns a single field bare, not as a 1-tuple
        cls._key = get if len(names) > 1 else staticmethod(lambda record: (get(record),))

    def __eq__(self, other):
        if type(other) is type(self):
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __setstate__(self, state):  # pickle and copy restore past __setattr__
        for part in state if isinstance(state, tuple) else (state,):
            for name, value in (part or {}).items():
                set_field(self, name, value)
