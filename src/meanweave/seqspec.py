"""Declarative sequence descriptors with analytic metadata.

A ``SequenceSpec`` describes an infinite rational sequence by structure
(constant, power, geometric, run-length blocks, interleavings, pointwise
maps...) rather than by samples.  Every spec can evaluate any term exactly,
and carries enough structure that its set of accumulation points (its
*profile*, an ``AARSet`` over the extended line) is derived symbolically —
never estimated from numbers.

Each family class keeps its own rules: its profile, negation, balance and
density verdicts, how far its terms are unsorted, their polynomial degree,
and its DSL spelling.  The module functions (``profile``, ``negated_spec``,
``strands``...) and the balance and DSL modules dispatch to those methods.

Each family also generates its terms, once, as integer pairs
``(num, den)`` (``iter_pairs``): no gcd per term.  ``iter_terms`` is the
one Fraction view of those pairs, built once per run of one pair object;
only families that re-yield objects they already hold (constants,
interleaves, explicit prefixes) keep their own, and a geometric spec with
a fractional ratio, whose terms are cheaper as products than as pairs.
Terms in runs of one value also come as runs (``iter_runs``).
"""

from __future__ import annotations

import collections
import itertools
import math
import operator
from enum import Enum, IntEnum
from fractions import Fraction
from typing import Iterator, Optional, Tuple

from .aarset import AARSet, union
from .errors import MalformedDescriptor, TermTooLarge, UndeclaredLimit, UnknownProfile
from .extreal import NEG_INF, POS_INF, ExtendedReal, Record, as_fraction, set_field


# ---------------------------------------------------------------------------
# Analytic verdicts the family rules return


class BalanceKind(Enum):
    BALANCED = "Balanced"
    NOT_BALANCED = "NotBalanced"
    UNKNOWN = "Unknown"


class Condition(Enum):
    HOLDS = "Holds"
    FAILS = "Fails"
    UNKNOWN = "Unknown"


class DensityReport(Record):
    _fields = ("condition", "reason", "path")

    def __init__(self, condition: Condition, reason: str, path: Optional[tuple] = None):
        set_field(self, "condition", condition)
        set_field(self, "reason", reason)
        # Interleave-branch path ("first"/"second" steps) selecting a strand
        # along which |term|/n -> 0; () means the whole sequence qualifies.
        set_field(self, "path", path)


# ---------------------------------------------------------------------------
# Sequence descriptors


class SequenceSpec(Record):
    """Base class; concrete generators subclass this.

    ``declared_profile`` lets callers assert an accumulation set the
    structural rules cannot see; it takes precedence in ``profile()``.

    A family overrides the rules it has; the defaults here know nothing.
    ``dsl_name`` and ``dsl_shape`` spell the family in the descriptor
    language: the shape has one letter per argument, ``q`` a rational and
    ``s`` a spec, with ``+`` for one or more.
    """

    _fields = ("declared_profile",)  # first of every spec's fields, keyword-only
    declared_profile: Optional[AARSet] = None  # for a subclass that sets no fields
    dsl_name, dsl_shape = None, ""

    def __init__(self, *, declared_profile=None):
        set_field(self, "declared_profile", declared_profile)

    def term(self, n: int) -> Fraction:
        raise NotImplementedError

    def iter_pairs(self) -> Iterator[Tuple[int, int]]:
        """Terms from index 1 as integer pairs ``(num, den)`` with den > 0,
        not necessarily reduced; a run of equal terms may repeat one pair
        object.  Each family does its term arithmetic here."""
        raise NotImplementedError

    def iter_terms(self) -> Iterator[Fraction]:
        """Terms from index 1: the Fraction view of ``iter_pairs``, one
        Fraction per run of one pair object (``Fraction(num)`` when den is
        1).  Overridden only where a family re-yields objects it holds."""
        return _map_runs(_as_fraction, self.iter_pairs())

    def iter_runs(self) -> Optional[Iterator[Tuple[Tuple[int, int], Optional[int]]]]:
        """The terms as runs ``(pair, count)`` (count None: no end), or None."""
        return None

    def _check_index(self, n: int):
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"term index must be a positive integer, got {n!r}")

    @classmethod
    def _from_dsl(cls, args) -> "SequenceSpec":
        """The spec a descriptor spells with these (shape-checked) args."""
        return cls(*args)

    def _profile(self) -> AARSet:
        """Structural profile; ``profile()`` prefers a declared one."""
        raise UnknownProfile(f"no profile rule for {type(self).__name__}")

    def _negated(self) -> "SequenceSpec":
        return Negate(self)

    def _balance(self) -> Tuple[BalanceKind, str, Optional[Fraction]]:
        """Analytic balance rule for a spec known to tend to +inf: the kind,
        the reason and the limsup estimate of the term/prefix-sum ratio."""
        return BalanceKind.UNKNOWN, f"no analytic rule for {type(self).__name__}", None

    def _square_balance(self) -> Tuple[BalanceKind, str, Optional[Fraction]]:
        """Analytic balance rule for the pointwise square of this spec."""
        return BalanceKind.UNKNOWN, "no analytic rule for this square", None

    def _density(self) -> DensityReport:
        """Whether liminf |term|/n = 0, for a spec diverging in modulus."""
        reason = f"no analytic rule for {type(self).__name__}"
        return DensityReport(Condition.UNKNOWN, reason)

    def _sort_head(self) -> Optional[int]:
        """How many leading terms may exceed later ones: past them the terms
        never decrease.  None when no such count is known (not sortable)."""
        return None

    def _degree(self) -> Optional[int]:
        """A bound d on the degree of the n-th term P(n) as a polynomial in n,
        or None.  Balance evidence reads P(1..d+1) and writes P and the
        earlier sums S at any index in Newton's form.  P(i+1)/S(i) <=
        P(i)/S(i-1) iff D(i) = P(i)^2 - (P(i+1) - P(i))*S(i-1) >= 0, and a
        polynomial Q of degree k is Q(w+t) = sum_j C(t, j)*(delta^j Q)(w), all
        C(t, j) >= 0: so S(w-1) > 0, P(w) > 0 and the differences at w of P
        and D (degree 2d) all >= 0 certify the ratio never rises from w on."""
        return None

    @property
    def _body(self) -> "SequenceSpec":
        """This spec behind its explicit prefixes."""
        return self


class Constant(SequenceSpec):
    _fields = ("declared_profile", "value")
    dsl_name, dsl_shape = "const", "q"

    def __init__(self, value: Fraction, *, declared_profile=None):
        set_field(self, "declared_profile", declared_profile)
        set_field(self, "value", as_fraction(value))

    def term(self, n: int) -> Fraction:
        self._check_index(n)
        return self.value

    def iter_pairs(self):
        return itertools.repeat((self.value.numerator, self.value.denominator))

    def iter_terms(self) -> Iterator[Fraction]:
        return itertools.repeat(self.value)

    def iter_runs(self):
        return iter((((self.value.numerator, self.value.denominator), None),))

    def _profile(self):
        return AARSet.of(self.value)

    def _degree(self):
        return 0

    def _negated(self):
        return Constant(-self.value)

    def _density(self):
        return DensityReport(Condition.UNKNOWN, "not divergent")


class _Increasing(SequenceSpec):
    """Families whose terms never decrease and tend to +inf."""

    def _profile(self):
        return AARSet.of(POS_INF)

    def _sort_head(self):
        return 0


class _Polynomial(_Increasing):
    """n^exponent: the rules of ``Linear`` and ``PowerOfIndex``."""

    def _balance(self):
        reason = f"polynomial terms: ratio falls like {self.exponent + 1}/n"
        return BalanceKind.BALANCED, reason, None

    def _square_balance(self):
        degree = 2 * self.exponent
        reason = f"square of polynomial terms is polynomial (degree {degree})"
        return BalanceKind.BALANCED, reason, None

    def _degree(self):
        return self.exponent

    def _density(self):
        if self.exponent == 1:
            return DensityReport(Condition.FAILS, "|term|/n is constantly 1")
        return DensityReport(Condition.FAILS, "|term|/n grows polynomially")


class PowerOfIndex(_Polynomial):
    """n^k for a fixed positive integer exponent k."""

    _fields = ("declared_profile", "exponent")
    dsl_name, dsl_shape = "pow", "q"

    def __init__(self, exponent: int, *, declared_profile=None):
        if not isinstance(exponent, int) or exponent < 1:
            raise MalformedDescriptor(
                f"power exponent must be a positive integer, got {exponent!r}"
            )
        set_field(self, "declared_profile", declared_profile)
        set_field(self, "exponent", exponent)

    def term(self, n: int) -> Fraction:
        self._check_index(n)
        return Fraction(n**self.exponent)

    def iter_pairs(self):
        powers = map(pow, itertools.count(1), itertools.repeat(self.exponent))
        return zip(powers, itertools.repeat(1))

    @classmethod
    def _from_dsl(cls, args):
        if args[0].denominator != 1:
            raise MalformedDescriptor("pow takes an integer exponent")
        return cls(int(args[0]))


class Geometric(_Increasing):
    """ratio^n with rational ratio > 1."""

    _fields = ("declared_profile", "ratio")
    dsl_name, dsl_shape = "geom", "q"

    def __init__(self, ratio: Fraction, *, declared_profile=None):
        r = as_fraction(ratio)
        if r <= 1:
            raise MalformedDescriptor(f"geometric ratio must exceed 1, got {r}")
        set_field(self, "declared_profile", declared_profile)
        set_field(self, "ratio", r)

    def term(self, n: int) -> Fraction:
        self._check_index(n)
        return self.ratio**n

    def iter_pairs(self):
        p, q = self.ratio.numerator, self.ratio.denominator
        num, den = p, q
        while True:
            yield num, den
            num, den = num * p, den * q

    def iter_terms(self) -> Iterator[Fraction]:
        if self.ratio.denominator == 1:
            return super().iter_terms()  # Fraction(p^n) takes no gcd
        # p^n/q^n is in lowest terms: times p/q it reduces against p and q
        # alone, where Fraction(p^n, q^n) takes a gcd of n-digit integers
        return itertools.accumulate(itertools.repeat(self.ratio), operator.mul)

    def _balance(self):
        return (
            BalanceKind.NOT_BALANCED,
            "geometric growth keeps the ratio near ratio-1 "
            "(consecutive-term quotient stays below 1)",
            self.ratio - 1,
        )

    def _square_balance(self):
        reason = "square of geometric growth is geometric"
        return BalanceKind.NOT_BALANCED, reason, self.ratio * self.ratio - 1

    def _density(self):
        reason = "|term|/n is increasing from index 2 onward"
        return DensityReport(Condition.FAILS, reason)


class Linear(_Polynomial):
    exponent = 1
    dsl_name, dsl_shape = "linear", ""

    def term(self, n: int) -> Fraction:
        self._check_index(n)
        return Fraction(n)

    def iter_pairs(self):
        return zip(itertools.count(1), itertools.repeat(1))

    def _negated(self):
        return NegLinear()


class NegLinear(SequenceSpec):
    dsl_name, dsl_shape = "neglinear", ""

    def term(self, n: int) -> Fraction:
        self._check_index(n)
        return Fraction(-n)

    def iter_pairs(self):
        return zip(itertools.count(-1, -1), itertools.repeat(1))

    def _profile(self):
        return AARSet.of(NEG_INF)

    def _negated(self):
        return Linear()

    def _degree(self):
        return 1

    def _density(self):
        return DensityReport(Condition.FAILS, "|term|/n is constantly 1")


class RunRule(IntEnum):
    """Catalog of run-length block families.

    DOUBLING: k+1 copies of 2^k (k >= 0): 1, 2,2, 4,4,4, 8,8,8,8, ...
    STAIRS: v+1 copies of v (v >= 1): 1,1, 2,2,2, 3,3,3,3, ...
    FACTORIAL: (v+1)^2 copies of v! (v >= 1): four 1s, nine 2s, ...
    CEIL_SQRT: 2k-1 copies of k, i.e. term n is ceil(sqrt(n)).
    """

    DOUBLING = 1
    STAIRS = 2
    FACTORIAL = 3
    CEIL_SQRT = 4


_RUN_BALANCE = {
    RunRule.DOUBLING: "doubling blocks: ratio falls like 1/blocklength",
    RunRule.STAIRS: "staircase blocks: prefix sums grow cubically",
    RunRule.FACTORIAL: "factorial blocks: balance index grows with the block",
    RunRule.CEIL_SQRT: "ceil-sqrt growth: ratio falls like 3/sqrt(n)",
}


# FACTORIAL's term() stops at this block (10_000! has 35,660 digits)
FACTORIAL_BLOCK_LIMIT = 10_000


def _factorial_count(v: int) -> int:
    """How many FACTORIAL terms blocks 1..v hold."""
    return (v + 1) * (v + 2) * (2 * v + 3) // 6 - 1


def _icbrt(x: int) -> int:
    """floor(x ** (1/3)) for an integer x >= 1, by Newton's method from above."""
    r = 1 << -(-x.bit_length() // 3)
    while (s := (2 * r + x // (r * r)) // 3) < r:
        r = s
    return r


class RunLength(_Increasing):
    _fields = ("declared_profile", "rule")
    dsl_name, dsl_shape = "runlen", "q"

    def __init__(self, rule: RunRule, *, declared_profile=None):
        try:
            rule = RunRule(rule)
        except ValueError:
            raise MalformedDescriptor(f"unknown run-length rule {rule!r}") from None
        set_field(self, "declared_profile", declared_profile)
        set_field(self, "rule", rule)

    def _block(self, b: int) -> Tuple[int, int]:
        """Integer value and multiplicity of the b-th block (b >= 1)."""
        if self.rule is RunRule.DOUBLING:
            return 2 ** (b - 1), b
        if self.rule is RunRule.STAIRS:
            return b, b + 1
        if self.rule is RunRule.FACTORIAL:
            return math.factorial(b), (b + 1) ** 2
        return b, 2 * b - 1  # CEIL_SQRT

    def term(self, n: int) -> Fraction:
        self._check_index(n)
        if self.rule is RunRule.CEIL_SQRT:
            return Fraction(math.isqrt(n - 1) + 1)
        if self.rule is RunRule.DOUBLING:
            # blocks of sizes 1, 2, 3, ...; cumulative m(m+1)/2
            m = (math.isqrt(8 * n + 1) - 1) // 2
            if m * (m + 1) // 2 < n:
                m += 1
            return Fraction(2 ** (m - 1))
        if self.rule is RunRule.STAIRS:
            # cumulative count through value v is v(v+3)/2
            v = max(1, (math.isqrt(8 * n + 9) - 3) // 2)
            while v * (v + 3) // 2 < n:
                v += 1
            return Fraction(v)
        if n > _factorial_count(FACTORIAL_BLOCK_LIMIT):
            raise TermTooLarge(f"factorial terms stop at block {FACTORIAL_BLOCK_LIMIT}")
        v = max(1, _icbrt(3 * n) - 2)
        while _factorial_count(v) < n:
            v += 1
        while v > 1 and _factorial_count(v - 1) >= n:
            v -= 1
        return Fraction(math.factorial(v))

    def iter_pairs(self):
        return itertools.chain.from_iterable(itertools.starmap(itertools.repeat, self.iter_runs()))

    def iter_runs(self):
        return (((value, 1), mult) for value, mult in map(self._block, itertools.count(1)))

    @classmethod
    def _from_dsl(cls, args):
        if args[0].denominator != 1:
            raise MalformedDescriptor("runlen takes an integer rule number")
        return cls(int(args[0]))

    def _balance(self):
        return BalanceKind.BALANCED, _RUN_BALANCE[self.rule], None

    def _square_balance(self):
        if self.rule is RunRule.FACTORIAL:
            return (
                BalanceKind.NOT_BALANCED,
                "squared factorial blocks: the balance index at each block "
                "boundary stays below 2",
                Fraction(1, 2),
            )
        reason = "squared sub-geometric blocks keep a vanishing ratio"
        return BalanceKind.BALANCED, reason, None

    def _density(self):
        if self.rule in (RunRule.STAIRS, RunRule.CEIL_SQRT):
            return DensityReport(
                Condition.HOLDS,
                "block values grow like the square root of the index",
                path=(),
            )
        return DensityReport(Condition.FAILS, "block values outgrow the index")


class SumJump(_Increasing):
    """Step-by-one growth that jumps past its own prefix sum.

    At indices that are powers of two the term is 1 + (sum of all earlier
    terms); elsewhere it is the previous term plus one.  Divergent and
    increasing, but the term/prefix-sum ratio exceeds 1 infinitely often.
    """

    __slots__ = ("_values", "_terms")  # a cache: the terms so far, and Fractions of a prefix
    dsl_name, dsl_shape = "sumjump", ""

    def __init__(self, *, declared_profile=None):
        set_field(self, "declared_profile", declared_profile)
        set_field(self, "_values", [])
        set_field(self, "_terms", [])

    def _extend_to(self, n: int):
        vals = self._values
        while len(vals) < n:
            i = len(vals) + 1  # 1-based index of the next term; the sum is taken log2(n) times
            vals.append(1 + sum(vals) if i & (i - 1) == 0 else vals[-1] + 1)

    def term(self, n: int) -> Fraction:
        self._check_index(n)
        self._extend_to(n)
        return Fraction(self._values[n - 1])

    def iter_pairs(self):
        for n in itertools.count(1):
            self._extend_to(n)
            yield self._values[n - 1], 1

    def iter_terms(self) -> Iterator[Fraction]:
        terms = self._terms
        for n in itertools.count(1):
            if n > len(terms):
                self._extend_to(n)
                terms.extend(map(Fraction, self._values[len(terms):]))
            yield terms[n - 1]

    def _balance(self):
        reason = "each jump term exceeds the whole prefix sum"
        return BalanceKind.NOT_BALANCED, reason, Fraction(1)

    def _square_balance(self):
        reason = "squared jumps still exceed the squared prefix sum"
        return BalanceKind.NOT_BALANCED, reason, Fraction(1)

    def _density(self):
        return DensityReport(Condition.FAILS, "jump terms dominate the index")


class ExplicitPrefix(SequenceSpec):
    """Finitely many explicit values followed by a tail spec (re-indexed)."""

    _fields = ("declared_profile", "values", "tail")
    dsl_name, dsl_shape = "prefix", "q+s"

    def __init__(self, values, tail: SequenceSpec, *, declared_profile=None):
        values = tuple(as_fraction(v) for v in values)
        set_field(self, "declared_profile", declared_profile)
        set_field(self, "values", values)
        set_field(self, "tail", tail)

    def term(self, n: int) -> Fraction:
        self._check_index(n)
        if n <= len(self.values):
            return self.values[n - 1]
        return self.tail.term(n - len(self.values))

    def iter_pairs(self):
        head = ((v.numerator, v.denominator) for v in self.values)
        return itertools.chain(head, self.tail.iter_pairs())

    def iter_terms(self) -> Iterator[Fraction]:
        return itertools.chain(self.values, self.tail.iter_terms())

    def iter_runs(self):
        runs, head = self.tail.iter_runs(), (((v.numerator, v.denominator), 1) for v in self.values)
        return None if runs is None else itertools.chain(head, runs)

    @classmethod
    def _from_dsl(cls, args):
        return cls(tuple(args[:-1]), args[-1])

    def _profile(self):
        return profile(self.tail)

    def _negated(self):
        return ExplicitPrefix(tuple(-v for v in self.values), negated_spec(self.tail))

    def _balance(self):
        kind, reason, est = self.tail._balance()
        return kind, reason + " (finite prefix immaterial)", est

    def _square_balance(self):
        return self.tail._square_balance()

    def _density(self):
        inner = self.tail._density()
        return DensityReport(
            inner.condition, inner.reason + " (finite prefix immaterial)", inner.path
        )

    def _sort_head(self):
        head = self.tail._sort_head()
        return None if head is None else len(self.values) + head

    @property
    def _body(self):
        return self.tail._body


def _map_runs(f, pairs: Iterator) -> Iterator:
    """f over a stream of term pairs, called once per run of one pair
    object: ``iter_terms`` makes one Fraction per run of a spec that yields
    the same pair again (run-length blocks, constants and maps of them).
    Equal but distinct objects are mapped afresh."""
    last = out = None
    for v in pairs:
        if v is not last:
            last, out = v, f(v)
        yield out


def _as_fraction(pair: Tuple[int, int]) -> Fraction:
    num, den = pair
    return Fraction(num) if den == 1 else Fraction(num, den)


class _Pointwise(SequenceSpec):
    """A term-by-term map of ``base`` (its first field past the profile):
    ``_pair_map()`` maps one term pair, once per run of a base with runs
    (its pairs repeat the mapped pair object) and once per pair of any other."""

    def _over(self, base: SequenceSpec) -> "_Pointwise":
        return type(self)(base, *(getattr(self, f) for f in self._fields[2:]))

    def iter_pairs(self):
        runs = self.iter_runs()
        if runs is None:
            return map(self._pair_map(), self.base.iter_pairs())
        return itertools.chain.from_iterable(
            itertools.repeat(pair) if count is None else itertools.repeat(pair, count)
            for pair, count in runs
        )

    def iter_runs(self):
        runs, f = self.base.iter_runs(), self._pair_map()
        return None if runs is None else ((f(pair), count) for pair, count in runs)

    def _degree(self):
        return self.base._degree()


class Affine(_Pointwise):
    """scale * base_term + shift, pointwise."""

    _fields = ("declared_profile", "base", "scale", "shift")
    dsl_name, dsl_shape = "affine", "sqq"

    def __init__(self, base: SequenceSpec, scale, shift, *, declared_profile=None):
        set_field(self, "declared_profile", declared_profile)
        set_field(self, "base", base)
        set_field(self, "scale", as_fraction(scale))
        set_field(self, "shift", as_fraction(shift))

    def term(self, n: int) -> Fraction:
        return self.scale * self.base.term(n) + self.shift

    def _pair_map(self):
        # scale = a/b, shift = c/d, v = p/q: scale*v + shift = (ad*p + cb*q)/(bd*q)
        ad = self.scale.numerator * self.shift.denominator
        cb = self.shift.numerator * self.scale.denominator
        bd = self.scale.denominator * self.shift.denominator
        return lambda pq: (ad * pq[0] + cb * pq[1], bd * pq[1])

    def _profile(self):
        return profile(self.base).affine(self.scale, self.shift)

    def _negated(self):
        return Affine(self.base, -self.scale, -self.shift)

    def _balance(self):
        if self.scale > 0:
            kind, reason, est = self.base._balance()
            return kind, reason + " (positive scaling and shift preserved)", est
        return BalanceKind.UNKNOWN, "non-positive scale leaves no rule", None

    def _density(self):
        if self.scale == 0:
            return DensityReport(Condition.UNKNOWN, "degenerate scale")
        inner = self.base._density()
        reason = inner.reason + " (affine image)"
        return DensityReport(inner.condition, reason, inner.path)

    def _sort_head(self):
        return self.base._sort_head() if self.scale > 0 else None


class PointwiseSquare(_Pointwise):
    _fields = ("declared_profile", "base")
    dsl_name, dsl_shape = "square", "s"

    def __init__(self, base: SequenceSpec, *, declared_profile=None):
        set_field(self, "declared_profile", declared_profile)
        set_field(self, "base", base)

    def term(self, n: int) -> Fraction:
        v = self.base.term(n)
        return v * v

    def _pair_map(self):
        return lambda pq: (pq[0] * pq[0], pq[1] * pq[1])

    def _profile(self):
        return profile(self.base).square()

    def _degree(self):
        d = self.base._degree()
        return None if d is None else 2 * d

    def _balance(self):
        return self.base._square_balance()

    def _density(self):
        inner = self.base._density()
        if inner.condition is Condition.FAILS:
            return DensityReport(Condition.FAILS, "square of a dense-failing base")
        # a run-length base that passes the density rule grows like a root
        if isinstance(self.base._body, RunLength):
            return DensityReport(
                Condition.FAILS,
                "squared root-growth values keep |term|/n bounded away from 0",
            )
        return DensityReport(Condition.UNKNOWN, "no analytic rule for this square")

    def _sort_head(self):
        # past its head the base never decreases, so its square falls only
        # while the base is negative; that run joins the head
        head = self.base._sort_head()
        if head is None:
            return None
        past = itertools.islice(self.base.iter_terms(), head, None)
        return head + sum(1 for _ in itertools.takewhile(lambda v: v < 0, past))


class Negate(_Pointwise):
    _fields = ("declared_profile", "base")
    dsl_name, dsl_shape = "neg", "s"

    def __init__(self, base: SequenceSpec, *, declared_profile=None):
        set_field(self, "declared_profile", declared_profile)
        set_field(self, "base", base)

    def term(self, n: int) -> Fraction:
        return -self.base.term(n)

    def _pair_map(self):
        return lambda pq: (-pq[0], pq[1])

    def _profile(self):
        return profile(self.base).negate()

    def _negated(self):
        return self.base

    def _density(self):
        return self.base._density()


class Interleave(SequenceSpec):
    """Strict alternation: term 2n-1 comes from ``first``, term 2n from ``second``."""

    _fields = ("declared_profile", "first", "second")
    dsl_name, dsl_shape = "interleave", "ss"

    def __init__(self, first, second, *, declared_profile=None):
        set_field(self, "declared_profile", declared_profile)
        set_field(self, "first", first)
        set_field(self, "second", second)

    def term(self, n: int) -> Fraction:
        self._check_index(n)
        if n % 2:
            return self.first.term((n + 1) // 2)
        return self.second.term(n // 2)

    def iter_pairs(self):
        return itertools.chain.from_iterable(
            zip(self.first.iter_pairs(), self.second.iter_pairs())
        )

    def iter_terms(self) -> Iterator[Fraction]:
        return itertools.chain.from_iterable(
            zip(self.first.iter_terms(), self.second.iter_terms())
        )

    def _profile(self):
        return union(profile(self.first), profile(self.second))

    def _negated(self):
        return Interleave(negated_spec(self.first), negated_spec(self.second))

    def _balance(self):
        return BalanceKind.UNKNOWN, "no analytic rule for interleaved strands", None

    def _density(self):
        first = self.first._density()
        if first.condition is Condition.HOLDS:
            return DensityReport(
                Condition.HOLDS,
                first.reason + " (along the first strand)",
                path=("first",) + (first.path or ()),
            )
        second = self.second._density()
        if second.condition is Condition.HOLDS:
            return DensityReport(
                Condition.HOLDS,
                second.reason + " (along the second strand)",
                path=("second",) + (second.path or ()),
            )
        if first.condition is Condition.FAILS and second.condition is Condition.FAILS:
            return DensityReport(Condition.FAILS, "both strands fail the condition")
        return DensityReport(Condition.UNKNOWN, "strand verdicts incomplete")


class PointwiseSum(SequenceSpec):
    """Index-aligned sum of two specs."""

    _fields = ("declared_profile", "first", "second")
    dsl_name, dsl_shape = "sum", "ss"

    def __init__(self, first, second, *, declared_profile=None):
        set_field(self, "declared_profile", declared_profile)
        set_field(self, "first", first)
        set_field(self, "second", second)

    def term(self, n: int) -> Fraction:
        return self.first.term(n) + self.second.term(n)

    def iter_pairs(self):
        for (a, b), (c, d) in zip(self.first.iter_pairs(), self.second.iter_pairs()):
            yield a * d + c * b, b * d

    def _profile(self):
        u = profile(self.first).point()
        v = profile(self.second).point()
        if u is None or v is None:
            raise UnknownProfile(
                "pointwise sum needs both sides convergent in the extended reals"
            )
        if u.is_finite and v.is_finite:
            return AARSet.of(u.value + v.value)
        infinities = {p for p in (u, v) if not p.is_finite}
        if len(infinities) == 1:
            return AARSet.of(infinities.pop())
        raise UnknownProfile("sum of opposite infinities is indeterminate")

    def _balance(self):
        left, right = self.first._balance(), self.second._balance()
        if left[0] is BalanceKind.BALANCED and right[0] is BalanceKind.BALANCED:
            return BalanceKind.BALANCED, "index-aligned sum of balanced sequences", None
        return BalanceKind.UNKNOWN, "sum closure needs both sides balanced", None

    def _degree(self):
        left, right = self.first._degree(), self.second._degree()
        return None if left is None or right is None else max(left, right)


# ---------------------------------------------------------------------------
# Construction helpers


def negated_spec(spec: SequenceSpec) -> SequenceSpec:
    """Pointwise negation, simplified structurally where possible.

    Keeping the result inside the named spec families (instead of a blanket
    Negate wrapper) lets the analytic profile/balance rules recognize it.
    """
    return spec._negated()


# ---------------------------------------------------------------------------
# Profiles


def profile(spec: SequenceSpec) -> AARSet:
    """Accumulation set of a spec, declared or structurally derived.

    Declared profiles win.  Structural rules cover the whole catalog and its
    closures under negate/affine/square/interleave; a pointwise sum is only
    resolved when both sides converge (or diverge compatibly).  Anything else
    raises UnknownProfile — profiles are never inferred from samples.
    """
    if spec.declared_profile is not None:
        return spec.declared_profile
    return spec._profile()


# ---------------------------------------------------------------------------
# Decomposition into convergent parts


class IndexMap(Record):
    """Map from a strand's k-th element (k >= 1) back to its source index.

    ``AffineMap`` is affine and ``WovenMap`` alternates between two maps.
    Maps are frozen values; equality compares this representation.  A
    subclass gives ``_at(k)``, its k-th image, ``__iter__``, its images in
    order, ``split()``, its odd and its even elements, and ``rank_bound(n)``,
    an upper bound on the rank of every source index up to n.
    """

    __slots__ = ()

    def __eq__(self, other):  # a slotted map has no __dict__ to compare
        if type(other) is type(self):
            return self._key(self) == self._key(other)
        return NotImplemented

    __hash__ = Record.__hash__

    def __call__(self, k: int) -> int:
        if k < 1:
            raise ValueError(f"strand index must be positive, got {k!r}")
        return self._at(k)

    def pair(self, other: "IndexMap") -> "IndexMap":
        """Map of the interleave of two strands: odd k -> self((k + 1)/2),
        even k -> other(k/2)."""
        return WovenMap(self, other)


class AffineMap(IndexMap):
    """Element ``q + 1`` maps to ``slope*q + offset``."""

    __slots__ = _fields = ("slope", "offset")

    def __init__(self, slope: int, offset: int):
        set_field(self, "slope", slope)
        set_field(self, "offset", offset)

    def _at(self, k: int) -> int:
        return self.slope * (k - 1) + self.offset

    def __iter__(self) -> Iterator[int]:
        return itertools.count(self.offset, self.slope)

    def split(self) -> Tuple[IndexMap, IndexMap]:
        """The maps k -> self(2k - 1) and k -> self(2k) of an interleave's
        first and second strand."""
        s, o = self.slope, self.offset
        return AffineMap(2 * s, o), AffineMap(2 * s, o + s)

    def rank_bound(self, n: int) -> int:
        # slope, offset >= 1: the k-th image is at least k
        return n


class WovenMap(IndexMap):
    """Odd elements read ``first`` and even ones ``second``: element k maps
    to first((k + 1)/2) or second(k/2)."""

    __slots__ = _fields = ("first", "second")

    def __init__(self, first: IndexMap, second: IndexMap):
        set_field(self, "first", first)
        set_field(self, "second", second)

    def _at(self, k: int) -> int:
        return self.first((k + 1) // 2) if k % 2 else self.second(k // 2)

    def __iter__(self) -> Iterator[int]:
        return itertools.chain.from_iterable(zip(self.first, self.second))

    def split(self) -> Tuple[IndexMap, IndexMap]:
        return self.first, self.second

    def rank_bound(self, n: int) -> int:
        return max(2 * self.first.rank_bound(n) - 1, 2 * self.second.rank_bound(n))


IDENTITY_MAP = AffineMap(1, 1)


class PartStream(Record):
    """Strands of a source folded into one part: its spec, the ``IndexMap``
    of its elements back to source indices, and the limit the strands share
    (None when they have several).  Parts compare by identity."""

    _fields = ("spec", "witness", "limit")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, spec: SequenceSpec, witness: IndexMap, limit):
        set_field(self, "spec", spec)
        set_field(self, "witness", witness)
        set_field(self, "limit", limit)

    def emissions(self) -> Iterator[Tuple[int, Fraction]]:
        """Lazy (source_index, value) stream, in part order."""
        return zip(self.witness, self.spec.iter_terms())

    def negated(self) -> "PartStream":
        limit = None if self.limit is None else -self.limit
        return PartStream(negated_spec(self.spec), self.witness, limit)

    @staticmethod
    def whole(spec: SequenceSpec) -> "PartStream":
        limit = profile(spec).point()
        if limit is None:
            raise UndeclaredLimit("part has no single limit")
        return PartStream(spec, IDENTITY_MAP, limit)


class PartCursor:
    """Peekable (source_index, value) stream of a part (empty for None); the
    one place that decides how a part's elements leave it.

    Over an ``AffineMap`` of slope ``step``, a strand with runs
    (``SequenceSpec.iter_runs``) is read run by run: ``left`` counts the
    head's run from the head on, None for a run without end (a constant
    from the head on); other parts have ``left`` 1 and ``step`` 0.
    ``skip(k)`` passes k elements of the head's run, and ``take(count, tag)``
    yields the next ``count`` as blocks (``rearrange.Rearrangement``), one
    per run segment.  ``set_aside()`` passes over the head without emitting
    it; ``oldest()`` reads the first set aside, or the head, and
    ``take_oldest()`` takes that element.
    """

    __slots__ = ("_it", "head", "step", "left", "_aside", "_runs")

    def __init__(self, part: Optional[PartStream]):
        self.step, self.left, self._runs = 0, 1, None
        self._aside = collections.deque()
        if part is not None and isinstance(part.witness, AffineMap):
            self._runs = part.spec.iter_runs()
        if self._runs is None:
            self._it = part.emissions() if part is not None else iter(())
            self.head = next(self._it, None)
        else:
            self.step = part.witness.slope
            self._enter(part.witness.offset)

    def _enter(self, src: int):
        """Make the first element of the next run, at source src, the head.
        A run without end is the last: its elements come from ``_it``."""
        pair, self.left = next(self._runs)
        self.head = src, value = src, _as_fraction(pair)
        if self.left is None:
            self._runs, self._it = None, zip(
                itertools.count(src + self.step, self.step), itertools.repeat(value))

    def advance(self) -> Optional[Tuple[int, Fraction]]:
        item = self.head
        if self._runs is None:
            self.head = next(self._it, None)
        else:
            self.skip(1)
        return item

    def skip(self, k: int):
        """Pass the next k >= 1 elements, all in the head's run."""
        src, value = self.head
        src += self.step * k
        if self.left is None:  # past them, the run goes on
            self.head, self._it = (src, value), zip(
                itertools.count(src + self.step, self.step), itertools.repeat(value))
        elif self.left > k:
            self.head, self.left = (src, value), self.left - k
        elif self._runs is None:  # an element of a part without runs
            self.head = next(self._it, None)
        else:
            self._enter(src)

    def take(self, count: int, tag: str):
        """Lazy blocks ``(tag, value, count, first_src, step)`` of the next
        ``count`` elements; the cursor passes a block before yielding it."""
        while count:
            (src, value), left = self.head, self.left
            k = count if left is None else min(count, left)
            self.skip(k)
            count -= k
            yield tag, value, k, src, self.step

    def set_aside(self):
        self._aside.append(self.advance())

    def oldest(self) -> Optional[Tuple[int, Fraction]]:
        return self._aside[0] if self._aside else self.head

    def take_oldest(self) -> Tuple[int, Fraction]:
        return self._aside.popleft() if self._aside else self.advance()


class Decomposition(Record):
    """Split of a source spec into parts folded from its strands.

    ``b`` converges (in the extended reals) to the source's liminf and ``c``
    to its limsup (None when they are equal); ``d`` folds the remaining
    strands (None when there are none).  The parts' witnesses partition the
    source index set.  Decompositions compare by identity.
    """

    _fields = ("b", "c", "d")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, b: PartStream, c: Optional[PartStream], d: Optional[PartStream]):
        set_field(self, "b", b)
        set_field(self, "c", c)
        set_field(self, "d", d)

    def emissions(self, part: str) -> Iterator[Tuple[int, Fraction]]:
        """Lazy (source_index, value) stream of part 'b', 'c' or 'd'."""
        stream = {"b": self.b, "c": self.c, "d": self.d}[part]
        return iter(()) if stream is None else stream.emissions()

    @property
    def parts_present(self) -> Tuple[str, ...]:
        return tuple(name for name in "bcd" if getattr(self, name) is not None)


def push_pointwise(spec: SequenceSpec) -> SequenceSpec:
    """Distribute pointwise wrappers and explicit prefixes over interleaves.

    Negate/Affine/Square act term-by-term, so they commute with the strict
    alternation of Interleave.  ``prefix(v1, ..., vn, interleave(A, B))``
    becomes ``interleave(prefix(v1, v3, ..., A), prefix(v2, v4, ..., B))``,
    with A and B swapped when n is odd (the tail then starts on an even
    rank).  So every interleave of the result sits above every wrapper and
    prefix, and the leaf walk sees the convergent strands.  The result has
    the same terms; a pushed wrapper or prefix has no declared profile.
    """
    if isinstance(spec, _Pointwise):
        base = push_pointwise(spec.base)
        if isinstance(base, Interleave):
            return Interleave(
                push_pointwise(spec._over(base.first)),
                push_pointwise(spec._over(base.second)),
            )
        return spec._over(base)
    if isinstance(spec, Interleave):
        return Interleave(push_pointwise(spec.first), push_pointwise(spec.second))
    if isinstance(spec, ExplicitPrefix):
        tail = push_pointwise(spec.tail)
        if isinstance(tail, Interleave):
            return _deal(spec.values, tail)
    return spec


def _deal(values: Tuple[Fraction, ...], tail: SequenceSpec) -> SequenceSpec:
    """``prefix(values, tail)`` with the values dealt down a pushed tail."""
    if not isinstance(tail, Interleave):
        return ExplicitPrefix(values, tail) if values else tail
    first, second = tail.first, tail.second
    if len(values) % 2:
        first, second = second, first
    return Interleave(_deal(values[0::2], first), _deal(values[1::2], second))


def _walk(spec: SequenceSpec, index_map: IndexMap):
    if isinstance(spec, Interleave):
        first, second = index_map.split()
        return _walk(spec.first, first) + _walk(spec.second, second)
    return [(spec, index_map)]


def strands(spec: SequenceSpec, index_map: IndexMap = IDENTITY_MAP):
    """The non-interleave strands of a spec, each with its source-index map.

    Pointwise wrappers are pushed through interleaves first; each interleave
    then splits its map into the odd and the even elements.
    """
    return _walk(push_pointwise(spec), index_map)


def limited_strands(spec: SequenceSpec):
    """The strands of a spec in source order, each a ``PartStream`` with its
    limit; raises UnknownProfile when a strand does not converge."""
    leaves = []
    for leaf, index_map in strands(spec):
        limit = profile(leaf).point()
        if limit is None:
            raise UnknownProfile(f"strand {type(leaf).__name__} does not converge")
        leaves.append(PartStream(leaf, index_map, limit))
    return leaves


def fold_part(leaves, matching) -> Optional[PartStream]:
    """The strands whose limit satisfies ``matching``, interleaved in source
    order into one part; None when no strand matches."""
    group = [leaf for leaf in leaves if matching(leaf.limit)]
    if not group:
        return None
    spec, index_map = group[0].spec, group[0].witness
    for leaf in group[1:]:
        spec, index_map = Interleave(spec, leaf.spec), index_map.pair(leaf.witness)
    limits = {leaf.limit for leaf in group}
    return PartStream(spec, index_map, limits.pop() if len(limits) == 1 else None)


def decompose(
    spec: SequenceSpec, prof: Optional[AARSet] = None
) -> Decomposition:
    """Split a spec into strands converging to liminf, limsup and the rest.

    Requires every interleaved strand to converge in the extended reals;
    otherwise the split is not structurally available and UnknownProfile is
    raised.
    """
    if prof is None:
        prof = profile(spec)
    leaves = limited_strands(spec)
    lo, hi = prof.lo, prof.hi
    b = fold_part(leaves, lambda lim: lim == lo)
    if b is None:
        raise UnknownProfile("no strand attains the declared liminf")
    c = None
    if hi != lo:
        c = fold_part(leaves, lambda lim: lim == hi)
        if c is None:
            raise UnknownProfile("no strand attains the declared limsup")
    return Decomposition(b, c, fold_part(leaves, lambda lim: lim not in (lo, hi)))
