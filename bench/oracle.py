"""Reference checks that share no code with the package under test.

The descriptor evaluator below re-implements, from their definitions, the
term rules of the DSL families the workloads feed to constructions (plain
recursion over ``fractions.Fraction``), so a wrong value emitted by a
construction cannot be hidden by the same wrong rule inside
``meanweave.seqspec``.  Nothing here imports ``meanweave``.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import re
from array import array
from itertools import islice
from fractions import Fraction
from typing import Callable, Iterable, List, Optional, Tuple

Term = Callable[[int], Fraction]

_TOKEN = re.compile(r"\s*(?:([A-Za-z_]+)|(-?\d+(?:/\d+)?)|([(),]))")


def _tokens(text: str) -> List[str]:
    out, i = [], 0
    while i < len(text):
        m = _TOKEN.match(text, i)
        if not m or m.end() == i:
            if text[i:].strip() == "":
                break
            raise ValueError(f"oracle cannot tokenize {text!r} at {i}")
        out.append(m.group(m.lastindex))
        i = m.end()
    return out


def parse_term(text: str) -> Term:
    """Compile descriptor text into a function n -> term n (n >= 1)."""
    toks = _tokens(text)
    pos = 0

    def take() -> str:
        nonlocal pos
        tok = toks[pos]
        pos += 1
        return tok

    def arg():
        tok = toks[pos]
        if tok[0].isalpha():
            return call()
        take()
        return Fraction(tok)

    def call() -> Term:
        name = take()
        if take() != "(":
            raise ValueError(f"expected '(' after {name}")
        args = []
        if toks[pos] != ")":
            args.append(arg())
            while toks[pos] == ",":
                take()
                args.append(arg())
        if take() != ")":
            raise ValueError(f"expected ')' closing {name}")
        return _build(name, args)

    term = call()
    if pos != len(toks):
        raise ValueError(f"trailing text in {text!r}")
    return term


def _build(name: str, args) -> Term:
    if name == "const":
        q = args[0]
        return lambda n: q
    if name == "linear":
        return lambda n: Fraction(n)
    if name == "pow":
        k = int(args[0])
        return lambda n: Fraction(n ** k)
    if name == "runlen":
        return _runlen(int(args[0]))
    if name == "neg":
        s = args[0]
        return lambda n: -s(n)
    if name == "square":
        s = args[0]
        return lambda n: s(n) ** 2
    if name == "affine":
        s, a, b = args
        return lambda n: a * s(n) + b
    if name == "interleave":
        s, u = args
        return lambda n: s((n + 1) // 2) if n % 2 else u(n // 2)
    raise ValueError(f"oracle has no rule for {name}")


def _runlen(rule: int) -> Term:
    """Rule 2: b+1 copies of b.  Rule 4: 2b-1 copies of b, i.e. ceil(sqrt(n))."""
    if rule == 4:
        return lambda n: Fraction(math.isqrt(n - 1) + 1)
    if rule != 2:
        raise ValueError(f"oracle has no rule for runlen({rule})")
    ends: List[int] = []  # ends[b-1] = index of the last term of block b

    def term(n: int) -> Fraction:
        while not ends or ends[-1] < n:
            b = len(ends) + 1
            ends.append((ends[-1] if ends else 0) + b + 1)
        return Fraction(bisect.bisect_left(ends, n) + 1)

    return term


def text_digest(lines: Iterable[str]) -> str:
    """SHA-256 over newline-joined output lines."""
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class Checker:
    """Checks a stream entry by entry against the reference terms.

    Each ``add(src, value)`` must carry the reference term at ``src``, and
    source indices must be distinct.  The checker keeps an exact running sum
    (an integer numerator over a common denominator), the coverage lag
    (n minus the largest m with 1..m all seen) and a SHA-256 of the source
    indices.  Optional windows, a list of (from_index, lo, hi), each bound
    the running average on [from_k, from_{k+1}); the last one holds up to
    ``window_end``.  Memory is one byte per source index, whatever the
    stream's length.  ``problem`` holds the first failure.
    """

    def __init__(self, term: Term, windows=(), window_end: int = 0):
        self.term = term
        self.n = 0
        self.num, self.den = 0, 1
        self.problem: Optional[str] = None
        self.lag_max = 0
        self._seen = bytearray(4096)
        self._covered = 0
        self._windows = list(windows)
        self._window_end = window_end
        self._w = -1
        self._lo = self._hi = None
        self._hash = hashlib.sha256()
        self._chunk = array("q")

    def add(self, src: int, value: Fraction) -> None:
        if self.problem is not None:
            return
        n = self.n = self.n + 1
        seen = self._seen
        if src < 1:
            self.problem = f"rank {n}: source index {src} is not positive"
            return
        if src >= len(seen):
            seen.extend(bytes(max(src + 1 - len(seen), len(seen))))
        if seen[src]:
            self.problem = f"source index {src} repeated at rank {n}"
            return
        seen[src] = 1
        while self._covered + 1 < len(seen) and seen[self._covered + 1]:
            self._covered += 1
        self.lag_max = max(self.lag_max, n - self._covered)
        want = self.term(src)
        if value != want:
            self.problem = f"rank {n}: source {src} carries {value}, term is {want}"
            return
        vn, vd = value.numerator, value.denominator
        if vd == self.den:
            self.num += vn
        else:
            num, den = self.num * vd + vn * self.den, self.den * vd
            g = math.gcd(num, den)
            self.num, self.den = num // g, den // g
        self._check_window(n)
        self._chunk.append(src)
        if len(self._chunk) >= 4096:
            self._flush()

    def _check_window(self, n: int) -> None:
        windows = self._windows
        while self._w + 1 < len(windows) and windows[self._w + 1][0] <= n:
            self._w += 1
            self._lo, self._hi = windows[self._w][1], windows[self._w][2]
        if self._w < 0 or n > self._window_end:
            return
        lo, hi, num, den = self._lo, self._hi, self.num, self.den * n
        # lo < num/den < hi by cross-multiplication (denominators positive)
        if not (lo.numerator * den < num * lo.denominator
                and num * hi.denominator < hi.numerator * den):
            self.problem = (f"average {Fraction(num, den)} at n={n} leaves "
                            f"window ({lo}, {hi})")

    def _flush(self) -> None:
        self._hash.update(self._chunk.tobytes())
        del self._chunk[:]

    @property
    def total(self) -> Fraction:
        return Fraction(self.num, self.den)

    def digest(self) -> str:
        """SHA-256 over the source indices (8-byte native integers)."""
        self._flush()
        return self._hash.hexdigest()


def check_stream(stream, term: Term, count: int, windows=(), window_end: int = 0) -> Checker:
    """Feed the first ``count`` (source index, value) pairs to a Checker."""
    checker = Checker(term, windows, window_end)
    for src, value in islice(stream, count):
        checker.add(src, value)
        if checker.problem is not None:
            break
    return checker


TRACE_HEADER = "n,source_index,value,partial_sum,average_decimal,average_exact"


def check_trace_files(term: Term, csv_path: str, perm_path: str,
                      tube: Tuple[Fraction, Fraction, int]) -> Tuple[Checker, bool]:
    """Check a trace CSV and its permutation file, parsed by hand.

    Every column must agree with the checker's own running sum, and every
    permutation line must repeat the CSV row's (n, source index).  Also
    returns whether the averages from ``tube[2]`` on stay inside
    (tube[0] - tube[1], tube[0] + tube[1]).
    """
    target, eps, start = tube
    checker = Checker(term)
    tube_ok = True
    with open(csv_path) as rows, open(perm_path) as perm:
        if rows.readline().rstrip("\n") != TRACE_HEADER:
            checker.problem = "unexpected trace header"
            return checker, False
        for line in rows:
            fields = line.rstrip("\n").split(",")
            checker.add(int(fields[1]), Fraction(fields[2]))
            if checker.problem is not None:
                break
            n = checker.n
            total = checker.total
            avg = total / n
            if (int(fields[0]) != n or Fraction(fields[3]) != total
                    or Fraction(fields[5]) != avg):
                checker.problem = f"row {n} disagrees with the independent running sum"
                break
            if perm.readline().split() != fields[:2]:
                checker.problem = f"permutation line {n} disagrees with the trace"
                break
            if n >= start and not target - eps < avg < target + eps:
                tube_ok = False
        else:
            if perm.readline():
                checker.problem = "permutation file is longer than the trace"
    return checker, tube_ok
