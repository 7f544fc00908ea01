"""Exception types raised by the public API.

Every error carries a stable ``code`` attribute (its class name) so the CLI
can print ``ERROR <code>: <detail>`` lines without string matching.
"""

from typing import Optional


class MeanweaveError(Exception):
    """Base class for all library errors."""

    @property
    def code(self) -> str:
        return type(self).__name__


class MalformedDescriptor(MeanweaveError):
    """A sequence descriptor violates a constructor precondition."""


class UnknownProfile(MeanweaveError):
    """No accumulation profile is declared or derivable for the spec."""


class TermTooLarge(MeanweaveError):
    """A term lies past the size limit its family computes exactly."""


class NotDivergent(MeanweaveError):
    """An operation requiring divergence met a non-divergent sequence."""


class InsufficientEvidence(MeanweaveError):
    """Classification needs a balance/density verdict that is Unknown."""

    def __init__(self, missing):
        self.missing = tuple(missing)
        super().__init__("missing verdicts: " + ", ".join(self.missing))


class UndeclaredLimit(MeanweaveError):
    """merge_preserving was given an extra stream with no declared limit."""


class WeightOutOfRange(MeanweaveError):
    """weighted_merge weight must lie in [0, 1]."""


class TargetUnreachable(MeanweaveError):
    """The requested average target lies outside the attainable range."""


class DegenerateRange(MeanweaveError):
    """oscillator needs two parts with distinct finite limits."""


class NotBalanced(MeanweaveError):
    """A construction requires a balanced divergent part and none was given."""


class TargetNotAbove(MeanweaveError):
    """target_above_limsup needs a target strictly above the finite limsup."""


class DensityFails(MeanweaveError):
    """two_sided_balance requires the o(n) term-density condition."""


class ZOutsideRange(MeanweaveError):
    """Requested accumulation targets leave the [a, b] steering range."""


class MissingInfinity(MeanweaveError):
    """realizer_from_spec needs strands diverging to -inf and +inf."""


class InjectivityViolation(MeanweaveError):
    """A rearrangement stream repeated a source index."""

    def __init__(self, source_index: int, first_rank: int, second_rank: int):
        self.source_index = source_index
        self.first_rank = first_rank
        self.second_rank = second_rank
        super().__init__(
            f"source index {source_index} emitted at ranks "
            f"{first_rank} and {second_rank}"
        )


class CoverageViolation(MeanweaveError):
    """A rearrangement stream missed its coverage bound, or ended before
    covering a probe when it has none (``bound`` None)."""

    def __init__(self, prefix: int, bound: Optional[int]):
        self.prefix = prefix
        self.bound = bound
        within = "before the stream ended" if bound is None else f"within {bound} outputs"
        super().__init__(f"source indices 1..{prefix} not all emitted {within}")


class ParseError(MeanweaveError):
    """Sequence-descriptor text failed to parse.

    ``offset`` is the 0-based character position of the failure and
    ``expected`` a short description of what would have been legal there.
    """

    def __init__(self, offset: int, expected: str):
        self.offset = offset
        self.expected = expected
        super().__init__(f"at offset {offset}: expected {expected}")
