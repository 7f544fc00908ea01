"""meanweave: classify and construct average-limit behaviour of rearranged sequences.

``import meanweave`` loads no submodule.  Each exported name is imported
from its home module the first time it is read (PEP 562), so a process
pays only for the layers it uses.
"""

from importlib import import_module

# home module -> the names it exports here (the module itself is one too)
_EXPORTS = {
    "aarset": ("AARSet", "Interval"),
    "balance": (
        "BalanceVerdict", "RatioEntry", "balanced_verdict", "density_condition",
        "density_report", "ratio_series",
    ),
    "classifier": ("classify", "classify_spec"),
    "dsl": ("parse_spec", "render"),
    "errors": (
        "CoverageViolation", "DegenerateRange", "DensityFails",
        "InjectivityViolation", "InsufficientEvidence", "MalformedDescriptor",
        "MeanweaveError", "MissingInfinity", "NonPositiveTerm", "NotBalanced",
        "NotDivergent", "ParseError", "TargetNotAbove", "TargetUnreachable",
        "TermTooLarge", "UndeclaredLimit", "UnknownProfile", "WeightOutOfRange",
        "ZOutsideRange",
    ),
    "extreal": ("ExtendedReal", "NEG_INF", "POS_INF"),
    "harness": (
        "EnvelopeReport", "PermutationReport", "TraceEntry", "check_permutation",
        "check_schedule", "check_tube", "downward_jump_bound_holds",
        "envelope_oracle", "iter_trace", "read_trace_csv", "trace",
        "verify_trace_identities", "write_trace_csv",
    ),
    "realizer": ("ScheduleEntry", "TubeSchedule", "dense_targets", "realizer_from_spec"),
    "rearrange": (
        "Rearrangement", "RunningAverage", "construct_target",
        "identity_rearrangement", "merge_preserving", "mirror_rearrangement",
        "oscillator", "sort_increasing", "target_above_limsup",
        "two_sided_balance", "weighted_merge",
    ),
    "seqspec": (
        "Affine", "AffineMap", "BalanceKind", "Condition", "Constant",
        "Decomposition", "DensityReport", "ExplicitPrefix", "Geometric",
        "IndexMap", "Interleave", "Linear", "NegLinear", "Negate", "PartStream",
        "PointwiseSquare", "PointwiseSum", "PowerOfIndex", "RunLength", "RunRule",
        "SequenceSpec", "SumJump", "WovenMap", "decompose", "negated_spec",
        "profile",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{home}")
    value = globals()[name] = module if name == home else getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
