"""meanweave: classify and construct average-limit behaviour of rearranged sequences."""

from .aarset import AARSet, Interval
from .balance import (
    BalanceKind,
    BalanceVerdict,
    Condition,
    DensityReport,
    RatioEntry,
    balanced_verdict,
    density_condition,
    density_report,
    ratio_series,
)
from .classifier import classify, classify_spec
from .dsl import parse_spec, render
from .harness import (
    EnvelopeReport,
    PermutationReport,
    TraceEntry,
    check_permutation,
    check_schedule,
    check_tube,
    downward_jump_bound_holds,
    envelope_oracle,
    iter_trace,
    read_trace_csv,
    trace,
    verify_trace_identities,
    write_trace_csv,
)
from .realizer import (
    ScheduleEntry,
    TubeSchedule,
    dense_targets,
    realizer_from_spec,
)
from .rearrange import (
    Rearrangement,
    RunningAverage,
    construct_target,
    identity_rearrangement,
    merge_preserving,
    mirror_rearrangement,
    oscillator,
    sort_increasing,
    target_above_limsup,
    two_sided_balance,
    weighted_merge,
)
from .errors import (
    CoverageViolation,
    DegenerateRange,
    DensityFails,
    InjectivityViolation,
    InsufficientEvidence,
    MalformedDescriptor,
    MeanweaveError,
    MissingInfinity,
    NonPositiveTerm,
    NotBalanced,
    NotDivergent,
    ParseError,
    TargetNotAbove,
    TargetUnreachable,
    TermTooLarge,
    UndeclaredLimit,
    UnknownProfile,
    WeightOutOfRange,
    ZOutsideRange,
)
from .extreal import NEG_INF, POS_INF, ExtendedReal
from .seqspec import (
    Affine,
    AffineMap,
    Constant,
    Decomposition,
    ExplicitPrefix,
    Geometric,
    IndexMap,
    Interleave,
    Linear,
    NegLinear,
    Negate,
    PartStream,
    PointwiseSquare,
    PointwiseSum,
    PowerOfIndex,
    RunLength,
    RunRule,
    SequenceSpec,
    SumJump,
    WovenMap,
    decompose,
    negated_spec,
    profile,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
