"""Start-up: what ``import meanweave`` and each subcommand load.

A process pays for every module it imports, so the package root loads
nothing until a name is read and each subcommand imports only the layers it
runs.  The subcommand cases run in a fresh interpreter, since this one has
every module loaded already.
"""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from types import ModuleType

import pytest

import meanweave
from meanweave.cli import main

SRC = Path(meanweave.__file__).resolve().parents[1]

# Runs meanweave.cli.main on argv (none: only `import meanweave`) and prints
# the meanweave modules loaded afterwards, and dataclasses and inspect if
# loaded: the records are written out, so no process needs either.
PROBE = """
import io, json, sys
GENERATORS = ("dataclasses", "inspect")
from contextlib import redirect_stdout
argv = json.loads(sys.argv[1])
if argv is None:
    import meanweave
else:
    from meanweave.cli import main
    with redirect_stdout(io.StringIO()):
        try:
            main(argv)
        except SystemExit:
            pass
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] == "meanweave" or m in GENERATORS)))
"""

REALIZE_SPEC = (
    "interleave(interleave(const(0), neg(square(linear()))),"
    " interleave(const(1), square(linear())))"
)


def fresh_python(code, *args):
    """What ``code`` prints as JSON, run by a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def loaded_by(argv):
    loaded = {m.removeprefix("meanweave.") for m in fresh_python(PROBE, json.dumps(argv))}
    assert not loaded & {"dataclasses", "inspect"}, sorted(loaded)
    return loaded


@pytest.fixture(scope="module")
def trace_csv(tmp_path_factory):
    base = tmp_path_factory.mktemp("lazy") / "run"
    with redirect_stdout(io.StringIO()):
        assert main(["construct", "interleave(const(0), const(1))",
                     "--target", "1/3", "--n", "200", "--out", str(base)]) == 0
    return str(base) + ".trace.csv"


CLI = {"meanweave", "cli", "errors"}
SPEC = {"dsl", "seqspec", "aarset", "extreal"}


def test_bare_import_loads_no_submodule():
    assert loaded_by(None) == {"meanweave"}
    # dir() lists the names before any of them is read
    names = fresh_python("import json, meanweave; print(json.dumps(dir(meanweave)))")
    assert set(PACKAGE_ALL) <= set(names)


def test_help_loads_only_the_cli():
    assert loaded_by(["--help"]) == CLI


def test_verify_loads_only_the_harness(trace_csv):
    assert loaded_by(["verify", trace_csv, "--tube", "1/3", "1/10"]) == CLI | {
        "extreal", "harness"}
    with_spec = ["verify", trace_csv, "--spec", "interleave(const(0), const(1))"]
    assert loaded_by(with_spec) == CLI | SPEC | {"harness"}


def test_construct_loads_only_its_constructor(tmp_path):
    out = ["--n", "50", "--out", str(tmp_path / "run")]
    target = ["construct", "interleave(const(0), const(1))", "--target", "1/3"]
    assert loaded_by(target + out) == CLI | SPEC | {"balance", "rearrange", "harness"}
    realize = ["construct", REALIZE_SPEC, "--realize", "{1/4, 3/4}"]
    assert loaded_by(realize + out) == CLI | SPEC | {
        "balance", "rearrange", "harness", "realizer"}


def test_classify_loads_no_construction():
    assert loaded_by(["classify", "interleave(const(0), geom(2))"]) == CLI | SPEC | {
        "balance", "classifier"}


# meanweave.__all__ as it was when the package root imported every module
# eagerly (its dir(), so the submodule names are in it too), less the ratio
# series, its record and its error, deleted since.
PACKAGE_ALL = [
    "AARSet", "Affine", "AffineMap", "BalanceKind", "BalanceVerdict", "Condition",
    "Constant", "CoverageViolation", "Decomposition", "DegenerateRange",
    "DensityFails", "DensityReport", "EnvelopeReport", "ExplicitPrefix",
    "ExtendedReal", "Geometric", "IndexMap", "InjectivityViolation",
    "InsufficientEvidence", "Interleave", "Interval", "Linear",
    "MalformedDescriptor", "MeanweaveError", "MissingInfinity", "NEG_INF",
    "NegLinear", "Negate", "NotBalanced", "NotDivergent", "POS_INF", "ParseError",
    "PartStream", "PermutationReport", "PointwiseSquare", "PointwiseSum",
    "PowerOfIndex", "Rearrangement", "RunLength", "RunRule", "RunningAverage",
    "ScheduleEntry", "SequenceSpec", "SumJump",
    "TargetNotAbove", "TargetUnreachable", "TermTooLarge", "TraceEntry",
    "TubeSchedule", "UndeclaredLimit", "UnknownProfile", "WeightOutOfRange",
    "WovenMap", "ZOutsideRange", "aarset", "balance", "balanced_verdict",
    "check_permutation", "check_schedule", "check_tube", "classifier", "classify",
    "classify_spec", "construct_target", "decompose", "dense_targets",
    "density_condition", "density_report", "downward_jump_bound_holds", "dsl",
    "envelope_oracle", "errors", "extreal", "harness", "identity_rearrangement",
    "iter_trace", "merge_preserving", "mirror_rearrangement", "negated_spec",
    "oscillator", "parse_spec", "profile", "read_trace_csv", "realizer",
    "realizer_from_spec", "rearrange", "render", "seqspec",
    "sort_increasing", "target_above_limsup", "trace", "two_sided_balance",
    "verify_trace_identities", "weighted_merge", "write_trace_csv",
]


def test_package_names_resolve_to_their_home_objects():
    assert meanweave.__all__ == PACKAGE_ALL
    for name in PACKAGE_ALL:
        value = getattr(meanweave, name)
        if isinstance(value, ModuleType):
            assert value is sys.modules[f"meanweave.{name}"], name
        else:
            assert value.__module__.startswith("meanweave."), name
            assert getattr(sys.modules[value.__module__], name) is value, name
    with pytest.raises(AttributeError, match="no_such_name"):
        meanweave.no_such_name


def test_package_imports_by_name_and_by_star():
    from meanweave import seqspec

    assert seqspec is sys.modules["meanweave.seqspec"]
    namespace = {}
    exec("from meanweave import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PACKAGE_ALL)
    assert namespace["parse_spec"] is sys.modules["meanweave.dsl"].parse_spec
