"""The package surface that bench/ relies on.

bench/workloads.py wraps package attributes by name for its per-layer
trace and re-wraps rearrangements through the keyword constructor.  A
renamed or deleted attribute only shows there as an AttributeError at run
time, so these tests pin the surface without importing bench/.
"""

import ast
import importlib
from fractions import Fraction
from itertools import islice
from pathlib import Path

from meanweave.dsl import parse_spec
from meanweave.rearrange import Rearrangement, construct_target

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def trace_targets():
    """(owner path, attribute) of each TRACE_TARGETS row, read with ast."""
    tree = ast.parse(WORKLOADS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACE_TARGETS" for t in node.targets
        ):
            return [
                (ast.unparse(row.elts[0]), row.elts[1].value)
                for row in node.value.elts
            ]
    raise AssertionError("bench/workloads.py defines no TRACE_TARGETS")


def test_every_traced_attribute_exists():
    targets = trace_targets()
    assert targets
    missing = []
    for owner_path, attr in targets:
        module, *inner = owner_path.split(".")
        owner = importlib.import_module(f"meanweave.{module}")
        for name in inner:
            owner = getattr(owner, name)
        if not hasattr(owner, attr):
            missing.append(f"{owner_path}.{attr}")
    assert missing == []


def test_keyword_constructor_builds_and_streams():
    spec = parse_spec("interleave(const(0), const(1))")
    r = construct_target(spec, Fraction(1, 3))
    meta = {"note": object()}
    wrapped = Rearrangement(
        source=r.source, factory=r.tagged_stream, coverage_bound=r.coverage_bound,
        name=r.name, limit_in_average=r.limit_in_average, meta=meta,
    )
    assert list(islice(wrapped.tagged_stream(), 50)) == list(islice(r.tagged_stream(), 50))
    assert list(islice(wrapped.stream(), 50)) == list(islice(r.stream(), 50))
    assert wrapped.source is spec and wrapped.name == "bounded_target[1/3]"
    assert wrapped.limit_in_average == r.limit_in_average and wrapped.meta == meta
