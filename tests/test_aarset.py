"""Attainable-average sets: canonical form, membership, text round trips."""

from fractions import Fraction

import pytest

from meanweave.aarset import AARSet, Interval, union
from meanweave.extreal import NEG_INF, POS_INF, ExtendedReal


def iv(lo, hi):
    return Interval(ExtendedReal(Fraction(lo)), ExtendedReal(Fraction(hi)))


def test_of_merges_overlapping_intervals():
    assert AARSet.of(iv(0, 1), iv("1/2", 3)).render() == "[0, 3]"


def test_of_merges_touching_intervals():
    assert union(AARSet.of(iv(0, 1)), AARSet.of(iv(1, 2))).render() == "[0, 2]"


def test_of_sorts_pieces():
    a = AARSet.of(POS_INF, iv("1/2", 3), Fraction(0))
    assert a.render() == "{0} ∪ [1/2, 3] ∪ {+inf}"
    assert [p.lo.render() for p in a.intervals] == ["0", "1/2", "+inf"]


def test_of_rejects_empty():
    with pytest.raises(ValueError):
        AARSet.of()


@pytest.mark.parametrize("lo, hi", [
    (ExtendedReal(1), ExtendedReal(0)),
    (ExtendedReal(Fraction(1, 3)), ExtendedReal(Fraction(1, 4))),
    (POS_INF, ExtendedReal(0)),
    (ExtendedReal(0), NEG_INF),
    (POS_INF, NEG_INF),
])
def test_interval_refuses_endpoints_out_of_order(lo, hi):
    with pytest.raises(ValueError, match="interval endpoints out of order"):
        Interval(lo, hi)
    assert Interval(hi, hi).is_point and not Interval(hi, lo).is_point


def test_whole_line():
    w = AARSet.whole_line()
    assert w.render() == "[-inf, +inf]"
    for x in (NEG_INF, POS_INF, Fraction(10**9), Fraction(-3, 7)):
        assert w.contains(x)


def test_contains_points_gaps_and_infinities():
    a = AARSet.of(Fraction(0), iv("1/2", 3), POS_INF)
    assert a.contains(Fraction(0))
    assert a.contains(Fraction(2))
    assert a.contains(Fraction(1, 2)) and a.contains(Fraction(3))
    assert a.contains(POS_INF)
    assert not a.contains(Fraction(1, 4))
    assert not a.contains(NEG_INF)
    assert not a.contains(Fraction(4))


def test_parse_render_round_trip():
    for text in (
        "[0, 1]",
        "{0} ∪ {+inf}",
        "{-inf} ∪ {0} ∪ {+inf}",
        "[-inf, 0] ∪ {+inf}",
        "[-inf, +inf]",
        "{7}",
        "{3/2}",
    ):
        assert AARSet.parse(text).render() == text


def test_serialize_deserialize_round_trip():
    a = AARSet.of(Fraction(0), iv("1/2", 3), POS_INF)
    assert a.serialize() == "[[0/1, 0/1], [1/2, 3/1], [+inf, +inf]]"
    assert AARSet.deserialize(a.serialize()) == a
    w = AARSet.whole_line()
    assert w.serialize() == "[[-inf, +inf]]"
    assert AARSet.deserialize(w.serialize()) == w


def test_union_is_canonicalizing():
    a = union(AARSet.of(Fraction(0)), AARSet.of(POS_INF))
    assert a.render() == "{0} ∪ {+inf}"
    b = union(a, AARSet.of(iv(0, 1)))
    assert b.render() == "[0, 1] ∪ {+inf}"


def test_equality_is_structural_on_canonical_form():
    x = AARSet.of(iv(0, 1), iv(1, 2))
    y = AARSet.of(iv(0, 2))
    assert x == y


def test_parse_reads_bars_and_braces_listing_several_points():
    quarters = AARSet.of(Fraction(1, 4), Fraction(3, 4))
    assert AARSet.parse("{1/4, 3/4}") == quarters
    assert AARSet.parse("{1/4} | {3/4}") == quarters
    mixed = AARSet.parse("{1/4} | [1/2, 3/4]")
    assert mixed.render() == "{1/4} ∪ [1/2, 3/4]"
    assert AARSet.parse("{-inf, 0, +inf}").render() == "{-inf} ∪ {0} ∪ {+inf}"


def test_accumulation_views_of_a_set():
    a = AARSet.parse("{-inf} ∪ [-inf, 0] ∪ {1} ∪ {+inf}")
    assert (a.lo, a.hi) == (NEG_INF, POS_INF)
    assert [iv.render() for iv in a.finite] == ["[-inf, 0]", "{1}"]
    assert AARSet.whole_line().finite == AARSet.whole_line().intervals
    assert AARSet.parse("{-inf} ∪ {+inf}").finite == ()
    assert AARSet.of(POS_INF).point() == POS_INF
    assert AARSet.of(Fraction(2)).point() == Fraction(2)
    assert a.point() is None and AARSet.of(iv(0, 1)).point() is None


def test_no_module_imports_a_private_name_from_another():
    # A leading underscore marks a name as its module's own; importing one
    # across modules couples them to an internal detail.
    import ast
    import pathlib

    import meanweave

    leaks = []
    for path in sorted(pathlib.Path(meanweave.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                leaks += [
                    f"{path.name}: {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert leaks == []


def test_no_module_imports_dataclasses():
    # The records are written out on extreal.Record: dataclasses (and the
    # inspect module it loads) cost every process start-up for nothing.
    import ast
    import pathlib

    import meanweave

    found = []
    for path in sorted(pathlib.Path(meanweave.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}: {m}" for m in modules if m.split(".")[0] == "dataclasses"]
    assert found == []


def test_lower_layers_import_nothing_from_the_constructions_or_the_cli():
    # extreal holds the integer-pair helper (widen) that balance, the
    # running average and the trace walker share; the layers below the
    # constructions must be able to reach it without a cycle.
    import ast
    import pathlib

    import meanweave

    package = pathlib.Path(meanweave.__file__).parent
    upper = {"rearrange", "harness", "realizer", "cli"}
    found = []
    for name in ("extreal", "seqspec", "balance"):
        for node in ast.walk(ast.parse((package / f"{name}.py").read_text())):
            if isinstance(node, ast.ImportFrom):  # in `from . import x`, x is a module
                modules = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            found += [f"{name}: {m}" for m in modules
                      if m.rpartition(".")[2] in upper]
    assert found == []
