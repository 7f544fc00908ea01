"""Command-line interface: pinned outputs, exit codes, artifacts."""

import hashlib
import io
import tracemalloc
from fractions import Fraction
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanweave.cli import main
from meanweave.dsl import parse_spec
from meanweave.extreal import ExtendedReal
from meanweave.harness import check_tube, read_trace_csv, verify_trace_identities

FOUR_STRANDS = (
    "interleave(interleave(const(0), neg(square(linear()))),"
    " interleave(const(1), square(linear())))"
)


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# classify


def test_classify_prints_the_rendered_set():
    code, out, err = run("classify", "interleave(const(0), geom(2))")
    assert (code, out, err) == (0, "{0} ∪ {+inf}\n", "")


def test_classify_exact_serialization():
    code, out, _ = run("classify", "--exact", "interleave(const(0), geom(2))")
    assert code == 0 and out == "[[0/1, 0/1], [+inf, +inf]]\n"


def test_classify_whole_line():
    code, out, _ = run("classify", "interleave(neg(runlen(4)), runlen(4))")
    assert code == 0 and out == "[-inf, +inf]\n"


def test_parse_failure_is_a_machine_readable_error():
    code, out, err = run("classify", "foo(1)")
    assert code == 2 and out == ""
    assert err.startswith("ERROR ParseError: ")
    assert "offset 0" in err


# ---------------------------------------------------------------------------
# balanced


def test_balanced_analytic_verdict_with_estimate():
    code, out, _ = run("balanced", "geom(2)")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("NOT_BALANCED: ")
    assert lines[1] == "ratio limsup estimate: 1"


def test_balanced_numeric_evidence_line():
    code, out, _ = run("balanced", "--mode", "numeric", "--n", "2000", "pow(1)")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("BALANCED: ")
    assert lines[1] == (
        "evidence: horizon=2000 window_start=1800"
        " max_ratio=2/1799 last_ratio=2/1999 small=False"
    )


def test_balanced_numeric_evidence_at_a_horizon_of_ten_to_the_thirty():
    # i**2 over the earlier sum (i-1)i(2i-1)/6 is 6i/((i-1)(2i-1)), at
    # i = 9*10**29 and 10**30, read in closed form
    code, out, err = run("balanced", "pow(2)", "--mode", "numeric", "--n", str(10**30))
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == (
        "evidence: horizon=1000000000000000000000000000000"
        " window_start=900000000000000000000000000000"
        " max_ratio=5400000000000000000000000000000"
        "/1619999999999999999999999999997300000000000000000000000000001"
        " last_ratio=2000000000000000000000000000000"
        "/666666666666666666666666666665666666666666666666666666666667 small=True"
    )


def test_balanced_numeric_evidence_before_any_ratio():
    code, out, _ = run("balanced", "--mode", "numeric", "--n", "10", "affine(linear(), 1, -5)")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("BALANCED: ")
    assert lines[-1] == (
        "evidence: horizon=10 window_start=9 max_ratio=None last_ratio=None small=False"
    )


# SHA-256 of the whole stdout of ``balanced SPEC --mode numeric --n 10000``,
# recorded while evidence still summed Fractions term by term; the pair sum
# and the wrappers' run shortcut must print the same bytes.
PINNED_EVIDENCE = {
    "pow(2)": "c277acabc1073c142924dd8db1f2d744fc0c6aecc13314368341cf3c0c1bbc00",
    "runlen(4)": "e68b2b25ca9d3cae3c03171280d1fa5afb511e066edccafcdf148d76b0491c8e",
    "affine(pow(1), 5, 3)":
        "2d7ade86d13fcc9960cb80c143e68a060feb8c9f68c17936289cb0374a3e9e4b",
    "square(runlen(2))": "f6dca72576a5abf4cd8dbe2be1b2a8c59b575728b9d6d4606680f47955c37bfd",
    "geom(2)": "971ebd53cc5dc2904b5d5de4264c3a0d0c75692a47a6a0ae1a75cb5242da5180",
    "affine(linear(), 1, -5)":
        "e0ea92cc03d5f32c7a0b10789f40058427d66741332e9544d25eded4f3a35b4c",
}


@pytest.mark.parametrize("spec", sorted(PINNED_EVIDENCE))
def test_balanced_numeric_output_matches_pinned_digest(spec):
    code, out, err = run("balanced", spec, "--mode", "numeric", "--n", "10000")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_EVIDENCE[spec]


def test_balanced_numeric_horizon_below_two_is_a_usage_error():
    code, out, err = run("balanced", "linear()", "--mode", "numeric", "--n", "1")
    assert (code, out) == (2, "")
    assert err == "ERROR UsageError: numeric horizon must be at least 2, got 1\n"


def test_balanced_rejects_nondivergent_input():
    code, _, err = run("balanced", "const(1)")
    assert code == 2 and err.startswith("ERROR NotDivergent: ")


# ---------------------------------------------------------------------------
# oracle


def test_oracle_enumerates_small_multisets():
    assert run("oracle", "0,0,1,1", "2") == (0, "0, 1/2, 1\n", "")


def test_oracle_reports_extremes_beyond_the_cap():
    values = ",".join(str(i) for i in range(14))
    assert run("oracle", values, "3") == (0, "min 1, max 12\n", "")


def test_oracle_rejects_bad_subset_size():
    code, _, err = run("oracle", "1,2", "5")
    assert code == 2 and err.startswith("ERROR UsageError: ")


# ---------------------------------------------------------------------------
# construct + verify round trip


def test_construct_writes_permutation_and_trace(tmp_path):
    base = tmp_path / "run"
    code, out, _ = run(
        "construct", "--target", "1/3", "--n", "200",
        "--out", str(base), "interleave(const(0), const(1))",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "constructor: bounded_target[1/3]"
    assert lines[1] == f"wrote {base}.perm.txt"
    assert lines[2] == f"wrote {base}.trace.csv"
    assert lines[3] == "final average: 67/200 (0.335)"

    perm = (base.parent / "run.perm.txt").read_text().splitlines()
    assert len(perm) == 200
    assert perm[0] == "1 2" and perm[1] == "2 1"
    ranks = [int(line.split()[0]) for line in perm]
    sources = [int(line.split()[1]) for line in perm]
    assert ranks == list(range(1, 201))
    assert len(set(sources)) == 200  # injective prefix

    csv_lines = (base.parent / "run.trace.csv").read_text().splitlines()
    assert csv_lines[0] == "n,source_index,value,partial_sum,average_decimal,average_exact"
    assert csv_lines[1] == "1,2,1/1,1/1,1,1/1"
    assert csv_lines[-1] == "200,265,0/1,67/1,0.335,67/200"


def test_verify_checks_identities_and_tube(tmp_path):
    base = tmp_path / "run"
    run("construct", "--target", "1/3", "--n", "200", "--out", str(base),
        "interleave(const(0), const(1))")
    trace_path = str(base) + ".trace.csv"

    code, out, _ = run("verify", trace_path, "--tube", "1/3", "1/100", "--from", "150")
    assert code == 0
    assert out == "identities: PASS\ntube target=1/3 eps=1/100 from=150: PASS\n"

    code, out, _ = run("verify", trace_path, "--tube", "1/3", "1/10000", "--from", "150")
    assert code == 1
    assert out == "identities: PASS\ntube target=1/3 eps=1/10000 from=150: FAIL\n"


def test_verify_fails_a_tube_that_tests_no_row(tmp_path):
    base = tmp_path / "run"
    run("construct", "--target", "1/3", "--n", "200", "--out", str(base),
        "interleave(const(0), const(1))")
    trace_path = str(base) + ".trace.csv"

    code, out, _ = run("verify", trace_path, "--tube", "1/3", "1/10", "--from", "200")
    assert (code, out) == (0, "identities: PASS\ntube target=1/3 eps=1/10 from=200: PASS\n")

    code, out, _ = run("verify", trace_path, "--tube", "1/3", "1/10", "--from", "201")
    assert code == 1
    assert out == (
        "identities: PASS\ntube target=1/3 eps=1/10 from=201: FAIL\n"
        "no row lies at or after --from 201: the largest n is 200\n"
    )


def test_verify_spec_checks_each_value_against_its_source_term(tmp_path):
    spec = "interleave(const(0), const(1))"
    base = tmp_path / "run"
    run("construct", "--target", "1/3", "--n", "200", "--out", str(base), spec)
    code, out, _ = run("verify", str(base) + ".trace.csv", "--spec", spec)
    assert (code, out) == (0, f"identities: PASS\nvalues of {spec}: PASS\n")

    # source 1 is a 0 of this spec; the sums agree with the stated 7
    path = tmp_path / "wrong.trace.csv"
    path.write_text(
        "n,source_index,value,partial_sum,average_decimal,average_exact\n"
        "1,2,1/1,1/1,1,1/1\n"
        "2,1,7/1,8/1,4,4/1\n"
    )
    assert run("verify", str(path)) == (0, "identities: PASS\n", "")
    code, out, _ = run("verify", str(path), "--spec", spec)
    assert (code, out) == (1, f"identities: PASS\nvalues of {spec}: FAIL\n")
    code, out, err = run("verify", str(path), "--spec", "foo(1)")
    assert (code, out) == (2, "") and err.startswith("ERROR ParseError: ")


def test_verify_refuses_a_malformed_tube_before_any_output(tmp_path):
    base = tmp_path / "run"
    run("construct", "--target", "1/3", "--n", "20", "--out", str(base),
        "interleave(const(0), const(1))")
    trace_path = str(base) + ".trace.csv"
    for tube, why in ((("2", "0"), "eps must be positive"),
                      (("abc", "1/10"), "")):
        code, out, err = run("verify", trace_path, "--tube", *tube)
        assert (code, out) == (2, "")
        assert err.startswith("ERROR UsageError: ") and why in err


def test_verify_rejects_a_repeated_source_index(tmp_path):
    base = tmp_path / "run"
    run("construct", "--target", "1/3", "--n", "200", "--out", str(base),
        "interleave(const(0), const(1))")
    path = tmp_path / "run.trace.csv"
    lines = path.read_text().splitlines()
    # rows n=4 and n=7 both emit a 0; let n=7 claim the source index of n=4
    row4, row7 = lines[4].split(","), lines[7].split(",")
    assert row4[2] == row7[2] == "0/1" and row4[1] != row7[1]
    row7[1] = row4[1]
    lines[7] = ",".join(row7)
    path.write_text("\n".join(lines) + "\n")

    code, out, _ = run("verify", str(path), "--tube", "1/3", "1/100", "--from", "150")
    assert code == 1
    assert out == (
        "identities: PASS\ntube target=1/3 eps=1/100 from=150: PASS\n"
        f"source index {row4[1]} repeats: rows n=4 and n=7\n"
    )


def test_verify_fails_on_a_trace_without_rows(tmp_path):
    path = tmp_path / "empty.trace.csv"
    path.write_text("n,source_index,value,partial_sum,average_decimal,average_exact\n")
    code, out, _ = run("verify", str(path), "--tube", "1/3", "1/100")
    assert (code, out) == (1, "trace has no rows: nothing to verify\n")


def test_verify_names_the_line_of_a_short_row(tmp_path):
    path = tmp_path / "short.trace.csv"
    path.write_text(
        "n,source_index,value,partial_sum,average_decimal,average_exact\n"
        "1,1,0/1,0/1,0,0/1\n"
        "2,2,1/1\n"
    )
    code, out, err = run("verify", str(path))
    assert (code, out) == (2, "")
    assert err == "ERROR UsageError: line 3: 3 fields, expected 6\n"


def test_verify_fails_a_trace_missing_a_row(tmp_path):
    # without row n=2 the recurrence from n=1 to n=3 still balances
    path = tmp_path / "gap.trace.csv"
    path.write_text(
        "n,source_index,value,partial_sum,average_decimal,average_exact\n"
        "1,1,1/1,1/1,1,1/1\n"
        "3,2,1/1,3/1,1,1/1\n"
    )
    code, out, _ = run("verify", str(path))
    assert (code, out) == (1, "identities: FAIL\n")


def test_verify_fails_a_value_that_disagrees_with_the_sum(tmp_path):
    # each average is its sum over n; only the recurrence sees the value 5
    path = tmp_path / "value.trace.csv"
    path.write_text(
        "n,source_index,value,partial_sum,average_decimal,average_exact\n"
        "1,1,1/1,1/1,1,1/1\n"
        "2,2,5/1,2/1,1,1/1\n"
    )
    code, out, _ = run("verify", str(path))
    assert (code, out) == (1, "identities: FAIL\n")


@pytest.mark.parametrize("row, detail", [
    ("2,x,1/1,1/1,0.5,1/2", "invalid literal for int() with base 10: 'x'"),
    ("2,2,1/0,1/1,0.5,1/2", "Fraction(1, 0)"),
])
def test_verify_names_the_line_of_an_unparsable_field(tmp_path, row, detail):
    path = tmp_path / "bad.trace.csv"
    path.write_text(
        "n,source_index,value,partial_sum,average_decimal,average_exact\n"
        "1,1,0/1,0/1,0,0/1\n" + row + "\n"
    )
    code, out, err = run("verify", str(path))
    assert (code, out) == (2, "")
    assert err == f"ERROR UsageError: line 3: {detail}\n"


def test_verify_missing_file_is_an_io_error():
    code, _, err = run("verify", "/nonexistent/trace.csv")
    assert code == 2 and err.startswith("ERROR IOError: ")


# Edited copies of the 200-row trace of interleave(const(0), const(1)) at 1/3
# (header at line 0, row n at line n), or hand-written rows, each with the
# verify arguments and its (exit code, stdout, stderr).  Recorded when verify
# still read the whole trace before checking it; a one-pass verify must print
# the same lines in the same order.
TUBE = ("--tube", "1/3", "1/100", "--from", "150")
HEADER = "n,source_index,value,partial_sum,average_decimal,average_exact"


def _moved_row_10(lines):
    return lines[:10] + lines[11:] + [lines[10]]


def _repeat(lines):  # row n=7 claims the source index of row n=4
    lines = list(lines)
    row4, row7 = lines[4].split(","), lines[7].split(",")
    row7[1] = row4[1]
    lines[7] = ",".join(row7)
    return lines


def _repeat_and_wrong_value(lines):
    lines = _repeat(lines)
    lines[20] = lines[20].replace(",0/1,", ",5/1,")
    return lines


def _repeat_then_malformed(lines):
    lines = _repeat(lines)
    lines[100] = "100,x,0/1,33/1,0.33,33/100"
    return lines


def _rows_repeating(source):
    return lambda _lines: [HEADER, f"1,{source},1/1,1/1,1,1/1", "2,5,0/1,1/1,0.5,1/2",
                           f"3,{source},1/1,2/1,0.666666666667,2/3"]


def _far_runlen_source(_lines):  # runlen(3) raises TermTooLarge past ~3.3e11
    return [HEADER, "1,1,1/1,1/1,1,1/1", f"2,{10**12},1/1,2/1,1,1/1", "3,1,1/1,3/1,1,1/1"]


SPEC01 = "interleave(const(0), const(1))"
VERIFY_TABLE = {
    # a tube window, once open, stays open: row n=10 after n=200 is tested
    "moved_row_below_from": (_moved_row_10, TUBE, (
        1, "identities: FAIL\ntube target=1/3 eps=1/100 from=150: FAIL\n", "")),
    "repeat_after_failed_identity": (_repeat_and_wrong_value, TUBE, (
        1, "identities: FAIL\ntube target=1/3 eps=1/100 from=150: PASS\n"
           "source index 3 repeats: rows n=4 and n=7\n", "")),
    "repeat_then_malformed_row": (_repeat_then_malformed, TUBE, (
        2, "", "ERROR UsageError: line 101: invalid literal for int() with base 10: 'x'\n")),
    "repeat_of_source_0": (_rows_repeating(0), (), (
        1, "identities: PASS\nsource index 0 repeats: rows n=1 and n=3\n", "")),
    "repeat_of_source_-3": (_rows_repeating(-3), (), (
        1, "identities: PASS\nsource index -3 repeats: rows n=1 and n=3\n", "")),
    "repeat_of_source_1e12": (_rows_repeating(10**12), (), (
        1, "identities: PASS\nsource index 1000000000000 repeats: rows n=1 and n=3\n", "")),
    "repeat_under_spec": (_repeat, ("--spec", SPEC01), (
        1, f"identities: PASS\nvalues of {SPEC01}: PASS\n"
           "source index 3 repeats: rows n=4 and n=7\n", "")),
    # a term that raises is reported after the lines before it, not the repeat
    "spec_term_raises": (_far_runlen_source, ("--spec", "runlen(3)", "--tube", "1", "1/10"), (
        2, "identities: PASS\ntube target=1 eps=1/10 from=1: PASS\n",
        "ERROR TermTooLarge: factorial terms stop at block 10000\n")),
    "row_n_0": (lambda _l: [HEADER, "0,1,1/1,1/1,1,1/1", "2,2,1/1,2/1,1,1/1"],
                ("--tube", "1", "1/10"), (
        1, "identities: FAIL\ntube target=1 eps=1/10 from=1: FAIL\n", "")),
    # not recorded: reading the whole trace first raised UnboundLocalError here
    "first_row_n_-1": (lambda _l: [HEADER, "-1,1,1/1,1/1,1,1/1", "2,2,1/1,2/1,1,1/1"],
                       ("--tube", "1", "1/10"), (
        1, "identities: FAIL\ntube target=1 eps=1/10 from=1: FAIL\n", "")),
}


@pytest.fixture(scope="module")
def target_trace_lines(tmp_path_factory):
    base = tmp_path_factory.mktemp("verify") / "run"
    run("construct", "--target", "1/3", "--n", "200", "--out", str(base), SPEC01)
    return (base.parent / "run.trace.csv").read_text().splitlines()


@pytest.mark.parametrize("case", VERIFY_TABLE)
def test_verify_prints_its_pinned_lines(tmp_path, target_trace_lines, case):
    edit, argv, expected = VERIFY_TABLE[case]
    path = tmp_path / "edited.trace.csv"
    path.write_text("\n".join(edit(target_trace_lines)) + "\n")
    assert run("verify", str(path), *argv) == expected


# Sources met are kept a byte each up to a bound that grows with the rows
# read, and in a set past it: source 5000 at row 1 lies past the bound, and
# the bound grows over it later; -3 must stay out of the byte map as it grows.
@pytest.mark.parametrize("sources", [
    [5000, *range(1, 3000), 5000],
    [5000, *range(1, 2000), 6000, 5000],
    [-3, *range(1, 2100), 5000, 8189],
    [10**12, 1, 2, 10**12 + 1, 0, -1],
], ids=["far_then_covered", "covered_by_another", "negative_kept_out", "no_repeat"])
def test_verify_reports_the_first_repeated_source(tmp_path, sources):
    first, repeat = {}, ""
    for n, s in enumerate(sources, start=1):
        if s in first:
            repeat = f"source index {s} repeats: rows n={first[s]} and n={n}\n"
            break
        first[s] = n
    path = tmp_path / "sources.trace.csv"
    rows = (f"{n},{s},0/1,0/1,0,0/1" for n, s in enumerate(sources, start=1))
    path.write_text("\n".join([HEADER, *rows]) + "\n")
    assert run("verify", str(path)) == (1 if repeat else 0, "identities: PASS\n" + repeat, "")


def reference_verify(path, tube, from_index, spec_text):
    """What verify printed when it read the whole trace and then walked it
    once per check: (exit code, stdout) of a well-formed trace file."""
    with open(path, newline="") as fh:
        t = read_trace_csv(fh)
    if not t:
        return 1, "trace has no rows: nothing to verify\n"
    ok = verify_trace_identities(t)
    out = [f"identities: {'PASS' if ok else 'FAIL'}"]
    if tube is not None:
        target, eps = ExtendedReal.parse(tube[0]), Fraction(tube[1])
        top = max(e.n for e in t)
        tube_ok = top >= from_index and check_tube(t, target, eps, from_index=from_index)
        out.append(f"tube target={target.render()} eps={eps} "
                   f"from={from_index}: {'PASS' if tube_ok else 'FAIL'}")
        if top < from_index:
            out.append(f"no row lies at or after --from {from_index}: the largest n is {top}")
        ok = ok and tube_ok
    if spec_text is not None:
        spec = parse_spec(spec_text)
        values_ok = all(e.source_index >= 1 and e.value == spec.term(e.source_index)
                        for e in t)
        out.append(f"values of {spec_text}: {'PASS' if values_ok else 'FAIL'}")
        ok = ok and values_ok
    rows = {}
    for e in t:
        if e.source_index in rows:
            out.append(f"source index {e.source_index} repeats: "
                       f"rows n={rows[e.source_index]} and n={e.n}")
            return 1, "\n".join(out) + "\n"
        rows[e.source_index] = e.n
    return 0 if ok else 1, "\n".join(out) + "\n"


@st.composite
def edited_traces(draw):
    """Rows of integer values whose n, source, sum or average may be off."""
    lines, total = [HEADER], 0
    for i in range(1, draw(st.integers(0, 10)) + 1):
        n = draw(st.sampled_from([i] * 6 + [0, -1, i + 1, 1]))
        value = draw(st.sampled_from([0, 1, 2, -1]))
        total += value
        source = draw(st.sampled_from([*range(1, 8), 0, -3, 5000, 10**12]))
        avg = Fraction(total, max(n, 1)) + draw(st.sampled_from([0] * 5 + [1]))
        lines.append(f"{n},{source},{value}/1,{total + draw(st.sampled_from([0] * 5 + [1]))}/1,"
                     f"0,{avg.numerator}/{avg.denominator}")
    return lines


@settings(max_examples=300, deadline=None)
@given(edited_traces(),
       st.none() | st.tuples(st.sampled_from(["1/3", "1", "-1/2", "inf", "-inf"]),
                             st.sampled_from(["1/10", "1/2", "2"])),
       st.integers(-2, 12), st.none() | st.just(SPEC01))
def test_verify_prints_what_reading_the_whole_trace_printed(
        tmp_path_factory, lines, tube, from_index, spec):
    path = tmp_path_factory.getbasetemp() / "edited.trace.csv"
    path.write_text("\n".join(lines) + "\n")
    argv = [*(("--tube", *tube) if tube else ()), "--from", str(from_index),
            *(("--spec", spec) if spec else ())]
    code, out, err = run("verify", str(path), *argv)
    assert ((code, out), err) == (reference_verify(path, tube, from_index, spec), "")


def test_verify_reads_a_trace_at_flat_memory(tmp_path):
    base = tmp_path / "long"
    run("construct", "--target", "1/3", "--n", "20000", "--out", str(base), SPEC01)
    argv = ["verify", f"{base}.trace.csv", *TUBE, "--spec", SPEC01]
    run(*argv)  # the first run loads what verify imports
    tracemalloc.start()
    try:
        result = run(*argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (0, "identities: PASS\ntube target=1/3 eps=1/100 from=150: PASS\n"
                         f"values of {SPEC01}: PASS\n", "")
    assert peak < 1_000_000  # reading the whole trace first peaked near 7 MB


def test_construct_oscillate(tmp_path):
    base = tmp_path / "osc"
    code, out, _ = run(
        "construct", "--oscillate", "--n", "50", "--out", str(base),
        "interleave(const(0), const(1))",
    )
    assert code == 0
    assert out.splitlines()[0] == "constructor: oscillator"
    assert out.splitlines()[3] == "final average: 19/50 (0.38)"


def test_construct_realize_accepts_a_point_set(tmp_path):
    base = tmp_path / "re"
    code, out, _ = run(
        "construct", "--realize", "{1/4} | {3/4}", "--n", "400",
        "--out", str(base), FOUR_STRANDS,
    )
    assert code == 0
    assert out.splitlines()[0] == "constructor: accumulation_realizer"
    assert out.splitlines()[3] == "final average: 417/400 (1.0425)"


def test_construct_accepts_a_negative_rational_target(tmp_path):
    base = tmp_path / "neg"
    code, out, err = run(
        "construct", "interleave(const(-1), const(1/3))", "--target", "-1/2",
        "--n", "1000", "--out", str(base),
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "constructor: bounded_target[-1/2]"
    assert out.splitlines()[3] == "final average: -187/375 (-0.498667)"


def test_verify_tube_accepts_a_negative_rational_target(tmp_path):
    base = tmp_path / "neg"
    run("construct", "--target=-1/2", "--n", "1000", "--out", str(base),
        "interleave(const(-1), const(1/3))")
    trace_path = str(base) + ".trace.csv"
    code, out, err = run("verify", trace_path, "--tube", "-1/2", "1/10", "--from", "500")
    assert (code, err) == (0, "")
    assert out == "identities: PASS\ntube target=-1/2 eps=1/10 from=500: PASS\n"
    code, out, _ = run("verify", trace_path, "--tube", "-inf", "1/10")
    assert code == 1 and out.endswith("tube target=-inf eps=1/10 from=1: FAIL\n")


def test_construct_rejects_a_nonpositive_horizon(tmp_path):
    def construct(n):
        return run(
            "construct", "interleave(const(0), const(1))", "--target", "1/2",
            "--n", n, "--out", str(tmp_path / "run"),
        )

    for n in ("0", "-1"):
        code, out, err = construct(n)
        assert (code, out) == (2, "")
        assert err == "ERROR UsageError: trace needs at least one entry\n"
        assert list(tmp_path.iterdir()) == []
    # a refused run leaves the artifacts of an earlier run untouched
    assert construct("5")[0] == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert construct("0")[0] == 2
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_construct_rejects_unreachable_target():
    code, _, err = run(
        "construct", "--target", "-1", "--n", "100",
        "--out", "/tmp/never", "interleave(const(0), linear())",
    )
    assert code == 2 and err.startswith("ERROR TargetUnreachable: ")


@pytest.mark.parametrize("target", ["+inf", "-inf"])
def test_construct_refuses_an_infinite_target_as_unreachable(tmp_path, target):
    code, out, err = run(
        "construct", "interleave(const(0), linear())", "--target", target,
        "--n", "10", "--out", str(tmp_path / "x"),
    )
    assert (code, out) == (2, "")
    assert err == (f"ERROR TargetUnreachable: infinite target {target} has no route yet"
                   " (ROADMAP item 4 (c))\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("text", ["neg(linear())", "linear()"])
def test_construct_refuses_a_finite_target_of_a_single_infinity(tmp_path, text):
    code, out, err = run(
        "construct", "--target", "0", "--n", "10", "--out", str(tmp_path / "x"), text,
    )
    assert (code, out) == (2, "")
    assert err.startswith("ERROR TargetUnreachable: ")
    assert list(tmp_path.iterdir()) == []


def test_identical_commands_produce_byte_identical_artifacts(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    argv = ["construct", "--target", "1", "--n", "300", "interleave(const(0), linear())"]
    run(*argv, "--out", str(a))
    run(*argv, "--out", str(b))
    assert (tmp_path / "a.trace.csv").read_bytes() == (tmp_path / "b.trace.csv").read_bytes()
    assert (tmp_path / "a.perm.txt").read_bytes() == (tmp_path / "b.perm.txt").read_bytes()


# SHA-256 of (BASE.perm.txt, BASE.trace.csv), recorded before the trace kept
# its running sum as an integer pair (the target row again once the climb's
# deferred values moved to fixed slots); any change in the written bytes fails.
PINNED_ARTIFACTS = [
    (
        ["--target", "1/2", "--n", "2000", "interleave(const(1/3), linear())"],
        "f814bba44aef21f15911747727131f81f3b1a8e6cdd928fe847739244f0a1e74",
        "332336ad8a80ed1001c15297c43692a70827822a1c4b0098c6e29204d54dd493",
    ),
    (
        ["--realize", "{1/4, 3/4}", "--n", "3000", FOUR_STRANDS],
        "882e6d28dfb37f48e2c340c5508512322a95f81b8b7dd0a8eddd33a7a7c1adb9",
        "63741cf65590ea8ed9763b772393335cfa0dbe3ebbcbdbdeb258d3c740b446da",
    ),
]


@pytest.mark.parametrize(
    "argv, perm_sha, trace_sha", PINNED_ARTIFACTS, ids=["target", "realize"]
)
def test_construct_artifacts_match_pinned_digests(tmp_path, argv, perm_sha, trace_sha):
    base = tmp_path / "pin"
    code, _, err = run("construct", *argv, "--out", str(base))
    assert (code, err) == (0, "")

    def digest(suffix):
        return hashlib.sha256((tmp_path / f"pin{suffix}").read_bytes()).hexdigest()

    assert (digest(".perm.txt"), digest(".trace.csv")) == (perm_sha, trace_sha)
