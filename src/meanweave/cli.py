"""Command-line surface: classify, balanced, construct, verify, oracle.

Every run is deterministic: identical command lines produce byte-identical
artifacts.  Failures print one machine-readable line
``ERROR <code>: <detail>`` to stderr and exit with status 2; verification
mismatches exit with status 1.

Each subcommand imports only the layers it runs: ``verify`` loads the
harness, not the constructions behind it.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction
from importlib import import_module

from .errors import MeanweaveError

DEFAULT_HORIZON = 100_000

# home module -> the layer functions the subcommands call there.  The names
# stay readable here (the benchmark's per-layer trace wraps them by these
# names), but importing cli loads none of their modules.
_LAYER_FUNCTIONS = {
    "dsl": ("parse_spec",),
    "balance": ("balanced_verdict",),
    "classifier": ("classify_spec",),
    "rearrange": ("construct_target", "oscillator"),
    "realizer": ("realizer_from_spec",),
    "harness": ("iter_trace", "check_tube", "verify_trace_identities",
                "write_trace_csv", "read_trace_csv"),
}
_HOME = {name: home for home, names in _LAYER_FUNCTIONS.items() for name in names}


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__package__}.{home}"), name)


def _error_line(code: str, detail: str) -> None:
    print(f"ERROR {code}: {detail}", file=sys.stderr)


def _cmd_classify(args) -> int:
    from .classifier import classify_spec
    from .dsl import parse_spec

    result = classify_spec(parse_spec(args.spec))
    print(result.serialize() if args.exact else result.render())
    return 0


def _cmd_balanced(args) -> int:
    from .balance import balanced_verdict
    from .dsl import parse_spec

    v = balanced_verdict(parse_spec(args.spec), mode=args.mode, horizon=args.n)
    print(f"{v.kind.name}: {v.reason}")
    if v.limsup_estimate is not None:
        print(f"ratio limsup estimate: {v.limsup_estimate}")
    if v.evidence is not None:
        e = v.evidence
        print(
            f"evidence: horizon={e.horizon} window_start={e.window_start} "
            f"max_ratio={e.max_ratio} last_ratio={e.last_ratio} "
            f"small={e.ratio_small}"
        )
    return 0


def _cmd_construct(args) -> int:
    from .aarset import AARSet
    from .dsl import parse_spec
    from .extreal import ExtendedReal
    from .harness import iter_trace, write_trace_csv
    from .rearrange import construct_target, oscillator

    spec = parse_spec(args.spec)
    if args.target is not None:
        r = construct_target(spec, ExtendedReal.parse(args.target))
    elif args.oscillate:
        r = oscillator(spec)
    else:
        from .realizer import realizer_from_spec
        r = realizer_from_spec(spec, AARSet.parse(args.realize))
    perm_path = args.out + ".perm.txt"
    csv_path = args.out + ".trace.csv"
    trace = iter_trace(r, args.n)  # a refused horizon raises here, before any file opens
    last = {}
    with open(perm_path, "w") as pf, open(csv_path, "w", newline="") as cf:

        def entries():
            for e in trace:
                pf.write(f"{e.n} {e.source_index}\n")
                last["e"] = e
                yield e

        write_trace_csv(entries(), cf)
    final = last["e"].average
    print(f"constructor: {r.name}")
    print(f"wrote {perm_path}")
    print(f"wrote {csv_path}")
    print(f"final average: {final.numerator}/{final.denominator}"
          f" ({float(final):.6g})")
    return 0


def _cmd_verify(args) -> int:
    from .harness import identities_hold, read_rows, tube_bounds

    if args.tube is not None:  # a malformed tube is refused before any output
        from .extreal import ExtendedReal
        target, eps = ExtendedReal.parse(args.tube[0]), Fraction(args.tube[1])
        (ln, ld), (hn, hd) = tube_bounds(target, eps)
    spec = None
    if args.spec is not None:
        from .dsl import parse_spec
        spec = parse_spec(args.spec)
    # One pass: each check updates as a row passes on to the identities, and
    # the lines print after it; a check not asked for, or failed, stops.
    top = repeat = spec_error = None
    tube_ok, values_ok = args.tube is not None, spec is not None
    seen, far = bytearray(4096), set()  # sources met: a byte each below len(seen), else in far

    def checked(rows):
        nonlocal top, repeat, spec_error, tube_ok, values_ok
        opened = False  # as in _check_windows, a tube window once open stays open
        for count, row in enumerate(rows, start=1):
            n, s, value, _num, _den, (p, q) = row
            top = n if top is None or n > top else top
            if tube_ok:
                opened = opened or n >= args.from_index
                tube_ok = n > 0 and (not opened or ln * q < p * ld and p * hd < hn * q)
            if values_ok and spec_error is None:
                try:
                    values_ok = s >= 1 and value == spec.term(s)
                except (MeanweaveError, ValueError, ZeroDivisionError) as exc:
                    # reported by main, but after the lines that come before it
                    spec_error = exc
            if repeat is None:
                if len(seen) <= s <= 4 * count:  # the map grows with the rows read
                    seen.extend(bytes(s + 1))  # at least doubles it
                if s in far or 0 < s < len(seen) and seen[s]:
                    repeat = s, n
                elif 0 < s < len(seen):
                    seen[s] = 1
                else:  # met past the map: looked up here even once the map covers it
                    far.add(s)
            yield row

    with open(args.trace, newline="") as fh:
        rows = checked(read_rows(fh))
        ok = identities_hold(rows)
        for _ in rows:  # the rows past a failed identity are read and checked all the same
            pass
    if top is None:
        print("trace has no rows: nothing to verify")
        return 1
    print(f"identities: {'PASS' if ok else 'FAIL'}")
    if args.tube is not None:
        tube_ok = tube_ok and top >= args.from_index  # a tube that tests no row proves nothing
        print(
            f"tube target={target.render()} eps={eps} "
            f"from={args.from_index}: {'PASS' if tube_ok else 'FAIL'}"
        )
        if top < args.from_index:
            print(f"no row lies at or after --from {args.from_index}: "
                  f"the largest n is {top}")
        ok = ok and tube_ok
    if spec is not None:
        if spec_error is not None:
            raise spec_error
        print(f"values of {args.spec}: {'PASS' if values_ok else 'FAIL'}")
        ok = ok and values_ok
    if repeat is not None:
        s, n = repeat
        with open(args.trace, newline="") as fh:  # only a failing trace reads its rows twice
            first = next(row[0] for row in read_rows(fh) if row[1] == s)
        print(f"source index {s} repeats: rows n={first} and n={n}")
        return 1
    return 0 if ok else 1


def _cmd_oracle(args) -> int:
    from .harness import envelope_oracle

    values = [Fraction(v.strip()) for v in args.values.split(",")]
    report = envelope_oracle(values, args.k)
    if report.achievable is not None:
        print(", ".join(str(q) for q in report.achievable))
    else:
        print(f"min {report.min_avg}, max {report.max_avg}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reads ``-1/2``, ``-0.5`` and ``-inf`` as values, not as unknown options.

    argparse only knows ``-3`` and ``-.5`` as negative numbers, so
    ``--target -1/2`` would fail with "expected one argument".  Subparsers
    are built with the parent's class and inherit this.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+(/\d+)?|\d*\.\d+|inf)$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="meanweave",
        description=(
            "Classify attainable running-average limits of rational "
            "sequences under rearrangement, build rearrangements hitting "
            "prescribed targets, and verify them exactly."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="print the attainable-average set")
    p.add_argument("spec", help="sequence descriptor, e.g. 'interleave(const(0), geom(2))'")
    p.add_argument("--exact", action="store_true",
                   help="structured [lo, hi] list with exact p/q endpoints")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("balanced", help="balance verdict for a divergent spec")
    p.add_argument("spec")
    p.add_argument("--mode", choices=["analytic", "numeric"], default="analytic")
    p.add_argument("--n", type=int, default=DEFAULT_HORIZON,
                   help="numeric-evidence horizon (read in closed form, at any size, "
                        "for a polynomial strand that passes its certificate)")
    p.set_defaults(func=_cmd_balanced)

    p = sub.add_parser("construct", help="build and trace a rearrangement")
    p.add_argument("spec")
    goal = p.add_mutually_exclusive_group(required=True)
    goal.add_argument("--target", help="average target (rational; +inf and -inf are refused)")
    goal.add_argument("--oscillate", action="store_true",
                      help="make the average oscillate forever")
    goal.add_argument("--realize",
                      help="prescribed accumulation set, e.g. '{1/4, 3/4}'")
    p.add_argument("--n", type=int, default=DEFAULT_HORIZON,
                   help="trace horizon")
    p.add_argument("--out", default="meanweave_out",
                   help="artifact base path (writes BASE.perm.txt, BASE.trace.csv)")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="check a trace CSV")
    p.add_argument("trace", help="trace CSV path")
    p.add_argument("--tube", nargs=2, metavar=("TARGET", "EPS"),
                   help="require averages inside (target-eps, target+eps)")
    p.add_argument("--from", dest="from_index", type=int, default=1,
                   help="first position the tube constrains "
                        "(the tube fails when no row lies at or after it)")
    p.add_argument("--spec",
                   help="require each row's value to be the spec's term at its source index")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="brute-force achievable k-subset averages")
    p.add_argument("values", help="comma-separated rationals, e.g. '0,0,1,1'")
    p.add_argument("k", type=int)
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MeanweaveError as exc:
        _error_line(exc.code, str(exc))
        return 2
    except (ValueError, ZeroDivisionError) as exc:
        _error_line("UsageError", str(exc))
        return 2
    except OSError as exc:
        _error_line("IOError", str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
