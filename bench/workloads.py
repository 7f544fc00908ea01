"""Seeded inputs and measured operations of the four benchmark workloads.

Every workload runs in rounds.  A round's inputs come from
``random.Random(f"{workload}:{seed}:{round}")`` and reach the package only
as descriptor text, targets and Z sets.  Each operation is checked by
``oracle`` (which shares no code with the package) outside its timed part.

Why these workloads (each stresses layers the others barely touch):

* ``weave``    -- ``rearrange`` constructors, ``seqspec`` terms and witness
  maps and ``harness.iter_trace``; one op per constructor route, including
  the two gate-fed routes whose permutation audits do not finish today.
* ``realize``  -- ``realizer`` steering, the deepest witness closures and
  ``check_schedule``; the path behind the slowest acceptance test.
* ``cli``      -- process start-up, ``write_trace_csv`` / ``read_trace_csv``
  and ``verify_trace_identities``, one ``meanweave`` process at a time.
* ``classify`` -- ``dsl``, ``seqspec.profile``, ``balance``, ``classifier``
  and ``aarset`` on random descriptors, plus numeric balance evidence.
"""

from __future__ import annotations

import io
import json
import os
import random
import resource
import signal
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import islice
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import oracle
from calibrate import Speed
from tracer import Tracer
from meanweave import (
    aarset,
    balance,
    classifier,
    cli,
    dsl,
    harness,
    realizer,
    rearrange,
    seqspec,
)
from meanweave.errors import MeanweaveError

F = Fraction

# -- sizes -------------------------------------------------------------------

WEAVE_HORIZON = 20_000          # trace entries per weave op
WEAVE_PROBES = (10, 100, 1000)  # coverage probes of each weave audit
WEAVE_DEADLINE_S = 2.0          # per-audit deadline; finishing audits take < 0.6 s
REALIZE_STAGE = 8               # realize ops stream until this stage opens
REALIZE_PROBES = (10, 100)      # probe 1000 alone streams 2-7 M emissions
REALIZE_DEADLINE_S = 5.0
CLI_ROWS = 10_000               # trace rows per `meanweave construct`
CLI_TIMEOUT_S = 60.0
CLASSIFY_BATCH = 400            # random descriptors per classify round
EVIDENCE_HORIZON = 10_000       # terms per balanced_verdict(mode="numeric")
EVIDENCE_PER_ROUND = 2

REALIZE_SPEC = (
    "interleave(interleave(const(0), neg(square(linear()))),"
    " interleave(const(1), square(linear())))"
)

# The classification catalog of tests/conftest.py, copied verbatim.
CLASSIFY_CATALOG = [
    ("interleave(const(0), const(1))", "[0, 1]"),
    ("interleave(const(0), pow(2))", "[0, +inf]"),
    ("interleave(const(0), geom(2))", "{0} ∪ {+inf}"),
    (
        "interleave(neg(geom(2)), interleave(const(0), geom(2)))",
        "{-inf} ∪ {0} ∪ {+inf}",
    ),
    ("interleave(neg(linear()), linear())", "{-inf} ∪ {+inf}"),
    ("const(7)", "{7}"),
]

ROUTE_TAGS = ("core", "lead", "other", "extra", "low", "high", "rest",
              "fill", "place", "steer", "splice", "jump")

# Public functions wrapped by the traced run, as (owner, attribute, span).
# Cross-module references are wrapped where they are looked up, so a call
# from one module into another is seen; nothing inside the package changes.
TRACE_TARGETS = [
    (dsl, "parse_spec", "dsl.parse"),
    (cli, "parse_spec", "dsl.parse"),
    (seqspec, "profile", "seqspec.profile"),
    (seqspec, "decompose", "seqspec.decompose"),
    (rearrange, "profile", "seqspec.profile"),
    (rearrange, "decompose", "seqspec.decompose"),
    (classifier, "profile", "seqspec.profile"),
    (classifier, "decompose", "seqspec.decompose"),
    (balance, "profile", "seqspec.profile"),
    (realizer, "profile", "seqspec.profile"),
    (balance, "balanced_verdict", "balance.verdict"),
    (classifier, "balanced_verdict", "balance.verdict"),
    (rearrange, "balanced_verdict", "balance.verdict"),
    (cli, "balanced_verdict", "balance.verdict"),
    (balance, "density_report", "balance.density"),
    (classifier, "density_condition", "balance.density"),
    (rearrange, "density_report", "balance.density"),
    (classifier, "classify_spec", "classifier.classify"),
    (cli, "classify_spec", "classifier.classify"),
    (aarset.AARSet, "render", "aarset.render"),
    (rearrange, "construct_target", "rearrange.construct"),
    (rearrange, "oscillator", "rearrange.construct"),
    (cli, "construct_target", "rearrange.construct"),
    (cli, "oscillator", "rearrange.construct"),
    (realizer, "realizer_from_spec", "realizer.build"),
    (cli, "realizer_from_spec", "realizer.build"),
    (harness, "iter_trace", "harness.iter_trace"),
    (cli, "iter_trace", "harness.iter_trace"),
    (harness, "check_schedule", "harness.check_schedule"),
    (harness, "check_tube", "harness.check_tube"),
    (cli, "check_tube", "harness.check_tube"),
    (harness, "verify_trace_identities", "harness.identities"),
    (cli, "verify_trace_identities", "harness.identities"),
    (harness, "write_trace_csv", "harness.csv_write"),
    (cli, "write_trace_csv", "harness.csv_write"),
    (harness, "read_trace_csv", "harness.csv_read"),
    (cli, "read_trace_csv", "harness.csv_read"),
    (cli, "main", "cli.main"),
]

MODULES = ("dsl", "seqspec", "balance", "classifier", "aarset", "rearrange",
           "realizer", "harness", "cli")


def layer_names() -> List[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = [
        "dsl.parse_s", "dsl.parse_calls",
        "seqspec.profile_s", "seqspec.profile_calls",
        "seqspec.decompose_s", "seqspec.decompose_calls",
        "seqspec.terms_per_s", "seqspec.part_emissions_per_s",
        "balance.verdict_s", "balance.verdict_calls",
        "balance.density_s", "balance.density_calls",
        "balance.evidence_terms_per_s",
        "classifier.classify_s", "classifier.classify_calls",
        "aarset.render_s", "aarset.render_calls",
        "rearrange.construct_s", "rearrange.construct_calls",
        "rearrange.emissions_per_s",
    ]
    names += [f"rearrange.tag.{t}" for t in ROUTE_TAGS]
    names += ["rearrange.extra_ratio", "rearrange.coverage_lag_max",
              "realizer.build_s", "realizer.emissions_per_s"]
    names += [f"realizer.stage_open_n.{k}" for k in range(1, REALIZE_STAGE + 1)]
    names += [
        "realizer.schedule_windows",
        "harness.trace_self_s", "harness.sum_bits_max",
        "harness.audit_emissions", "harness.audit_useful_ratio",
        "harness.schedule_rows_per_s", "harness.tube_rows_per_s",
        "harness.identities_rows_per_s", "harness.csv_write_rows_per_s",
        "harness.csv_read_rows_per_s", "harness.csv_bytes_per_row",
        "cli.process_start_s", "cli.self_s",
    ]
    names += [f"{m}.self_s_per_op" for m in MODULES]
    names.append("trace.overhead_ratio")
    return names


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM inside an audit that ran past its deadline."""


def _on_alarm(_signum, _frame):
    raise DeadlineExceeded()


def with_deadline(seconds: float, call: Callable):
    """(result, elapsed) of call(), or (None, seconds) past the deadline.

    The deadline is an interval timer on this process, so a stream that
    never ends is interrupted between two bytecodes and charged in full.
    """
    signal.signal(signal.SIGALRM, _on_alarm)
    t0 = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, seconds)
        result = call()
        signal.setitimer(signal.ITIMER_REAL, 0)
        return result, perf_counter() - t0
    except DeadlineExceeded:
        return None, seconds
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def audit(r, probes, deadline: float, count: bool) -> dict:
    """``check_permutation(r, 1000, probes)`` in a forked child, under a deadline.

    The child holds the audit's memory (an audit that never finishes keeps
    growing its sets until the deadline), so the worker's peak memory stays
    that of construction and trace.  Returns a dict with ``s`` (elapsed or
    charged seconds) and one of ``coverage`` (decided), ``late`` or
    ``refused``; with ``count`` also ``emissions``, the number the audit's
    own pass streamed.
    """
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: audit, report, and never return into the caller
        try:
            os.close(rfd)
            msg = {"s": deadline}
            try:
                counter = [0]
                audited = _counting(r, counter) if count else r
                report, msg["s"] = with_deadline(
                    deadline, lambda: harness.check_permutation(audited, 1000, probes=probes))
                if report is None:
                    msg["late"] = True
                elif not report.ok:
                    msg["refused"] = "report not ok"
                else:
                    msg["coverage"] = [list(c) for c in report.coverage]
                msg["emissions"] = counter[0]
            except MeanweaveError as exc:
                msg["refused"] = f"{exc.code}: {exc}"
            except Exception as exc:  # reported to the parent as a failure
                msg["refused"] = f"unexpected {type(exc).__name__}: {exc}"
            os.write(wfd, json.dumps(msg).encode())
        finally:
            os._exit(0)
    os.close(wfd)
    chunks = []
    while True:
        chunk = os.read(rfd, 65536)
        if not chunk:
            break
        chunks.append(chunk)
    os.close(rfd)
    os.waitpid(pid, 0)
    return json.loads(b"".join(chunks) or b'{"refused": "audit process died"}')


class Record:
    """Raw measurements of one run; run.py turns them into metrics."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.refused = 0
        self.problems: List[str] = []
        self.op_s: List[float] = []        # latency of each op
        self.items = 0                     # exact work items (see run.py)
        self.item_s = 0.0                  # wall time spent on them
        # verification time per round: (measured, charged for missed deadlines)
        self.check_rounds: List[Tuple[float, float]] = []
        self.checks = 0
        self.decided = 0
        self.samples: Dict[str, List[float]] = {}  # workload-specific series
        self.digests: List[str] = []
        self.layer: Dict[str, List[float]] = {}    # traced-only series
        self.untraced_s = 0.0
        self.traced_s = 0.0
        self.speed = Speed()  # kernel timings interleaved with the ops

    def fail(self, label: str, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 8:
            self.problems.append(f"{label}: {why}")

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def layer_add(self, name: str, value: float) -> None:
        self.layer.setdefault(name, []).append(value)


def _q(x: Fraction) -> str:
    """A rational in descriptor syntax."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _const(x: Fraction) -> str:
    return f"const({_q(x)})"


class Run:
    """State shared by the rounds of one run."""

    def __init__(self, workload: str, seed: int, traced: bool, out_dir: str):
        self.workload = workload
        self.seed = seed
        self.traced = traced
        self.out_dir = out_dir
        self.rec = Record()
        self.tr = Tracer()
        self.round = 0
        self.untraced = None

    def rng(self) -> random.Random:
        return random.Random(f"{self.workload}:{self.seed}:{self.round}")

    def measured(self, core: Callable):
        """Run an op's timed core; traced runs also run it untraced first.

        The untraced pass's result stays in ``untraced`` (layer probes take
        their timings from it), and the tracer stays installed after the
        traced pass (until ``done``) so the op's checks are traced too.
        """
        self.rec.speed.sample()
        if not self.traced:
            out = core()
            self.rec.speed.sample()
            return out
        t0 = perf_counter()
        self.untraced = core()
        self.rec.untraced_s += perf_counter() - t0
        self.tr.op += 1
        self.tr.install(TRACE_TARGETS)
        t0 = perf_counter()
        out = core()
        self.rec.traced_s += perf_counter() - t0
        return out

    def done(self) -> None:
        self.tr.uninstall()


# ---------------------------------------------------------------------------
# weave


def weave_inputs(rng: random.Random):
    """(route, descriptor, target) for the six constructor routes."""
    a = F(rng.randint(-6, 6), rng.randint(1, 3))
    b = a + F(rng.randint(1, 6), rng.randint(1, 2))
    m = a + (b - a) * F(rng.randint(1, 4), 5)
    c = F(rng.randint(-2, 2))

    def inside():
        d = rng.randint(2, 7)
        return a + (b - a) * F(rng.randint(1, d - 1), d)

    return [
        ("bounded", f"interleave({_const(a)}, {_const(b)})", inside()),
        ("bounded_middle",
         f"interleave({_const(a)}, interleave({_const(b)}, {_const(m)}))", inside()),
        # a climb defers the values below max(1, 2*(target - c)) to the
        # insertion gate; keeping that to three values keeps the linear
        # climb's audit at 0.4-0.65 s, well inside the deadline
        ("climb_linear", f"interleave({_const(c)}, linear())", c + F(rng.randint(6, 7), 4)),
        ("climb_pow2", f"interleave({_const(c)}, pow(2))", c + F(rng.randint(4, 8), 4)),
        ("two_sided", "interleave(neg(runlen(4)), runlen(4))",
         F(rng.randint(-12, 12), rng.randint(1, 4))),
        ("oscillator", f"interleave({_const(a)}, {_const(b)})", None),
    ]


def build_route(spec, target):
    if target is None:
        return rearrange.oscillator(spec)
    return rearrange.construct_target(spec, target)


def weave_setup(run: Run) -> None:
    for _route, text, target in weave_inputs(run.rng()):
        build_route(dsl.parse_spec(text), target)


def weave_round(run: Run, ops=None) -> None:
    """One op per route: build, trace WEAVE_HORIZON entries, audit.

    ``ops`` replaces the seeded (route, descriptor, build) list; the
    self-test passes its broken constructions this way.
    """
    rec = run.rec
    measured = charged = 0.0
    if ops is None:
        ops = [(label, text, lambda spec, t=target: build_route(spec, t))
               for label, text, target in weave_inputs(run.rng())]
    for label, text, build in ops:
        rec.attempted += 1

        def core():
            t0 = perf_counter()
            r = build(dsl.parse_spec(text))
            t1 = perf_counter()
            e = None
            for e in harness.iter_trace(r, WEAVE_HORIZON):
                pass
            t2 = perf_counter()
            return r, e, t1 - t0, t2 - t1

        try:
            r, last, build_s, trace_s = run.measured(core)
        except MeanweaveError as exc:
            rec.fail(label, f"construction raised {exc.code}: {exc}")
            run.done()
            continue
        except Exception as exc:  # a benchmark boundary: report and go on
            rec.fail(label, f"unexpected {type(exc).__name__}: {exc}")
            run.done()
            continue
        rec.op_s.append(build_s + trace_s)
        rec.items += 0 if last is None else last.n
        rec.item_s += build_s + trace_s

        # the oracle reads a fresh replay, so the timed pass stores nothing
        checker = oracle.check_stream(r.stream(), oracle.parse_term(text), WEAVE_HORIZON)
        rec.digests.append(f"{label} {checker.digest()}")
        problem = checker.problem
        if problem is None and (last is None or last.n != WEAVE_HORIZON
                                or checker.n != WEAVE_HORIZON):
            problem = f"trace stopped after {0 if last is None else last.n} entries"
        if problem is None and last.partial_sum != checker.total:
            problem = f"final partial sum {last.partial_sum} != independent sum {checker.total}"
        if problem is None and last.average * last.n != last.partial_sum:
            problem = "final average is not partial_sum / n"
        if problem:
            rec.fail(label, problem)
            run.done()
            continue

        rec.checks += 1
        result = audit(r, WEAVE_PROBES, WEAVE_DEADLINE_S, run.traced)
        audit_s = result.get("s", WEAVE_DEADLINE_S)
        if "coverage" in result:
            rec.decided += 1
            measured += audit_s
        else:
            charged += WEAVE_DEADLINE_S
            if "late" in result:
                rec.add("undecided", 1)
            else:
                rec.fail(label, f"audit refused a sound stream: {result['refused']}")
        if run.traced:
            _weave_layers(run, r, text, run.untraced[3], last, result, checker.lag_max)
        run.done()
    rec.check_rounds.append((measured, charged))


def _counting(r, counter):
    """The same rearrangement, counting the emissions an audit streams."""

    def factory():
        for item in r.tagged_stream():
            counter[0] += 1
            yield item

    return rearrange.Rearrangement(
        source=r.source, factory=factory, coverage_bound=r.coverage_bound,
        name=r.name, limit_in_average=r.limit_in_average, meta=r.meta,
    )


def _stream_probe(run: Run, r, count: int, span: str) -> float:
    tr = run.tr
    with tr.span(span):
        t0 = perf_counter()
        for _ in islice(r.stream(), count):
            pass
        return perf_counter() - t0


def _spec_probes(run: Run, spec, count: int) -> None:
    rec = run.rec
    with run.tr.span("seqspec.iter_terms"):
        t0 = perf_counter()
        for _ in islice(spec.iter_terms(), count):
            pass
        rec.layer_add("terms", count)
        rec.layer_add("terms_s", perf_counter() - t0)
    dec = seqspec.decompose(spec)
    parts = dec.parts_present
    with run.tr.span("seqspec.part_emissions"):
        t0 = perf_counter()
        for part in parts:
            for _ in islice(dec.emissions(part), count // len(parts)):
                pass
        rec.layer_add("part_emissions", count // len(parts) * len(parts))
        rec.layer_add("part_emissions_s", perf_counter() - t0)


def _weave_layers(run, r, text, trace_s, last, result, coverage_lag):
    rec = run.rec
    n = last.n
    bare_s = _stream_probe(run, r, n, "rearrange.stream")
    rec.layer_add("emissions", n)
    rec.layer_add("emissions_s", bare_s)
    rec.layer_add("trace_self_s", trace_s - bare_s)
    tags = Counter(tag for _s, _v, tag in islice(r.tagged_stream(), n))
    for tag in ROUTE_TAGS:
        rec.layer_add(f"tag.{tag}", tags.get(tag, 0))
    rec.layer_add("tag_extra", tags.get("extra", 0))
    rec.layer_add("tag_total", n)
    rec.layer_add("coverage_lag", coverage_lag)
    avg = last.average
    rec.layer_add("sum_bits", avg.numerator.bit_length() + avg.denominator.bit_length())
    _audit_layers(rec, result)
    _spec_probes(run, dsl.parse_spec(text), n)


def _audit_layers(rec: Record, result: dict) -> None:
    if "coverage" in result:
        emissions = result["emissions"]
        rec.layer_add("audit_emissions", emissions)
        useful = max(sat for _p, _b, sat in result["coverage"])
        rec.layer_add("audit_useful", useful / max(emissions, 1))


# ---------------------------------------------------------------------------
# realize


def realize_zset(rng: random.Random, shape: int):
    """A low and a high piece near 0 and 1: points, or short intervals.

    Bit 0 of ``shape`` makes the low piece an interval, bit 1 the high one.
    Runs cycle through the four shapes round by round, because the shape
    moves the time to a stage far more than the seeded endpoints do.
    """
    pieces = []
    for low in (True, False):
        d = rng.randint(6, 12)
        p = F(1, d) if low else 1 - F(1, d)
        if not shape & (1 if low else 2):
            pieces.append(p)
        else:
            w = F(1, rng.randint(20, 40))
            pieces.append((p, p + w) if low else (p - w, p))
    return pieces


def realize_setup(run: Run) -> None:
    realizer.realizer_from_spec(dsl.parse_spec(REALIZE_SPEC), realize_zset(run.rng(), 0))


def realize_round(run: Run) -> None:
    """Stream to stage REALIZE_STAGE, replay the schedule check, audit."""
    rec = run.rec
    zset = realize_zset(run.rng(), run.round % 4)
    label = "realize " + " ".join(
        f"[{_q(z[0])},{_q(z[1])}]" if isinstance(z, tuple) else _q(z) for z in zset
    )
    rec.attempted += 1

    def core():
        t0 = perf_counter()
        r = realizer.realizer_from_spec(dsl.parse_spec(REALIZE_SPEC), zset)
        t1 = perf_counter()
        entries = r.meta["schedule"].entries
        opens = {}
        seen = 0
        for e in harness.iter_trace(r):
            if len(entries) != seen:
                seen = len(entries)
                stage = entries[-1].stage
                opens.setdefault(stage, e[0])
                if stage >= REALIZE_STAGE:
                    break
        return r, e.n, opens, t1 - t0, perf_counter() - t0

    try:
        r, count, opens, build_s, stage_s = run.measured(core)
    except Exception as exc:  # a benchmark boundary: report and go on
        rec.fail(label, f"{type(exc).__name__}: {exc}")
        run.done()
        rec.check_rounds.append((0.0, REALIZE_DEADLINE_S))
        return
    rec.op_s.append(stage_s)
    rec.items += count
    rec.item_s += stage_s
    rec.add("time_to_stage_s", stage_s)

    entries = r.meta["schedule"].entries
    horizon = entries[-1].from_index - 1
    windows = [w for w in entries if w.stage < REALIZE_STAGE]
    checker = oracle.check_stream(
        r.stream(), oracle.parse_term(REALIZE_SPEC), count,
        [(w.from_index, w.lo, w.hi) for w in windows], horizon)
    rec.digests.append(f"{label} {checker.digest()}")
    problem = checker.problem
    if problem is None and checker.n != count:
        problem = f"replay stopped after {checker.n} of {count} emissions"
    t0 = perf_counter()
    schedule_ok = harness.check_schedule(harness.iter_trace(r, horizon), windows)
    schedule_s = perf_counter() - t0
    rec.add("schedule_rows_per_s", horizon / schedule_s)
    if problem is None and not schedule_ok:
        problem = "check_schedule rejected windows the oracle accepts"
    if problem:
        rec.fail(label, problem)

    rec.checks += 1
    result = audit(r, REALIZE_PROBES, REALIZE_DEADLINE_S, run.traced)
    audit_s = result.get("s", REALIZE_DEADLINE_S)
    rec.add("audit_s", audit_s)
    if "coverage" in result:
        rec.decided += 1
        rec.check_rounds.append((schedule_s + audit_s, 0.0))
    else:
        rec.check_rounds.append((schedule_s, REALIZE_DEADLINE_S))
        if "late" in result:
            rec.add("undecided", 1)
        else:
            rec.fail(label, f"audit refused a sound stream: {result['refused']}")

    if run.traced:
        bare_s = _stream_probe(run, r, count, "realizer.stream")
        rec.layer_add("realizer_emissions", count)
        rec.layer_add("realizer_emissions_s", bare_s)
        _r, _count, _opens, u_build_s, u_stage_s = run.untraced
        rec.layer_add("trace_self_s", u_stage_s - u_build_s - bare_s)
        tags = Counter(tag for _s, _v, tag in islice(r.tagged_stream(), count))
        for tag in ROUTE_TAGS:
            rec.layer_add(f"tag.{tag}", tags.get(tag, 0))
        for k in range(1, REALIZE_STAGE + 1):
            rec.layer_add(f"stage_open_n.{k}", opens.get(k, 0))
        rec.layer_add("schedule_windows", len(windows))
        rec.layer_add("schedule_rows", horizon)
        avg = checker.total / count
        rec.layer_add("sum_bits", avg.numerator.bit_length() + avg.denominator.bit_length())
        _audit_layers(rec, result)
        _spec_probes(run, dsl.parse_spec(REALIZE_SPEC), count)
    run.done()


# ---------------------------------------------------------------------------
# cli


def meanweave_cmd(*args: str) -> List[str]:
    return [sys.executable, "-m", "meanweave", *args]


def cli_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(args: List[str]):
    """(exit code, stdout, stderr, wall seconds) of one meanweave process."""
    t0 = perf_counter()
    proc = subprocess.run(args, capture_output=True, text=True, env=cli_env(),
                          timeout=CLI_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr, perf_counter() - t0


def cli_inputs(rng: random.Random):
    """A target construction, a realize construction and two catalog specs.

    Levels stay non-negative because `meanweave verify --tube -1/2 1/10` is
    refused by the argument parser ("-1/2" reads as an option); with
    negative levels about half the seeds would fail on that alone.
    """
    a = F(rng.randint(0, 6), rng.randint(1, 2))
    b = a + F(rng.randint(1, 4), 1)
    d = rng.randint(2, 5)
    target = a + (b - a) * F(rng.randint(1, d - 1), d)
    zset = realize_zset(rng, rng.randrange(4))
    ztext = " | ".join(
        f"[{_q(z[0])}, {_q(z[1])}]" if isinstance(z, tuple) else "{" + _q(z) + "}"
        for z in zset
    )
    picks = rng.sample(range(len(CLASSIFY_CATALOG)), 2)
    return (f"interleave({_const(a)}, {_const(b)})", target), ztext, picks


def cli_setup(run: Run) -> None:
    cli.build_parser()


def cli_round(run: Run) -> None:
    rec = run.rec
    (text, target), ztext, picks = cli_inputs(run.rng())
    base = os.path.join(run.out_dir, f"cli-{os.getpid()}")
    check = 0.0
    jobs = [
        ("construct-target", text, [f"--target={_q(target)}"], (_q(target), "1/10")),
        ("construct-realize", REALIZE_SPEC, [f"--realize={ztext}"], ("1/2", "1/2")),
    ]
    for label, spec_text, goal, (tube_t, tube_eps) in jobs:
        rec.attempted += 2
        rec.speed.sample()
        code, out, err, wall = run_process(meanweave_cmd(
            "construct", spec_text, *goal, "--n", str(CLI_ROWS), "--out", base))
        rec.speed.sample()
        rec.op_s.append(wall)
        rec.add("construct_rows_per_s", CLI_ROWS / wall)
        csv_path = base + ".trace.csv"
        start = CLI_ROWS // 2
        if code != 0:
            problem = f"construct exit {code}: {err.strip()[:200]}"
        else:
            checker, want = oracle.check_trace_files(
                oracle.parse_term(spec_text), csv_path, base + ".perm.txt",
                (F(tube_t), F(tube_eps), start))
            problem = checker.problem
            if problem is None and checker.n != CLI_ROWS:
                problem = f"{checker.n} rows written, {CLI_ROWS} asked"
            if problem is None:
                avg = checker.total / checker.n
                if f"final average: {avg.numerator}/{avg.denominator} " not in out:
                    problem = "final average line disagrees with the oracle"
        if problem:
            rec.fail(label, problem)
            rec.failed += 1  # the verify op below cannot run either
            continue
        rec.digests.append(f"{label} {checker.digest()}")

        rec.speed.sample()
        code, out, err, vwall = run_process(meanweave_cmd(
            "verify", csv_path, "--tube", tube_t, tube_eps, "--from", str(start)))
        rec.speed.sample()
        rec.op_s.append(vwall)
        rec.add("verify_rows_per_s", CLI_ROWS / vwall)
        rec.items += 2 * CLI_ROWS
        rec.item_s += wall + vwall
        rec.checks += 1
        check += vwall
        lines = out.splitlines()
        verdict = "PASS" if want else "FAIL"
        if (code != (0 if want else 1) or len(lines) != 2
                or lines[0] != "identities: PASS"
                or not lines[1].startswith("tube target=")
                or not lines[1].endswith(f": {verdict}")):
            rec.fail(label, f"verify exit {code} / {out!r}, oracle says tube {verdict}")
        else:
            rec.decided += 1
        if run.traced:
            _cli_layers(run, spec_text, goal, tube_t, tube_eps, start, base + "-inproc")

    if run.traced:
        code, _out, _err, wall = run_process(meanweave_cmd("--help"))
        rec.layer_add("process_start_s", wall)
    for i in picks:
        rec.attempted += 1
        spec_text, expected = CLASSIFY_CATALOG[i]
        rec.speed.sample()
        code, out, err, wall = run_process(meanweave_cmd("classify", spec_text))
        rec.speed.sample()
        rec.op_s.append(wall)
        if code != 0 or out != expected + "\n":
            rec.fail("classify", f"{spec_text}: exit {code}, {out!r} != {expected!r}")
    for suffix in (".trace.csv", ".perm.txt"):
        if os.path.exists(base + suffix):
            os.remove(base + suffix)
    rec.check_rounds.append((check, 0.0))


def _quiet_main(argv: List[str]) -> int:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _cli_layers(run, spec_text, goal, tube_t, tube_eps, start, base):
    """In-process cli.main on the same arguments, untraced then traced."""
    rec = run.rec
    construct = ["construct", spec_text, *goal, "--n", str(CLI_ROWS), "--out", base]
    verify = ["verify", base + ".trace.csv", "--tube", tube_t, tube_eps,
              "--from", str(start)]
    t0 = perf_counter()
    _quiet_main(construct)
    _quiet_main(verify)
    rec.untraced_s += perf_counter() - t0
    before = {name: list(tot) for name, tot in run.tr.totals.items()}
    run.tr.op += 1
    run.tr.install(TRACE_TARGETS)
    t0 = perf_counter()
    _quiet_main(construct)
    _quiet_main(verify)
    rec.traced_s += perf_counter() - t0
    run.done()

    def delta(name, field):
        return run.tr.totals.get(name, [0, 0.0, 0.0])[field] - before.get(name, [0, 0.0, 0.0])[field]

    rec.layer_add("cli_self_s", delta("cli.main", 2))
    rec.layer_add("cli_ops", 2)
    rec.layer_add("csv_write_s", delta("harness.csv_write", 2))
    rec.layer_add("csv_read_s", delta("harness.csv_read", 1))
    rec.layer_add("tube_s", delta("harness.check_tube", 1))
    rec.layer_add("identities_s", delta("harness.identities", 1))
    rec.layer_add("csv_rows", CLI_ROWS)
    rec.layer_add("csv_bytes", os.path.getsize(base + ".trace.csv"))
    for suffix in (".trace.csv", ".perm.txt"):
        os.remove(base + suffix)


# ---------------------------------------------------------------------------
# classify


def random_descriptor(rng: random.Random, depth: int) -> str:
    """Descriptor text from the DSL grammar, in its canonical spelling."""
    if depth == 0 or rng.random() < 0.3:
        kind = rng.randrange(5)
        if kind == 0:
            return _const(F(rng.randint(-9, 9), rng.randint(1, 4)))
        if kind == 1:
            return "linear()"
        if kind == 2:
            return f"pow({rng.randint(1, 3)})"
        if kind == 3:
            return f"geom({rng.choice(['2', '3', '3/2'])})"
        return f"runlen({rng.randint(1, 4)})"
    kind = rng.randrange(5)
    inner = random_descriptor(rng, depth - 1)
    if kind == 0:
        return f"interleave({inner}, {random_descriptor(rng, depth - 1)})"
    if kind == 1:
        return f"neg({inner})"
    if kind == 2:
        scale = F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
        return f"affine({inner}, {_q(scale)}, {_q(F(rng.randint(-5, 5), rng.randint(1, 2)))})"
    if kind == 3:
        return f"square({inner})"
    values = ", ".join(_q(F(rng.randint(-9, 9), rng.randint(1, 3)))
                       for _ in range(rng.randint(1, 3)))
    return f"prefix({values}, {inner})"


def evidence_strand(rng: random.Random) -> str:
    """A positive strand diverging polynomially (bounded term sizes)."""
    kind = rng.randrange(4)
    if kind == 0:
        return f"pow({rng.randint(1, 3)})"
    if kind == 1:
        return f"runlen({rng.choice([2, 4])})"
    if kind == 2:
        return f"affine(pow({rng.randint(1, 2)}), {rng.randint(1, 5)}, {rng.randint(0, 9)})"
    return f"square(runlen({rng.choice([2, 4])}))"


def classify_inputs(rng: random.Random):
    batch = [(random_descriptor(rng, 3), None) for _ in range(CLASSIFY_BATCH)]
    batch += CLASSIFY_CATALOG
    rng.shuffle(batch)
    strands = [evidence_strand(rng) for _ in range(EVIDENCE_PER_ROUND)]
    return batch, strands


def classify_setup(run: Run) -> None:
    batch, _strands = classify_inputs(run.rng())
    for text, _expected in batch[:20]:
        try:
            classifier.classify_spec(dsl.parse_spec(text))
        except MeanweaveError:
            pass


def classify_round(run: Run) -> None:
    rec = run.rec
    batch, strands = classify_inputs(run.rng())

    def core():
        results = []
        add = results.append
        for text, _expected in batch:
            t0 = perf_counter()
            try:
                spec = dsl.parse_spec(text)
                aar = classifier.classify_spec(spec)
                shown = aar.render()
            except MeanweaveError as exc:
                add((perf_counter() - t0, None, exc, None))
                continue
            except Exception as exc:  # checked below as a failure
                add((perf_counter() - t0, None, exc, None))
                continue
            add((perf_counter() - t0, spec, aar, shown))
        return results

    results = run.measured(core)
    rec.digests.append("classify " + oracle.text_digest(
        str(shown) if spec is not None else type(aar).__name__
        for _lat, spec, aar, shown in results))
    for (text, expected), (lat, spec, aar, shown) in zip(batch, results):
        rec.attempted += 1
        rec.op_s.append(lat)
        if spec is None:
            if isinstance(aar, MeanweaveError) and expected is None:
                rec.refused += 1
            else:
                rec.fail(text, f"{type(aar).__name__}: {aar}")
            continue
        if dsl.render(spec) != text:
            rec.fail(text, f"render gives {dsl.render(spec)!r}")
        elif aarset.AARSet.parse(shown) != aar:
            rec.fail(text, f"AARSet.parse(render(x)) != x for {shown!r}")
        elif expected is not None and shown != expected:
            rec.fail(text, f"classified {shown!r}, catalog says {expected!r}")

    check = 0.0
    for text in strands:
        rec.attempted += 1
        rec.checks += 1
        rec.speed.sample()
        t0 = perf_counter()
        try:
            verdict = balance.balanced_verdict(
                dsl.parse_spec(text), mode="numeric", horizon=EVIDENCE_HORIZON)
        except MeanweaveError as exc:
            rec.fail(text, f"evidence refused: {exc.code}: {exc}")
            continue
        dt = perf_counter() - t0
        check += dt
        rec.items += EVIDENCE_HORIZON
        rec.item_s += dt
        rec.add("evidence_s", dt)
        rec.layer_add("evidence_terms", EVIDENCE_HORIZON)
        rec.layer_add("evidence_s", dt)
        problem = _check_evidence(text, verdict.evidence)
        if problem:
            rec.fail(text, problem)
        else:
            rec.decided += 1
    rec.check_rounds.append((check, 0.0))
    run.done()


def _check_evidence(text: str, ev) -> Optional[str]:
    """Tail-window ratio statistics recomputed independently."""
    term = oracle.parse_term(text)
    start = max(2, EVIDENCE_HORIZON - EVIDENCE_HORIZON // 10)
    running = F(0)
    best = last = None
    for i in range(1, EVIDENCE_HORIZON + 1):
        t = term(i)
        if i >= start:
            last = t / running
            if best is None or last > best:
                best = last
        running += t
    if ev is None or (ev.horizon, ev.window_start, ev.max_ratio, ev.last_ratio) != (
        EVIDENCE_HORIZON, start, best, last
    ):
        return "numeric evidence disagrees with the independent ratio table"
    if ev.ratio_small != (best < F(1, 1000)):
        return "ratio_small flag disagrees with the threshold"
    return None


# ---------------------------------------------------------------------------
# the self-test's deliberately broken constructions


def broken_builds():
    """A sound route and two constructions broken from outside the package.

    Both wrap a sound bounded construction through the public
    ``Rearrangement(...)`` constructor: one emits an already emitted source
    index at rank 50, the other adds 1 to the value at rank 50.
    """
    text = "interleave(const(0), const(1))"
    target = F(1, 3)

    def broken(kind):
        def build(spec):
            good = rearrange.construct_target(spec, target)

            def factory():
                first = None
                for rank, (src, value, tag) in enumerate(good.tagged_stream(), start=1):
                    if rank == 1:
                        first = src
                    if rank == 50:
                        if kind == "repeat":
                            src = first
                        else:
                            value = value + 1
                    yield src, value, tag

            return rearrange.Rearrangement(
                source=spec, factory=factory, coverage_bound=good.coverage_bound,
                name=f"broken[{kind}]", limit_in_average=good.limit_in_average,
            )

        return build

    return [
        ("sound", text, lambda spec: rearrange.construct_target(spec, target)),
        ("broken_repeat", text, broken("repeat")),
        ("broken_value", text, broken("value")),
    ]


def selftest_round(run: Run) -> None:
    weave_round(run, ops=broken_builds())


WORKLOADS = {
    "weave": (weave_setup, weave_round),
    "realize": (realize_setup, realize_round),
    "cli": (cli_setup, cli_round),
    "classify": (classify_setup, classify_round),
    "selftest": (weave_setup, selftest_round),
}


def peak_rss_mb(workload: str) -> float:
    """Peak resident set of this worker, or of its children for ``cli``."""
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0

