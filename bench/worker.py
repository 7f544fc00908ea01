"""The benchmark's worker process: runs one workload's rounds back to back.

Started by ``run.py`` with the package's ``src`` directory on ``sys.path``.
It prints one JSON object on its last stdout line: the end-to-end numbers
(without ``setup_s``, which ``run.py`` assembles), the workload-specific
numbers named in the benchmark's README, and, when traced, the per-layer
numbers.  Spans and per-op index digests are written under ``bench/out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _med(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def interquartile_mean(xs) -> float:
    """Mean of the middle half: steadier than the median on a mix of op
    kinds, and blind to the rare op that takes ten times longer."""
    xs = sorted(xs)
    q = len(xs) // 4
    mid = xs[q:len(xs) - q] or xs
    return sum(mid) / len(mid) if mid else 0.0


def end_to_end(rec, peak_rss: float) -> dict:
    """Times and rates divided by the run's machine-speed factor."""
    speed = rec.speed.factor
    return {
        "op_ms_iqm": 1000 * interquartile_mean(rec.op_s) / speed,
        "items_per_s": _ratio(rec.items, rec.item_s) * speed,
        # a missed deadline is charged its wall-clock length, not rescaled
        "check_s": _med([m / speed + c for m, c in rec.check_rounds]),
        "peak_rss_mb": peak_rss,
        "decided_ratio": _ratio(rec.decided, rec.checks),
    }


def p99_with_tail(xs, min_beyond: int = 10):
    """The 99th percentile when at least min_beyond samples lie above it."""
    xs = sorted(xs)
    k = int(len(xs) * 0.99)
    return xs[k] if len(xs) - k - 1 >= min_beyond else None


def extra_metrics(rec, workload: str, e2e: dict) -> list:
    """The workload-specific metrics, as (name, value, unit, note)."""
    undecided = len(rec.samples.get("undecided", ()))
    speed = rec.speed.factor
    p50 = "classify_ms_p50" if workload == "classify" else "op_ms_p50"
    out = [(p50, 1000 * _med(rec.op_s) / speed, "ms", f"{len(rec.op_s)} samples"),
           ("fail_ratio", _ratio(rec.failed + undecided, rec.attempted), "ratio",
            f"{rec.failed} failed + {undecided} audits past deadline / {rec.attempted} ops")]
    if workload in ("weave", "realize", "selftest"):
        out += [
            ("entries_per_s", e2e["items_per_s"], "entries/s", f"{rec.items} entries"),
            ("audit_s", _med(rec.samples.get("audit_s", [])) / speed
             if workload == "realize" else e2e["check_s"], "s",
             "median per round" + ("" if workload == "realize" else " of summed audits")),
            ("audit_decided_ratio", e2e["decided_ratio"], "ratio",
             f"{rec.decided}/{rec.checks} decided"),
            ("audit_peak_rss_mb",
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB",
             "largest forked audit process"),
        ]
    if workload == "realize":
        out.append(("time_to_stage_s", _med(rec.samples.get("time_to_stage_s", [])) / speed, "s",
                    f"median of {len(rec.op_s)} ops"))
    if workload == "classify":
        n = len(rec.op_s)
        v = p99_with_tail(rec.op_s)
        if v is not None:
            out.append(("classify_ms_p99", 1000 * v / speed, "ms",
                        f"{n - int(n * 0.99) - 1} samples beyond"))
        out.append(("evidence_terms_per_s", e2e["items_per_s"], "terms/s",
                    f"{rec.items} terms"))
        out.append(("refused_ratio", _ratio(rec.refused, rec.attempted), "ratio",
                    f"{rec.refused}/{rec.attempted} typed refusals"))
    if workload == "cli":
        out.append(("construct_rows_per_s",
                    _med(rec.samples.get("construct_rows_per_s", [])) * speed,
                    "rows/s", "median over processes"))
        out.append(("verify_rows_per_s",
                    _med(rec.samples.get("verify_rows_per_s", [])) * speed,
                    "rows/s", "median over processes"))
    return out


def layer_metrics(rec, tr, names) -> dict:
    L = rec.layer
    ops = max(rec.attempted, 1)

    def total(key):
        return sum(L.get(key, ()))

    def self_s(span):
        return tr.totals.get(span, (0, 0.0, 0.0))[2] / ops

    def calls(span):
        return tr.totals.get(span, (0, 0.0, 0.0))[0] / ops

    rows = total("csv_rows")
    m = {
        "dsl.parse_s": self_s("dsl.parse"),
        "dsl.parse_calls": calls("dsl.parse"),
        "seqspec.profile_s": self_s("seqspec.profile"),
        "seqspec.profile_calls": calls("seqspec.profile"),
        "seqspec.decompose_s": self_s("seqspec.decompose"),
        "seqspec.decompose_calls": calls("seqspec.decompose"),
        "seqspec.terms_per_s": _ratio(total("terms"), total("terms_s")),
        "seqspec.part_emissions_per_s": _ratio(total("part_emissions"),
                                               total("part_emissions_s")),
        "balance.verdict_s": self_s("balance.verdict"),
        "balance.verdict_calls": calls("balance.verdict"),
        "balance.density_s": self_s("balance.density"),
        "balance.density_calls": calls("balance.density"),
        "balance.evidence_terms_per_s": _ratio(total("evidence_terms"),
                                               total("evidence_s")),
        "classifier.classify_s": self_s("classifier.classify"),
        "classifier.classify_calls": calls("classifier.classify"),
        "aarset.render_s": self_s("aarset.render"),
        "aarset.render_calls": calls("aarset.render"),
        "rearrange.construct_s": self_s("rearrange.construct"),
        "rearrange.construct_calls": calls("rearrange.construct"),
        "rearrange.emissions_per_s": _ratio(total("emissions"), total("emissions_s")),
        "rearrange.extra_ratio": _ratio(total("tag_extra"), total("tag_total")),
        "rearrange.coverage_lag_max": max(L.get("coverage_lag", [0])),
        "realizer.build_s": self_s("realizer.build"),
        "realizer.emissions_per_s": _ratio(total("realizer_emissions"),
                                           total("realizer_emissions_s")),
        "realizer.schedule_windows": _med(L.get("schedule_windows", [])),
        "harness.trace_self_s": _med(L.get("trace_self_s", [])),
        "harness.sum_bits_max": max(L.get("sum_bits", [0])),
        "harness.audit_emissions": _med(L.get("audit_emissions", [])),
        "harness.audit_useful_ratio": _med(L.get("audit_useful", [])),
        "harness.schedule_rows_per_s": _ratio(total("schedule_rows"),
                                              tr.totals.get("harness.check_schedule",
                                                            (0, 0.0, 0.0))[2]),
        "harness.tube_rows_per_s": _ratio(rows, total("tube_s")),
        "harness.identities_rows_per_s": _ratio(rows, total("identities_s")),
        "harness.csv_write_rows_per_s": _ratio(rows, total("csv_write_s")),
        "harness.csv_read_rows_per_s": _ratio(rows, total("csv_read_s")),
        "harness.csv_bytes_per_row": _ratio(total("csv_bytes"), rows),
        "cli.process_start_s": _med(L.get("process_start_s", [])),
        "cli.self_s": _ratio(total("cli_self_s"), total("cli_ops")),
        "trace.overhead_ratio": _ratio(rec.traced_s, rec.untraced_s),
    }
    for name in names:
        if name.startswith("rearrange.tag."):
            m[name] = total("tag." + name.rsplit(".", 1)[1]) / ops
        elif name.startswith("realizer.stage_open_n."):
            m[name] = _med(L.get("stage_open_n." + name.rsplit(".", 1)[1], []))
    by_module = tr.self_by_module()
    for name in names:
        if name.endswith(".self_s_per_op"):
            m[name] = by_module.get(name.split(".", 1)[0], 0.0) / ops
    return {name: m.get(name, 0.0) for name in names}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.time() when the client started this process")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    run = workloads.Run(args.workload, args.seed, bool(args.trace), out_dir)
    setup, round_fn = workloads.WORKLOADS[args.workload]
    setup(run)
    ready_s = time.time() - args.spawned
    if args.setup_only:
        print(json.dumps({"setup_s": ready_s}))
        return 0

    t_end = perf_counter() + args.seconds
    while True:
        round_fn(run)
        run.round += 1
        if perf_counter() >= t_end:
            break
    rec = run.rec
    e2e = end_to_end(rec, workloads.peak_rss_mb(args.workload))
    tag = f"{args.workload}-{args.seed}-{args.trace}"
    digest = hashlib.sha256("\n".join(rec.digests).encode()).hexdigest()
    with open(os.path.join(out_dir, f"digests-{tag}.txt"), "w") as fh:
        fh.write("\n".join(rec.digests) + "\n")
    result = {
        "setup_s": ready_s,
        "speed": rec.speed.factor,
        "rounds": run.round,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "problems": rec.problems,
        "digest": digest,
        "metrics": e2e,
        "extra": extra_metrics(rec, args.workload, e2e),
    }
    if args.trace:
        result["layers"] = layer_metrics(rec, run.tr, workloads.layer_names())
        run.tr.write(os.path.join(out_dir, f"spans-{tag}.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
