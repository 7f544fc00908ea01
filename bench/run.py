"""Run one workload of the meanweave benchmark and print its metrics.

    python3 bench/run.py --workload weave --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20
    python3 bench/run.py --self-test

Run from the repository root; the package is imported from ``src``.  One
client (this process) starts one worker process and, for ``cli``, the worker
starts one ``meanweave`` process at a time: a closed loop with no threads.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: every end-to-end metric of BENCHMARK.json with
``--trace 0``, every per-layer metric with ``--trace 1``.  Metric
definitions are in bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from calibrate import KERNEL_REF_S, Speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 9
RUN_LIMIT_S = 170.0


def _fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def _worker(args, extra, timeout):
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spawned", repr(time.time()), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _setup_samples(args, speed, timeout):
    """Set-up times of SETUP_SAMPLES - 1 fresh processes (the main worker adds one)."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        speed.sample()
        if args.workload == "cli":
            env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "meanweave", "--help"], env=env,
                                  capture_output=True, timeout=timeout, cwd=ROOT)
            samples.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                raise RuntimeError("`meanweave --help` failed")
        else:
            samples.append(_worker(args, ["--setup-only"], timeout)["setup_s"])
        speed.sample()
    return samples


def run_one(args, spec) -> dict:
    """Measure one workload; returns the result object printed last."""
    t0 = time.perf_counter()
    speed = Speed()
    setup = _setup_samples(args, speed, RUN_LIMIT_S)
    res = _worker(args, [], RUN_LIMIT_S - (time.perf_counter() - t0))
    if args.workload == "cli":
        # the cost every CLI call pays: a meanweave process that does no work
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        speed.sample()
        t1 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "meanweave", "--help"], env=env,
                       capture_output=True, timeout=60, cwd=ROOT)
        setup.append(time.perf_counter() - t1)
    else:
        setup.append(res["setup_s"])
    speed.sample()

    metrics = dict(res["metrics"], setup_s=statistics.median(setup) / speed.factor)
    if args.trace:
        listed = spec["per_layer"]
        values = res["layers"]
    else:
        listed = spec["end_to_end"]
        values = metrics
    out = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} rounds={res['rounds']} python={sys.version.split()[0]} "
          f"nproc={os.cpu_count()}")
    for name, v in out.items():
        print(f"{name} {v['value']:.6g} {v['unit']}")
    for name, value, unit, note in res["extra"]:
        print(f"{args.workload}.{name} {value:.6g} {unit} ({note})")
    print(f"setup_samples_s {' '.join(f'{s:.4f}' for s in setup)} (raw)")
    print(f"speed_factor {speed.factor:.4f} (client) {res['speed']:.4f} (worker): "
          f"kernel time / {KERNEL_REF_S} s; times above are divided by it")
    print(f"index_digest {res['digest']}")
    for problem in res["problems"]:
        print(f"FAILED {problem}")
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": out,
        "extra": {name: value for name, value, _u, _n in res["extra"]},
    }


def self_test(args, spec) -> int:
    """Broken constructions must raise fail_ratio; every metric must print."""
    args.seconds, args.trace = 3, 0
    args.workload = "weave"
    sound = run_one(args, spec)
    args.workload = "selftest"
    broken = run_one(args, spec)
    names = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    ok = (broken["failed"] > 0 and not broken["correct"]
          and broken["extra"]["fail_ratio"] > sound["extra"]["fail_ratio"]
          and all(broken["metrics"][n]["unit"] == u for n, u in names.items()))
    print(f"self-test: fail_ratio {sound['extra']['fail_ratio']:.3f} (weave) -> "
          f"{broken['extra']['fail_ratio']:.3f} (broken constructions): "
          f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "meanweave", "__init__.py")):
        return _fail("no meanweave package under src/; run from a full checkout")
    # One CPU for this process and everything it starts: the calibration
    # kernel then runs where the measured processes run, and nothing
    # migrates between cores of different speed mid-op.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.self_test:
        return self_test(args, spec)
    if args.workload != "all" and args.workload not in names:
        return _fail(f"unknown workload {args.workload!r}; choose from {names}")
    try:
        if args.workload != "all":
            res = run_one(args, spec)
        else:
            results = {}
            for name in names:
                args.workload = name
                results[name] = run_one(args, spec)
            res = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}.{k}": v for w, r in results.items()
                            for k, v in r["metrics"].items()},
            }
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return _fail(str(exc))
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
