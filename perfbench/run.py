#!/usr/bin/env python3
"""The simulator's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 20 --trace 0

builds the benchmark binary from source (cargo, offline, into
$CARGO_TARGET_DIR or .bench_build), times the workload's cold set-up in
several fresh processes, measures it for --seconds, checks its outputs and
prints every end-to-end metric (--trace 0) or every per-layer metric
(--trace 1). The last line of standard output is one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}

    python3 perfbench/run.py --repeat 10 [--workload W] [--seed S] [--trace 0]

runs each workload (default: all of BENCHMARK.json) N times in fresh
processes on seeds S, S+1, ... and prints each metric's median, quartiles
and quartile spread against the bound in BENCHMARK.json.

Add --smoke for a seconds-long run on tiny inputs (used by the tests).
See perfbench/README.md for what each workload and metric is for.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")
# Cold set-ups timed per run; setup_s is their median.
SETUPS = 9


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def spec():
    with open(SPEC) as f:
        return json.load(f)


def build():
    """Builds the benchmark binary; returns its path or exits non-zero."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: build failed: {e}")
        sys.exit(1)
    if done.returncode != 0:
        log("perfbench: build failed")
        sys.exit(1)
    return os.path.join(target, "release", "hbh-perfbench")


def call(binary, args, timeout):
    """Runs the binary, echoes its report lines, returns its last-line JSON."""
    try:
        done = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {' '.join(args)} timed out after {timeout} s")
        sys.exit(1)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(f"perfbench: {' '.join(args)} exited with {done.returncode}")
        sys.exit(1)
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def measure(a):
    """One run of one workload; returns the result object."""
    binary = build()
    common = ["--workload", a.workload, "--seed", str(a.seed)]
    if a.smoke:
        common.append("--smoke")
    limit = 60 + 3 * a.seconds
    if a.trace:
        result = call(binary, ["trace"] + common + ["--seconds", str(a.seconds)], limit)
        wanted = spec()["per_layer"]
    else:
        setups = [call(binary, ["setup"] + common, 60)["setup_s"] for _ in range(SETUPS)]
        result = call(binary, ["run"] + common + ["--seconds", str(a.seconds)], limit)
        setup_s = statistics.median(setups)
        print(f"  {'setup_s':<28} {setup_s:>14.6f} s (median of {SETUPS} cold set-ups: "
              + ", ".join(f"{s:.4f}" for s in setups) + ")")
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
        wanted = spec()["end_to_end"]
    # Emit exactly the metrics BENCHMARK.json names, each with its unit.
    got = result["metrics"]
    missing = [m["name"] for m in wanted
               if m["name"] not in got or got[m["name"]]["unit"] != m["unit"]]
    if missing:
        log(f"perfbench: missing or mis-united metrics: {missing}")
        result["correct"] = False
    result["metrics"] = {m["name"]: got[m["name"]] for m in wanted if m["name"] in got}
    return result


def repeat(a):
    """Runs workloads a.repeat times in fresh processes; prints spreads."""
    s = spec()
    names = [a.workload] if a.workload else [w["name"] for w in s["workloads"]]
    metrics = s["per_layer"] if a.trace else s["end_to_end"]
    summary = {}
    for name in names:
        values = {}
        for i in range(a.repeat):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(a.seed + i), "--seconds", str(a.seconds),
                   "--trace", str(a.trace)] + (["--smoke"] if a.smoke else [])
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if done.returncode != 0:
                log(f"perfbench: {name} seed {a.seed + i} failed")
                sys.exit(1)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                log(f"perfbench: {name} seed {a.seed + i}: incorrect output or failed runs")
                sys.exit(1)
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            log(f"{name} seed {a.seed + i}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                if k in {m['name'] for m in s['end_to_end']}))
        print(f"{name}: {a.repeat} runs, seeds {a.seed}..{a.seed + a.repeat - 1}")
        print(f"  {'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        rows = {}
        for m in metrics:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                flag = "ok" if spread < bound / 3 else ("WIDE" if spread <= bound else "OVER")
            print(f"  {m['name']:<28} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.4f} "
                  f"{'' if bound is None else bound:>6} {flag}")
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        summary[name] = rows
    print(json.dumps(summary))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--repeat", type=int, default=0)
    a = p.parse_args()
    if a.seconds is None:
        a.seconds = 1 if a.smoke else spec()["run_seconds"]
    if a.repeat:
        repeat(a)
        return
    if not a.workload:
        p.error("--workload is required")
    result = measure(a)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
