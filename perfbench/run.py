#!/usr/bin/env python3
"""Build and run one workload of the UFC benchmark.

    python3 perfbench/run.py --workload ckks_dse --seed 1 --seconds 50 \
        --trace 0

Builds ufc_perfbench (perfbench/CMakeLists.txt, which compiles the library
from src/) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that is unset, runs it, adds paper_err, checks the metric names
against BENCHMARK.json and prints one JSON object as the last line of
stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones.  Exits non-zero when the build fails (without a result
line) or when any unit of work or check failed.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ckks_dse", "serve_warm")
CHILD_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure once, then build ufc_perfbench; returns its path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "ufc_perfbench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(out, "ufc_perfbench"), out


def paper_err(sim, paper):
    """Mean |ln(sim/paper)| over the paper numbers the run covered."""
    keys = sorted(k for k in sim if k in paper)
    if not keys:
        raise ValueError("no simulated value has a paper counterpart")
    if any(not sim[k] > 0 for k in keys):
        return math.inf
    return sum(abs(math.log(sim[k] / paper[k])) for k in keys) / len(keys)


def load_json(name):
    with open(os.path.join(HERE if name != "BENCHMARK.json" else ROOT,
                           name)) as f:
        return json.load(f)


def finish(child, trace, spec, paper):
    """Turn ufc_perfbench's output object into the benchmark's result."""
    errors = list(child.get("errors", []))
    metrics = dict(child["metrics"])
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if not trace:
        err = paper_err(child["paper_sim"], paper)
        if not math.isfinite(err):
            errors.append("paper_err is not finite")
            err = 0.0
        metrics["paper_err"] = {"value": err, "unit": "ln_ratio"}
    units = {m["name"]: m["unit"] for m in wanted}
    for name in metrics:
        if name not in units:
            errors.append("metric not in BENCHMARK.json: " + name)
        elif metrics[name]["unit"] != units[name]:
            errors.append("unit mismatch for " + name)
    for name, unit in units.items():
        if name not in metrics:
            if not trace:
                errors.append("end-to-end metric missing: " + name)
            # A layer this workload does not call did no work.
            metrics[name] = {"value": 0.0, "unit": unit}
    return {
        "correct": bool(child["correct"]) and not errors,
        "attempted": int(child["attempted"]),
        "failed": int(child["failed"]),
        "metrics": {m["name"]: metrics[m["name"]] for m in wanted},
    }, errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-failures", type=int, default=0,
                    help="make this many jobs or requests fail (tests)")
    ap.add_argument("--inject-op-failures", type=int, default=0,
                    help="make this many probe ops fail (tests)")
    args = ap.parse_args()

    try:
        spec = load_json("BENCHMARK.json")
        paper = load_json("paper_values.json")
        binary, work = build()
    except (OSError, ValueError, RuntimeError,
            subprocess.TimeoutExpired) as e:
        print("perfbench: " + str(e), file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           # Relative, so the serve socket's path stays within the
           # 108-byte AF_UNIX limit however deep the checkout is.
           "--work-dir", os.path.relpath(work),
           "--inject-failures", str(args.inject_failures),
           "--inject-op-failures", str(args.inject_op_failures)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: ufc_perfbench timed out", file=sys.stderr)
        return 1
    lines = done.stdout.strip().splitlines()
    try:
        child = json.loads(lines[-1])
        result, errors = finish(child, args.trace, spec, paper)
    except (IndexError, KeyError, ValueError) as e:
        print("perfbench: unreadable ufc_perfbench output (exit %d): %s"
              % (done.returncode, e), file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print("digest %s" % child.get("digest"))
    for e in errors:
        print("error: " + e)
    print(json.dumps(result))
    return 0 if result["correct"] and done.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
