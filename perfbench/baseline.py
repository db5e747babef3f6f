#!/usr/bin/env python3
"""Run every workload several times and summarize each metric.

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json
    python3 perfbench/baseline.py --workloads serve_warm --runs 5 --trace 1

For each workload, metric and mode it records the median, the first and
third quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median over runs with seeds seed0, seed0 + 1, ...; the
end-to-end spreads are compared with their bounds in BENCHMARK.json.
Runs are sequential: the workloads measure the host they run on.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values),
            "values": values}


def run_many(workload, trace, runs, seed0, seconds):
    values = {}
    for i in range(runs):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", str(seed0 + i), "--seconds", str(seconds),
             "--trace", str(trace)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            check=False)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if done.returncode != 0 or not result["correct"]:
            raise SystemExit("%s run %d failed" % (workload, i))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    return {name: summarize(v) for name, v in values.items()}


def main():
    spec = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="*", default=list(run.WORKLOADS))
    ap.add_argument("--runs", type=int, default=10,
                    help="runs per workload with tracing off")
    ap.add_argument("--layer-runs", type=int, default=5,
                    help="runs per workload with tracing on")
    ap.add_argument("--seed0", type=int, default=1000)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1, 2), default=2,
                    help="0 or 1 for one mode, 2 for both")
    ap.add_argument("--out", help="write the summary here (JSON)")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    modes = (0, 1) if args.trace == 2 else (args.trace,)
    out = {"run_seconds": args.seconds, "runs": args.runs,
           "layer_runs": args.layer_runs, "seed0": args.seed0,
           "end_to_end": {}, "per_layer": {}}
    steady = True
    for workload in args.workloads:
        for trace in modes:
            summary = run_many(workload, trace,
                               args.layer_runs if trace else args.runs,
                               args.seed0, args.seconds)
            out["per_layer" if trace else "end_to_end"][workload] = summary
            for name, s in summary.items():
                note = ""
                if not trace:
                    ok = s["spread"] <= bounds[name]
                    steady &= ok
                    note = "bound %.2f %s" % (bounds[name],
                                              "ok" if ok else "TOO WIDE")
                print("%-14s %-32s median %-12.6g spread %.4f %s"
                      % (workload, name, s["median"], s["spread"], note),
                      flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
