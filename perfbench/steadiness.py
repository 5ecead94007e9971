#!/usr/bin/env python3
"""Records the benchmark's noise floor.

    python3 perfbench/steadiness.py [--runs 10] [--seed 1000]
        [--workloads batch_cold,library_warm,serve_warm] [--record FILE]

Runs `perfbench/run.py --trace 0` once per seed (seed, seed+1, ...) on
each workload, with BENCHMARK.json's run_seconds, and prints for every
end-to-end metric the median and quartiles of its calibrated and raw
values, and the spread (third minus first quartile, over the median)
next to the metric's bound. With --record, writes the same table as
JSON together with each workload's reason, so later changes can see the
noise floor each bound came from. Exits non-zero if any run fails or if
a spread other than setup_s's exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    raw = next(json.loads(l[4:]) for l in lines if l.startswith("raw "))
    return result, raw


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else 0.0}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--workloads")
    parser.add_argument("--record")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else list(why)
    record = {"run_seconds": bench["run_seconds"], "runs": args.runs,
              "seeds": [args.seed, args.seed + args.runs - 1], "workloads": {}}
    too_wide = []
    for workload in workloads:
        calibrated, raw = {}, {}
        for i in range(args.runs):
            result, raw_metrics = run_once(workload, args.seed + i, bench["run_seconds"])
            for name, m in result["metrics"].items():
                calibrated.setdefault(name, []).append(m["value"])
                raw.setdefault(name, []).append(raw_metrics[name]["value"])
            print(f"{workload} seed {args.seed + i}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        rows = {}
        print(f"\n{workload}: {why[workload]}")
        print(f"{'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'raw spread':>10} {'bound':>6}")
        for name in calibrated:
            cal, unc = summary(calibrated[name]), summary(raw[name])
            rows[name] = {"calibrated": cal, "raw": unc, "bound": bounds[name],
                          "values": calibrated[name]}
            print(f"{name:<18} {cal['median']:>12.5g} {cal['q1']:>12.5g} {cal['q3']:>12.5g} "
                  f"{cal['spread']:>8.2%} {unc['spread']:>10.2%} {bounds[name]:>6}")
            if name != "setup_s" and cal["spread"] > bounds[name]:
                too_wide.append(f"{workload}/{name}")
        print()
        record["workloads"][workload] = {"why": why[workload], "metrics": rows}
    if args.record:
        with open(args.record, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    if too_wide:
        raise SystemExit("spread above bound: " + ", ".join(too_wide))


if __name__ == "__main__":
    main()
