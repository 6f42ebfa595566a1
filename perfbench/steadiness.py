#!/usr/bin/env python3
"""Steadiness report: is every end-to-end metric steady enough for its bound?

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
                                    [--workloads a,b] [--seconds S] [--raw FILE]

Runs perfbench/run.py once per seed (seeds first-seed .. first-seed+runs-1)
on each workload, then prints, per (workload, end-to-end metric), the
median, the quartiles (statistics.quantiles(n=4)) and IQR/median next to the
metric's bound from BENCHMARK.json. Verdicts: "steady" when IQR/median is
under a third of the bound, "within" when under the bound, "NOISY" above it.
setup_s is reported but not judged (its bound only limits median drift).

Exit status 1 when any run failed its correctness gate or any judged metric
is NOISY.
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
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    result = json.loads(lines[-1])
    return result if result.get("correct") else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--raw", help="also write every run's metrics to this JSON file")
    args = p.parse_args()

    bad = False
    raw = {}
    print(f"{'workload':20s} {'metric':15s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'iqr/med':>8s} {'bound':>6s}  verdict")
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(workload, seed, args.seconds)
            if result is None:
                print(f"{workload}: seed {seed} FAILED", file=sys.stderr)
                bad = True
                continue
            for name, v in result["metrics"].items():
                values[name].append(v["value"])
        raw[workload] = values
        for m in spec["end_to_end"]:
            xs = values[m["name"]]
            if len(xs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            if m["name"] == "setup_s":
                verdict = "(not judged)"
            elif spread < m["bound"] / 3:
                verdict = "steady"
            elif spread <= m["bound"]:
                verdict = "within"
            else:
                verdict = "NOISY"
                bad = True
            print(f"{workload:20s} {m['name']:15s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {m['bound']:6.3f}  {verdict}", flush=True)
    if args.raw:
        with open(args.raw, "w") as f:
            json.dump(raw, f, indent=1)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
