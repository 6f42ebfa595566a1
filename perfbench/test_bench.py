#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_bench.py [--seed 7]

Checks, on every workload in BENCHMARK.json:
  * an end-to-end run is correct and prints every end_to_end metric, with
    its unit, as a positive number;
  * a traced run is correct (its drivers gate traced == untraced digests and
    serial == 2-shard digests) and prints every per_layer metric;
  * two traced runs in separate processes give identical per-layer counts.
And once:
  * a wrong pinned digest fails the gate: nonzero exit, "correct": false,
    and a one-line repro command on stderr;
  * in a directory holding only BENCHMARK.json and perfbench/, the benchmark
    exits nonzero without printing a result.
Exit status 1 on any failed check.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
failures = []


def check(ok, what):
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, seed, trace, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is not None and "correct" not in result:
        result = None
    return proc, result


def metrics_ok(result, wanted):
    got = result["metrics"]
    return set(got) == {m["name"] for m in wanted} and all(
        got[m["name"]]["unit"] == m["unit"] for m in wanted)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=7)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]

    for w in (x["name"] for x in spec["workloads"]):
        proc, r = run(w, args.seed, 0)
        check(proc.returncode == 0 and r is not None and r["correct"] and r["failed"] == 0,
              f"{w}: end-to-end run correct")
        if r is not None:
            check(metrics_ok(r, spec["end_to_end"]) and
                  all(v["value"] > 0 for v in r["metrics"].values()),
                  f"{w}: every end_to_end metric present and positive")

        traced = []
        for _ in range(2):
            proc, r = run(w, args.seed, 1)
            check(proc.returncode == 0 and r is not None and r["correct"],
                  f"{w}: traced run correct (traced == untraced, serial == 2-shard)")
            if r is not None:
                traced.append(r)
        if len(traced) == 2:
            check(metrics_ok(traced[0], spec["per_layer"]), f"{w}: every per_layer metric present")
            same = all(traced[0]["metrics"][c]["value"] == traced[1]["metrics"][c]["value"]
                       for c in counts)
            check(same, f"{w}: per-layer counts identical across traced processes")
            check(traced[0]["metrics"]["trace.overhead"]["value"] > 0,
                  f"{w}: trace.overhead reported")

    proc, r = run("jammed-stream", args.seed, 0, ["--pin-digest", "0000000000000000"])
    check(proc.returncode != 0 and r is not None and not r["correct"] and r["failed"] > 0,
          "wrong pinned digest fails the gate")
    check("repro: python3 perfbench/run.py --workload jammed-stream" in proc.stderr,
          "gate failure prints a repro command")

    bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env_free = dict(os.environ)
    env_free.pop("CARGO_TARGET_DIR", None)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "batch-drain",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, env=env_free, timeout=180)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "bench without the repository's sources exits nonzero, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failed check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
