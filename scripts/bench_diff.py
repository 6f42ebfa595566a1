#!/usr/bin/env python3
"""Diff two sets of BENCH_*.json results and flag slots/s regressions.

Consumes both result formats this repo produces:
  * lowsense-bench/v1 documents (the suite benches' --json= output):
    per-scenario metric summaries and slots/s, plus bench-level slots/s;
  * google-benchmark JSON (bench_micro_*): per-benchmark real_time and
    the slots/s counter where present.

Usage:
  bench_diff.py OLD NEW [--max-slowdown=0.10] [--min-gate-elapsed=0.5]
                        [--rolling=K]
                        [--metric-tol=1e-9] [--derived-drift=0.25]
                        [--markdown=PATH]

OLD and NEW are files or directories; directories are paired by file
name (BENCH_*.json). Exit status: 0 = no regression, 1 = at least one
gated slots/s drop beyond --max-slowdown, 2 = usage/parse error.
Series timed over less than --min-gate-elapsed wall seconds are too
noisy to gate; their drops are reported as warnings only.

With --rolling=K, OLD is a baseline directory holding one snapshot
subdirectory per prior run (each with its own BENCH_*.json set, e.g.
run-000000042/). The gate then compares NEW against the per-series
MEDIAN slots/s over the newest K snapshots, so a single flappy
hosted-runner sample can neither fail the gate nor sandbag the
baseline — the point is to keep the 10% gate hard instead of demoting
it to warn-only. A flat OLD directory still works (treated as one
snapshot), so migration is seamless.

Metric medians are also compared: with identical code and seeds they are
bit-identical, so any drift is reported as a warning (a behavior change
shipped alongside a perf change), but only slots/s gates the exit code —
timing is noisy on shared runners, numbers are not.

Per-scenario "derived" values (T12's slot-over-event slots/s ratio,
T13's shard-scaling speedups) are tracked too: like speeds they move
with the hardware, so changes beyond --derived-drift are reported as
warnings and never gate.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.stderr.write(f"error: cannot read {path}: {e}\n")
        raise SystemExit(2)


def collect_files(path):
    """Maps basename -> full path for a file or a directory of BENCH_*.json."""
    if os.path.isdir(path):
        found = sorted(glob.glob(os.path.join(path, "BENCH_*.json")))
        return {os.path.basename(p): p for p in found}
    if os.path.isfile(path):
        return {os.path.basename(path): path}
    sys.stderr.write(f"error: {path} is neither a file nor a directory\n")
    raise SystemExit(2)


def extract_series(doc):
    """Returns (speeds, elapsed, metrics, derived).

    speeds:  {series_name: slots_per_sec_or_time_based_rate}
    elapsed: {series_name: measured wall seconds behind that rate}
             (google-benchmark entries report None: the framework's
             --benchmark_min_time already guarantees a stable window)
    metrics: {series_name: {metric_name: median}}
    derived: {series_name:value_name: value} — timing-DERIVED tracked
             numbers (T12's slot-vs-event slots/s ratio, T13's shard
             speedups). Like speeds they move with the hardware, so
             drift is reported, never gated, and with its own looser
             threshold (--derived-drift).
    The options block is not read, so older snapshots that still carry
    options.simd parse unchanged.
    """
    speeds, elapsed, metrics, derived = {}, {}, {}, {}
    if isinstance(doc, dict) and doc.get("schema") == "lowsense-bench/v1":
        bench = doc.get("bench", "?")
        if doc.get("slots_per_sec"):
            speeds[f"{bench}/TOTAL"] = doc["slots_per_sec"]
            elapsed[f"{bench}/TOTAL"] = doc.get("elapsed_sec", 0.0)
        for sc in doc.get("scenarios", []):
            name = f"{bench}/{sc.get('name', '?')}"
            if sc.get("slots_per_sec"):
                speeds[name] = sc["slots_per_sec"]
                elapsed[name] = sc.get("elapsed_sec", 0.0)
            metrics[name] = {
                m: v.get("median")
                for m, v in sc.get("metrics", {}).items()
                if isinstance(v, dict) and v.get("median") is not None
            }
            for k, v in sc.get("derived", {}).items():
                if isinstance(v, (int, float)):
                    derived[f"{name}:{k}"] = v
        return speeds, elapsed, metrics, derived
    if isinstance(doc, dict) and "benchmarks" in doc:
        # google-benchmark. Prefer the median aggregate when repetitions
        # were requested; otherwise use the raw iteration entries.
        entries = [b for b in doc["benchmarks"] if b.get("aggregate_name") == "median"]
        if not entries:
            entries = [b for b in doc["benchmarks"] if "aggregate_name" not in b]
        for b in entries:
            name = b.get("run_name", b.get("name", "?"))
            if "slots/s" in b:
                speeds[f"{name}:slots/s"] = b["slots/s"]
                elapsed[f"{name}:slots/s"] = None
            elif b.get("real_time"):
                # No slots counter: use inverse time so "bigger is better"
                # holds for every speeds entry.
                speeds[f"{name}:1/real_time"] = 1.0 / b["real_time"]
                elapsed[f"{name}:1/real_time"] = None
        return speeds, elapsed, metrics, derived
    sys.stderr.write("error: unrecognized BENCH json format\n")
    raise SystemExit(2)


def snapshot_dirs(path, k):
    """The newest k snapshot subdirectories of a rolling baseline dir.

    A snapshot is any immediate subdirectory containing BENCH_*.json;
    snapshots are ordered by name, so zero-padded run numbers (or any
    other sortable stamp) give chronological order. Returns [] when the
    layout is flat (no snapshot subdirs) — the caller falls back to
    treating `path` itself as a single snapshot.
    """
    if not os.path.isdir(path):
        return []
    subs = sorted(
        d for d in glob.glob(os.path.join(path, "*"))
        if os.path.isdir(d) and glob.glob(os.path.join(d, "BENCH_*.json"))
    )
    return subs[-k:]


def combine_snapshots(views):
    """Merges per-snapshot (speeds, elapsed, metrics, derived) tuples,
    oldest first, into one baseline view.

    Speeds take the per-series median across every snapshot that has the
    series — the rolling part: one outlier run moves the median little.
    Elapsed likewise (None, google-benchmark's "stable by construction"
    marker, is sticky). Metrics and derived values come from the newest
    snapshot carrying them: they are bit-identical run to run, so there
    is nothing to average and newest matches what the code produces now.
    """
    speeds, elapsed, metrics, derived = {}, {}, {}, {}
    names = set()
    for v in views:
        names.update(v[0])
    for name in names:
        vals = [v[0][name] for v in views if name in v[0]]
        speeds[name] = statistics.median(vals)
        els = [v[1].get(name) for v in views if name in v[0]]
        elapsed[name] = None if any(e is None for e in els) else statistics.median(els)
    for v in views:  # newest last: later update() wins
        metrics.update(v[2])
        derived.update(v[3])
    return speeds, elapsed, metrics, derived


def fmt_rate(v):
    return f"{v:,.0f}" if v >= 100 else f"{v:.3g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--max-slowdown", type=float, default=0.10,
                    help="fail when slots/s drops by more than this fraction (default 0.10)")
    ap.add_argument("--min-gate-elapsed", type=float, default=0.5,
                    help="only series measured over at least this many wall seconds (on both "
                         "sides) can FAIL the diff; faster cells are too noisy to gate and "
                         "are reported as warnings (default 0.5)")
    ap.add_argument("--rolling", type=int, default=0, metavar="K",
                    help="treat OLD as a rolling baseline: one snapshot subdirectory per "
                         "prior run, gate against the per-series median over the newest K "
                         "snapshots (0 = off; a flat OLD dir counts as one snapshot)")
    ap.add_argument("--metric-tol", type=float, default=1e-9,
                    help="relative tolerance before a metric median counts as drifted")
    ap.add_argument("--derived-drift", type=float, default=0.25,
                    help="relative change before a derived value (speed ratios, shard "
                         "speedups) is reported as drifted — warn only, never gates "
                         "(default 0.25)")
    ap.add_argument("--markdown", default="",
                    help="also write a markdown report (for a PR comment) to this path")
    args = ap.parse_args()

    if args.rolling > 0:
        snaps = snapshot_dirs(args.old, args.rolling) or [args.old]
        per_snap = [collect_files(s) for s in snaps]
        old_views = {
            fname: combine_snapshots([
                extract_series(load_json(files[fname]))
                for files in per_snap if fname in files
            ])
            for fname in set().union(*per_snap)
        }
        if len(snaps) > 1:
            print(f"rolling baseline: per-series median over {len(snaps)} snapshot(s) "
                  f"({os.path.basename(snaps[0])} .. {os.path.basename(snaps[-1])})")
    else:
        old_views = {fname: extract_series(load_json(path))
                     for fname, path in collect_files(args.old).items()}
    new_views = {fname: extract_series(load_json(path))
                 for fname, path in collect_files(args.new).items()}
    common = sorted(set(old_views) & set(new_views))
    if not common:
        sys.stderr.write("error: no BENCH_*.json files in common between the two sets\n")
        return 2
    only_old = sorted(set(old_views) - set(new_views))
    only_new = sorted(set(new_views) - set(old_views))

    regressions, warnings, improvements, drifted, rows = [], [], [], [], []
    ratio_drift = []
    for fname in common:
        old_speeds, old_elapsed, old_metrics, old_derived = old_views[fname]
        new_speeds, new_elapsed, new_metrics, new_derived = new_views[fname]

        for name in sorted(set(old_speeds) & set(new_speeds)):
            old_v, new_v = old_speeds[name], new_speeds[name]
            if old_v <= 0:
                continue
            # Millisecond-scale cells swing past any sane threshold from
            # scheduler noise alone; only series timed over a meaningful
            # window (on BOTH sides) can fail the run.
            gated = all(e is None or e >= args.min_gate_elapsed
                        for e in (old_elapsed.get(name), new_elapsed.get(name)))
            change = (new_v - old_v) / old_v
            rows.append((name, old_v, new_v, change, gated))
            if change < -args.max_slowdown:
                (regressions if gated else warnings).append((name, old_v, new_v, change))
            elif change > args.max_slowdown:
                improvements.append((name, old_v, new_v, change))

        for name in sorted(set(old_metrics) & set(new_metrics)):
            for metric in sorted(set(old_metrics[name]) & set(new_metrics[name])):
                old_v, new_v = old_metrics[name][metric], new_metrics[name][metric]
                denom = max(abs(old_v), abs(new_v), 1e-300)
                if abs(new_v - old_v) / denom > args.metric_tol:
                    drifted.append((f"{name}:{metric}", old_v, new_v))

        for name in sorted(set(old_derived) & set(new_derived)):
            old_v, new_v = old_derived[name], new_derived[name]
            denom = max(abs(old_v), abs(new_v), 1e-300)
            if abs(new_v - old_v) / denom > args.derived_drift:
                ratio_drift.append((name, old_v, new_v))

    wide = max((len(r[0]) for r in rows), default=10)
    print(f"{'series':<{wide}}  {'old':>14}  {'new':>14}  {'change':>8}")
    for name, old_v, new_v, change, gated in rows:
        mark = ""
        if change < -args.max_slowdown:
            mark = " <-- REGRESSION" if gated else " (drop, but too fast to gate)"
        print(f"{name:<{wide}}  {fmt_rate(old_v):>14}  {fmt_rate(new_v):>14}  {change:+8.1%}{mark}")

    if drifted:
        print(f"\nmetric drift ({len(drifted)} medians changed — same seeds should be "
              f"bit-identical; expected only when the simulation itself changed):")
        for name, old_v, new_v in drifted[:20]:
            print(f"  {name}: {old_v:.6g} -> {new_v:.6g}")
        if len(drifted) > 20:
            print(f"  ... and {len(drifted) - 20} more")
    if ratio_drift:
        print(f"\nderived drift ({len(ratio_drift)} tracked ratio(s) moved by more than "
              f"{args.derived_drift:.0%} — engine speed ratios / shard speedups; warn only):")
        for name, old_v, new_v in ratio_drift[:20]:
            print(f"  {name}: {old_v:.3g} -> {new_v:.3g}")
        if len(ratio_drift) > 20:
            print(f"  ... and {len(ratio_drift) - 20} more")
    for fname in only_old:
        print(f"note: {fname} only in OLD set (bench removed?)")
    for fname in only_new:
        print(f"note: {fname} only in NEW set (new bench)")

    verdict_ok = not regressions
    print(f"\n{len(rows)} series compared; {len(regressions)} gated regression(s) beyond "
          f"{args.max_slowdown:.0%}, {len(warnings)} sub-{args.min_gate_elapsed}s drop(s) "
          f"(warn only), {len(improvements)} improvement(s).")
    print("OK" if verdict_ok else "FAIL: slots/s regression")

    if args.markdown:
        with open(args.markdown, "w") as f:
            f.write("### Bench regression report\n\n")
            if regressions:
                f.write(f"**{len(regressions)} slots/s regression(s) beyond "
                        f"{args.max_slowdown:.0%}:**\n\n")
                f.write("| series | old | new | change |\n|---|---:|---:|---:|\n")
                for name, old_v, new_v, change in regressions:
                    f.write(f"| `{name}` | {fmt_rate(old_v)} | {fmt_rate(new_v)} "
                            f"| {change:+.1%} |\n")
            else:
                f.write(f"No slots/s regression beyond {args.max_slowdown:.0%} "
                        f"across {len(rows)} series.\n")
            if improvements:
                f.write(f"\n{len(improvements)} series improved by more than "
                        f"{args.max_slowdown:.0%}.\n")
            if drifted:
                f.write(f"\n{len(drifted)} metric median(s) drifted (behavior change).\n")
            if ratio_drift:
                f.write(f"\n{len(ratio_drift)} derived ratio(s) drifted beyond "
                        f"{args.derived_drift:.0%} (speed ratios / shard speedups).\n")

    return 0 if verdict_ok else 1


if __name__ == "__main__":
    sys.exit(main())
