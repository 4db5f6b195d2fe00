#!/usr/bin/env python3
"""Smoke guard over a BENCH_*.json result file.

Reads the {"benchmarks": [{"name", "median_s", ...}]} document written by
the benchmark binaries (--json PATH) and fails when any guarded benchmark's
median wall time exceeds its ceiling.  Ceilings are deliberately generous
-- an order of magnitude above the expected time on CI hardware -- so the
guard only trips on genuine regressions (e.g. a broken scheduler hot
path), not on runner noise.

A second mode diffs the results against a checked-in baseline (the repo
ships BENCH_micro.json and BENCH_serve.json): every benchmark present in
the baseline must still exist in the fresh results (coverage loss is a
failure) and its median must stay within --max-regression times the
baseline median.  The factor is generous by default because the baseline
and CI run on different hardware; the diff catches order-of-magnitude
cliffs and silently dropped benchmarks, not percent-level drift.

Rows may carry "direction": "up" (e.g. the loadgen cache hit-rate row in
BENCH_serve.json, where median_s holds a ratio and HIGHER is better); for
those the diff direction flips -- the run fails when the fresh value drops
below baseline / --max-regression.

Usage:
  check_bench_ceiling.py BENCH_micro.json \
      --ceiling BM_LayerSchedulerLarge=30 [--ceiling PREFIX=SECONDS ...] \
      [--baseline OLD_BENCH.json] [--max-regression 25]

A PREFIX matches every benchmark whose name equals PREFIX or starts with
"PREFIX/" (google-benchmark appends "/<arg>" and "/iterations:<n>").
Exits 1 when a ceiling is exceeded, a ceiling matches no benchmark, a
baseline benchmark is missing, or a baseline median regresses past the
allowed factor.
"""

import argparse
import json
import sys


def matches(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + "/")


def load_benchmarks(path: str) -> list:
    with open(path, encoding="utf-8") as f:
        return json.load(f).get("benchmarks", [])


def check_ceilings(benchmarks: list, ceilings: list, json_path: str) -> list:
    failures = []
    for spec in ceilings:
        prefix, sep, limit_text = spec.partition("=")
        if not sep:
            failures.append(f"bad --ceiling '{spec}' (want PREFIX=SECONDS)")
            continue
        limit = float(limit_text)
        rows = [b for b in benchmarks if matches(b["name"], prefix)]
        if not rows:
            failures.append(f"no benchmark in {json_path} "
                            f"matches '{prefix}'")
            continue
        for row in rows:
            median = float(row["median_s"])
            ok = median <= limit
            print(f"{'ok  ' if ok else 'FAIL'} {row['name']}: "
                  f"median {median:.3f}s (ceiling {limit:g}s)")
            if not ok:
                failures.append(f"{row['name']} median {median:.3f}s "
                                f"exceeds ceiling {limit:g}s")
    return failures


def check_baseline(benchmarks: list, baseline: list, factor: float) -> list:
    failures = []
    current = {b["name"]: float(b["median_s"]) for b in benchmarks}
    for row in baseline:
        name = row["name"]
        # Aggregate rows differ per repetition count; compare raw medians.
        old = float(row["median_s"])
        if name not in current:
            failures.append(f"baseline benchmark '{name}' missing from "
                            f"results (coverage loss)")
            print(f"GONE {name}: in baseline, not in results")
            continue
        new = current[name]
        if row.get("direction") == "up":
            # Higher is better (e.g. the hit-rate row in BENCH_serve.json,
            # where median_s holds a ratio): fail when the fresh value
            # collapses below baseline / factor.
            drop = old / new if new > 0 else float("inf" if old > 0 else 1)
            ok = drop <= factor
            print(f"{'ok  ' if ok else 'FAIL'} {name} (up): "
                  f"{old:.4g} -> {new:.4g} "
                  f"({drop:.2f}x drop, limit {factor:g}x)")
            if not ok:
                failures.append(f"{name} dropped {drop:.2f}x below baseline "
                                f"(limit {factor:g}x, direction up)")
            continue
        # Guard against a zero-time baseline row dividing the ratio away.
        ratio = new / old if old > 0 else float("inf" if new > 0 else 1)
        ok = ratio <= factor
        print(f"{'ok  ' if ok else 'FAIL'} {name}: "
              f"{old * 1e6:.2f}us -> {new * 1e6:.2f}us "
              f"({ratio:.2f}x, limit {factor:g}x)")
        if not ok:
            failures.append(f"{name} median regressed {ratio:.2f}x over "
                            f"baseline (limit {factor:g}x)")
    for name in current:
        if not any(b["name"] == name for b in baseline):
            print(f"new  {name}: not in baseline")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Fail when benchmark medians exceed their ceilings "
                    "or regress against a checked-in baseline.")
    parser.add_argument("json_path", help="BENCH_*.json result file")
    parser.add_argument(
        "--ceiling", action="append", default=[], metavar="PREFIX=SECONDS",
        help="fail if a matching benchmark's median_s exceeds SECONDS; "
             "may be repeated")
    parser.add_argument(
        "--baseline", metavar="FILE",
        help="BENCH_*.json to diff against: every baseline benchmark must "
             "still exist and stay within --max-regression of its median")
    parser.add_argument(
        "--max-regression", type=float, default=25.0, metavar="FACTOR",
        help="allowed median ratio vs the baseline (default %(default)s; "
             "generous because baseline and CI hardware differ)")
    args = parser.parse_args()

    benchmarks = load_benchmarks(args.json_path)
    failures = check_ceilings(benchmarks, args.ceiling, args.json_path)
    if args.baseline:
        failures += check_baseline(benchmarks, load_benchmarks(args.baseline),
                                   args.max_regression)

    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
