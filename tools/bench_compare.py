#!/usr/bin/env python3
"""Compare two BENCH_<name>.json artifacts and fail on wall-time regression.

Usage:
    tools/bench_compare.py BASELINE.json CURRENT.json [--max-regress-pct PCT]

Points are matched by label; wall time is normalized per replication so a
baseline recorded with CELLFI_BENCH_REPS=4 compares cleanly against a
1-rep smoke run. Exit status 1 when any matched point regresses by more
than --max-regress-pct (default 20%), 2 on malformed input, 3 when the
current artifact has labels the baseline lacks — an uncompared point is
an unguarded point, and a silently-vacuous pass would hide it; re-record
the baseline or pass --allow-new-labels when the new points are expected
(a sweep legitimately gaining points mid-PR). Points present only in the
baseline are reported but never fail (sweeps may lose points).

Micro-benchmark wall times are noisy; 20% is deliberately loose — the gate
exists to catch the engine accidentally falling off its fast path (2-4x),
not 5% scheduler jitter.
"""

import argparse
import json
import math
import sys


def malformed(path, why):
    print(f"bench_compare: malformed {path}: {why}", file=sys.stderr)
    sys.exit(2)


def is_number(x):
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and math.isfinite(x))


def load_points(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    if not isinstance(doc, dict):
        malformed(path, "top level is not an object")
    raw = doc.get("points", [])
    if not isinstance(raw, list):
        malformed(path, "'points' is not an array")
    points = {}
    for i, p in enumerate(raw):
        if not isinstance(p, dict):
            malformed(path, f"point {i} is not an object")
        if not isinstance(p.get("label"), str):
            malformed(path, f"point {i} has no string 'label'")
        if not is_number(p.get("wall_s")) or p["wall_s"] < 0:
            malformed(path, f"point {p['label']!r} has no non-negative "
                            f"numeric 'wall_s'")
        if not is_number(p.get("reps", 1)):
            malformed(path, f"point {p['label']!r} has a non-numeric 'reps'")
        reps = max(int(p.get("reps", 1)), 1)
        points[p["label"]] = float(p["wall_s"]) / reps
    return doc.get("bench", "?"), points


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--max-regress-pct", type=float, default=20.0,
                    help="fail when per-rep wall time grows by more than this")
    ap.add_argument("--allow-new-labels", action="store_true",
                    help="tolerate labels present only in the current "
                         "artifact instead of failing with exit status 3")
    args = ap.parse_args()

    base_name, base = load_points(args.baseline)
    cur_name, cur = load_points(args.current)
    if base_name != cur_name:
        print(f"bench_compare: comparing different benches "
              f"({base_name} vs {cur_name})", file=sys.stderr)
        sys.exit(2)

    regressions = []
    missing_from_baseline = sorted(set(cur) - set(base))
    log_speedups = []
    for label in sorted(base):
        if label not in cur:
            print(f"  only in baseline: {label}")
            continue
        b, c = base[label], cur[label]
        if b <= 0:
            continue
        delta_pct = 100.0 * (c - b) / b
        speedup = b / c if c > 0 else float("inf")
        if math.isfinite(speedup) and speedup > 0:
            log_speedups.append(math.log(speedup))
        marker = ""
        if delta_pct > args.max_regress_pct:
            marker = "  <-- REGRESSION"
            regressions.append((label, delta_pct))
        print(f"  {label}: {b:.3f}s -> {c:.3f}s "
              f"({delta_pct:+.1f}%, {speedup:.2f}x){marker}")
    for label in missing_from_baseline:
        print(f"  only in current (no baseline, not compared): {label}")
    if missing_from_baseline and not args.allow_new_labels:
        print(f"bench_compare: {len(missing_from_baseline)} label(s) in "
              f"{base_name} have no baseline point — the comparison would be "
              f"vacuous for them. Re-record the baseline artifact or pass "
              f"--allow-new-labels if the new points are expected.",
              file=sys.stderr)
        sys.exit(3)
    if log_speedups:
        geomean = math.exp(sum(log_speedups) / len(log_speedups))
        print(f"  geometric-mean speedup over {len(log_speedups)} matched "
              f"label(s): {geomean:.2f}x")

    if regressions:
        print(f"bench_compare: {len(regressions)} point(s) regressed beyond "
              f"{args.max_regress_pct:.0f}% in {base_name}", file=sys.stderr)
        sys.exit(1)
    print(f"bench_compare: {base_name} OK "
          f"({len(set(base) & set(cur))} points within {args.max_regress_pct:.0f}%)")


if __name__ == "__main__":
    main()
