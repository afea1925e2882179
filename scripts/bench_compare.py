#!/usr/bin/env python3
"""Diff two bench JSON artifacts and flag regressions beyond a threshold.

The bench binaries emit one JSON object per line (BENCH_scalability.json,
BENCH_ring.json, BENCH_table33.json and BENCH_dfstrace.json via
scripts/ci.sh). This tool pairs rows between a baseline and a candidate file
by their identity fields (bench/check/op/clients/...), compares the metric
fields, and reports any metric that moved in the bad direction by more than
--threshold (default 10%).

Direction is inferred from the metric name: throughput/speedup/hit-rate style
metrics are better higher; *_us / seconds style metrics are better lower.
Counters that scale with iteration counts (syscalls, route_lookups, ...) are
not compared.

Exit status: 0 when no regression (or --advisory), 1 when a regression was
found, 2 on usage/parse errors. Wall-clock benches are host-sensitive, so CI
wires this in with --advisory: the report prints, the build never fails.

Usage: bench_compare.py [--threshold 0.10] [--advisory] baseline.json candidate.json
"""

import argparse
import json
import sys

# Exact metric names whose direction the fragments below would get wrong.
EXPLICIT_DIRECTION = {
    "narrowed_vs_full": +1,    # pay-per-use speedup
    "narrowed_vs_bare": -1,    # overhead factor over the agentless kernel
    "socketpair_vs_pipe": +1,  # socket-vs-pipe transfer throughput parity
    "all_vs_one": -1,          # make on all CPUs over make on one CPU
}
# Metric-name fragments that mean "higher is better".
HIGHER_IS_BETTER = ("per_sec", "throughput", "speedup", "hit_rate")
# Metric-name fragments that mean "lower is better".
LOWER_IS_BETTER = ("_us", "seconds", "ratio")
# Numeric fields that are identity or bookkeeping, never compared.
SKIP_METRICS = {"clients", "cpus", "syscalls", "route_lookups", "route_builds", "gate"}
# Numeric fields that ARE identity (alongside every string field): without
# them, rows that differ only by these would collapse onto one key.
NUMERIC_IDENTITY = ("clients", "cpus")


def direction_of(name):
    """Returns +1 (higher better), -1 (lower better), or 0 (not compared)."""
    if name in SKIP_METRICS:
        return 0
    if name in EXPLICIT_DIRECTION:
        return EXPLICIT_DIRECTION[name]
    for fragment in HIGHER_IS_BETTER:
        if fragment in name:
            return +1
    for fragment in LOWER_IS_BETTER:
        if fragment in name:
            return -1
    return 0


def row_key(row):
    """Identity of a row: every non-metric field, so reordered files pair up."""
    parts = []
    for field, value in sorted(row.items()):
        if isinstance(value, str) or field in NUMERIC_IDENTITY:
            parts.append((field, value))
    return tuple(parts)


def load_rows(path):
    rows = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_number, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as err:
                    raise SystemExit(f"{path}:{line_number}: not JSON: {err}")
                if isinstance(row, dict):
                    rows[row_key(row)] = row
    except OSError as err:
        raise SystemExit(f"cannot read {path}: {err}")
    return rows


def describe(key):
    return " ".join(f"{field}={value}" for field, value in key)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="fractional change that counts as a regression (default 0.10)")
    parser.add_argument("--advisory", action="store_true",
                        help="report regressions but always exit 0")
    args = parser.parse_args()

    base_rows = load_rows(args.baseline)
    cand_rows = load_rows(args.candidate)

    regressions = []
    improvements = []
    compared = 0
    for key, base in sorted(base_rows.items()):
        cand = cand_rows.get(key)
        if cand is None:
            print(f"bench_compare: row dropped from candidate: {describe(key)}")
            continue
        for metric, old in sorted(base.items()):
            sign = direction_of(metric)
            if sign == 0 or not isinstance(old, (int, float)) or isinstance(old, bool):
                continue
            new = cand.get(metric)
            if not isinstance(new, (int, float)) or isinstance(new, bool) or old == 0:
                continue
            compared += 1
            change = (new - old) / abs(old)
            line = (f"{describe(key)} {metric}: {old:g} -> {new:g} "
                    f"({change:+.1%})")
            if sign * change < -args.threshold:
                regressions.append(line)
            elif sign * change > args.threshold:
                improvements.append(line)

    for key in sorted(cand_rows.keys() - base_rows.keys()):
        print(f"bench_compare: new row (no baseline): {describe(key)}")

    for line in improvements:
        print(f"bench_compare: IMPROVED  {line}")
    for line in regressions:
        print(f"bench_compare: REGRESSED {line}")
    print(f"bench_compare: {compared} metrics compared, "
          f"{len(regressions)} regressed, {len(improvements)} improved "
          f"(threshold {args.threshold:.0%}{', advisory' if args.advisory else ''})")

    if regressions and not args.advisory:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
