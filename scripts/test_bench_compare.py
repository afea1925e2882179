#!/usr/bin/env python3
"""Unit tests for scripts/bench_compare.py (stdlib unittest only).

Run directly (python3 scripts/test_bench_compare.py) or via scripts/ci.sh.
Covers the direction table, row pairing, threshold arithmetic, missing
rows/keys, parse failures, and the --advisory exit-code contract.
"""

import io
import json
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_compare


def write_jsonl(directory, name, rows):
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return path


def run_main(argv):
    """Runs bench_compare.main() with argv; returns (exit_code, stdout)."""
    old_argv = sys.argv
    sys.argv = ["bench_compare.py"] + argv
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            code = bench_compare.main()
    finally:
        sys.argv = old_argv
    return code, out.getvalue()


class DirectionTest(unittest.TestCase):
    def test_higher_is_better_fragments(self):
        self.assertEqual(bench_compare.direction_of("calls_per_sec"), +1)
        self.assertEqual(bench_compare.direction_of("throughput"), +1)
        self.assertEqual(bench_compare.direction_of("speedup"), +1)
        self.assertEqual(bench_compare.direction_of("hit_rate"), +1)

    def test_lower_is_better_fragments(self):
        self.assertEqual(bench_compare.direction_of("wall_us"), -1)
        self.assertEqual(bench_compare.direction_of("seconds"), -1)
        self.assertEqual(bench_compare.direction_of("overhead_ratio"), -1)

    def test_explicit_directions_beat_fragments(self):
        # narrowed_vs_bare is an overhead factor: lower is better even though
        # nothing in the name says "_us" or "seconds".
        self.assertEqual(bench_compare.direction_of("narrowed_vs_bare"), -1)
        self.assertEqual(bench_compare.direction_of("narrowed_vs_full"), +1)
        # socketpair_vs_pipe is a throughput-parity factor: no fragment
        # matches it, so without the explicit entry it would not be compared.
        self.assertEqual(bench_compare.direction_of("socketpair_vs_pipe"), +1)

    def test_socketpair_ping_pong_row_compares(self):
        # The emitted socketpair_ping_pong row: the *_us metrics compare as
        # lower-is-better, the parity factor as higher-is-better, and gate /
        # enforced stay out of both identity and metrics.
        row = {"bench": "bench_scalability", "check": "socketpair_ping_pong",
               "pipe_us": 1.0, "socketpair_us": 1.2, "socketpair_vs_pipe": 0.833,
               "gate": 0.5, "enforced": True}
        self.assertEqual(bench_compare.direction_of("pipe_us"), -1)
        self.assertEqual(bench_compare.direction_of("socketpair_us"), -1)
        self.assertEqual(bench_compare.direction_of("gate"), 0)
        key = bench_compare.row_key(row)
        self.assertIn(("bench", "bench_scalability"), key)
        self.assertIn(("check", "socketpair_ping_pong"), key)
        self.assertNotIn(("enforced", True), key)
        self.assertNotIn(("gate", 0.5), key)

    def test_more_cores_row_compares(self):
        # The emitted more_cores_not_slower row: both medians and the
        # all-CPUs-over-one-CPU ratio are lower-is-better, and the CPU count
        # is identity, so rows from hosts of different sizes never pair.
        row = {"bench": "bench_table33", "check": "more_cores_not_slower", "cpus": 4,
               "all_cpus_seconds": 0.02, "one_cpu_seconds": 0.02, "all_vs_one": 1.0,
               "enforced": False}
        self.assertEqual(bench_compare.direction_of("all_vs_one"), -1)
        self.assertEqual(bench_compare.direction_of("all_cpus_seconds"), -1)
        self.assertEqual(bench_compare.direction_of("one_cpu_seconds"), -1)
        self.assertIn(("cpus", 4), bench_compare.row_key(row))

    def test_skip_and_unknown_metrics_are_not_compared(self):
        for name in sorted(bench_compare.SKIP_METRICS):
            self.assertEqual(bench_compare.direction_of(name), 0, name)
        self.assertEqual(bench_compare.direction_of("mystery_metric"), 0)


class RowKeyTest(unittest.TestCase):
    def test_identity_is_strings_plus_declared_numeric_ids(self):
        row = {"bench": "b", "check": "c", "clients": 8, "calls_per_sec": 100.0}
        key = bench_compare.row_key(row)
        self.assertIn(("bench", "b"), key)
        self.assertIn(("clients", 8), key)
        self.assertNotIn(("calls_per_sec", 100.0), key)

    def test_field_order_does_not_matter(self):
        a = {"bench": "b", "op": "stat", "clients": 4, "wall_us": 1.0}
        b = {"clients": 4, "wall_us": 99.0, "op": "stat", "bench": "b"}
        self.assertEqual(bench_compare.row_key(a), bench_compare.row_key(b))


class CompareTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def test_clean_run_exits_zero(self):
        rows = [{"bench": "b", "op": "stat", "calls_per_sec": 1000.0}]
        base = write_jsonl(self.dir.name, "base.json", rows)
        cand = write_jsonl(self.dir.name, "cand.json", rows)
        code, out = run_main([base, cand])
        self.assertEqual(code, 0)
        self.assertIn("0 regressed", out)

    def test_direction_aware_regression_fails(self):
        base = write_jsonl(self.dir.name, "base.json",
                           [{"bench": "b", "op": "stat", "calls_per_sec": 1000.0}])
        cand = write_jsonl(self.dir.name, "cand.json",
                           [{"bench": "b", "op": "stat", "calls_per_sec": 800.0}])
        code, out = run_main([base, cand])
        self.assertEqual(code, 1)
        self.assertIn("REGRESSED", out)

    def test_lower_is_better_metric_regresses_upward(self):
        base = write_jsonl(self.dir.name, "base.json",
                           [{"bench": "b", "op": "stat", "wall_us": 100.0}])
        cand = write_jsonl(self.dir.name, "cand.json",
                           [{"bench": "b", "op": "stat", "wall_us": 150.0}])
        code, out = run_main([base, cand])
        self.assertEqual(code, 1)
        self.assertIn("REGRESSED", out)

    def test_improvement_in_lower_is_better_metric_passes(self):
        base = write_jsonl(self.dir.name, "base.json",
                           [{"bench": "b", "op": "stat", "wall_us": 100.0}])
        cand = write_jsonl(self.dir.name, "cand.json",
                           [{"bench": "b", "op": "stat", "wall_us": 50.0}])
        code, out = run_main([base, cand])
        self.assertEqual(code, 0)
        self.assertIn("IMPROVED", out)

    def test_change_inside_threshold_passes(self):
        base = write_jsonl(self.dir.name, "base.json",
                           [{"bench": "b", "op": "stat", "calls_per_sec": 1000.0}])
        cand = write_jsonl(self.dir.name, "cand.json",
                           [{"bench": "b", "op": "stat", "calls_per_sec": 950.0}])
        code, _ = run_main([base, cand])
        self.assertEqual(code, 0)

    def test_threshold_flag_tightens_the_gate(self):
        base = write_jsonl(self.dir.name, "base.json",
                           [{"bench": "b", "op": "stat", "calls_per_sec": 1000.0}])
        cand = write_jsonl(self.dir.name, "cand.json",
                           [{"bench": "b", "op": "stat", "calls_per_sec": 950.0}])
        code, _ = run_main(["--threshold", "0.01", base, cand])
        self.assertEqual(code, 1)

    def test_socketpair_parity_regresses_downward(self):
        base = write_jsonl(self.dir.name, "base.json",
                           [{"bench": "b", "check": "socketpair_ping_pong",
                             "socketpair_vs_pipe": 1.0}])
        cand = write_jsonl(self.dir.name, "cand.json",
                           [{"bench": "b", "check": "socketpair_ping_pong",
                             "socketpair_vs_pipe": 0.7}])
        code, out = run_main([base, cand])
        self.assertEqual(code, 1)
        self.assertIn("REGRESSED", out)

    def test_advisory_always_exits_zero(self):
        base = write_jsonl(self.dir.name, "base.json",
                           [{"bench": "b", "op": "stat", "calls_per_sec": 1000.0}])
        cand = write_jsonl(self.dir.name, "cand.json",
                           [{"bench": "b", "op": "stat", "calls_per_sec": 100.0}])
        code, out = run_main(["--advisory", base, cand])
        self.assertEqual(code, 0)
        self.assertIn("REGRESSED", out)
        self.assertIn("advisory", out)

    def test_missing_candidate_row_is_reported_not_fatal(self):
        base = write_jsonl(self.dir.name, "base.json",
                           [{"bench": "b", "op": "stat", "calls_per_sec": 1000.0},
                            {"bench": "b", "op": "open", "calls_per_sec": 500.0}])
        cand = write_jsonl(self.dir.name, "cand.json",
                           [{"bench": "b", "op": "stat", "calls_per_sec": 1000.0}])
        code, out = run_main([base, cand])
        self.assertEqual(code, 0)
        self.assertIn("row dropped from candidate", out)

    def test_new_candidate_row_is_reported(self):
        base = write_jsonl(self.dir.name, "base.json",
                           [{"bench": "b", "op": "stat", "calls_per_sec": 1000.0}])
        cand = write_jsonl(self.dir.name, "cand.json",
                           [{"bench": "b", "op": "stat", "calls_per_sec": 1000.0},
                            {"bench": "b", "op": "open", "calls_per_sec": 500.0}])
        code, out = run_main([base, cand])
        self.assertEqual(code, 0)
        self.assertIn("new row (no baseline)", out)

    def test_missing_metric_key_is_skipped(self):
        base = write_jsonl(self.dir.name, "base.json",
                           [{"bench": "b", "op": "stat", "calls_per_sec": 1000.0,
                             "wall_us": 10.0}])
        cand = write_jsonl(self.dir.name, "cand.json",
                           [{"bench": "b", "op": "stat", "calls_per_sec": 1000.0}])
        code, out = run_main([base, cand])
        self.assertEqual(code, 0)
        self.assertIn("1 metrics compared", out)

    def test_zero_baseline_metric_is_skipped(self):
        base = write_jsonl(self.dir.name, "base.json",
                           [{"bench": "b", "op": "stat", "calls_per_sec": 0.0}])
        cand = write_jsonl(self.dir.name, "cand.json",
                           [{"bench": "b", "op": "stat", "calls_per_sec": 1000.0}])
        code, out = run_main([base, cand])
        self.assertEqual(code, 0)
        self.assertIn("0 metrics compared", out)

    def test_skip_metrics_never_regress(self):
        base = write_jsonl(self.dir.name, "base.json",
                           [{"bench": "b", "op": "stat", "syscalls": 1000}])
        cand = write_jsonl(self.dir.name, "cand.json",
                           [{"bench": "b", "op": "stat", "syscalls": 1}])
        code, out = run_main([base, cand])
        self.assertEqual(code, 0)
        self.assertIn("0 metrics compared", out)

    def test_bad_json_raises_systemexit(self):
        path = os.path.join(self.dir.name, "broken.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"bench": "b"}\nnot json at all\n')
        ok = write_jsonl(self.dir.name, "ok.json", [{"bench": "b"}])
        with self.assertRaises(SystemExit) as ctx:
            bench_compare.load_rows(path)
        self.assertIn("not JSON", str(ctx.exception))
        # And the other order: a fine baseline, a broken candidate.
        old_argv = sys.argv
        sys.argv = ["bench_compare.py", ok, path]
        try:
            with self.assertRaises(SystemExit), redirect_stdout(io.StringIO()):
                bench_compare.main()
        finally:
            sys.argv = old_argv

    def test_unreadable_file_raises_systemexit(self):
        with self.assertRaises(SystemExit) as ctx:
            bench_compare.load_rows(os.path.join(self.dir.name, "absent.json"))
        self.assertIn("cannot read", str(ctx.exception))

    def test_blank_lines_are_ignored(self):
        path = os.path.join(self.dir.name, "gaps.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('\n{"bench": "b", "op": "stat", "wall_us": 5.0}\n\n')
        rows = bench_compare.load_rows(path)
        self.assertEqual(len(rows), 1)


if __name__ == "__main__":
    unittest.main()
