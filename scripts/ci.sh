#!/bin/sh
# The tier-1 gate, in one place: configure + build, run the full test suite,
# then run the whole suite again under ASan/UBSan and under TSan. Everything
# that must stay green before a change lands goes through here.
set -eu

cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure -j "$(nproc)"

# The bench-diff tool is load-bearing for the advisory perf reports below;
# its own unit tests (direction table, row pairing, exit codes) run first.
python3 scripts/test_bench_compare.py

# The fault sweep is a correctness gate, not just a benchmark: every implemented
# call must survive 25%-per-class injection, the fault stream must reproduce
# from its seed, and the make workload under retry+chaos — and under the
# narrowed chaos+retry+union stack — must build the exact fault-free output.
# (The hostile-ABI fuzz runs inside ctest as DecodeFuzz.*.)
./build/bench/bench_fault_sweep

# The containment gate at a second seed/rate point: a misbehaving frame under
# the 7-agent make stack must be quarantined deterministically and the build
# output must stay byte-identical to the stack without the faulty frame. (The
# default-seed gate already ran inside the full sweep above; this row proves
# the property is not an artifact of one seed.)
./build/bench/bench_fault_sweep --containment-only --agent-chaos=4242,0.6

# The end-to-end benchmark's output checks guard the dispatch core on every
# change: ringmix completion values, make output digests, and probe-span
# coverage. The probe recorder's own test runs first; then each workload gets
# a short traced run, which must report failed == 0 on its last (JSON) line.
# Timings from these runs are not compared.
python3 e2ebench/run.py --selftest
for workload in make andrew ringmix; do
  python3 e2ebench/run.py --workload "$workload" --seconds 2 --trace 1 \
    > "build/e2ebench_$workload.out"
  if ! tail -n 1 "build/e2ebench_$workload.out" |
      python3 -c 'import json, sys; sys.exit(json.load(sys.stdin)["failed"] != 0)'; then
    echo "ci.sh: e2ebench $workload reported failed runs"
    exit 1
  fi
done

# bench_scalability self-checks (the bench's header lists them). Enforced on
# any host: single_client_parity (a 1-client ring batch >= 0.95x of per-call
# issue), pay_per_use (a footprint-narrowed agent stack >= 6.5x the same stack
# forced to whole-interface interest), compiled_routes (that narrowed stack
# at most 3% over the agentless kernel) and socketpair_ping_pong (socketpair
# transfers >= 0.5x of pipe transfers). The 8-client curve speedup and the
# 16-client ring speedup are reported only: their gates needed 8 and 16
# hardware threads, skipped themselves on every host, and were deleted.
# All perf gates self-skip under TSan — this run is the enforced one.
#
# The stdout is teed and its JSON lines split into two repo-root artifacts:
# BENCH_scalability.json (curve + pay-per-use + route + socketpair rows) and
# BENCH_ring.json (batched-vs-per-call rows). bench_table33_make adds a third,
# BENCH_table33.json: the reported, ungated "more cores must not be slower"
# row (bare make on every CPU against bare make pinned to one CPU), and
# bench_dfstrace_compare a fourth, BENCH_dfstrace.json: the §3.5.3 rows
# (in-kernel ktrace against the dfs_trace agent on the Andrew workload,
# interleaved rounds charged in thread CPU time, with Compute() weighted and
# with no spin; its "much cheaper" check is reported, not enforced), and
# bench_namecache a fifth, BENCH_namecache.json: its enforced warm-speedup
# row and the reported 1- and 4-thread evicting miss-path rows (thread CPU
# per stat with the cache 2x oversubscribed). A
# previous artifact, if any, is kept as *.prev and diffed advisorily by
# scripts/bench_compare.py — a regression prints a warning but does not fail
# CI (wall-clock numbers are host-dependent; the enforced perf checks are the
# bench's own gates).
for artifact in BENCH_scalability.json BENCH_ring.json BENCH_table33.json BENCH_dfstrace.json \
    BENCH_namecache.json; do
  if [ -f "$artifact" ]; then
    mv "$artifact" "$artifact.prev"
  fi
done
./build/bench/bench_scalability | tee build/bench_scalability.out
grep '^{"bench":"bench_scalability"' build/bench_scalability.out > BENCH_scalability.json
grep '^{"bench":"bench_ring"' build/bench_scalability.out > BENCH_ring.json
./build/bench/bench_table33_make | tee build/bench_table33.out
grep '^{"bench":"bench_table33"' build/bench_table33.out > BENCH_table33.json
./build/bench/bench_dfstrace_compare | tee build/bench_dfstrace.out
grep '^{"bench":"bench_dfstrace"' build/bench_dfstrace.out > BENCH_dfstrace.json
./build/bench/bench_namecache | tee build/bench_namecache.out
grep '^{"bench":"bench_namecache"' build/bench_namecache.out > BENCH_namecache.json
for artifact in BENCH_scalability.json BENCH_ring.json BENCH_table33.json BENCH_dfstrace.json \
    BENCH_namecache.json; do
  if [ -f "$artifact.prev" ]; then
    python3 scripts/bench_compare.py --advisory "$artifact.prev" "$artifact" || true
  fi
done

scripts/check_sanitize.sh

# ThreadSanitizer is the proof that the big-lock breakup (handlers that take
# no lock or only the shared tree lock, lock-free name-cache reads) is
# actually race-free: full suite plus the multi-client scalability bench
# under TSan.
scripts/check_sanitize.sh --tsan

echo "ci.sh: build, tests, and sanitized tests all passed."
