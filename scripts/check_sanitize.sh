#!/bin/sh
# Sanitizer gates, each in a dedicated build directory so the regular build's
# timings stay unskewed.
#
#   check_sanitize.sh          ASan + UBSan over the full test suite and the
#                              fault sweep (memory safety / UB)
#   check_sanitize.sh --tsan   ThreadSanitizer over the full test suite and
#                              bench_scalability — the proof that the big-lock
#                              breakup (handlers that take no lock or only
#                              the shared tree lock, lock-free name cache
#                              reads) is actually race-free under real
#                              multi-client interleavings
set -eu

cd "$(dirname "$0")/.."

MODE="${1:-asan}"

case "$MODE" in
  --tsan|tsan)
    BUILD_DIR=build-tsan

    cmake -B "$BUILD_DIR" -S . -DIA_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
    cmake --build "$BUILD_DIR" -j "$(nproc)"

    # halt_on_error: the first race report fails the run loudly instead of
    # letting later tests mask it.
    TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1 \
      ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

    # The submission ring is the one lock-free queue; hammer its
    # three-thread unit test (producer, drainer, reaper over the derived
    # in-flight count) and its stress and determinism tests a few extra
    # rounds so short races get more chances to interleave. StripeStress.*
    # are the direct stress tests of the tree rwlock (shared readers against
    # each other and against exclusive writers), so they repeat too, as does
    # FastLaneDeterminism.* (4 clients off the big lock under one fault plan
    # and one ktrace sink: the injector's and ktrace_mu_'s leaf locks), and so
    # do WaitChannels.* (each sleeper class against its waker; the racing
    # case runs every sleeper against its waker with no host sleep, many
    # rounds) and Fibers.* (fork/exec/wait4 trees switching fibers on one
    # host thread, two roots on two, and Yield), and ProcessOwnership.* (two
    # roots on two host threads across the only cross-process edges, the big
    # lock and single-word atomics: a cred writer off the big lock or a
    # signal counted at its post is a race), and the two one-inode appender
    # tests (O_APPEND writers against stat/fstat/lseek/read on the same
    # inode, and O_APPEND writevs: every access to a file's bytes under the
    # shared tree lock must hold the inode's data_mu), and the getdirentries
    # stress (listings under the shared tree lock against creates and
    # unlinks in the same directory), and VirtualTime.* (each host's clock
    # written by its own thread only, with cross-host merges through pipes
    # and wakeups), and the shared-lane creator tests (O_CREAT races on one
    # name, creators against stat/open/getdirentries walkers in one
    # directory, O_TRUNC opens against appenders, and a pathname agent's
    # cwd scan against creates: every reader of a directory's entries under
    # the shared tree lock must hold its data_mu), and the name cache's
    # eviction-churn twin (the dispatch core's reclaim of the cache's
    # garbage under mu_ and the exclusive tree lock, after a batch with no
    # lock held), and spawns whose cwd walk, under mu_ alone, reads cache
    # nodes that a running root's batches evict and reclaim, and four roots
    # missing, inserting, evicting and re-mapping across the name cache's
    # writer shards while a fifth creates and unlinks (each shard's mutex
    # against the others, the batch-end reclaim and InvalidateDir), and the
    # tree-lock keeping tests (a batch keeps one shared hold across its
    # entries until a handler takes mu_). World sizes self-cap under
    # TSan (the tests read __has_feature(thread_sanitizer) via
    # IA_TEST_UNDER_TSAN), so this stays fast even with the instrumentation
    # slowdown.
    TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1 \
      "$BUILD_DIR"/tests/ia_tests \
      --gtest_filter='RingUnit.WraparoundAcrossProducerDrainerAndReaperThreads:RingStress.*:RingDeterminism.*:StripeStress.*:FastLaneDeterminism.*:WaitChannels.*:Fibers.*:ProcessOwnership.*:ConcurrencyStress.AppendersReaderAndStatShareOneInode:ConcurrencyStress.AppendWritevRecordsStayContiguous:ConcurrencyStress.GetdirentriesAgainstCreatesAndUnlinks:VirtualTime.*:ConcurrencyStress.SameNameCreatesOpenOneInode:ConcurrencyStress.CreatorsAndWalkersShareOneDirectory:ConcurrencyStress.TruncatingOpensConserveBytes:ConcurrencyStress.RelativePathStatThroughPathnameAgentAgainstCreates:NameCacheKernel.KeepsCachingAfterEvictionChurnWithoutMutation:NameCacheKernel.SpawnWalksAgainstBatchReclaim:NameCacheKernel.ShardsChurnUnderFourRootsAndACreator:TreeLockKeeping.*' \
      --gtest_repeat=3

    # The socket plane is the newest blocking subsystem: channel sleeps under
    # the big lock, cross-process peer close/EOF accounting, accept racing
    # client-side slams, and pathname rendezvous against VFS churn. Repeat the
    # stress suite so those races get extra interleavings.
    TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1 \
      "$BUILD_DIR"/tests/ia_tests \
      --gtest_filter='SocketStress.*:Sockets.*' \
      --gtest_repeat=3

    # The scalability bench is the densest source of cross-client
    # interleavings (N clients hammering the fast paths at full speed). It
    # detects TSan and skips its perf gates — this run is for race coverage,
    # not timing.
    TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1 \
      "$BUILD_DIR"/bench/bench_scalability

    # The containment gate under TSan: breakers tripping concurrently across
    # the make workload's process tree (quarantine re-narrows, health-registry
    # snapshots, ktrace containment records) must be race-free too.
    TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1 \
      "$BUILD_DIR"/bench/bench_fault_sweep --containment-only

    echo "TSan test suite + scalability bench + containment gate passed."
    ;;
  --asan|asan)
    BUILD_DIR=build-sanitize

    cmake -B "$BUILD_DIR" -S . -DIA_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
    cmake --build "$BUILD_DIR" -j "$(nproc)"

    # halt_on_error: the first sanitizer report fails the run loudly instead of
    # letting later tests mask it.
    ASAN_OPTIONS=halt_on_error=1 \
    UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
      ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

    # The fault sweep under the sanitizers: injected errnos, EINTR, short
    # transfers, and the chaos/retry composition must not mask a single leak
    # or UB.
    ASAN_OPTIONS=halt_on_error=1 \
    UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
      "$BUILD_DIR"/bench/bench_fault_sweep

    echo "Sanitized test suite passed."
    ;;
  *)
    echo "usage: $0 [--asan|--tsan]" >&2
    exit 2
    ;;
esac
