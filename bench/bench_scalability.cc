// Multi-client scalability benchmark — the gate for the big-lock breakup.
//
// N simulated client processes (1..64), each on its own host thread, run an
// identical stat/open/read/getpid mix against a shared kernel. Before the
// lock split every call serialized on the big kernel lock, so aggregate
// throughput was flat in N; with kPerProcess rows dispatching lock-free and
// kVfsRead rows walking under the shared-mode tree lock, throughput should
// scale with host cores.
//
// Self-checks (exit status is nonzero if any fails). The host-independent
// ones are enforced everywhere except under ThreadSanitizer:
//
//   - single_client_parity (the ring's row): a 1-client batch must reach
//     >= 0.95x of per-call issue.
//   - pay_per_use: a footprint-narrowed agent stack must beat the same stack
//     interested in the whole interface by >= 6.5x on a non-path mix.
//   - compiled_routes: that narrowed stack must dispatch within 1.03x of the
//     agentless kernel.
//   - socketpair_ping_pong: a socketpair transfer must reach >= 0.5x of the
//     same transfer over a pipe.
//
// The scaling gates need a host with enough hardware threads and report
// "skipped" (the rows are still printed and emitted) below it:
//
//   - 8-client speedup >= 2.5x over 1 client (>= 8 threads).
//   - batch_speedup_at_16: 16 ring clients >= 2x per-call issue (>= 16).
//
// Alongside the human table the bench emits one JSON object per line
// (clients/throughput/speedup and one per self-check) so future changes can
// track the scaling curve the way the Table 3-5 rows are tracked.
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/agents/chaos.h"
#include "src/apps/batch.h"
#include "src/agents/dfs_trace.h"
#include "src/agents/filter_fs.h"
#include "src/agents/retry.h"
#include "src/agents/sandbox.h"
#include "src/agents/txn.h"
#include "src/agents/union_fs.h"
#include "src/base/clock.h"
#include "src/kernel/context.h"
#include "src/kernel/kernel.h"
#include "src/toolkit/footprint.h"

// Under ThreadSanitizer the bench still runs in full (its job there is race
// coverage: N clients hammering every fast path), but the perf gates are not
// enforced — TSan's instrumentation taxes atomic-dense code hardest, which
// skews exactly the ratios the gates measure.
#if defined(__SANITIZE_THREAD__)
#define IA_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define IA_UNDER_TSAN 1
#endif
#endif
#ifndef IA_UNDER_TSAN
#define IA_UNDER_TSAN 0
#endif

namespace {

constexpr bool kUnderTsan = IA_UNDER_TSAN != 0;
constexpr int kClientCounts[] = {1, 2, 4, 8, 16, 32, 64};
constexpr int kFilesPerClient = 8;
constexpr int kIterations = 4000;  // mix iterations per client (9 syscalls each)
constexpr int kAttempts = 3;       // best-of-N against host scheduling noise
// The pay-per-use/compiled-route gates compare two sub-µs measurements whose
// ratio sits within a 3% margin, so the mix takes more attempts to converge on
// the true minimum than the coarser curve measurements need.
constexpr int kMixAttempts = 6;
constexpr double kSpeedupGateAt8 = 2.5;
// Tightened from 5.0 when dispatch moved to compiled routes: the narrowed
// stack no longer pays the per-frame interest scan, so the measured margin
// rose from ~5.9x to ~7.7x. 6.5 keeps headroom for host noise.
constexpr double kPayPerUseGate = 6.5;
// Compiled-route gate: with flattened routes, a footprint-narrowed 7-agent
// stack must dispatch a non-path per-process mix at bare-kernel speed — at
// most 3% over the agentless kernel (it was 1.06x under the per-frame scan).
constexpr double kCompiledRouteGate = 1.03;
// Ring gate: at 16 clients a batched mixed workload must clear 2x the
// per-call throughput of the identical call sequence — the amortized batch
// prologue (one clock advance / rusage update / stats flush per run) is what
// the submission ring buys under contention. Enforced on >= 16-core hosts.
constexpr double kRingGateAt16 = 2.0;
// Ring parity gate: at 1 client a batch must never LOSE to per-call issue.
// (It once did, 0.84x, when the batch prologue zeroed ~6KB of per-number
// stat arrays per flush.) Per-call issue is the dispatch core's count-1
// batch, so both sides run one code path and the gate measures what a run
// of entries adds over single calls. 0.95 leaves room for measurement noise
// only.
constexpr double kRingParityGateAt1 = 0.95;
// Iterations per client, scaled down as the client count grows so the
// many-client points (and TSan runs, which tax atomics hardest) stay
// time-bounded; throughput is per-second, so the curve is unaffected.
int ItersFor(int n, int base) {
  const int scaled = base * 8 / std::max(8, n);
  return kUnderTsan ? std::max(scaled / 4, 50) : scaled;
}

// Installs each client's private file set plus one shared read target.
void BuildTree(ia::Kernel& kernel, int max_clients) {
  kernel.fs().InstallFile("/etc/motd", std::string(512, 'm'));
  for (int c = 0; c < max_clients; ++c) {
    const std::string dir = "/data/c" + std::to_string(c);
    kernel.fs().MkdirAll(dir);
    for (int f = 0; f < kFilesPerClient; ++f) {
      kernel.fs().InstallFile(dir + "/f" + std::to_string(f), std::string(1024, 'x'));
    }
  }
}

// The per-client mix: 9 syscalls per iteration, all on the lock-free or
// shared-tree fast paths (getpid/gettimeofday per-process; stat/open/read/
// fstat/close read-only VFS). Clients mostly touch their own directory — the
// many-client regime the ROADMAP's "millions of users" north star implies —
// plus one shared hot file everyone stats.
int ClientBody(ia::ProcessContext& ctx, int id, const std::atomic<bool>* go,
               std::atomic<int>* ready, int iterations) {
  ready->fetch_add(1, std::memory_order_acq_rel);
  while (!go->load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  char buf[1024];
  ia::Stat st;
  ia::TimeVal tv;
  const std::string dir = "/data/c" + std::to_string(id);
  for (int it = 0; it < iterations; ++it) {
    const std::string file = dir + "/f" + std::to_string(it % kFilesPerClient);
    ctx.Getpid();
    ctx.Getpid();
    ctx.Gettimeofday(&tv, nullptr);
    if (ctx.Stat(file, &st) != 0 || ctx.Stat("/etc/motd", &st) != 0) {
      return 1;
    }
    const int fd = ctx.Open(file, ia::kORdonly);
    if (fd < 0 || ctx.Read(fd, buf, sizeof buf) != static_cast<int64_t>(sizeof buf)) {
      return 2;
    }
    if (ctx.Fstat(fd, &st) != 0 || ctx.Close(fd) != 0) {
      return 3;
    }
  }
  return 0;
}

struct Point {
  int clients = 0;
  int64_t syscalls = 0;
  double seconds = 0;
  double throughput = 0;  // syscalls per host-second, best attempt
};

// Runs one timed world: N client processes built by `make_body(id)` racing
// against a shared kernel, with a tree installed for N client directories.
// Returns the best-of-kAttempts point.
Point MeasureWorld(int n, const std::function<std::function<int(ia::ProcessContext&)>(
                              int, const std::atomic<bool>*, std::atomic<int>*)>& make_body) {
  Point best;
  best.clients = n;
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    ia::Kernel kernel;
    BuildTree(kernel, n);
    std::atomic<bool> go{false};
    std::atomic<int> ready{0};
    std::vector<ia::Pid> pids;
    pids.reserve(n);
    for (int c = 0; c < n; ++c) {
      ia::SpawnOptions options;
      options.body = make_body(c, &go, &ready);
      pids.push_back(kernel.Spawn(options));
    }
    while (ready.load(std::memory_order_acquire) < n) {
      std::this_thread::yield();
    }
    const int64_t calls_before = kernel.TotalSyscallCount();
    const int64_t start = ia::MonotonicMicros();
    go.store(true, std::memory_order_release);
    for (const ia::Pid pid : pids) {
      const int status = kernel.HostWaitPid(pid);
      if (!ia::WifExited(status) || ia::WExitStatus(status) != 0) {
        std::fprintf(stderr, "client %d failed (status %#x)\n", pid, status);
      }
    }
    const double seconds = static_cast<double>(ia::MonotonicMicros() - start) / 1e6;
    const int64_t syscalls = kernel.TotalSyscallCount() - calls_before;
    const double throughput = seconds > 0 ? static_cast<double>(syscalls) / seconds : 0;
    if (throughput > best.throughput) {
      best.syscalls = syscalls;
      best.seconds = seconds;
      best.throughput = throughput;
    }
  }
  return best;
}

Point MeasureClients(int n) {
  const int iterations = ItersFor(n, kIterations);
  return MeasureWorld(n, [iterations](int c, const std::atomic<bool>* go, std::atomic<int>* ready) {
    return [c, go, ready, iterations](ia::ProcessContext& ctx) {
      return ClientBody(ctx, c, go, ready, iterations);
    };
  });
}

// --- ring vs per-call: the batched mixed workload -----------------------------
//
// Each iteration opens a private file synchronously (its fd feeds the
// fd-keyed entries), then issues stat/fstat/lseek/read/getpid/close — either
// one call at a time or as a single ring batch through BatchClient. Both
// variants issue the identical 7-syscall sequence, so throughput is directly
// comparable; the ring variant pays the dispatch prologue once per batch.
int MixedClientBody(ia::ProcessContext& ctx, int id, const std::atomic<bool>* go,
                    std::atomic<int>* ready, bool via_ring, int iterations) {
  ready->fetch_add(1, std::memory_order_acq_rel);
  while (!go->load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  char buf[1024];
  ia::Stat st;
  ia::Stat fst;
  const std::string dir = "/data/c" + std::to_string(id);
  ia::BatchClient batch(ctx, 64);
  for (int it = 0; it < iterations; ++it) {
    const std::string file = dir + "/f" + std::to_string(it % kFilesPerClient);
    const int fd = ctx.Open(file, ia::kORdonly);
    if (fd < 0) {
      return 1;
    }
    if (via_ring) {
      batch.PushStat(file.c_str(), &st, 0);
      batch.PushFstat(fd, &fst, 1);
      batch.PushLseek(fd, 0, ia::kSeekSet, 2);
      batch.PushRead(fd, buf, sizeof buf, 3);
      batch.PushGetpid(4);
      batch.PushClose(fd, 5);
      if (batch.Flush() != 6 ||
          batch.completions()[3].result.rv[0] != static_cast<int64_t>(sizeof buf)) {
        return 2;
      }
    } else {
      if (ctx.Stat(file, &st) != 0 || ctx.Fstat(fd, &fst) != 0) {
        return 2;
      }
      ctx.Lseek(fd, 0, ia::kSeekSet);
      if (ctx.Read(fd, buf, sizeof buf) != static_cast<int64_t>(sizeof buf)) {
        return 3;
      }
      ctx.Getpid();
      ctx.Close(fd);
    }
  }
  return 0;
}

struct RingPoint {
  int clients = 0;
  double percall_tp = 0;
  double ring_tp = 0;
  double speedup = 0;
};

RingPoint MeasureRingPoint(int n) {
  const int iterations = ItersFor(n, kIterations / 2);
  const auto factory = [iterations](bool via_ring) {
    return [via_ring, iterations](int c, const std::atomic<bool>* go, std::atomic<int>* ready) {
      return [c, go, ready, via_ring, iterations](ia::ProcessContext& ctx) {
        return MixedClientBody(ctx, c, go, ready, via_ring, iterations);
      };
    };
  };
  RingPoint point;
  point.clients = n;
  point.percall_tp = MeasureWorld(n, factory(false)).throughput;
  point.ring_tp = MeasureWorld(n, factory(true)).throughput;
  point.speedup = point.percall_tp > 0 ? point.ring_tp / point.percall_tp : 0;
  return point;
}

// --- pay-per-use: footprint-narrowed stack vs the same stack full-interface ---
//
// A stack of seven real agents whose declared footprints (derived from the
// syscall table's abstraction flags) exclude the per-process rows. Under the
// narrowed stack a getpid/gettimeofday mix must skip every frame and ride the
// lock-free kPerProcess lane; forcing the identical stack to whole-interface
// interest via use_footprint(Footprint::All()) restores the pre-change regime
// where every call climbs all seven frames. The gate: narrowed throughput on
// the non-path mix >= 5x the full-interface throughput.
void BuildPayPerUseTree(ia::Kernel& kernel) {
  kernel.fs().MkdirAll("/tmp");
  kernel.fs().MkdirAll("/w");
  kernel.fs().MkdirAll("/r");
  kernel.fs().MkdirAll("/t");
  kernel.fs().MkdirAll("/z");
}

std::vector<ia::AgentRef> MakePayPerUseStack(bool force_full_interface) {
  std::vector<std::shared_ptr<ia::SymbolicSyscall>> stack;
  stack.push_back(std::make_shared<ia::ChaosAgent>(ia::FaultPlan{}));
  stack.push_back(std::make_shared<ia::RetryAgent>());
  stack.push_back(std::make_shared<ia::UnionAgent>(
      std::vector<ia::UnionMount>{{"/u", {"/w", "/r"}}}));
  stack.push_back(std::make_shared<ia::SandboxAgent>(ia::SandboxPolicy{}));
  stack.push_back(std::make_shared<ia::TxnAgent>("/t", "/tmp/.txn"));
  stack.push_back(std::make_shared<ia::CompressAgent>("/z"));
  stack.push_back(std::make_shared<ia::DfsTraceAgent>("/tmp/dfs.log"));
  std::vector<ia::AgentRef> agents;
  agents.reserve(stack.size());
  for (auto& agent : stack) {
    if (force_full_interface) {
      agent->use_footprint(ia::Footprint::All());
    }
    agents.push_back(agent);
  }
  return agents;
}

// --- socketpair vs pipe: same-process 512-byte push/pull ------------------
//
// The polymorphic FileBacking refactor put pipes and AF_UNIX sockets behind
// the same descriptor plane; the socket transfer path (peer-directed ring,
// shutdown/peer-close accounting) must stay in the pipe path's cost class,
// since it generalizes it. One iteration = one 512-byte write into one end
// plus one read draining the other, so neither ring ever fills and the
// measurement stays free of blocking.
constexpr double kSocketpairVsPipeGate = 0.5;

double MeasureTransferPairMicros(bool use_socketpair) {
  ia::Kernel kernel;
  double per_iter = 1e18;
  ia::SpawnOptions options;
  options.body = [use_socketpair, &per_iter](ia::ProcessContext& ctx) {
    int fds[2];
    const int err = use_socketpair
                        ? ctx.Socketpair(ia::kAfUnix, ia::kSockStream, 0, fds)
                        : ctx.Pipe(fds);
    if (err != 0) {
      return 1;
    }
    const int wr = use_socketpair ? fds[0] : fds[1];
    const int rd = use_socketpair ? fds[1] : fds[0];
    char buf[512];
    for (char& b : buf) {
      b = 'p';
    }
    const int iterations = kUnderTsan ? 4000 : 20000;
    constexpr int64_t kLen = static_cast<int64_t>(sizeof buf);
    for (int i = 0; i < 200; ++i) {  // warm up
      if (ctx.Write(wr, buf, kLen) != kLen || ctx.Read(rd, buf, kLen) != kLen) {
        return 2;
      }
    }
    const int64_t start = ia::MonotonicMicros();
    for (int i = 0; i < iterations; ++i) {
      if (ctx.Write(wr, buf, kLen) != kLen || ctx.Read(rd, buf, kLen) != kLen) {
        return 2;
      }
    }
    per_iter = static_cast<double>(ia::MonotonicMicros() - start) / iterations;
    return 0;
  };
  const int status = kernel.HostWaitPid(kernel.Spawn(options));
  if (!ia::WifExited(status) || ia::WExitStatus(status) != 0) {
    std::fprintf(stderr, "transfer-pair measurement process failed\n");
  }
  return per_iter;
}

enum class PayPerUseConfig { kNoAgents, kNarrowedStack, kFullStack };

struct PayPerUseResult {
  double best_us = 1e18;  // µs per 4-call mix iteration
  // Compiled-route counters from the last attempt's kernel (exact once the
  // measurement process has exited).
  int64_t route_lookups = 0;
  int64_t route_builds = 0;
};

PayPerUseResult MeasurePayPerUseMixOnce(PayPerUseConfig config) {
  const auto mix = [](ia::ProcessContext& ctx) {
    ctx.Getpid();
    ctx.Getpid();
    ctx.Getpid();
    ia::TimeVal tv;
    ctx.Gettimeofday(&tv, nullptr);
  };
  ia::Kernel kernel;
  BuildPayPerUseTree(kernel);
  std::vector<ia::AgentRef> agents;
  if (config != PayPerUseConfig::kNoAgents) {
    agents = MakePayPerUseStack(config == PayPerUseConfig::kFullStack);
  }
  PayPerUseResult result;
  result.best_us = ia::bench::MeasurePerCallMicros(kernel, agents, mix, 50000);
  const ia::Kernel::RouteCacheStats routes = kernel.RouteStats();
  result.route_lookups = routes.lookups;
  result.route_builds = routes.builds;
  return result;
}

// Measures all three configurations with their attempts interleaved
// (bare/narrowed/full round-robin) so host-speed drift during the measurement
// window lands on every configuration equally — the gates compare ratios
// within a few percent, where a drift that hits only one block would dominate.
void MeasurePayPerUseMixes(PayPerUseResult* bare, PayPerUseResult* narrowed,
                           PayPerUseResult* full) {
  const auto fold = [](PayPerUseResult* into, const PayPerUseResult& attempt) {
    into->best_us = std::min(into->best_us, attempt.best_us);
    into->route_lookups = attempt.route_lookups;
    into->route_builds = attempt.route_builds;
  };
  for (int attempt = 0; attempt < kMixAttempts; ++attempt) {
    fold(bare, MeasurePayPerUseMixOnce(PayPerUseConfig::kNoAgents));
    fold(narrowed, MeasurePayPerUseMixOnce(PayPerUseConfig::kNarrowedStack));
    fold(full, MeasurePayPerUseMixOnce(PayPerUseConfig::kFullStack));
  }
}

}  // namespace

int main() {
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("Multi-client scalability: %d iterations x 9 syscalls per client\n", kIterations);
  std::printf("(host has %u hardware threads; best of %d attempts per point)\n\n", cores,
              kAttempts);

  bool ok = true;

  // --- throughput curve -----------------------------------------------------
  std::vector<Point> curve;
  for (const int n : kClientCounts) {
    curve.push_back(MeasureClients(n));
  }
  const double base = curve.front().throughput;

  std::printf("  clients    syscalls    seconds    calls/sec     speedup\n");
  for (const Point& p : curve) {
    std::printf("  %7d  %10lld  %9.4f  %11.0f  %9.2fx\n", p.clients,
                static_cast<long long>(p.syscalls), p.seconds, p.throughput,
                base > 0 ? p.throughput / base : 0);
  }

  const Point* at8 = nullptr;
  for (const Point& p : curve) {
    if (p.clients == 8) {
      at8 = &p;
    }
  }
  const double speedup8 = (at8 != nullptr && base > 0) ? at8->throughput / base : 0;
  if (kUnderTsan) {
    std::printf("\n  gate: skipped (%.2fx at 8 clients; running under ThreadSanitizer,\n"
                "        which is a race-coverage run, not a perf run)\n",
                speedup8);
  } else if (cores >= 8) {
    std::printf("\n  gate: %.2fx at 8 clients (self-check: >= %.1fx)\n", speedup8,
                kSpeedupGateAt8);
    if (speedup8 < kSpeedupGateAt8) {
      std::printf("  FAIL: 8-client aggregate throughput below %.1fx of 1 client\n",
                  kSpeedupGateAt8);
      ok = false;
    }
  } else {
    std::printf("\n  gate: skipped (%.2fx at 8 clients; host has %u < 8 hardware threads,\n"
                "        so the kernel cannot scale past the machine)\n",
                speedup8, cores);
  }

  // --- ring: batched vs per-call issue --------------------------------------
  std::vector<RingPoint> ring_curve;
  for (const int n : {1, 4, 16, 64}) {
    ring_curve.push_back(MeasureRingPoint(n));
  }
  std::printf("\n  ring vs per-call (open + 6-op batch per iteration):\n");
  std::printf("    clients   per-call/sec       ring/sec    batched speedup\n");
  for (const RingPoint& p : ring_curve) {
    std::printf("    %7d  %13.0f  %13.0f  %15.2fx\n", p.clients, p.percall_tp, p.ring_tp,
                p.speedup);
  }
  const RingPoint* ring16 = nullptr;
  for (const RingPoint& p : ring_curve) {
    if (p.clients == 16) {
      ring16 = &p;
    }
  }
  const double ring_speedup16 = ring16 != nullptr ? ring16->speedup : 0;
  if (kUnderTsan) {
    std::printf("    gate: skipped (%.2fx batched at 16 clients; ThreadSanitizer run)\n",
                ring_speedup16);
  } else if (cores >= 16) {
    std::printf("    gate: %.2fx batched at 16 clients (self-check: >= %.1fx)\n",
                ring_speedup16, kRingGateAt16);
    if (ring_speedup16 < kRingGateAt16) {
      std::printf("    FAIL: batched submission below %.1fx of per-call throughput —\n"
                  "    the batch trap is not amortizing the dispatch prologue\n",
                  kRingGateAt16);
      ok = false;
    }
  } else {
    std::printf("    gate: skipped (%.2fx batched at 16 clients; host has %u < 16 hardware\n"
                "          threads, so contention never materializes)\n",
                ring_speedup16, cores);
  }

  // Single-client ring parity: batching must never lose to per-call issue.
  // Unlike the contention gates this needs no parallelism, so it is enforced
  // on every host (except under TSan). A single trial can swing several
  // percent from scheduler noise alone, so the gated number is the best of
  // three trials — a systematic regression depresses every trial, noise
  // does not.
  double ring_parity1 = 0;
  for (const RingPoint& p : ring_curve) {
    if (p.clients == 1) {
      ring_parity1 = p.speedup;
    }
  }
  for (int trial = 0; trial < 2 && ring_parity1 < kRingParityGateAt1; ++trial) {
    const double retry = MeasureRingPoint(1).speedup;
    if (retry > ring_parity1) {
      ring_parity1 = retry;
    }
  }
  if (kUnderTsan) {
    std::printf("    parity: skipped (%.2fx batched at 1 client; ThreadSanitizer run)\n",
                ring_parity1);
  } else {
    std::printf("    parity: %.2fx batched at 1 client (self-check: >= %.2fx)\n", ring_parity1,
                kRingParityGateAt1);
    if (ring_parity1 < kRingParityGateAt1) {
      std::printf("    FAIL: a single uncontended client loses by batching — the batch\n"
                  "    prologue costs more than the per-call dispatch it amortizes\n");
      ok = false;
    }
  }

  // --- pay-per-use: narrowed footprints vs whole-interface interest ---------
  PayPerUseResult bare_mix, narrowed_mix, full_mix;
  MeasurePayPerUseMixes(&bare_mix, &narrowed_mix, &full_mix);
  const double bare_mix_us = bare_mix.best_us;
  const double narrowed_mix_us = narrowed_mix.best_us;
  const double full_mix_us = full_mix.best_us;
  const double payperuse_speedup = narrowed_mix_us > 0 ? full_mix_us / narrowed_mix_us : 0;
  const double narrowed_vs_bare = bare_mix_us > 0 ? narrowed_mix_us / bare_mix_us : 0;
  const double route_hit_rate =
      narrowed_mix.route_lookups > 0
          ? 1.0 - static_cast<double>(narrowed_mix.route_builds) /
                      static_cast<double>(narrowed_mix.route_lookups)
          : 0;

  std::printf("\n  pay-per-use (getpid x3 + gettimeofday per iteration, 7-agent stack):\n");
  std::printf("    %-38s %10s %12s\n", "configuration", "µs/iter", "vs bare");
  std::printf("    %-38s %10.3f %11s\n", "no agents", bare_mix_us, "-");
  std::printf("    %-38s %10.3f %11.2fx\n", "stack, table-derived footprints",
              narrowed_mix_us, bare_mix_us > 0 ? narrowed_mix_us / bare_mix_us : 0);
  std::printf("    %-38s %10.3f %11.2fx\n", "same stack, forced whole-interface",
              full_mix_us, bare_mix_us > 0 ? full_mix_us / bare_mix_us : 0);
  if (kUnderTsan) {
    std::printf("    gate: skipped (%.2fx narrowed-vs-full; ThreadSanitizer run)\n",
                payperuse_speedup);
  } else {
    std::printf("    gate: %.2fx narrowed-vs-full throughput (self-check: >= %.1fx)\n",
                payperuse_speedup, kPayPerUseGate);
    if (payperuse_speedup < kPayPerUseGate) {
      std::printf("    FAIL: narrowed stack below %.1fx of the whole-interface stack —\n"
                  "    uninterested numbers are not skipping agent frames\n",
                  kPayPerUseGate);
      ok = false;
    }
  }

  // --- compiled routes: narrowed stack vs bare kernel -----------------------
  std::printf("\n  compiled routes (same mix, narrowed 7-agent stack vs no agents):\n");
  std::printf("    narrowed-vs-bare %.2fx; route cache: %lld lookups, %lld builds "
              "(%.4f%% hit rate)\n",
              narrowed_vs_bare, static_cast<long long>(narrowed_mix.route_lookups),
              static_cast<long long>(narrowed_mix.route_builds), route_hit_rate * 100);
  if (kUnderTsan) {
    std::printf("    gate: skipped (ThreadSanitizer run)\n");
  } else {
    std::printf("    gate: narrowed-vs-bare <= %.2fx (self-check: the route table must\n"
                "     make an all-uninterested dispatch indistinguishable from bare)\n",
                kCompiledRouteGate);
    if (narrowed_vs_bare > kCompiledRouteGate) {
      std::printf("    FAIL: narrowed stack more than %.0f%% over the agentless kernel —\n"
                  "    dispatch is scanning frames instead of following compiled routes\n",
                  (kCompiledRouteGate - 1) * 100);
      ok = false;
    }
  }

  // --- socketpair vs pipe: descriptor-plane transfer parity -----------------
  double pipe_us = 1e18;
  double sock_us = 1e18;
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    pipe_us = std::min(pipe_us, MeasureTransferPairMicros(false));
    sock_us = std::min(sock_us, MeasureTransferPairMicros(true));
  }
  const double socketpair_vs_pipe = sock_us > 0 ? pipe_us / sock_us : 0;
  std::printf("\n  socketpair vs pipe (512-byte write+read per iteration):\n");
  std::printf("    pipe %.3f µs/iter; socketpair %.3f µs/iter (%.2fx throughput)\n", pipe_us,
              sock_us, socketpair_vs_pipe);
  if (kUnderTsan) {
    std::printf("    gate: skipped (ThreadSanitizer run)\n");
  } else {
    std::printf("    gate: socketpair-vs-pipe >= %.2fx (self-check: the socket transfer\n"
                "     path must stay in the cost class of the pipe path it generalizes)\n",
                kSocketpairVsPipeGate);
    if (socketpair_vs_pipe < kSocketpairVsPipeGate) {
      std::printf("    FAIL: socket transfers below %.1fx of pipe throughput — the peer\n"
                  "    bookkeeping is dominating the ring copy\n",
                  kSocketpairVsPipeGate);
      ok = false;
    }
  }

  // --- machine-readable emission --------------------------------------------
  std::printf("\n");
  for (const Point& p : curve) {
    std::printf("{\"bench\":\"bench_scalability\",\"clients\":%d,\"syscalls\":%lld,"
                "\"seconds\":%.6f,\"throughput_calls_per_sec\":%.0f,\"speedup\":%.3f}\n",
                p.clients, static_cast<long long>(p.syscalls), p.seconds, p.throughput,
                base > 0 ? p.throughput / base : 0);
  }
  for (const RingPoint& p : ring_curve) {
    std::printf("{\"bench\":\"bench_ring\",\"clients\":%d,"
                "\"percall_calls_per_sec\":%.0f,\"ring_calls_per_sec\":%.0f,"
                "\"batched_speedup\":%.3f}\n",
                p.clients, p.percall_tp, p.ring_tp, p.speedup);
  }
  std::printf("{\"bench\":\"bench_ring\",\"check\":\"batch_speedup_at_16\","
              "\"speedup\":%.3f,\"gate\":%.1f,\"enforced\":%s}\n",
              ring_speedup16, kRingGateAt16,
              (!kUnderTsan && cores >= 16) ? "true" : "false");
  std::printf("{\"bench\":\"bench_ring\",\"check\":\"single_client_parity\","
              "\"speedup\":%.3f,\"gate\":%.2f,\"enforced\":%s}\n",
              ring_parity1, kRingParityGateAt1, !kUnderTsan ? "true" : "false");

  std::printf("{\"bench\":\"bench_scalability\",\"check\":\"pay_per_use\","
              "\"bare_us\":%.3f,\"narrowed_us\":%.3f,\"full_us\":%.3f,"
              "\"narrowed_vs_full\":%.3f}\n",
              bare_mix_us, narrowed_mix_us, full_mix_us, payperuse_speedup);
  std::printf("{\"bench\":\"bench_scalability\",\"check\":\"compiled_routes\","
              "\"bare_us\":%.3f,\"narrowed_us\":%.3f,\"narrowed_vs_bare\":%.3f,"
              "\"route_lookups\":%lld,\"route_builds\":%lld,\"route_hit_rate\":%.6f}\n",
              bare_mix_us, narrowed_mix_us, narrowed_vs_bare,
              static_cast<long long>(narrowed_mix.route_lookups),
              static_cast<long long>(narrowed_mix.route_builds), route_hit_rate);

  std::printf("{\"bench\":\"bench_scalability\",\"check\":\"socketpair_ping_pong\","
              "\"pipe_us\":%.3f,\"socketpair_us\":%.3f,\"socketpair_vs_pipe\":%.3f,"
              "\"gate\":%.2f,\"enforced\":%s}\n",
              pipe_us, sock_us, socketpair_vs_pipe, kSocketpairVsPipeGate,
              !kUnderTsan ? "true" : "false");

  std::printf("\n%s\n", ok ? "ALL SELF-CHECKS PASSED" : "SELF-CHECK FAILURES (see above)");
  return ok ? 0 : 1;
}
