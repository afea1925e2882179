// Multi-client scalability benchmark — the gate for the big-lock breakup.
//
// N simulated client processes (1..64), each on its own host thread, run an
// identical stat/open/read/getpid mix against a shared kernel. Before the
// lock split every call serialized on the big kernel lock, so aggregate
// throughput was flat in N; with process-local handlers taking no lock and
// path walks and regular-file I/O under the shared-mode tree lock,
// throughput should scale with host cores.
//
// Self-checks (exit status is nonzero if any fails), enforced on any host
// except under ThreadSanitizer. The two that
// compare configurations within a few percent (single_client_parity and
// compiled_routes) alternate their sides on one host thread for kGateRounds
// rounds and gate on the median of the per-round ratios, printing the
// ratios' spread; pay_per_use gates on the same rounds as compiled_routes:
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
// Reported, not gated: the 8-client speedup over 1 client and
// batch_speedup_at_16 (16 ring clients against per-call issue). Their gates
// (2.5x and 2x) needed 8 and 16 hardware threads and skipped themselves on
// every host this project has run on, so they were deleted; the rows are
// still printed and emitted, the latter with "enforced": false.
//
// Alongside the human table the bench emits one JSON object per line
// (clients/throughput/speedup and one per self-check) so future changes can
// track the scaling curve the way the Table 3-5 rows are tracked.
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <ctime>
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
#include "src/interpose/agent.h"
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

using ia::bench::PrintSpread;
using ia::bench::RatioSpread;
using ia::bench::Summarize;
using ia::bench::ThreadCpuMicros;

constexpr bool kUnderTsan = IA_UNDER_TSAN != 0;
constexpr int kClientCounts[] = {1, 2, 4, 8, 16, 32, 64};
constexpr int kFilesPerClient = 8;
constexpr int kIterations = 4000;  // mix iterations per client (9 syscalls each)
constexpr int kAttempts = 3;       // best-of-N against host scheduling noise
// The gates that compare two configurations: the host's single-thread speed
// drifts by up to 2x over minutes, which a best-of-N per side cannot cancel.
// So each gate measures its sides alternately for kGateRounds rounds, one
// sample of tens of ms per side per round, and gates on the median of the
// per-round ratios. A side's sample is the sum of kGateSlices slices
// interleaved with the other side's, each side going first as often as the
// other, so a drift within the round lands on both sides alike.
constexpr int kGateRounds = 15;
constexpr int kGateSlices = 8;
// Tightened from 5.0 when dispatch moved to compiled routes: the narrowed
// stack no longer pays the per-frame interest scan, so the measured margin
// rose from ~5.9x to ~7.7x. 6.5 keeps headroom for host noise.
constexpr double kPayPerUseGate = 6.5;
// Compiled-route gate: with flattened routes, a footprint-narrowed 7-agent
// stack must dispatch a non-path per-process mix at bare-kernel speed — at
// most 3% over the agentless kernel (it was 1.06x under the per-frame scan).
constexpr double kCompiledRouteGate = 1.03;
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

// Ring parity at 1 client: each round forks a fresh process (new stacks and
// buffers, so no one memory layout biases every round) that alternates
// per-call and ring issue of the mixed workload, ~25 ms per side in
// interleaved slices. Both issue the same calls, so the ratio of ring to
// per-call throughput is per-call CPU time over ring CPU time.
RatioSpread MeasureRingParity() {
  const int slice_iterations = kUnderTsan ? 25 : 1250;
  std::vector<double> ratios;
  const auto round_body = [&ratios, slice_iterations](ia::ProcessContext& ctx) {
    const std::atomic<bool> go{true};
    std::atomic<int> ready{0};
    double us[2] = {};  // [0] per-call, [1] ring
    for (int slice = 0; slice < 2 * kGateSlices; ++slice) {
      const bool via_ring = slice % 2 == (slice / 2) % 2;
      const int64_t start = ThreadCpuMicros();
      if (MixedClientBody(ctx, 0, &go, &ready, via_ring, slice_iterations) != 0) {
        return 1;
      }
      us[via_ring ? 1 : 0] += static_cast<double>(ThreadCpuMicros() - start);
    }
    ratios.push_back(us[1] > 0 ? us[0] / us[1] : 0);
    return 0;
  };
  ia::Kernel kernel;
  BuildTree(kernel, 1);
  ia::SpawnOptions options;
  options.body = [&round_body](ia::ProcessContext& ctx) {
    for (int round = 0; round < kGateRounds; ++round) {
      int status = 0;
      if (ctx.Wait4(ctx.Fork(round_body), &status, 0, nullptr) < 0 || status != 0) {
        return 1;
      }
    }
    return 0;
  };
  const int status = kernel.HostWaitPid(kernel.Spawn(options));
  if (!ia::WifExited(status) || ia::WExitStatus(status) != 0 || ratios.empty()) {
    std::fprintf(stderr, "parity client failed (status %#x)\n", status);
    ratios.assign(1, 0.0);
  }
  return Summarize(std::move(ratios));
}

// --- pay-per-use: footprint-narrowed stack vs the same stack full-interface ---
//
// A stack of seven real agents whose declared footprints (derived from the
// syscall table's abstraction flags) exclude the per-process rows. Under the
// narrowed stack a getpid/gettimeofday mix must skip every frame and reach
// the lock-free process-local handlers; forcing the identical stack to whole-interface
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

// The three mix configurations, alternated round by round: each round yields
// one narrowed-over-bare ratio for compiled_routes and one full-over-narrowed
// ratio for pay_per_use. All three run in one kernel as processes on one host
// thread, so they share its CPU and caches. Each round the root forks one
// fresh process per configuration (new stacks and heap, so no one memory
// layout biases every round); the narrowed and full ones install their
// stack. The root hands the turn to each in the slice's order (flipped every
// slice, bare and narrowed always adjacent) and yields until it is handed
// back. A round's slices sum to ~30 ms (bare, narrowed) and ~60 ms (full).
struct MixRounds {
  double bare_us = 0;  // per-configuration medians of CPU µs per iteration
  double narrowed_us = 0;
  double full_us = 0;
  RatioSpread narrowed_vs_bare;
  RatioSpread narrowed_vs_full;
  int64_t route_lookups = 0;  // summed over the narrowed processes
  int64_t route_builds = 0;
};

MixRounds MeasurePayPerUseMixes() {
  constexpr int kBare = static_cast<int>(PayPerUseConfig::kNoAgents);
  constexpr int kNarrowed = static_cast<int>(PayPerUseConfig::kNarrowedStack);
  constexpr int kFull = static_cast<int>(PayPerUseConfig::kFullStack);
  constexpr int kRoot = -1;
  const int fast_iterations = kUnderTsan ? 250 : 12500;  // per slice
  const int full_iterations = kUnderTsan ? 50 : 2500;
  const auto iterations_of = [&](int config) {
    return config == kFull ? full_iterations : fast_iterations;
  };

  // One host thread runs every process, so these need no synchronization.
  int turn = kRoot;
  int round = 0;
  std::vector<double> us[3];  // per configuration, per round: summed CPU µs
  for (std::vector<double>& each : us) {
    each.assign(kGateRounds, 0.0);
  }
  MixRounds out;
  const auto round_body = [&](int config) {
    return [&, config](ia::ProcessContext& ctx) {
      if (config != kBare) {
        for (const ia::AgentRef& agent : MakePayPerUseStack(config == kFull)) {
          ia::AgentHost::Install(ctx, agent);
        }
      }
      ia::TimeVal tv;
      const auto mix = [&ctx, &tv] {
        ctx.Getpid();
        ctx.Getpid();
        ctx.Getpid();
        ctx.Gettimeofday(&tv, nullptr);
      };
      for (int s = 0; s < kGateSlices; ++s) {
        while (turn != config) {
          ctx.Yield();
        }
        for (int i = 0; i < 50; ++i) {  // warm up
          mix();
        }
        const int64_t start = ThreadCpuMicros();
        for (int i = iterations_of(config); i > 0; --i) {
          mix();
        }
        us[config][static_cast<size_t>(round)] +=
            static_cast<double>(ThreadCpuMicros() - start);
        turn = kRoot;
      }
      if (config == kNarrowed) {
        out.route_lookups += ctx.emulation().route_lookups();
        out.route_builds += ctx.emulation().route_builds();
      }
      return 0;
    };
  };

  ia::Kernel kernel;
  BuildPayPerUseTree(kernel);
  ia::SpawnOptions options;
  options.body = [&](ia::ProcessContext& ctx) {
    for (round = 0; round < kGateRounds; ++round) {
      for (const int config : {kBare, kNarrowed, kFull}) {
        if (ctx.Fork(round_body(config)) < 0) {
          return 1;
        }
      }
      for (int s = 0; s < kGateSlices; ++s) {
        int order[] = {kBare, kNarrowed, kFull};
        if (s % 2 == round % 2) {
          std::reverse(std::begin(order), std::end(order));
        }
        for (const int config : order) {
          turn = config;
          while (turn != kRoot) {
            ctx.Yield();
          }
        }
      }
      int status = 0;
      while (ctx.Wait4(-1, &status, 0, nullptr) > 0) {
        if (status != 0) {
          return 1;
        }
      }
    }
    return 0;
  };
  const int status = kernel.HostWaitPid(kernel.Spawn(options));
  if (!ia::WifExited(status) || ia::WExitStatus(status) != 0) {
    std::fprintf(stderr, "pay-per-use measurement failed (status %#x)\n", status);
    return out;
  }
  std::vector<double> per_iteration[3];
  for (int config = 0; config < 3; ++config) {
    for (const double total : us[config]) {
      per_iteration[config].push_back(total / (iterations_of(config) * kGateSlices));
    }
  }
  std::vector<double> vs_bare, vs_full;
  for (int r = 0; r < kGateRounds; ++r) {
    const double bare = per_iteration[kBare][static_cast<size_t>(r)];
    const double narrowed = per_iteration[kNarrowed][static_cast<size_t>(r)];
    const double full = per_iteration[kFull][static_cast<size_t>(r)];
    vs_bare.push_back(bare > 0 ? narrowed / bare : 0);
    vs_full.push_back(narrowed > 0 ? full / narrowed : 0);
  }
  out.bare_us = Summarize(per_iteration[kBare]).median;
  out.narrowed_us = Summarize(per_iteration[kNarrowed]).median;
  out.full_us = Summarize(per_iteration[kFull]).median;
  out.narrowed_vs_bare = Summarize(std::move(vs_bare));
  out.narrowed_vs_full = Summarize(std::move(vs_full));
  return out;
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
  std::printf("\n  %.2fx at 8 clients (reported; host has %u hardware threads)\n", speedup8,
              cores);

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
  std::printf("    %.2fx batched at 16 clients (reported)\n", ring_speedup16);

  // Single-client ring parity: batching must never lose to per-call issue.
  // It needs no parallelism, so it is enforced on every host (except under
  // TSan), on the median of alternated rounds.
  const RatioSpread parity = MeasureRingParity();
  const double ring_parity1 = parity.median;
  if (kUnderTsan) {
    std::printf("    parity: skipped (%.2fx batched at 1 client; ThreadSanitizer run)\n",
                ring_parity1);
  } else {
    std::printf("    parity: %.2fx batched at 1 client (self-check: median >= %.2fx)\n",
                ring_parity1, kRingParityGateAt1);
    PrintSpread(parity, kGateRounds);
    if (ring_parity1 < kRingParityGateAt1) {
      std::printf("    FAIL: a single uncontended client loses by batching — the batch\n"
                  "    prologue costs more than the per-call dispatch it amortizes\n");
      ok = false;
    }
  }

  // --- pay-per-use: narrowed footprints vs whole-interface interest ---------
  const MixRounds mix = MeasurePayPerUseMixes();
  const double payperuse_speedup = mix.narrowed_vs_full.median;
  const double narrowed_vs_bare = mix.narrowed_vs_bare.median;
  const double route_hit_rate =
      mix.route_lookups > 0
          ? 1.0 - static_cast<double>(mix.route_builds) / static_cast<double>(mix.route_lookups)
          : 0;

  std::printf("\n  pay-per-use (getpid x3 + gettimeofday per iteration, 7-agent stack;\n"
              "  medians of %d alternated rounds):\n",
              kGateRounds);
  std::printf("    %-38s %10s %12s\n", "configuration", "µs/iter", "vs bare");
  std::printf("    %-38s %10.3f %11s\n", "no agents", mix.bare_us, "-");
  std::printf("    %-38s %10.3f %11.2fx\n", "stack, table-derived footprints", mix.narrowed_us,
              mix.bare_us > 0 ? mix.narrowed_us / mix.bare_us : 0);
  std::printf("    %-38s %10.3f %11.2fx\n", "same stack, forced whole-interface", mix.full_us,
              mix.bare_us > 0 ? mix.full_us / mix.bare_us : 0);
  if (kUnderTsan) {
    std::printf("    gate: skipped (%.2fx narrowed-vs-full; ThreadSanitizer run)\n",
                payperuse_speedup);
  } else {
    std::printf("    gate: %.2fx narrowed-vs-full throughput (self-check: median >= %.1fx)\n",
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
  std::printf("    narrowed-vs-bare %.3fx; route cache: %lld lookups, %lld builds "
              "(%.4f%% hit rate)\n",
              narrowed_vs_bare, static_cast<long long>(mix.route_lookups),
              static_cast<long long>(mix.route_builds), route_hit_rate * 100);
  if (kUnderTsan) {
    std::printf("    gate: skipped (ThreadSanitizer run)\n");
  } else {
    std::printf("    gate: narrowed-vs-bare median <= %.2fx (self-check: the route table\n"
                "     must make an all-uninterested dispatch indistinguishable from bare)\n",
                kCompiledRouteGate);
    PrintSpread(mix.narrowed_vs_bare, kGateRounds);
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
  // The deleted 2x gate's row keeps its keys, so bench_compare.py still
  // pairs it with earlier artifacts; "gate" is the old target.
  std::printf("{\"bench\":\"bench_ring\",\"check\":\"batch_speedup_at_16\","
              "\"speedup\":%.3f,\"gate\":2.0,\"enforced\":false}\n",
              ring_speedup16);
  std::printf("{\"bench\":\"bench_ring\",\"check\":\"single_client_parity\","
              "\"speedup\":%.3f,\"p25\":%.3f,\"p75\":%.3f,\"rounds\":%d,"
              "\"gate\":%.2f,\"enforced\":%s}\n",
              ring_parity1, parity.p25, parity.p75, kGateRounds, kRingParityGateAt1,
              !kUnderTsan ? "true" : "false");

  std::printf("{\"bench\":\"bench_scalability\",\"check\":\"pay_per_use\","
              "\"bare_us\":%.3f,\"narrowed_us\":%.3f,\"full_us\":%.3f,"
              "\"narrowed_vs_full\":%.3f}\n",
              mix.bare_us, mix.narrowed_us, mix.full_us, payperuse_speedup);
  std::printf("{\"bench\":\"bench_scalability\",\"check\":\"compiled_routes\","
              "\"bare_us\":%.3f,\"narrowed_us\":%.3f,\"narrowed_vs_bare\":%.3f,"
              "\"p25\":%.3f,\"p75\":%.3f,\"rounds\":%d,"
              "\"route_lookups\":%lld,\"route_builds\":%lld,\"route_hit_rate\":%.6f}\n",
              mix.bare_us, mix.narrowed_us, narrowed_vs_bare, mix.narrowed_vs_bare.p25,
              mix.narrowed_vs_bare.p75, kGateRounds, static_cast<long long>(mix.route_lookups),
              static_cast<long long>(mix.route_builds), route_hit_rate);

  std::printf("{\"bench\":\"bench_scalability\",\"check\":\"socketpair_ping_pong\","
              "\"pipe_us\":%.3f,\"socketpair_us\":%.3f,\"socketpair_vs_pipe\":%.3f,"
              "\"gate\":%.2f,\"enforced\":%s}\n",
              pipe_us, sock_us, socketpair_vs_pipe, kSocketpairVsPipeGate,
              !kUnderTsan ? "true" : "false");

  std::printf("\n%s\n", ok ? "ALL SELF-CHECKS PASSED" : "SELF-CHECK FAILURES (see above)");
  return ok ? 0 : 1;
}
