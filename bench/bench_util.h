// Shared harness pieces for the paper-table benchmarks.
//
// The paper's methodology is reproduced exactly where it is stated: workload
// tables (3-2, 3-3) report the average of nine successive runs after an initial
// discarded run; micro tables (3-4, 3-5) report per-operation microseconds from
// long in-process loops.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <functional>
#include <string>
#include <vector>

#include "src/base/clock.h"
#include "src/base/stats.h"
#include "src/interpose/agent.h"
#include "src/kernel/kernel.h"

namespace ia {
namespace bench {

struct WorkloadResult {
  double mean_seconds = 0;
  double stddev_seconds = 0;
  int64_t syscalls = 0;  // syscalls per run (from the last run)
  // Per-syscall dispatcher counter deltas across the last run (counts, errors,
  // virtual time). Snapshotted before/after via Kernel::SyscallStats(), so the
  // numbers attribute the workload's time to individual calls.
  std::array<SyscallStat, kMaxSyscall> stat_deltas{};
};

// Subtracts two SyscallStats() snapshots entry-wise.
inline std::array<SyscallStat, kMaxSyscall> DiffSyscallStats(
    const std::array<SyscallStat, kMaxSyscall>& before,
    const std::array<SyscallStat, kMaxSyscall>& after) {
  std::array<SyscallStat, kMaxSyscall> delta{};
  for (size_t i = 0; i < delta.size(); ++i) {
    delta[i].calls = after[i].calls - before[i].calls;
    delta[i].errors = after[i].errors - before[i].errors;
    delta[i].vtime_usec = after[i].vtime_usec - before[i].vtime_usec;
  }
  return delta;
}

using AgentFactory = std::function<std::vector<AgentRef>()>;

// Builds a fresh world, runs the workload once discarded + `runs` timed times.
// `setup` installs programs and input trees; `spawn` describes the client.
// Agents are constructed fresh per run (agents holding descriptors or frames are
// per-world objects).
inline WorkloadResult TimeWorkload(const std::function<void(Kernel&)>& setup,
                                   const SpawnOptions& spawn, const AgentFactory& factory,
                                   const KernelConfig& config, int runs = 9) {
  WorkloadResult result;
  RunningStats stats;
  for (int run = 0; run <= runs; ++run) {
    Kernel kernel(config);
    setup(kernel);
    const std::vector<AgentRef> agents = factory != nullptr ? factory() : std::vector<AgentRef>{};
    const int64_t calls_before = kernel.TotalSyscallCount();
    const auto stats_before = kernel.SyscallStats();
    const int64_t start = MonotonicMicros();
    const int status = agents.empty()
                           ? kernel.HostWaitPid(kernel.Spawn(spawn))
                           : RunUnderAgents(kernel, agents, spawn);
    const int64_t elapsed = MonotonicMicros() - start;
    if (!WifExited(status) || WExitStatus(status) != 0) {
      std::fprintf(stderr, "workload failed (status %#x)\n", status);
    }
    if (run == 0) {
      continue;  // paper: "after an initial run from which the time was discarded"
    }
    stats.Add(static_cast<double>(elapsed) / 1e6);
    result.syscalls = kernel.TotalSyscallCount() - calls_before;
    result.stat_deltas = DiffSyscallStats(stats_before, kernel.SyscallStats());
  }
  result.mean_seconds = stats.Mean();
  result.stddev_seconds = stats.StdDev();
  return result;
}

struct NamedConfig {
  std::string name;
  AgentFactory factory;  // null = no agent
};

// Times several agent configurations INTERLEAVED: one full discarded warm-up
// pass, then `runs` passes each visiting every configuration once. Interleaving
// cancels the allocator/page-cache drift that sequential blocks suffer from.
inline std::vector<WorkloadResult> TimeWorkloadsInterleaved(
    const std::function<void(Kernel&)>& setup, const SpawnOptions& spawn,
    const std::vector<NamedConfig>& configs, const KernelConfig& config, int runs = 9) {
  std::vector<RunningStats> stats(configs.size());
  std::vector<WorkloadResult> results(configs.size());
  for (int run = 0; run <= runs; ++run) {
    for (size_t i = 0; i < configs.size(); ++i) {
      Kernel kernel(config);
      setup(kernel);
      const std::vector<AgentRef> agents =
          configs[i].factory != nullptr ? configs[i].factory() : std::vector<AgentRef>{};
      const int64_t calls_before = kernel.TotalSyscallCount();
      const auto stats_before = kernel.SyscallStats();
      const int64_t start = MonotonicMicros();
      const int status = agents.empty()
                             ? kernel.HostWaitPid(kernel.Spawn(spawn))
                             : RunUnderAgents(kernel, agents, spawn);
      const int64_t elapsed = MonotonicMicros() - start;
      if (!WifExited(status) || WExitStatus(status) != 0) {
        std::fprintf(stderr, "workload failed under %s (status %#x)\n",
                     configs[i].name.c_str(), status);
      }
      if (run == 0) {
        continue;  // warm-up pass
      }
      stats[i].Add(static_cast<double>(elapsed) / 1e6);
      results[i].syscalls = kernel.TotalSyscallCount() - calls_before;
      results[i].stat_deltas = DiffSyscallStats(stats_before, kernel.SyscallStats());
    }
  }
  for (size_t i = 0; i < configs.size(); ++i) {
    // Median: one descheduled run must not swing a whole configuration.
    results[i].mean_seconds = stats[i].Median();
    results[i].stddev_seconds = stats[i].StdDev();
  }
  return results;
}

// Prints one row of a Tables 3-2/3-3 style report.
inline void PrintSlowdownRow(const std::string& agent_name, const WorkloadResult& result,
                             double baseline_seconds) {
  if (agent_name == "none") {
    std::printf("  %-12s %10.4f %8s   (±%.4f)  %8lld syscalls\n", agent_name.c_str(),
                result.mean_seconds, "-", result.stddev_seconds,
                static_cast<long long>(result.syscalls));
    return;
  }
  std::printf("  %-12s %10.4f %7.1f%%   (±%.4f)  %8lld syscalls\n", agent_name.c_str(),
              result.mean_seconds, PercentSlowdown(baseline_seconds, result.mean_seconds),
              result.stddev_seconds, static_cast<long long>(result.syscalls));
}

// Prints the `top_n` syscalls of a workload's per-syscall deltas, ranked by
// virtual time — where the workload's kernel time actually went. The dispatcher
// keeps these counters itself (lock-free, relaxed atomics), so the report costs
// the workload nothing.
inline void PrintTopSyscallDeltas(const std::string& label, const WorkloadResult& result,
                                  int top_n = 10) {
  std::vector<int> numbers;
  for (int number = 0; number < kMaxSyscall; ++number) {
    if (result.stat_deltas[static_cast<size_t>(number)].calls != 0) {
      numbers.push_back(number);
    }
  }
  std::sort(numbers.begin(), numbers.end(), [&result](int a, int b) {
    const auto& sa = result.stat_deltas[static_cast<size_t>(a)];
    const auto& sb = result.stat_deltas[static_cast<size_t>(b)];
    if (sa.vtime_usec != sb.vtime_usec) {
      return sa.vtime_usec > sb.vtime_usec;
    }
    return sa.calls > sb.calls;  // stable tie-break so the report is deterministic
  });
  if (numbers.size() > static_cast<size_t>(top_n)) {
    numbers.resize(static_cast<size_t>(top_n));
  }
  std::printf("\n  top %zu syscalls by virtual time, %s (last run):\n", numbers.size(),
              label.c_str());
  std::printf("    %10s %10s %14s  %s\n", "calls", "errors", "vtime(us)", "syscall");
  for (const int number : numbers) {
    const auto& stat = result.stat_deltas[static_cast<size_t>(number)];
    std::printf("    %10lld %10lld %14lld  %s\n", static_cast<long long>(stat.calls),
                static_cast<long long>(stat.errors), static_cast<long long>(stat.vtime_usec),
                std::string(SyscallName(number)).c_str());
  }
}

// Measures a per-call operation inside a simulated process: spawns a client that
// runs `op` `iterations` times and reports mean host-µs per operation.
inline double MeasurePerCallMicros(Kernel& kernel, const std::vector<AgentRef>& agents,
                                   const std::function<void(ProcessContext&)>& op,
                                   int iterations = 20000) {
  double per_call = 0;
  SpawnOptions options;
  options.body = [&op, &per_call, iterations](ProcessContext& ctx) {
    // Warm up.
    for (int i = 0; i < 200; ++i) {
      op(ctx);
    }
    const int64_t start = MonotonicMicros();
    for (int i = 0; i < iterations; ++i) {
      op(ctx);
    }
    per_call = static_cast<double>(MonotonicMicros() - start) / iterations;
    return 0;
  };
  const int status = agents.empty() ? kernel.HostWaitPid(kernel.Spawn(options))
                                    : RunUnderAgents(kernel, agents, options);
  if (!WifExited(status) || WExitStatus(status) != 0) {
    std::fprintf(stderr, "measurement process failed\n");
  }
  return per_call;
}

// CPU time of the calling host thread, in µs. The alternated gates charge
// each sample with it rather than wall time: on a shared, virtualized host a
// sample's wall time also counts the slices that other tenants and the
// hypervisor take, which swung single samples of one configuration by up to
// 2x. A simulated process does all its kernel work on its own host thread,
// so that thread's CPU time is the whole cost being compared.
inline int64_t ThreadCpuMicros() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000 + ts.tv_nsec / 1000;
}

// The per-round ratios of an alternated gate, summarized.
struct RatioSpread {
  double median = 0;
  double min = 0;
  double p25 = 0;
  double p75 = 0;
  double max = 0;
};

inline RatioSpread Summarize(std::vector<double> ratios) {
  std::sort(ratios.begin(), ratios.end());
  const auto at = [&ratios](double q) {
    return ratios[static_cast<size_t>(q * static_cast<double>(ratios.size() - 1) + 0.5)];
  };
  return RatioSpread{at(0.5), ratios.front(), at(0.25), at(0.75), ratios.back()};
}

inline void PrintSpread(const RatioSpread& s, int rounds) {
  std::printf("    %d rounds: median %.3fx, quartiles %.3f..%.3f, range %.3f..%.3f\n", rounds,
              s.median, s.p25, s.p75, s.min, s.max);
}

// Counts semicolons in a source file — the paper's statement metric ("Note: The
// actual metric used was to count semicolons").
int CountSemicolons(const std::string& host_path);
int CountSemicolonsInFiles(const std::vector<std::string>& relative_paths);

}  // namespace bench
}  // namespace ia

#endif  // BENCH_BENCH_UTIL_H_
