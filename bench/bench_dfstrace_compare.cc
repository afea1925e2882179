// Section 3.5.3: "Comparison to a Best Available Implementation" — the in-kernel
// DFSTrace collection (compiled into the kernel syscall path; here src/kernel/
// ktrace) versus the agent-based dfs_trace on the Andrew-style filesystem
// benchmark, plus the code-size comparison.
//
//   Paper: in-kernel tracing 3.0% slowdown; agent-based 64% slowdown.
//          Code size: kernel-based 1627 statements (26 modified kernel files,
//          4 machine-dependent files/machine); agent-based 1584 statements,
//          no kernel modifications, machine independent.
//
// Shape claims: both collect equivalent file-reference records; the in-kernel
// implementation is much cheaper at run time; the agent implementation is
// comparable in size and required no kernel changes.
//
// Method: kRounds rounds after one discarded warm-up round; each round runs
// the three configurations (no tracing, in-kernel, agent) once each, in an
// order that rotates every round, each in a fresh world. A run is charged the
// CPU time of the host thread that runs the Andrew process (the process body
// reads it around AndrewMain), so other tenants' slices do not count. A
// configuration's slowdown is the median over rounds of its run's CPU time
// over the same round's untraced run. The "much cheaper" check is reported,
// not enforced. The rounds run twice: with Compute() weighted
// (compute_spin_scale 0.5, the busy client above) and with no spin at all,
// where the run is all file references and the agent's own cost is not
// hidden under the spin. Each gives one JSON row
// ({"bench":"bench_dfstrace",...}), reported only, that scripts/ci.sh stores
// in BENCH_dfstrace.json.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/agents/dfs_trace.h"
#include "src/apps/apps.h"
#include "src/kernel/ktrace.h"

namespace {

constexpr int kRounds = 15;

enum Config { kBare, kKtrace, kAgent, kConfigs };
constexpr const char* kConfigNames[kConfigs] = {"no tracing", "in-kernel (ktrace)",
                                                "agent (dfs_trace)"};

void Setup(ia::Kernel& kernel) {
  ia::InstallStandardPrograms(kernel);
  ia::SetupAndrewTree(kernel, "/usr/andrew", /*files=*/40, /*subdirs=*/5);
}

// The AFS benchmark the paper used does real work between file references;
// give Compute() weight so tracing cost is measured against a busy client.
constexpr double kBusySpin = 0.5;

// One Andrew run under `config` in a fresh world; returns the CPU µs of the
// process's host thread and stores the trace records it produced.
double RunOnce(Config config, double spin, int64_t* records) {
  ia::KernelConfig kernel_config;
  kernel_config.compute_spin_scale = spin;
  ia::Kernel kernel(kernel_config);
  Setup(kernel);
  // The original DFSTrace logged into a fixed-size kernel buffer, not an
  // unbounded one; the ring sink reproduces that (and keeps long runs from
  // growing without bound). Capacity is sized to hold a full Andrew run.
  ia::RingKtraceSink sink(1 << 16);
  if (config == kKtrace) {
    kernel.SetKtrace(&sink);
  }
  std::shared_ptr<ia::DfsTraceAgent> agent;
  std::vector<ia::AgentRef> agents;
  if (config == kAgent) {
    agent = std::make_shared<ia::DfsTraceAgent>("/tmp/dfs.log");
    agents.push_back(agent);
  }
  double cpu_us = 0;
  ia::SpawnOptions spawn;
  spawn.argv = {"andrew", "/usr/andrew", "/tmp/andrew"};
  spawn.body = [&cpu_us](ia::ProcessContext& ctx) {
    const int64_t start = ia::bench::ThreadCpuMicros();
    const int status = ia::AndrewMain(ctx);
    cpu_us = static_cast<double>(ia::bench::ThreadCpuMicros() - start);
    return status;
  };
  const int status = ia::RunUnderAgents(kernel, agents, spawn);
  if (!ia::WifExited(status) || ia::WExitStatus(status) != 0) {
    std::fprintf(stderr, "andrew failed under %s\n", kConfigNames[config]);
  }
  *records = 0;
  if (config == kKtrace) {
    *records = static_cast<int64_t>(sink.total_recorded());
    if (sink.dropped() != 0) {
      std::fprintf(stderr, "ktrace ring overflow: %llu records dropped\n",
                   static_cast<unsigned long long>(sink.dropped()));
    }
  } else if (config == kAgent) {
    *records = agent->records_written();
  }
  return cpu_us;
}

// kRounds rounds after one discarded warm-up, the configurations' order
// rotating every round.
struct Comparison {
  ia::bench::RatioSpread cpu[kConfigs];    // CPU µs per run
  ia::bench::RatioSpread ratio[kConfigs];  // over the same round's bare run
  int64_t records[kConfigs] = {};
};

Comparison Compare(double spin) {
  Comparison out;
  std::vector<double> cpu_us[kConfigs];
  std::vector<double> ratios[kConfigs];
  for (int round = 0; round <= kRounds; ++round) {
    double round_us[kConfigs] = {};
    for (int turn = 0; turn < kConfigs; ++turn) {
      const auto config = static_cast<Config>((round + turn) % kConfigs);
      round_us[config] = RunOnce(config, spin, &out.records[config]);
    }
    if (round == 0) {
      continue;  // warm-up: allocator and page-cache cold start
    }
    for (int config = 0; config < kConfigs; ++config) {
      cpu_us[config].push_back(round_us[config]);
      ratios[config].push_back(round_us[config] / round_us[kBare]);
    }
  }
  for (int config = 0; config < kConfigs; ++config) {
    out.cpu[config] = ia::bench::Summarize(cpu_us[config]);
    out.ratio[config] = ia::bench::Summarize(ratios[config]);
  }
  return out;
}

void PrintJsonRow(const char* check, const Comparison& c, bool much_cheaper) {
  std::printf("{\"bench\":\"bench_dfstrace\",\"check\":\"%s\",\"rounds\":%d,"
              "\"bare_cpu_us\":%.0f,\"ktrace_cpu_us\":%.0f,\"agent_cpu_us\":%.0f,"
              "\"ktrace_ratio\":%.3f,\"agent_ratio\":%.3f,\"ktrace_records\":%lld,"
              "\"agent_records\":%lld,\"much_cheaper\":%s,\"enforced\":false}\n",
              check, kRounds, c.cpu[kBare].median, c.cpu[kKtrace].median, c.cpu[kAgent].median,
              c.ratio[kKtrace].median, c.ratio[kAgent].median,
              static_cast<long long>(c.records[kKtrace]),
              static_cast<long long>(c.records[kAgent]), much_cheaper ? "true" : "false");
}

}  // namespace

int main() {
  std::printf("Section 3.5.3: DFSTrace — in-kernel vs agent-based file reference tracing\n");
  std::printf("(Andrew-style workload; paper: kernel 3.0%% vs agent 64%% slowdown)\n\n");

  const Comparison busy = Compare(kBusySpin);
  const ia::bench::RatioSpread* cpu = busy.cpu;
  const ia::bench::RatioSpread* ratio = busy.ratio;
  const int64_t* records = busy.records;

  std::printf("  %-22s %12s %10s %12s\n", "Configuration", "CPU ms", "Slowdown", "Records");
  std::printf("  %-22s %12.2f %10s %12s\n", kConfigNames[kBare], cpu[kBare].median / 1e3, "-",
              "-");
  for (const Config config : {kKtrace, kAgent}) {
    std::printf("  %-22s %12.2f %9.1f%% %12lld\n", kConfigNames[config],
                cpu[config].median / 1e3, (ratio[config].median - 1) * 100,
                static_cast<long long>(records[config]));
  }
  std::printf("  (compute_spin_scale %.1f; CPU time of the client's host thread, medians\n"
              "   over %d interleaved rounds; slowdown is the median per-round ratio to\n"
              "   the untraced run)\n",
              kBusySpin, kRounds);
  std::printf("  per-round ratio to untraced:\n");
  for (const Config config : {kKtrace, kAgent}) {
    std::printf("  %s\n", kConfigNames[config]);
    ia::bench::PrintSpread(ratio[config], kRounds);
  }

  // Code-size comparison (statements = semicolons, as in Table 3-1).
  const int kernel_stmts = ia::bench::CountSemicolonsInFiles(
      {"src/kernel/ktrace.h", "src/kernel/ktrace.cc"});
  // Plus the collection hook compiled into kernel.cc — count its share as the
  // records block (~30 statements); report the dedicated files and note it.
  const int agent_stmts = ia::bench::CountSemicolonsInFiles(
      {"src/agents/dfs_trace.h", "src/agents/dfs_trace.cc"});

  std::printf("\nCode size (semicolon statements; paper: kernel 1627 vs agent 1584):\n");
  std::printf("  in-kernel implementation: %4d statements + hooks inside kernel.cc,\n",
              kernel_stmts);
  std::printf("      requires modifying the kernel source (DoSyscall path)\n");
  std::printf("  agent implementation:     %4d statements, zero kernel modifications,\n",
              agent_stmts);
  std::printf("      loadable against unmodified binaries\n");

  // Reported, not enforced: the paper's gap is wide (3.0% vs 64%), but the
  // agent's per-call cost here is small enough that a gate could flap.
  const bool much_cheaper = ratio[kKtrace].p75 < ratio[kAgent].p25;
  std::printf("\nShape checks:\n");
  std::printf("  in-kernel tracing much cheaper than agent tracing:  %s\n",
              much_cheaper ? "yes" : "NO");
  std::printf("    (the in-kernel ratio's upper quartile below the agent's lower quartile)\n");
  std::printf("  both implementations collect the same event stream: %s\n",
              records[kKtrace] > 0 && records[kAgent] > 0 ? "yes" : "NO");

  PrintJsonRow("ktrace_vs_agent", busy, much_cheaper);

  // The same rounds with no spin: tracing's cost against the file
  // references alone. Reported only, like the row above.
  const Comparison bare = Compare(0);
  std::printf("\n  compute_spin_scale 0 (no Compute() spin), %d interleaved rounds:\n", kRounds);
  std::printf("  %-22s %12.2f %10s\n", kConfigNames[kBare], bare.cpu[kBare].median / 1e3, "-");
  for (const Config config : {kKtrace, kAgent}) {
    std::printf("  %-22s %12.2f %9.1f%%\n", kConfigNames[config],
                bare.cpu[config].median / 1e3, (bare.ratio[config].median - 1) * 100);
    ia::bench::PrintSpread(bare.ratio[config], kRounds);
  }
  PrintJsonRow("ktrace_vs_agent_spin0", bare,
               bare.ratio[kKtrace].p75 < bare.ratio[kAgent].p25);
  return 0;
}
