// Table 3-3: "Time to make 8 programs" — a syscall-heavy, multi-process workload
// (64 fork/exec pairs in the paper) run bare and under three agents.
//
//   Paper (25 MHz i486, base 16.0 s):
//     none   16.0 s        -
//     timex  19.0 s      +19%
//     union  29.0 s      +82%
//     trace  33.0 s     +107%
//
// Shape claims: syscall-dense multi-process work makes agent overhead large;
// ordering none < timex < union < trace; fork/exec propagation dominates even
// the minimal (timex) agent's overhead.
//
// A second report, "more cores must not be slower": bare make on every CPU
// the process may use, interleaved with bare make pinned to one CPU, and the
// ratio of their medians. One JSON line (`{"bench":"bench_table33",...}`)
// carries it; scripts/ci.sh keeps it as BENCH_table33.json. Reported, not
// gated.
#include <sched.h>

#include <cstdio>

#include "bench/bench_util.h"
#include "src/agents/timex.h"
#include "src/agents/trace.h"
#include "src/agents/union_fs.h"
#include "src/apps/apps.h"

namespace {

void Setup(ia::Kernel& kernel) {
  ia::InstallStandardPrograms(kernel);
  ia::SetupMakeWorkload(kernel, /*programs=*/8);
}

// Bare make on all allowed CPUs against bare make pinned to the first of
// them, `runs` interleaved pairs, medians. Every simulated process is a host
// thread, and threads inherit the CPU affinity of their creator, so pinning
// this thread before each world is built pins that whole run. Each sample is
// TimeWorkload's timed run after its own discarded one.
void ReportMoreCoresNotSlower(const ia::KernelConfig& config, const ia::SpawnOptions& spawn,
                              int runs = 9) {
  cpu_set_t all;
  CPU_ZERO(&all);
  if (sched_getaffinity(0, sizeof(all), &all) != 0) {
    std::perror("sched_getaffinity");
    return;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &all)) {
      CPU_SET(cpu, &one);
      break;
    }
  }
  ia::RunningStats all_stats;
  ia::RunningStats one_stats;
  for (int run = 0; run < runs; ++run) {
    all_stats.Add(ia::bench::TimeWorkload(Setup, spawn, nullptr, config, 1).mean_seconds);
    sched_setaffinity(0, sizeof(one), &one);
    one_stats.Add(ia::bench::TimeWorkload(Setup, spawn, nullptr, config, 1).mean_seconds);
    sched_setaffinity(0, sizeof(all), &all);
  }
  const int cpus = CPU_COUNT(&all);
  const double ratio = all_stats.Median() / one_stats.Median();
  std::printf("\nMore cores must not be slower (bare make, median of %d interleaved pairs):\n",
              runs);
  std::printf("  %d CPUs %.4f s, 1 CPU %.4f s, ratio %.2fx\n", cpus, all_stats.Median(),
              one_stats.Median(), ratio);
  std::printf("{\"bench\":\"bench_table33\",\"check\":\"more_cores_not_slower\",\"cpus\":%d,"
              "\"all_cpus_seconds\":%.4f,\"one_cpu_seconds\":%.4f,\"all_vs_one\":%.3f,"
              "\"enforced\":false}\n",
              cpus, all_stats.Median(), one_stats.Median(), ratio);
}

}  // namespace

int main() {
  ia::KernelConfig config;
  // The build does some real work per phase, but is dominated by system calls
  // and process management, like the paper's run.
  config.compute_spin_scale = 0.15;

  ia::SpawnOptions spawn;
  spawn.path = "/bin/make";
  spawn.argv = {"make"};
  spawn.cwd = "/home/mbj/progs";

  const std::vector<ia::UnionMount> mounts = {{"/union", {"/usr/lib", "/usr/bin"}}};
  const std::vector<ia::bench::NamedConfig> configs = {
      {"none", nullptr},
      {"timex",
       [] { return std::vector<ia::AgentRef>{std::make_shared<ia::TimexAgent>(3600)}; }},
      {"union",
       [&mounts] {
         return std::vector<ia::AgentRef>{std::make_shared<ia::UnionAgent>(mounts)};
       }},
      {"trace",
       [] {
         return std::vector<ia::AgentRef>{std::make_shared<ia::TraceAgent>(
             ia::TraceOptions{.log_path = "/tmp/t.log"})};
       }},
  };

  std::printf("Table 3-3: Time to make 8 programs\n");
  std::printf("(average of 9 interleaved runs after 1 discarded; paper: +19%% / +82%% / +107%%)\n\n");
  std::printf("  %-12s %10s %8s\n", "Agent Name", "Seconds", "Slowdown");

  const std::vector<ia::bench::WorkloadResult> results =
      ia::bench::TimeWorkloadsInterleaved(Setup, spawn, configs, config);
  const double baseline = results[0].mean_seconds;
  for (size_t i = 0; i < configs.size(); ++i) {
    ia::bench::PrintSlowdownRow(configs[i].name, results[i], baseline);
  }

  // Where the build's kernel time goes: the dispatcher's own per-syscall
  // counters, bare vs under the heaviest agent. For a fork/exec-dense workload
  // the process-management calls should dominate both columns, and the trace
  // column shows what interposition adds on top.
  ia::bench::PrintTopSyscallDeltas("bare", results[0]);
  ia::bench::PrintTopSyscallDeltas("under trace", results[3]);

  ReportMoreCoresNotSlower(config, spawn);
  return 0;
}
