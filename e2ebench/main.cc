// The end-to-end benchmark program: runs one seeded workload for a fixed time
// and prints its metrics. The last line of stdout is one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, timed from outside
// the layers over whole iterations. With --trace 1 the run spends half its
// time untraced and half with the probe agents installed, and the metrics
// are the per-layer ones (see README.md for what each should move).
//
//   e2ebench --workload make|andrew|ringmix --seed N --seconds S --trace 0|1
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "e2ebench/probe.h"
#include "e2ebench/workloads.h"

namespace e2ebench {
namespace {

// Iterations every phase runs even when the time budget is spent: enough for
// each tail block (see BlockTail) to have ten iterations beyond its tail.
constexpr size_t kMinIterations = 60;

template <typename T>
double Median(std::vector<T> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// The highest percentile with at least ten samples beyond it, capped at the
// 99th so per-call tails over millions of spans stay meaningful. Returns the
// value and stores the percentile it sits at.
template <typename T>
double Tail(std::vector<T> v, double* percentile = nullptr) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  size_t rank = n > 10 ? n - 11 : 0;
  rank = std::min(rank, static_cast<size_t>(std::ceil(0.99 * static_cast<double>(n))) - 1);
  if (percentile != nullptr) {
    *percentile = 100.0 * static_cast<double>(rank + 1) / static_cast<double>(n);
  }
  return v[rank];
}

// The iteration-time tail: the run is cut into kTailBlocks consecutive
// blocks, each block's Tail is taken, and the median of those is reported,
// so one burst of host interference moves one block, not the result.
constexpr size_t kTailBlocks = 3;

double BlockTail(const std::vector<double>& v, double* percentile) {
  std::vector<double> tails;
  std::vector<double> percentiles;
  const size_t block = v.size() / kTailBlocks;
  for (size_t b = 0; b < kTailBlocks; ++b) {
    const auto first = v.begin() + static_cast<std::ptrdiff_t>(b * block);
    const auto last = b + 1 == kTailBlocks ? v.end() : first + static_cast<std::ptrdiff_t>(block);
    double pct = 0;
    tails.push_back(Tail(std::vector<double>(first, last), &pct));
    percentiles.push_back(pct);
  }
  *percentile = Median(percentiles);
  return Median(tails);
}

template <typename T>
double Sum(const std::vector<T>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
}

// Peak resident set of this process image. Not getrusage's ru_maxrss: Linux
// carries that across execve, so it would report the launcher's peak when the
// launcher is larger.
double MaxRssMb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) {
    return 0;
  }
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) {
      break;
    }
  }
  std::fclose(status);
  return static_cast<double>(kib) / 1024.0;
}

// Kernel counters over a phase, read from the snapshot APIs around each
// iteration. Reading them costs nothing, so every phase does; the per-layer
// counts come from the untraced phase, whose agent stacks are the program's
// own rather than the probed ones.
struct Counters {
  std::array<int64_t, kNumClasses> class_calls{};
  int64_t errors = 0;
  ia::NameCacheStats cache;
  int64_t route_lookups = 0;
  int64_t route_builds = 0;
  int64_t contained_faults = 0;
};

// Span-derived per-layer totals over a traced phase.
struct LayerTotals {
  std::array<std::vector<float>, kNumClasses> class_us;
  std::vector<float> wake_us;
  double kernel_busy_us = 0;
  int64_t top_spans = 0;
  int64_t bottom_spans = 0;
  int64_t downcalls = 0;
  std::vector<float> self_us;
  std::vector<float> app_us;
  int64_t app_calls = 0;
  std::vector<double> flush_us;
  int64_t ring_entries = 0;
  std::vector<double> sync_us;
};

struct Phase {
  std::vector<double> setup_s;
  std::vector<double> run_s;
  std::vector<double> cpu_s;
  std::vector<SetupTimes> setup_parts;
  std::vector<int64_t> calls;  // kernel calls per iteration
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> errors;
  // Kernel calls the bottom probe did not see, per traced iteration.
  std::vector<int64_t> unaccounted;
  Counters counters;
  LayerTotals layers;
};

// Adds the iteration's counter deltas to `c` and returns the calls
// SyscallStats counted.
int64_t FoldCounters(ia::Kernel& kernel,
                     const std::array<ia::SyscallStat, ia::kMaxSyscall>& stats_before,
                     const ia::NameCacheStats& cache_before, Counters* c) {
  const auto stats = kernel.SyscallStats();
  int64_t calls = 0;
  for (int n = 0; n < ia::kMaxSyscall; ++n) {
    const int64_t delta = stats[n].calls - stats_before[n].calls;
    calls += delta;
    c->class_calls[ClassOf(n)] += delta;
    c->errors += stats[n].errors - stats_before[n].errors;
  }
  const ia::NameCacheStats cache = kernel.CacheStats();
  c->cache.hits += cache.hits - cache_before.hits;
  c->cache.negative_hits += cache.negative_hits - cache_before.negative_hits;
  c->cache.misses += cache.misses - cache_before.misses;
  c->cache.evictions += cache.evictions - cache_before.evictions;
  // A fresh world per iteration: route and containment counters start at 0.
  const auto routes = kernel.RouteStats();
  c->route_lookups += routes.lookups;
  c->route_builds += routes.builds;
  const ia::AgentContainmentStats contained = kernel.ContainmentStats();
  c->contained_faults += contained.traps + contained.garbled + contained.overruns;
  return calls;
}

// Folds the iteration's spans into the phase; `stat_calls` is the iteration's
// SyscallStats call delta, against which the bottom probe's spans are counted.
void FoldSpansOfIteration(Workload& workload, SpanRecorder* recorder, int64_t stat_calls,
                          Phase* phase) {
  LayerTotals& t = phase->layers;
  const SpanFold fold = FoldSpans(recorder->Drain());
  t.top_spans += fold.top_spans;
  t.bottom_spans += fold.bottom_spans;
  t.downcalls += fold.downcalls;
  t.self_us.insert(t.self_us.end(), fold.self_us.begin(), fold.self_us.end());
  t.app_us.insert(t.app_us.end(), fold.top_us.begin(), fold.top_us.end());
  t.app_calls += fold.top_spans;
  t.wake_us.insert(t.wake_us.end(), fold.wake_us.begin(), fold.wake_us.end());
  for (int c = 0; c < kNumClasses; ++c) {
    t.class_us[c].insert(t.class_us[c].end(), fold.bottom_us[c].begin(), fold.bottom_us[c].end());
    t.kernel_busy_us += Sum(fold.bottom_us[c]);
  }
  phase->unaccounted.push_back(stat_calls - fold.bottom_spans);

  // Agent-free clients: their own spans around the ring and synchronous calls.
  const RingSpans ring = workload.TakeRingSpans();
  t.flush_us.insert(t.flush_us.end(), ring.flush_us.begin(), ring.flush_us.end());
  t.ring_entries += std::accumulate(ring.flush_entries.begin(), ring.flush_entries.end(), 0LL);
  t.sync_us.insert(t.sync_us.end(), ring.sync_us.begin(), ring.sync_us.end());
  for (size_t i = 0; i < ring.sync_us.size(); ++i) {
    t.class_us[ClassOf(ring.sync_numbers[i])].push_back(ring.sync_us[i]);
  }
  t.kernel_busy_us += Sum(ring.flush_us) + Sum(ring.sync_us);
  t.app_calls += static_cast<int64_t>(ring.flush_us.size() + ring.sync_us.size());
  t.app_us.insert(t.app_us.end(), ring.flush_us.begin(), ring.flush_us.end());
  t.app_us.insert(t.app_us.end(), ring.sync_us.begin(), ring.sync_us.end());
}

// Runs closed-loop iterations, each in a fresh world, until `seconds` have
// passed and at least kMinIterations have run.
void RunPhase(Workload& workload, SpanRecorder* recorder, double seconds, Phase* phase) {
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  while (NowNs() < deadline || phase->run_s.size() < kMinIterations) {
    SetupTimes parts;
    const int64_t setup_start = NowNs();
    workload.Build(recorder, &parts);
    const double setup_s = static_cast<double>(NowNs() - setup_start) / 1e9;

    ia::Kernel& kernel = workload.kernel();
    const int64_t calls_before = kernel.TotalSyscallCount();
    const auto stats_before = kernel.SyscallStats();
    const ia::NameCacheStats cache_before = kernel.CacheStats();
    std::string error;
    const double cpu_start = CpuSeconds();
    const int64_t run_start = NowNs();
    bool ok = workload.Run(&error);
    const double run_s = static_cast<double>(NowNs() - run_start) / 1e9;
    const double cpu_s = CpuSeconds() - cpu_start;
    ok = ok && workload.Check(&error);
    const int64_t calls = kernel.TotalSyscallCount() - calls_before;
    const int64_t stat_calls = FoldCounters(kernel, stats_before, cache_before, &phase->counters);
    if (recorder != nullptr) {
      FoldSpansOfIteration(workload, recorder, stat_calls, phase);
    }
    workload.Teardown();

    ++phase->attempted;
    if (!ok) {
      ++phase->failed;
      if (phase->errors.size() < 5) {
        phase->errors.push_back(error);
      }
    }
    phase->setup_s.push_back(setup_s);
    phase->setup_parts.push_back(parts);
    phase->run_s.push_back(run_s);
    phase->cpu_s.push_back(cpu_s);
    phase->calls.push_back(calls);
  }
}

bool AllEqual(const std::vector<int64_t>& v) {
  return std::adjacent_find(v.begin(), v.end(), std::not_equal_to<>()) == v.end();
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void AddEndToEnd(const Phase& p, std::vector<Metric>* out) {
  double tail_pct = 0;
  const double tail = BlockTail(p.run_s, &tail_pct);
  const double run_s = Median(p.run_s);
  out->push_back({"setup_s", Median(p.setup_s), "s"});
  out->push_back({"run_s_p50", run_s, "s"});
  // Over the median iteration rather than the summed wall time, so one slow
  // stretch of a run does not move the rate more than it moves run_s_p50.
  out->push_back({"syscalls_per_s", static_cast<double>(p.calls.front()) / run_s, "1/s"});
  out->push_back({"cpu_s_per_run", Median(p.cpu_s), "s"});
  out->push_back({"max_rss_mb", MaxRssMb(), "MB"});
  // Printed, not a JSON metric: from run to run it spreads by more than any
  // bound BENCHMARK.json may set (see README.md).
  std::printf("# run_s_tail = %.6f s: median over %zu blocks of each block's p%.2f; %zu iterations\n",
              tail, kTailBlocks, tail_pct, p.run_s.size());
  std::printf("# failed_frac = %.6f (%d of %d iterations)\n",
              static_cast<double>(p.failed) / p.attempted, p.failed, p.attempted);
}

// Counters are per untraced iteration; span-derived figures are per traced
// iteration.
void AddPerLayer(const Phase& untraced, const Phase& traced, std::vector<Metric>* out) {
  const Counters& k = untraced.counters;
  const LayerTotals& t = traced.layers;
  const double runs = static_cast<double>(untraced.run_s.size());
  const double iters = static_cast<double>(traced.run_s.size());
  auto per_run = [runs](int64_t v) { return static_cast<double>(v) / runs; };
  auto per_iter = [iters](double v) { return v / iters; };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  for (int c = 0; c < kNumClasses; ++c) {
    const std::string prefix = std::string("kernel.") + ClassName(static_cast<CallClass>(c));
    out->push_back({prefix + ".calls", per_run(k.class_calls[c]), "count"});
    out->push_back({prefix + ".us_p50", Median(t.class_us[c]), "us"});
    out->push_back({prefix + ".us_tail", Tail(t.class_us[c]), "us"});
    out->push_back({prefix + ".busy_ms", per_iter(Sum(t.class_us[c]) / 1e3), "ms"});
  }
  out->push_back({"kernel.proc.wake_us_p50", Median(t.wake_us), "us"});
  out->push_back({"kernel.proc.wake_us_tail", Tail(t.wake_us), "us"});

  const double lookups = static_cast<double>(k.cache.hits + k.cache.negative_hits + k.cache.misses);
  out->push_back({"kernel.namecache.hits", per_run(k.cache.hits), "count"});
  out->push_back({"kernel.namecache.negative_hits", per_run(k.cache.negative_hits), "count"});
  out->push_back({"kernel.namecache.misses", per_run(k.cache.misses), "count"});
  out->push_back({"kernel.namecache.evictions", per_run(k.cache.evictions), "count"});
  out->push_back({"kernel.namecache.hit_ratio",
                  ratio(static_cast<double>(k.cache.hits + k.cache.negative_hits), lookups),
                  "ratio"});

  out->push_back({"kernel.calls",
                  per_run(std::accumulate(untraced.calls.begin(), untraced.calls.end(), 0LL)),
                  "count"});
  out->push_back({"kernel.errors", per_run(k.errors), "count"});
  out->push_back({"kernel.busy_ms", per_iter(t.kernel_busy_us / 1e3), "ms"});

  out->push_back({"agents.self_ms", per_iter(Sum(t.self_us) / 1e3), "ms"});
  out->push_back({"agents.self_us_p50", Median(t.self_us), "us"});
  out->push_back({"agents.self_us_tail", Tail(t.self_us), "us"});
  out->push_back({"agents.downcalls", per_iter(static_cast<double>(t.downcalls)), "count"});
  out->push_back({"agents.downcalls_per_call",
                  ratio(static_cast<double>(t.downcalls), static_cast<double>(t.top_spans)),
                  "ratio"});

  out->push_back({"apps.calls", per_iter(static_cast<double>(t.app_calls)), "count"});
  out->push_back({"apps.call_us_p50", Median(t.app_us), "us"});
  out->push_back({"apps.call_us_tail", Tail(t.app_us), "us"});

  out->push_back({"interpose.route_lookups", per_run(k.route_lookups), "count"});
  out->push_back({"interpose.route_builds", per_run(k.route_builds), "count"});
  out->push_back({"interpose.route_hit_ratio",
                  k.route_lookups > 0 ? 1.0 - ratio(static_cast<double>(k.route_builds),
                                                    static_cast<double>(k.route_lookups))
                                      : 0.0,
                  "ratio"});
  out->push_back({"interpose.contained_faults", per_run(k.contained_faults), "count"});

  const double flushes = static_cast<double>(t.flush_us.size());
  out->push_back({"kernel.ring.flushes", per_iter(flushes), "count"});
  out->push_back(
      {"kernel.ring.entries_per_flush", ratio(static_cast<double>(t.ring_entries), flushes),
       "count"});
  out->push_back({"kernel.ring.flush_us_p50", Median(t.flush_us), "us"});
  out->push_back({"kernel.ring.flush_us_tail", Tail(t.flush_us), "us"});
  out->push_back(
      {"kernel.ring.entry_us", ratio(Sum(t.flush_us), static_cast<double>(t.ring_entries)), "us"});
  out->push_back({"kernel.sync.us_p50", Median(t.sync_us), "us"});
  out->push_back({"kernel.sync.us_tail", Tail(t.sync_us), "us"});

  std::vector<double> kernel_ms;
  std::vector<double> programs_ms;
  std::vector<double> inputs_ms;
  for (const SetupTimes& s : untraced.setup_parts) {
    kernel_ms.push_back(s.kernel_ms);
    programs_ms.push_back(s.programs_ms);
    inputs_ms.push_back(s.inputs_ms);
  }
  out->push_back({"setup.kernel_ms", Median(kernel_ms), "ms"});
  out->push_back({"setup.programs_ms", Median(programs_ms), "ms"});
  out->push_back({"setup.inputs_ms", Median(inputs_ms), "ms"});
  out->push_back(
      {"trace.overhead_ratio", ratio(Median(traced.run_s), Median(untraced.run_s)), "ratio"});

  std::printf("# traced: %lld top spans, %lld bottom spans over %zu iterations\n",
              static_cast<long long>(t.top_spans), static_cast<long long>(t.bottom_spans),
              traced.run_s.size());
}

void PrintJson(bool correct, int attempted, int failed, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload make|andrew|ringmix --seed N --seconds S "
               "--trace 0|1\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      return Usage();
    }
    args[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 != 1 || args.count("workload") == 0) {
    return Usage();
  }
  const std::string name = args["workload"];
  const uint64_t seed = std::strtoull(args.count("seed") ? args["seed"].c_str() : "1", nullptr, 10);
  const double seconds = std::atof(args.count("seconds") ? args["seconds"].c_str() : "10");
  const bool trace = args.count("trace") != 0 && args["trace"] == "1";
  std::unique_ptr<Workload> workload = MakeWorkload(name, seed);
  if (workload == nullptr || seconds <= 0) {
    return Usage();
  }
  std::printf("# workload=%s seed=%llu nproc=%u seconds=%g trace=%d clients=%d\n", name.c_str(),
              static_cast<unsigned long long>(seed), std::thread::hardware_concurrency(), seconds,
              trace ? 1 : 0, workload->clients());

  std::vector<std::string> problems;
  std::string error;
  if (!workload->WarmUp(&error)) {
    problems.push_back("warm-up: " + error);
  }

  Phase untraced;
  Phase traced;
  SpanRecorder recorder;
  RunPhase(*workload, nullptr, trace ? seconds / 2 : seconds, &untraced);
  if (trace) {
    RunPhase(*workload, &recorder, seconds / 2, &traced);
  }

  // Output checks beyond each iteration's own: a seed fixes the kernel call
  // count, the probes add no calls, and under agents the bottom probe sees
  // every call (the agent loader makes none before the probes are installed).
  if (!AllEqual(untraced.calls)) {
    problems.push_back("kernel calls per iteration vary within one seed");
  }
  if (trace) {
    if (!AllEqual(traced.calls) || traced.calls.front() != untraced.calls.front()) {
      problems.push_back("traced kernel calls differ from untraced kernel calls");
    }
    if (workload->has_agents()) {
      std::printf("# kernel calls not seen by probe.bottom in the first traced iteration: %lld\n",
                  static_cast<long long>(traced.unaccounted.front()));
      if (std::any_of(traced.unaccounted.begin(), traced.unaccounted.end(),
                      [](int64_t unseen) { return unseen != 0; })) {
        problems.push_back("probe.bottom spans do not account for every kernel call");
      }
    }
  }
  for (const Phase* phase : {&untraced, &traced}) {
    problems.insert(problems.end(), phase->errors.begin(), phase->errors.end());
  }
  for (const std::string& problem : problems) {
    std::printf("# CHECK FAILED: %s\n", problem.c_str());
  }
  std::printf("# kernel calls per iteration: %lld\n",
              static_cast<long long>(untraced.calls.front()));

  std::vector<Metric> metrics;
  if (trace) {
    AddPerLayer(untraced, traced, &metrics);
  } else {
    AddEndToEnd(untraced, &metrics);
  }
  for (const Metric& m : metrics) {
    std::printf("# %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const int attempted = untraced.attempted + traced.attempted;
  const int failed = untraced.failed + traced.failed;
  PrintJson(problems.empty(), attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) { return e2ebench::Main(argc, argv); }
