// Directory name-lookup cache (DNLC) benchmark — the namei fast path.
//
// Pathname syscalls are the 900-cost-unit rows of Table 3-5; the real 4.3BSD
// kernel made them affordable with a name cache, and so does this kernel.
// Three workloads, each measured with the cache off and on:
//
//   1. stat-heavy repeated lookups of deep (8-component) paths through wide
//      directories — the DNLC's home turf; self-check: >= 1.3x speedup warm,
//      the median of interleaved rounds charged in thread CPU time;
//   2. cold vs warm pass with the cache on — shows the first-touch miss cost;
//   3. mutation churn (creat/unlink/rename interleaved with lookups) —
//      self-checks: byte-identical syscall results cache-on vs cache-off, and
//      no warm-path regression beyond a noise margin;
//   4. the evicting miss path: 1 and 4 threads stat a path set twice the
//      cache's capacity, so nearly every file lookup misses, inserts and
//      evicts; reported (thread CPU µs per stat), not enforced.
//
// Exit status is nonzero if any self-check fails, so this binary doubles as a
// perf regression gate. The JSON rows ({"bench":"bench_namecache",...}) are
// what scripts/ci.sh stores in BENCH_namecache.json.
#include <atomic>
#include <cstdio>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/base/clock.h"
#include "src/base/stats.h"
#include "src/kernel/vfs.h"

namespace {

constexpr int kDepth = 8;       // components per path, like the paper's "6 components" row
constexpr int kWidth = 2000;    // sibling entries per directory level (big-directory case)
constexpr int kLeafFiles = 64;  // files stat'ed in the deepest directory
constexpr int kAttempts = 3;    // churn: min-of-N, host scheduling noise only adds time
// The warm gate compares the cache off and on alternately: the host's
// single-thread speed drifts by up to 2x over minutes, so a best-of-N pass
// per side let the drift between the two sides decide the ratio (it read
// 1.04x to 2.04x on one tree). Each round measures both sides in
// kGateSlices interleaved slices of kSliceReps passes, each side going
// first as often as the other, charged in thread CPU time; the gate is the
// median of the kGateRounds per-round ratios.
constexpr int kGateRounds = 15;
constexpr int kGateSlices = 8;
constexpr int kSliceReps = 20;
constexpr double kWarmGate = 1.30;

// Builds a deep chain /p0/p1/.../p7 where every level also holds kWidth dummy
// siblings (so uncached per-component search has real work to do), and
// kLeafFiles files at the bottom. Returns the leaf paths.
std::vector<std::string> BuildTree(ia::Filesystem& fs) {
  std::string dir_path;
  for (int level = 0; level < kDepth - 1; ++level) {
    dir_path += "/pathname-component-" + std::to_string(level);
    fs.MkdirAll(dir_path);
    for (int i = 0; i < kWidth; ++i) {
      fs.InstallFile(dir_path + "/sibling-entry-" + std::to_string(i), "");
    }
  }
  std::vector<std::string> leaves;
  leaves.reserve(kLeafFiles);
  for (int i = 0; i < kLeafFiles; ++i) {
    const std::string leaf = dir_path + "/leaf-" + std::to_string(i);
    fs.InstallFile(leaf, "x");
    leaves.push_back(leaf);
  }
  return leaves;
}

// One timed pass of repeated stats over `paths`; returns seconds.
double TimeStatPass(ia::Filesystem& fs, const std::vector<std::string>& paths, int reps) {
  ia::Cred cred;
  ia::NameiEnv env{fs.root(), fs.root(), &cred};
  ia::Stat st;
  const int64_t start = ia::MonotonicMicros();
  for (int r = 0; r < reps; ++r) {
    for (const std::string& p : paths) {
      if (fs.Stat(env, p, /*follow=*/true, &st) != 0) {
        std::fprintf(stderr, "stat(%s) failed\n", p.c_str());
      }
    }
  }
  return static_cast<double>(ia::MonotonicMicros() - start) / 1e6;
}

// The warm gate's rounds. The cache is filled once; switching it off only
// makes lookups miss, so every "on" slice runs warm. Returns the per-round
// off/on CPU-time ratios, summarized, and each side's CPU µs per stat (the
// medians over rounds) in *off_us and *on_us.
ia::bench::RatioSpread MeasureWarmSpeedup(ia::Filesystem& fs,
                                          const std::vector<std::string>& paths, double* off_us,
                                          double* on_us) {
  fs.namecache().set_enabled(true);
  fs.namecache().Clear();
  TimeStatPass(fs, paths, 1);  // fills the cache
  const double stats_per_side =
      static_cast<double>(kGateSlices) * kSliceReps * static_cast<double>(paths.size());
  std::vector<double> ratios;
  std::vector<double> per_stat[2];
  for (int round = 0; round < kGateRounds; ++round) {
    double cpu_us[2] = {0, 0};  // [cache_on]
    for (int slice = 0; slice < kGateSlices; ++slice) {
      for (int turn = 0; turn < 2; ++turn) {
        const bool cache_on = (turn == 0) == (slice % 2 == 0);
        fs.namecache().set_enabled(cache_on);
        const int64_t start = ia::bench::ThreadCpuMicros();
        TimeStatPass(fs, paths, kSliceReps);
        cpu_us[cache_on ? 1 : 0] += static_cast<double>(ia::bench::ThreadCpuMicros() - start);
      }
    }
    ratios.push_back(cpu_us[0] / cpu_us[1]);
    per_stat[0].push_back(cpu_us[0] / stats_per_side);
    per_stat[1].push_back(cpu_us[1] / stats_per_side);
  }
  fs.namecache().set_enabled(true);
  *off_us = ia::bench::Summarize(per_stat[0]).median;
  *on_us = ia::bench::Summarize(per_stat[1]).median;
  return ia::bench::Summarize(std::move(ratios));
}

// Mutation-churn script: interleaves creates, lookups, unlinks and renames.
// Every syscall result (and resolved inode size) is appended to `trace` so two
// runs can be compared byte-for-byte.
void RunChurn(ia::Filesystem& fs, std::vector<int64_t>* trace) {
  ia::Cred cred;
  ia::NameiEnv env{fs.root(), fs.root(), &cred};
  fs.MkdirAll("/churn");
  ia::Stat st;
  for (int i = 0; i < 4000; ++i) {
    const std::string name = "/churn/file-" + std::to_string(i % 97);
    ia::InodeRef out;
    trace->push_back(fs.Open(env, name, ia::kOCreat | ia::kORdwr, 0644, &out));
    if (out != nullptr) {
      fs.ResizeFile(out, (i % 13) * 16);
    }
    trace->push_back(fs.Stat(env, name, true, &st));
    trace->push_back(st.st_size);
    if (i % 3 == 0) {
      trace->push_back(fs.Unlink(env, name));
      trace->push_back(fs.Stat(env, name, true, &st));
    }
    if (i % 5 == 0) {
      trace->push_back(fs.Rename(env, name, "/churn/renamed"));
      trace->push_back(fs.Stat(env, "/churn/renamed", true, &st));
      trace->push_back(st.st_ino);
    }
    if (i % 11 == 0) {
      trace->push_back(fs.Stat(env, "/churn/never-created", true, &st));
    }
  }
}

double MeasureChurnSeconds(bool cache_on, std::vector<int64_t>* trace) {
  double best = 1e18;
  for (int i = 0; i < kAttempts; ++i) {
    ia::Filesystem fs;
    fs.namecache().set_enabled(cache_on);
    std::vector<int64_t> t;
    const int64_t start = ia::MonotonicMicros();
    RunChurn(fs, &t);
    best = std::min(best, static_cast<double>(ia::MonotonicMicros() - start) / 1e6);
    if (i == 0) {
      *trace = std::move(t);
    }
  }
  return best;
}

// The evicting miss path: kMissDirs x kMissFilesPerDir files, twice the
// default cache capacity, like e2ebench's ringmix. Every thread stats all the
// paths in order, each from its own starting point, so between two visits of
// a path (by any thread) more than the cache's capacity of other files was
// inserted and the clock has evicted it, whether the threads run in
// parallel or one at a time: each stat hits on its two directories and
// misses, inserts and evicts on its file. A thread holds the tree lock shared per stat, and when the cache's
// garbage is due it reclaims under the exclusive tree lock, as the kernel's
// dispatch core does after a batch (a bare Filesystem has no big lock).
constexpr int kMissDirs = 256;
constexpr int kMissFilesPerDir = 32;
constexpr int kMissThreads = 4;
constexpr int kMissRounds = 7;
constexpr int kMissPasses = 4;

struct MissPath {
  double cpu_us_per_stat = 0;   // median over rounds of thread CPU per stat
  double wall_us_per_stat = 0;  // median over rounds of wall time per stat, per thread
  double hit_ratio = 0;         // directory and file lookups together (2/3 if no file hits)
  uint64_t evictions = 0;
};

MissPath MeasureMissPath(int threads) {
  ia::Filesystem fs;
  std::vector<std::string> paths;
  for (int i = 0; i < kMissDirs * kMissFilesPerDir; ++i) {
    paths.push_back("/m/d" + std::to_string(i / kMissFilesPerDir) + "/f" +
                    std::to_string(i % kMissFilesPerDir));
    fs.InstallFile(paths.back(), "x");
  }
  ia::NameCache& cache = fs.namecache();
  std::vector<double> cpu_per_stat;
  std::vector<double> wall_per_stat;
  ia::NameCacheStats before{};
  for (int round = 0; round <= kMissRounds; ++round) {
    if (round == 1) {
      before = cache.stats();  // round 0 warms the allocator and the clock
    }
    std::atomic<int> arrivals{0};
    std::vector<int64_t> cpu_us(static_cast<size_t>(threads));
    std::vector<int64_t> wall_us(static_cast<size_t>(threads));
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        ia::Cred cred;
        ia::NameiEnv env{fs.root(), fs.root(), &cred};
        ia::Stat st;
        arrivals.fetch_add(1, std::memory_order_acq_rel);
        while (arrivals.load(std::memory_order_acquire) < threads) {
          std::this_thread::yield();
        }
        const int64_t cpu_start = ia::bench::ThreadCpuMicros();
        const int64_t wall_start = ia::MonotonicMicros();
        for (int pass = 0; pass < kMissPasses; ++pass) {
          const size_t offset = paths.size() * static_cast<size_t>(t) /
                                static_cast<size_t>(threads);
          for (size_t i = 0; i < paths.size(); ++i) {
            const std::string& p = paths[(offset + i) % paths.size()];
            {
              std::shared_lock<ia::RwLock> tree(fs.TreeMutex());
              if (fs.Stat(env, p, /*follow=*/true, &st) != 0) {
                std::fprintf(stderr, "stat(%s) failed\n", p.c_str());
              }
            }
            if (cache.ReclaimDue()) {
              std::unique_lock<ia::RwLock> tree(fs.TreeMutex());
              cache.Reclaim();
            }
          }
        }
        cpu_us[static_cast<size_t>(t)] = ia::bench::ThreadCpuMicros() - cpu_start;
        wall_us[static_cast<size_t>(t)] = ia::MonotonicMicros() - wall_start;
      });
    }
    for (std::thread& w : workers) {
      w.join();
    }
    if (round == 0) {
      continue;
    }
    const double stats =
        static_cast<double>(threads) * kMissPasses * static_cast<double>(paths.size());
    double cpu = 0;
    double wall = 0;
    for (int t = 0; t < threads; ++t) {
      cpu += static_cast<double>(cpu_us[static_cast<size_t>(t)]);
      wall += static_cast<double>(wall_us[static_cast<size_t>(t)]);
    }
    cpu_per_stat.push_back(cpu / stats);
    wall_per_stat.push_back(wall / stats);
  }
  const ia::NameCacheStats after = cache.stats();
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  MissPath out;
  out.cpu_us_per_stat = ia::bench::Summarize(cpu_per_stat).median;
  out.wall_us_per_stat = ia::bench::Summarize(wall_per_stat).median;
  out.hit_ratio = hits / (hits + misses);
  out.evictions = after.evictions - before.evictions;
  return out;
}

}  // namespace

int main() {
  std::printf("DNLC benchmark: namei fast path, cache off vs on\n");
  std::printf("(deep paths: %d components, %d siblings/level, %d leaves;\n"
              " %d rounds x %d slices x %d passes per side)\n\n",
              kDepth, kWidth, kLeafFiles, kGateRounds, kGateSlices, kSliceReps);

  bool ok = true;

  // --- 1: stat-heavy repeated lookups --------------------------------------
  ia::Filesystem fs;
  const std::vector<std::string> leaves = BuildTree(fs);

  double off_us = 0;
  double on_us = 0;
  const ia::bench::RatioSpread speedup = MeasureWarmSpeedup(fs, leaves, &off_us, &on_us);

  std::printf("  stat-heavy (warm, thread CPU time, %d interleaved rounds):\n", kGateRounds);
  std::printf("    cache off   %7.3f µs/stat\n", off_us);
  std::printf("    cache on    %7.3f µs/stat\n", on_us);
  std::printf("    speedup     %8.2fx   (self-check: median >= %.2fx)\n", speedup.median,
              kWarmGate);
  ia::bench::PrintSpread(speedup, kGateRounds);
  if (speedup.median < kWarmGate) {
    std::printf("    FAIL: warm repeated-lookup speedup below %.2fx\n", kWarmGate);
    ok = false;
  }
  std::printf("{\"bench\":\"bench_namecache\",\"check\":\"warm_speedup\",\"rounds\":%d,"
              "\"off_us\":%.3f,\"on_us\":%.3f,\"speedup\":%.3f,\"gate\":%.2f,"
              "\"enforced\":true}\n",
              kGateRounds, off_us, on_us, speedup.median, kWarmGate);

  const ia::NameCacheStats stats = fs.namecache().stats();
  std::printf(
      "    counters: %llu hits, %llu neg-hits, %llu misses, %llu inserts,\n"
      "              %llu evictions, %llu invalidations, %zu/%zu entries\n",
      static_cast<unsigned long long>(stats.hits),
      static_cast<unsigned long long>(stats.negative_hits),
      static_cast<unsigned long long>(stats.misses),
      static_cast<unsigned long long>(stats.insertions),
      static_cast<unsigned long long>(stats.evictions),
      static_cast<unsigned long long>(stats.invalidations), stats.size, stats.capacity);

  // --- 2: cold vs warm with the cache on -----------------------------------
  fs.namecache().set_enabled(true);
  fs.namecache().Clear();
  const double cold_s = TimeStatPass(fs, leaves, 1);
  const double warm_s = TimeStatPass(fs, leaves, 1);
  std::printf("\n  cold vs warm (cache on, one pass over %d leaves):\n", kLeafFiles);
  std::printf("    cold (all misses)  %8.5f s\n", cold_s);
  std::printf("    warm (all hits)    %8.5f s\n", warm_s);

  // --- 3: mutation churn ----------------------------------------------------
  std::vector<int64_t> trace_off;
  std::vector<int64_t> trace_on;
  const double churn_off_s = MeasureChurnSeconds(/*cache_on=*/false, &trace_off);
  const double churn_on_s = MeasureChurnSeconds(/*cache_on=*/true, &trace_on);

  std::printf("\n  mutation churn (creat/unlink/rename interleaved with stats):\n");
  std::printf("    cache off   %8.4f s\n", churn_off_s);
  std::printf("    cache on    %8.4f s   (%+.1f%%)\n", churn_on_s,
              ia::PercentSlowdown(churn_off_s, churn_on_s));
  if (trace_on == trace_off) {
    std::printf("    results: byte-identical across %zu recorded values (PASS)\n",
                trace_on.size());
  } else {
    std::printf("    FAIL: cache-on and cache-off churn results diverge\n");
    ok = false;
  }
  // Mutation-heavy workloads pay a bounded cache-maintenance tax (the BSD
  // DNLC accepted the same trade: real workloads are lookup-dominated). The
  // gate only rejects a blow-up; the hard requirement above is correctness.
  if (churn_on_s > churn_off_s * 1.5) {
    std::printf("    FAIL: churn workload regressed more than 50%% with the cache on\n");
    ok = false;
  } else {
    std::printf("    timing: within the no-regression margin (PASS)\n");
  }

  // --- 4: the evicting miss path -------------------------------------------
  std::printf("\n  evicting miss path (%d paths, 2x the cache; thread CPU per stat,\n"
              "  median of %d rounds; reported, not enforced):\n",
              kMissDirs * kMissFilesPerDir, kMissRounds);
  for (const int threads : {1, kMissThreads}) {
    const MissPath miss = MeasureMissPath(threads);
    std::printf("    %d thread%s  %7.3f µs CPU/stat  %7.3f µs wall/stat/thread  "
                "hit ratio %.3f  %llu evictions\n",
                threads, threads == 1 ? " " : "s", miss.cpu_us_per_stat, miss.wall_us_per_stat,
                miss.hit_ratio, static_cast<unsigned long long>(miss.evictions));
    std::printf("{\"bench\":\"bench_namecache\",\"check\":\"evicting_miss_path\","
                "\"clients\":%d,\"cpu_us_per_stat\":%.3f,\"wall_us_per_stat\":%.3f,"
                "\"hit_rate\":%.3f,\"enforced\":false}\n",
                threads, miss.cpu_us_per_stat, miss.wall_us_per_stat, miss.hit_ratio);
  }

  std::printf("\n%s\n", ok ? "ALL SELF-CHECKS PASSED" : "SELF-CHECK FAILURES (see above)");
  return ok ? 0 : 1;
}
