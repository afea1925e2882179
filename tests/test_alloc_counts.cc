// Heap allocations on the agent layer's per-call path: the same open, stat,
// lstat and close calls counted once under DfsTraceAgent and once with no
// agent. The difference is what the toolkit and the agent allocate per call.
// This file is its own test binary because it replaces the global operator
// new, which counts the allocations made on the calling thread.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "src/agents/dfs_trace.h"
#include "tests/test_helpers.h"

namespace {
thread_local uint64_t t_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size != 0 ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t /*size*/) noexcept { std::free(p); }

namespace ia {
namespace {

// Allocations per call of each kind, summed over kCalls calls.
struct CallAllocations {
  uint64_t open = 0;
  uint64_t stat = 0;
  uint64_t lstat = 0;
  uint64_t close = 0;
};

constexpr int kCalls = 64;

// Runs kCalls rounds of open/stat/lstat/close on a path too long for the
// small-string buffer, after a warm-up that sizes every cache and table the
// steady state reuses. Each call is counted on its own, on the process's
// thread.
CallAllocations CountCalls(bool traced) {
  const std::string file = "/data/andrew0/sub1/file12.c";
  const std::string log = "/tmp/dfs.log";
  auto kernel = test::MakeWorld();
  kernel->fs().InstallFile(file, "int main() { return 0; }\n");
  // The log's bytes grow with every record; a large file truncated to zero
  // keeps its capacity, so appending to it allocates nothing.
  kernel->fs().InstallFile(log, std::string(1 << 20, 'x'));
  CallAllocations counts;
  std::vector<AgentRef> agents;
  if (traced) {
    agents.push_back(std::make_shared<DfsTraceAgent>(log));
  }
  const int status = test::RunBodyUnder(*kernel, agents, [&](ProcessContext& ctx) -> int {
    if (ctx.Truncate(log, 0) != 0) {
      return 1;
    }
    Stat st;
    for (int round = -8; round < kCalls; ++round) {
      uint64_t before = t_allocations;
      const int fd = ctx.Open(file, kORdonly);
      const uint64_t open_n = t_allocations - before;
      before = t_allocations;
      const int stat_err = ctx.Stat(file, &st);
      const uint64_t stat_n = t_allocations - before;
      before = t_allocations;
      const int lstat_err = ctx.Lstat(file, &st);
      const uint64_t lstat_n = t_allocations - before;
      before = t_allocations;
      const int close_err = ctx.Close(fd);
      const uint64_t close_n = t_allocations - before;
      if (fd < 0 || stat_err != 0 || lstat_err != 0 || close_err != 0) {
        return 2;
      }
      if (round >= 0) {
        counts.open += open_n;
        counts.stat += stat_n;
        counts.lstat += lstat_n;
        counts.close += close_n;
      }
    }
    return 0;
  });
  EXPECT_TRUE(WifExited(status));
  EXPECT_EQ(WExitStatus(status), 0);
  if (traced) {
    // Every counted call was traced: the log holds its records.
    const auto records = DecodeDfsTraceLog(test::FileContents(*kernel, log));
    EXPECT_GE(records.size(), static_cast<size_t>(kCalls) * 6);
  }
  return counts;
}

// The agent layer allocates only what it keeps: the OpenObject an open
// registers. stat, lstat and close allocate nothing beyond the kernel's own.
TEST(AllocationCounts, DfsTraceAllocatesOnlyTheKeptOpenObject) {
  const CallAllocations bare = CountCalls(false);
  const CallAllocations traced = CountCalls(true);
  std::printf("allocations over %d calls each (open stat lstat close): bare %llu %llu %llu %llu, "
              "traced %llu %llu %llu %llu\n",
              kCalls, static_cast<unsigned long long>(bare.open),
              static_cast<unsigned long long>(bare.stat),
              static_cast<unsigned long long>(bare.lstat),
              static_cast<unsigned long long>(bare.close),
              static_cast<unsigned long long>(traced.open),
              static_cast<unsigned long long>(traced.stat),
              static_cast<unsigned long long>(traced.lstat),
              static_cast<unsigned long long>(traced.close));
  EXPECT_LE(traced.open, bare.open + kCalls) << "bare " << bare.open << ", traced " << traced.open;
  EXPECT_EQ(traced.stat, bare.stat);
  EXPECT_EQ(traced.lstat, bare.lstat);
  EXPECT_EQ(traced.close, bare.close);
}

}  // namespace
}  // namespace ia
