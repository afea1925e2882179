// Counted twins of bench_scalability's timed compiled_routes gate: the same
// footprint-narrowed 7-agent stack and the same non-path mix (three getpids
// and a gettimeofday), checked by counters instead of by a clock. Build and
// run:
//   cmake --build build && ./build/tests/ia_tests --gtest_filter='Routes.*'
#include <memory>
#include <vector>

#include "src/agents/chaos.h"
#include "src/agents/dfs_trace.h"
#include "src/agents/filter_fs.h"
#include "src/agents/retry.h"
#include "src/agents/sandbox.h"
#include "src/agents/txn.h"
#include "src/agents/union_fs.h"
#include "tests/test_helpers.h"

namespace ia {
namespace {

// bench_scalability's narrowed stack: seven real agents whose footprints,
// derived from the syscall table, leave out the per-process rows.
std::vector<AgentRef> NarrowedStack() {
  return {
      std::make_shared<ChaosAgent>(FaultPlan{}),
      std::make_shared<RetryAgent>(),
      std::make_shared<UnionAgent>(std::vector<UnionMount>{{"/u", {"/w", "/r"}}}),
      std::make_shared<SandboxAgent>(SandboxPolicy{}),
      std::make_shared<TxnAgent>("/t", "/tmp/.txn"),
      std::make_shared<CompressAgent>("/z"),
      std::make_shared<DfsTraceAgent>("/tmp/dfs.log"),
  };
}

void Mix(ProcessContext& ctx) {
  ctx.Getpid();
  ctx.Getpid();
  ctx.Getpid();
  TimeVal tv;
  ctx.Gettimeofday(&tv, nullptr);
}
constexpr int kCallsPerMix = 4;
constexpr int kDistinctNumbers = 2;  // getpid, gettimeofday

// What one run of the mix under the narrowed stack counted.
struct MixCounts {
  int frames = 0;
  int64_t handler_calls = 0;  // every frame's handler invocations during the mix
  int64_t lookups = 0;        // route consultations during the mix
  int64_t builds = 0;         // route compilations during the mix
  Kernel::RouteCacheStats world;  // the kernel-wide counters once the world quiesced
};

MixCounts RunMix(int rounds) {
  auto kernel = test::MakeWorld();
  for (const char* dir : {"/w", "/r", "/t", "/z"}) {
    kernel->fs().MkdirAll(dir);
  }
  MixCounts counts;
  const int status = test::RunBodyUnder(*kernel, NarrowedStack(), [&](ProcessContext& ctx) {
    EmulationStack& stack = ctx.emulation();
    const auto handler_calls = [&stack] {
      int64_t total = 0;
      for (int i = 0; i < stack.Depth(); ++i) {
        total += stack.At(i).health->calls.load(std::memory_order_relaxed);
      }
      return total;
    };
    counts.frames = stack.Depth();
    const int64_t calls_before = handler_calls();
    const int64_t lookups_before = stack.route_lookups();
    const int64_t builds_before = stack.route_builds();
    for (int i = 0; i < rounds; ++i) {
      Mix(ctx);
    }
    counts.handler_calls = handler_calls() - calls_before;
    counts.lookups = stack.route_lookups() - lookups_before;
    counts.builds = stack.route_builds() - builds_before;
    return 0;
  });
  EXPECT_TRUE(WifExited(status) && WExitStatus(status) == 0);
  counts.world = kernel->RouteStats();
  return counts;
}

TEST(Routes, NarrowedStackInvokesNoHandlerOnTheNonPathMix) {
  const MixCounts counts = RunMix(1000);
  EXPECT_EQ(counts.frames, 7);
  EXPECT_EQ(counts.handler_calls, 0);
  EXPECT_EQ(counts.lookups, 1000 * kCallsPerMix);
}

TEST(Routes, EachRouteIsBuiltOncePerNumber) {
  const MixCounts once = RunMix(1);
  const MixCounts many = RunMix(1000);
  EXPECT_EQ(once.builds, kDistinctNumbers);
  EXPECT_EQ(many.builds, kDistinctNumbers);
  // Kernel-wide, repeating the mix adds lookups and no build.
  EXPECT_EQ(many.world.builds, once.world.builds);
  EXPECT_EQ(many.world.lookups - once.world.lookups, 999 * kCallsPerMix);
}

}  // namespace
}  // namespace ia
