// Placement of simulated processes on host threads (src/kernel/fiber.h): a
// host-spawned root gets a host thread, every process it forks runs as a
// fiber on that same thread, and a yielding process lets its siblings run.
// Each case counts host threads instead of timing them. Build and run:
//   cmake --build build && ./build/tests/ia_tests --gtest_filter='Fibers.*'
#include <chrono>
#include <filesystem>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "tests/test_helpers.h"

namespace ia {
namespace {

using test::ExitCodeOf;
using test::MakeWorld;

// The host threads that process bodies ran on. The lock is held only for
// the insert, never across a system call.
struct ThreadLog {
  std::mutex mu;
  std::vector<std::thread::id> ids;

  void Record() {
    std::lock_guard<std::mutex> lk(mu);
    ids.push_back(std::this_thread::get_id());
  }
  std::set<std::thread::id> Distinct() {
    std::lock_guard<std::mutex> lk(mu);
    return {ids.begin(), ids.end()};
  }
};

// Records the caller's thread, then forks a child that execs /bin/chain one
// level shallower, and waits for it: `depth` fork/exec/wait4 levels below.
int RunChain(ProcessContext& ctx, ThreadLog& log, int depth) {
  log.Record();
  if (depth == 0) {
    return 0;
  }
  const Pid child = ctx.Fork([depth](ProcessContext& c) {
    c.Execve("/bin/chain", {"chain", std::to_string(depth - 1)});
    return 127;
  });
  int status = 0;
  if (ctx.Wait4(child, &status, 0, nullptr) != child) {
    return 2;
  }
  return WifExited(status) && WExitStatus(status) == 0 ? 0 : 3;
}

TEST(Fibers, ForkExecWaitChainRunsOnOneHostThread) {
  const auto log = std::make_shared<ThreadLog>();
  auto kernel = MakeWorld();
  kernel->InstallProgram("/bin/chain", "chain", [log](ProcessContext& ctx) {
    return RunChain(ctx, *log, std::stoi(ctx.argv().at(1)));
  });
  EXPECT_EQ(ExitCodeOf(*kernel, [log](ProcessContext& ctx) { return RunChain(ctx, *log, 3); }),
            0);
  EXPECT_EQ(log->ids.size(), 4u);  // the root and three exec'd descendants
  const std::set<std::thread::id> threads = log->Distinct();
  EXPECT_EQ(threads.size(), 1u);
  EXPECT_EQ(threads.count(std::this_thread::get_id()), 0u);  // not the harness thread
}

TEST(Fibers, EachHostSpawnedRootGetsItsOwnHostThread) {
  constexpr int kRoots = 2;
  ThreadLog roots[kRoots];
  ThreadLog children[kRoots];
  auto kernel = MakeWorld();
  std::vector<Pid> pids;
  // Both roots are spawned before either is reaped, so both host threads
  // are unjoined at once and their ids cannot coincide.
  for (int r = 0; r < kRoots; ++r) {
    SpawnOptions options;
    options.body = [&root = roots[r], &child = children[r]](ProcessContext& ctx) {
      root.Record();
      const Pid pid = ctx.Fork([&child](ProcessContext&) {
        child.Record();
        return 0;
      });
      int status = 0;
      return ctx.Wait4(pid, &status, 0, nullptr) == pid ? 0 : 1;
    };
    pids.push_back(kernel->Spawn(options));
    ASSERT_GT(pids.back(), 0);
  }
  for (const Pid pid : pids) {
    const int status = kernel->HostWaitPid(pid);
    EXPECT_TRUE(WifExited(status) && WExitStatus(status) == 0);
  }
  std::set<std::thread::id> all;
  for (int r = 0; r < kRoots; ++r) {
    ASSERT_EQ(roots[r].ids.size(), 1u);
    ASSERT_EQ(children[r].ids.size(), 1u);
    EXPECT_EQ(children[r].ids[0], roots[r].ids[0]);  // the child stays on its parent's thread
    all.insert(roots[r].ids[0]);
  }
  EXPECT_EQ(all.size(), 2u);
}

TEST(Fibers, YieldingParentLetsForkedChildRun) {
  auto kernel = MakeWorld();
  EXPECT_EQ(ExitCodeOf(*kernel, [](ProcessContext& ctx) {
              bool ran = false;  // both processes run on this host thread
              const Pid child = ctx.Fork([&ran](ProcessContext&) {
                ran = true;
                return 0;
              });
              // A bounded spin: without the switch in Yield the child never
              // runs, and the loop gives up instead of hanging the suite.
              int yields = 0;
              while (!ran && yields < 1000) {
                ctx.Yield();
                ++yields;
              }
              int status = 0;
              if (ctx.Wait4(child, &status, 0, nullptr) != child) {
                return 1;
              }
              // The child was the only other runnable fiber: one yield ran it.
              return ran && yields == 1 ? 0 : 2;
            }),
            0);
}

int HostThreadCount() {
  int count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++count;
  }
  return count;
}

TEST(Fibers, SequentialRootsLeaveNoHostThreadBehind) {
  auto kernel = MakeWorld();
  const auto run_root = [&kernel] {
    return ExitCodeOf(*kernel, [](ProcessContext& ctx) {
      const Pid child = ctx.Fork([](ProcessContext&) { return 0; });
      int status = 0;
      return ctx.Wait4(child, &status, 0, nullptr) == child ? 0 : 1;
    });
  };
  // The baseline comes after one root, so a thread a runtime starts on the
  // first thread creation (TSan's background thread) is already counted.
  ASSERT_EQ(run_root(), 0);
  const int before = HostThreadCount();
  for (int i = 0; i < 20; ++i) {
    ASSERT_EQ(run_root(), 0);
  }
  // Each root's reap joined its host thread, its tree being finished. A
  // joined thread can stay listed for a moment after the join returns (the
  // OS reaps it after waking the joiner), so allow it time to go; a thread
  // that was never joined stays listed.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (HostThreadCount() > before && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_LE(HostThreadCount(), before);
}

}  // namespace
}  // namespace ia
