// Virtual time with one clock per host thread (DESIGN.md §7). A root and
// everything it forks share its host's clock, so a single-root world keeps
// the time a single global clock gave it. Roots on different hosts advance
// independently and meet only at the merge edges: a wakeup or signal post
// from another host, a pipe or socket transfer, and a spawn, which starts
// from the kernel's floor. Build and run:
//   cmake --build build && ./build/tests/ia_tests --gtest_filter='VirtualTime.*'
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "tests/test_helpers.h"

namespace ia {
namespace {

using test::MakeWorld;

int64_t Micros(const TimeVal& tv) { return tv.tv_sec * 1000000 + tv.tv_usec; }

int64_t NowOf(ProcessContext& ctx) {
  TimeVal tv{};
  ctx.Gettimeofday(&tv, nullptr);
  return Micros(tv);
}

// Spins the host until `flag` is set. Only for a wait on a process of
// another root: it runs on its own host thread.
bool AwaitFlag(const std::atomic<bool>& flag) {
  const auto end = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!flag.load()) {
    if (std::chrono::steady_clock::now() > end) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// Ten virtual seconds of user work puts a root far ahead of a fresh one.
constexpr int64_t kAhead = 10 * 1000000;

// A fork/exec/wait4 chain on one host: the parent's wait4 spans the child's
// whole run, as it did under one global clock, and the host clock advances
// by each call's cost exactly once.
TEST(VirtualTime, SingleRootForkExecWaitMatchesTheGlobalClockSum) {
  auto kernel = MakeWorld();
  const std::array<SyscallStat, kMaxSyscall> before = kernel->SyscallStats();
  const int64_t start = kernel->VirtualNow();
  int64_t t0 = 0;
  int64_t t1 = 0;
  EXPECT_EQ(test::ExitCodeOf(*kernel,
                             [&t0, &t1](ProcessContext& ctx) {
                               t0 = NowOf(ctx);
                               const Pid child = ctx.Fork([](ProcessContext& c) {
                                 c.Execve("/bin/echo", {"echo", "chain"});
                                 return 127;
                               });
                               int status = 0;
                               if (child < 0 || ctx.Wait4(child, &status, 0, nullptr) != child ||
                                   !WifExited(status) || WExitStatus(status) != 0) {
                                 return 1;
                               }
                               t1 = NowOf(ctx);
                               return 0;
                             }),
            0);
  const std::array<SyscallStat, kMaxSyscall> after = kernel->SyscallStats();
  int64_t charged = 0;
  int64_t child_charged = 0;
  for (int n = 0; n < kMaxSyscall; ++n) {
    const int64_t calls = after[n].calls - before[n].calls;
    charged += calls * kernel->SyscallCost(n);
    // The parent issues gettimeofday, fork, wait4 and exit; the rest is
    // the child's.
    const bool parent_only =
        n == kSysGettimeofday || n == kSysFork || n == kSysWait4 || n == kSysExit;
    const int64_t parent_calls = n == kSysGettimeofday ? 2 : (parent_only ? 1 : 0);
    child_charged += (calls - parent_calls) * kernel->SyscallCost(n);
  }
  ASSERT_EQ(after[kSysWait4].calls - before[kSysWait4].calls, 1);
  EXPECT_EQ(kernel->VirtualNow() - start, charged);
  const int64_t wait4_vtime = after[kSysWait4].vtime_usec - before[kSysWait4].vtime_usec;
  EXPECT_EQ(wait4_vtime, kernel->SyscallCost(kSysWait4) + child_charged);
  EXPECT_GT(child_charged, 0);
  const int64_t fork_vtime = after[kSysFork].vtime_usec - before[kSysFork].vtime_usec;
  EXPECT_EQ(t1 - t0, fork_vtime + wait4_vtime + kernel->SyscallCost(kSysGettimeofday));
}

// A reader on another host never reads bytes from its own past: the pipe
// carries the writer's time, and the read merges it.
TEST(VirtualTime, CrossHostPipeReaderIsNotBeforeTheWrite) {
  auto kernel = MakeWorld();
  SyscallArgs mknod;
  const std::string fifo = "/tmp/vt.fifo";
  mknod.SetPtr(0, fifo.c_str());
  mknod.SetInt(1, kSIfifo | 0666);
  auto opened = std::make_shared<std::atomic<bool>>(false);
  auto written = std::make_shared<std::atomic<bool>>(false);
  auto write_time = std::make_shared<std::atomic<int64_t>>(0);
  auto read_time = std::make_shared<std::atomic<int64_t>>(0);
  const int64_t ahead = kernel->VirtualNow() + kAhead;  // both roots start at the floor
  SpawnOptions reader;
  reader.body = [&, opened, written, read_time](ProcessContext& ctx) {
    if (ctx.Syscall(kSysMknod, mknod, nullptr) != 0) {
      return 1;
    }
    const int fd = ctx.Open(fifo, kORdonly);
    if (fd < 0) {
      return 2;
    }
    *opened = true;
    if (!AwaitFlag(*written)) {
      return 3;
    }
    const int64_t own = NowOf(ctx);
    char b = 0;
    if (ctx.Read(fd, &b, 1) != 1 || b != 'x') {  // buffered: no sleep
      return 4;
    }
    *read_time = NowOf(ctx);
    return own < ahead ? 0 : 5;  // it was behind the writer before the read
  };
  SpawnOptions writer;
  writer.body = [&, opened, written, write_time](ProcessContext& ctx) {
    ctx.Compute(kAhead);
    if (!AwaitFlag(*opened)) {
      return 1;
    }
    const int fd = ctx.Open(fifo, kOWronly);
    if (fd < 0) {
      return 2;
    }
    *write_time = NowOf(ctx);
    if (ctx.Write(fd, "x", 1) != 1) {
      return 3;
    }
    *written = true;
    return 0;
  };
  const Pid r = kernel->Spawn(reader);
  const Pid w = kernel->Spawn(writer);
  ASSERT_GT(r, 0);
  ASSERT_GT(w, 0);
  EXPECT_EQ(kernel->HostWaitPid(w), 0);
  EXPECT_EQ(kernel->HostWaitPid(r), 0);
  EXPECT_GT(*write_time, ahead);
  EXPECT_GE(*read_time, *write_time);
}

// A signal posted from another host wakes a sleeper no earlier than the post.
TEST(VirtualTime, CrossHostSignalWakeIsNotBeforeThePost) {
  auto kernel = MakeWorld();
  auto asleep = std::make_shared<std::atomic<bool>>(false);
  auto caught = std::make_shared<std::atomic<bool>>(false);
  auto post_time = std::make_shared<std::atomic<int64_t>>(0);
  auto wake_time = std::make_shared<std::atomic<int64_t>>(0);
  const int64_t ahead = kernel->VirtualNow() + kAhead;
  SpawnOptions sleeper;
  sleeper.body = [asleep, caught, wake_time, ahead](ProcessContext& ctx) {
    ctx.Sigvec(kSigUsr1, 2, [caught](ProcessContext&, int) { *caught = true; });
    *asleep = true;
    const int64_t own = NowOf(ctx);
    ctx.Sigpause(0);  // the other host's kill wakes it
    *wake_time = NowOf(ctx);
    return *caught && own < ahead ? 0 : 1;
  };
  const Pid s = kernel->Spawn(sleeper);
  ASSERT_GT(s, 0);
  SpawnOptions killer;
  killer.body = [s, asleep, post_time](ProcessContext& ctx) {
    ctx.Compute(kAhead);
    if (!AwaitFlag(*asleep)) {
      return 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));  // into sigpause
    *post_time = NowOf(ctx);
    return ctx.Kill(s, kSigUsr1) == 0 ? 0 : 2;
  };
  const Pid k = kernel->Spawn(killer);
  ASSERT_GT(k, 0);
  EXPECT_EQ(kernel->HostWaitPid(k), 0);
  EXPECT_EQ(kernel->HostWaitPid(s), 0);
  EXPECT_GT(*post_time, ahead);
  EXPECT_GE(*wake_time, *post_time);
}

// settimeofday moves the floor, so a root spawned afterwards starts there,
// even while the setter still runs.
TEST(VirtualTime, SettimeofdayIsSeenByALaterSpawn) {
  auto kernel = MakeWorld();
  const int64_t target = kernel->VirtualNow() + 3600 * int64_t{1000000};
  auto set = std::make_shared<std::atomic<bool>>(false);
  auto release = std::make_shared<std::atomic<bool>>(false);
  SpawnOptions setter;
  setter.body = [target, set, release](ProcessContext& ctx) {
    const TimeVal tv{target / 1000000, target % 1000000};
    if (ctx.Settimeofday(&tv, nullptr) != 0) {
      return 1;
    }
    *set = true;
    return AwaitFlag(*release) ? 0 : 2;
  };
  const Pid setter_pid = kernel->Spawn(setter);
  ASSERT_GT(setter_pid, 0);
  ASSERT_TRUE(AwaitFlag(*set));
  EXPECT_GE(kernel->VirtualNow(), target);
  int64_t seen = 0;
  EXPECT_EQ(test::ExitCodeOf(*kernel,
                             [&seen](ProcessContext& ctx) {
                               seen = NowOf(ctx);
                               return 0;
                             }),
            0);
  *release = true;
  EXPECT_EQ(kernel->HostWaitPid(setter_pid), 0);
  EXPECT_GE(seen, target);
  EXPECT_LT(seen, target + 1000000);
}

}  // namespace
}  // namespace ia
