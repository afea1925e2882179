// Lost-wakeup regression tests for the kernel's wait channels, one per
// sleeper class. In each, the waker stays alive after its state change, so
// nothing but that change's own wakeup can end the sleep: no exit, no later
// call. The host waits for the sleeper against a deadline and then lets
// ~Kernel's Shutdown kill the world, so a lost wakeup fails in seconds
// instead of hanging the suite. Build and run:
//   cmake --build build && ./build/tests/ia_tests --gtest_filter='WaitChannels.*'
#include <atomic>
#include <chrono>
#include <thread>

#include "tests/test_helpers.h"

namespace ia {
namespace {

using test::MakeWorld;

// What the host learns from a sleeper: `entered` just before its blocking
// call, `result` (the call's return value) once it returns, and whether a
// handler saw the signal the wakeup posts.
struct Probe {
  std::atomic<bool> entered{false};
  std::atomic<bool> finished{false};
  std::atomic<int64_t> result{0};
  std::atomic<bool> signaled{false};

  void Finish(int64_t value) {
    result = value;
    finished = true;
  }

  // Waker side: returns once the sleeper has had ample time to fall asleep,
  // so the wakeup under test happens during the sleep, not before it. The
  // sleeper shares the waker's host thread, so the waker yields to it.
  void AwaitSleeper(ProcessContext& ctx) const {
    while (!entered) {
      ctx.Yield();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // Host side: true when the sleeper returned before the deadline.
  bool AwaitFinish(std::chrono::seconds deadline = std::chrono::seconds(5)) const {
    const auto end = std::chrono::steady_clock::now() + deadline;
    while (!finished) {
      if (std::chrono::steady_clock::now() > end) {
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }
};

// Keeps a waker alive, its descriptors open, until Shutdown's SIGKILL. It
// blocks in sigpause, which touches no object a sleeper waits on, so no
// later call of the waker's can stand in for the wakeup under test; and it
// leaves its host thread to the sleeper, which shares it.
int StayAlive(ProcessContext& ctx) {
  for (;;) {
    ctx.Sigpause(0);
  }
}

// Starts `root` without waiting for it: the host waits on a Probe instead.
void SpawnRoot(Kernel& kernel, std::function<int(ProcessContext&)> root) {
  SpawnOptions options;
  options.body = std::move(root);
  ASSERT_GT(kernel.Spawn(options), 0);
}

// Waits for the sleeper. A world whose sleeper missed the deadline is leaked,
// not shut down: when the lost wakeup is the signal path's, Shutdown's
// SIGKILL cannot wake the sleeper either, and ~Kernel would hang.
::testing::AssertionResult Woke(std::unique_ptr<Kernel>& kernel, const Probe& probe,
                                std::chrono::seconds deadline = std::chrono::seconds(5)) {
  if (probe.AwaitFinish(deadline)) {
    return ::testing::AssertionSuccess();
  }
  (void)kernel.release();
  return ::testing::AssertionFailure() << "lost wakeup: the sleeper missed its deadline";
}

TEST(WaitChannels, PipeReaderWokenByLastWriterClose) {
  const auto probe = std::make_shared<Probe>();  // a leaked world may still hold it
  auto kernel = MakeWorld();
  SpawnRoot(*kernel, [probe](ProcessContext& ctx) {
    int fds[2];
    ctx.Pipe(fds);
    ctx.Fork([fds, probe](ProcessContext& c) {
      c.Close(fds[1]);
      char b;
      probe->entered = true;
      probe->Finish(c.Read(fds[0], &b, 1));
      return 0;
    });
    ctx.Close(fds[0]);
    probe->AwaitSleeper(ctx);
    ctx.Close(fds[1]);  // the last write end: EOF
    return StayAlive(ctx);
  });
  ASSERT_TRUE(Woke(kernel, *probe));
  EXPECT_EQ(probe->result, 0);
}

TEST(WaitChannels, FullPipeWriterWokenByLastReaderClose) {
  const auto probe = std::make_shared<Probe>();
  auto kernel = MakeWorld();
  SpawnRoot(*kernel, [probe](ProcessContext& ctx) {
    int fds[2];
    ctx.Pipe(fds);
    ctx.Fork([fds, probe](ProcessContext& c) {
      c.Close(fds[0]);
      c.Sigvec(kSigPipe, 2, [probe](ProcessContext&, int) { probe->signaled = true; });
      const std::string fill(Pipe::kCapacity, 'f');
      if (c.Write(fds[1], fill.data(), static_cast<int64_t>(fill.size())) !=
          static_cast<int64_t>(fill.size())) {
        probe->Finish(-1000);
        return 1;
      }
      const char b = 'x';
      probe->entered = true;
      probe->Finish(c.Write(fds[1], &b, 1));  // the pipe is full: sleeps
      return 0;
    });
    ctx.Close(fds[1]);
    probe->AwaitSleeper(ctx);
    ctx.Close(fds[0]);  // the last read end: EPIPE and SIGPIPE
    return StayAlive(ctx);
  });
  ASSERT_TRUE(Woke(kernel, *probe));
  EXPECT_EQ(probe->result, -kEPipe);
  EXPECT_TRUE(probe->signaled);  // delivered at the write's own syscall boundary
}

TEST(WaitChannels, SocketReaderWokenByPeerClose) {
  const auto probe = std::make_shared<Probe>();
  auto kernel = MakeWorld();
  SpawnRoot(*kernel, [probe](ProcessContext& ctx) {
    int sv[2];
    ctx.Socketpair(kAfUnix, kSockStream, 0, sv);
    ctx.Fork([sv, probe](ProcessContext& c) {
      c.Close(sv[1]);
      char b;
      probe->entered = true;
      probe->Finish(c.Recv(sv[0], &b, 1));
      return 0;
    });
    ctx.Close(sv[0]);
    probe->AwaitSleeper(ctx);
    ctx.Close(sv[1]);  // the peer endpoint closes: EOF
    return StayAlive(ctx);
  });
  ASSERT_TRUE(Woke(kernel, *probe));
  EXPECT_EQ(probe->result, 0);
}

TEST(WaitChannels, SocketReaderWokenByPeerShutdown) {
  const auto probe = std::make_shared<Probe>();
  auto kernel = MakeWorld();
  SpawnRoot(*kernel, [probe](ProcessContext& ctx) {
    int sv[2];
    ctx.Socketpair(kAfUnix, kSockStream, 0, sv);
    ctx.Fork([sv, probe](ProcessContext& c) {
      c.Close(sv[1]);
      char b;
      probe->entered = true;
      probe->Finish(c.Recv(sv[0], &b, 1));
      return 0;
    });
    ctx.Close(sv[0]);
    probe->AwaitSleeper(ctx);
    ctx.Shutdown(sv[1], kShutWr);  // EOF, with the peer still open
    return StayAlive(ctx);
  });
  ASSERT_TRUE(Woke(kernel, *probe));
  EXPECT_EQ(probe->result, 0);
}

TEST(WaitChannels, AcceptWokenByConnect) {
  const auto probe = std::make_shared<Probe>();
  auto kernel = MakeWorld();
  SpawnRoot(*kernel, [probe](ProcessContext& ctx) {
    const int listener = ctx.Socket(kAfUnix, kSockStream, 0);
    if (ctx.BindUnix(listener, "/tmp/wchan.sock") != 0 || ctx.Listen(listener, 1) != 0) {
      probe->Finish(-1000);
      return 1;
    }
    ctx.Fork([listener, probe](ProcessContext& c) {
      probe->entered = true;
      probe->Finish(c.Accept(listener));
      return 0;
    });
    probe->AwaitSleeper(ctx);
    const int client = ctx.Socket(kAfUnix, kSockStream, 0);
    if (ctx.ConnectUnix(client, "/tmp/wchan.sock") != 0) {
      probe->Finish(-2000);
    }
    return StayAlive(ctx);  // keeps the client endpoint open
  });
  ASSERT_TRUE(Woke(kernel, *probe));
  EXPECT_GE(probe->result, 0);
}

TEST(WaitChannels, Wait4WokenByChildExitWhileSiblingRuns) {
  const auto probe = std::make_shared<Probe>();
  auto kernel = MakeWorld();
  SpawnRoot(*kernel, [probe](ProcessContext& ctx) {
    ctx.Fork([](ProcessContext& c) { return StayAlive(c); });  // never exits
    const Pid exiting = ctx.Fork([probe](ProcessContext& c) {
      probe->AwaitSleeper(c);
      return 7;
    });
    int status = 0;
    probe->entered = true;
    const Pid reaped = ctx.Wait4(-1, &status, 0, nullptr);
    probe->Finish(reaped == exiting && WifExited(status) ? WExitStatus(status) : -1000 - reaped);
    return StayAlive(ctx);
  });
  ASSERT_TRUE(Woke(kernel, *probe));
  EXPECT_EQ(probe->result, 7);
}

TEST(WaitChannels, SigpauseWokenByKill) {
  const auto probe = std::make_shared<Probe>();
  auto kernel = MakeWorld();
  SpawnRoot(*kernel, [probe](ProcessContext& ctx) {
    const Pid sleeper = ctx.Fork([probe](ProcessContext& c) {
      c.Sigvec(kSigUsr1, 2, [](ProcessContext&, int) {});
      probe->entered = true;
      probe->Finish(c.Sigpause(0));
      return 0;
    });
    probe->AwaitSleeper(ctx);
    ctx.Kill(sleeper, kSigUsr1);
    return StayAlive(ctx);
  });
  ASSERT_TRUE(Woke(kernel, *probe));
  EXPECT_EQ(probe->result, -kEIntr);
}

TEST(WaitChannels, StoppedChildWokenBySigcont) {
  const auto probe = std::make_shared<Probe>();
  auto kernel = MakeWorld();
  SpawnRoot(*kernel, [probe](ProcessContext& ctx) {
    // The child posts SIGCHLD and falls asleep within one hold of the big
    // lock, so once the handler has run, the SIGCONT below finds it asleep.
    bool stopped = false;
    ctx.Sigvec(kSigChld, 2, [&stopped](ProcessContext&, int) { stopped = true; });
    ctx.Sigblock(SigMask(kSigChld));
    const Pid child = ctx.Fork([probe](ProcessContext& c) {
      c.Kill(c.Getpid(), kSigStop);  // stops at this call's boundary
      probe->Finish(1);
      return 0;
    });
    while (!stopped) {
      ctx.Sigpause(0);
    }
    ctx.Kill(child, kSigCont);
    return StayAlive(ctx);
  });
  ASSERT_TRUE(Woke(kernel, *probe));
  EXPECT_EQ(probe->result, 1);
}

// Every sleeper class against its waker with no host sleep in between, many
// rounds, so the sleep's test-then-wait and the waker's change-then-notify
// interleave every way the scheduler allows (the TSan leg repeats it). The
// root's wait4 for each child races that child's exit in every round.
TEST(WaitChannels, SleepersRaceWakersWithoutHostSleeps) {
  constexpr int kRounds = IA_TEST_UNDER_TSAN ? 200 : 1000;
  const auto probe = std::make_shared<Probe>();
  auto kernel = MakeWorld();
  SpawnRoot(*kernel, [probe](ProcessContext& ctx) {
    const auto reap = [&ctx](Pid child) {
      int status = 0;
      return ctx.Wait4(child, &status, 0, nullptr) == child && WifExited(status) &&
             WExitStatus(status) == 0;
    };
    ctx.Sigvec(kSigPipe, kSigIgn, nullptr);
    ctx.Sigvec(kSigUsr1, 2, [](ProcessContext&, int) {});
    bool stopped = false;
    ctx.Sigvec(kSigChld, 2, [&stopped](ProcessContext&, int) { stopped = true; });
    ctx.Sigblock(SigMask(kSigUsr1) | SigMask(kSigChld));
    const int listener = ctx.Socket(kAfUnix, kSockStream, 0);
    ctx.BindUnix(listener, "/tmp/race.sock");
    ctx.Listen(listener, 1);
    for (int round = 0; round < kRounds; ++round) {
      int fds[2];
      // A pipe reader against the last writer's close.
      ctx.Pipe(fds);
      Pid child = ctx.Fork([fds](ProcessContext& c) {
        c.Close(fds[1]);
        char b;
        return c.Read(fds[0], &b, 1) == 0 ? 0 : 1;
      });
      ctx.Close(fds[0]);
      ctx.Close(fds[1]);
      if (!reap(child)) {
        probe->Finish(round * 10 + 1);
        return 1;
      }
      // A writer on a full pipe against the last reader's close.
      ctx.Pipe(fds);
      child = ctx.Fork([fds](ProcessContext& c) {
        c.Close(fds[0]);
        const std::string chunk(Pipe::kCapacity, 'w');
        for (;;) {
          const int64_t n = c.Write(fds[1], chunk.data(), static_cast<int64_t>(chunk.size()));
          if (n < 0) {
            return n == -kEPipe ? 0 : 1;
          }
        }
      });
      ctx.Close(fds[1]);
      ctx.Close(fds[0]);
      if (!reap(child)) {
        probe->Finish(round * 10 + 2);
        return 1;
      }
      // A socket reader against the peer's SHUT_WR.
      ctx.Socketpair(kAfUnix, kSockStream, 0, fds);
      child = ctx.Fork([fds](ProcessContext& c) {
        c.Close(fds[1]);
        char b;
        return c.Recv(fds[0], &b, 1) == 0 ? 0 : 1;
      });
      ctx.Close(fds[0]);
      ctx.Shutdown(fds[1], kShutWr);
      const bool socket_ok = reap(child);
      ctx.Close(fds[1]);
      if (!socket_ok) {
        probe->Finish(round * 10 + 3);
        return 1;
      }
      // accept against connect.
      child = ctx.Fork([listener](ProcessContext& c) { return c.Accept(listener) >= 0 ? 0 : 1; });
      const int client = ctx.Socket(kAfUnix, kSockStream, 0);
      const bool connected = ctx.ConnectUnix(client, "/tmp/race.sock") == 0;
      const bool accept_ok = reap(child);
      ctx.Close(client);
      if (!connected || !accept_ok) {
        probe->Finish(round * 10 + 4);
        return 1;
      }
      // sigpause against kill (USR1 is blocked until the child's sigpause
      // opens the mask, so an early kill waits pending instead of missing).
      child = ctx.Fork([](ProcessContext& c) { return c.Sigpause(0) == -kEIntr ? 0 : 1; });
      ctx.Kill(child, kSigUsr1);
      if (!reap(child)) {
        probe->Finish(round * 10 + 5);
        return 1;
      }
      // A stopped child against SIGCONT. Deliver the SIGCHLDs earlier
      // children left pending, then wait for this child's stop.
      ctx.Sigsetmask(SigMask(kSigUsr1));
      ctx.Sigblock(SigMask(kSigChld));
      stopped = false;
      child = ctx.Fork([](ProcessContext& c) {
        c.Kill(c.Getpid(), kSigStop);
        return 0;
      });
      while (!stopped) {
        ctx.Sigpause(SigMask(kSigUsr1));
      }
      ctx.Kill(child, kSigCont);
      if (!reap(child)) {
        probe->Finish(round * 10 + 6);
        return 1;
      }
    }
    probe->Finish(0);
    return 0;
  });
  ASSERT_TRUE(Woke(kernel, *probe, std::chrono::seconds(90)));
  EXPECT_EQ(probe->result, 0) << "round*10 + failed case";
}

}  // namespace
}  // namespace ia
