// Concurrency and robustness tests for the interposition machinery: one agent
// serving many processes at once (Figure 1-4), deep process trees under agents,
// agents surviving repeated exec chains, and the compiled dispatch-route cache
// (generation invalidation, dynamic re-narrowing, route churn under load).
#include "tests/test_helpers.h"

#include <atomic>
#include <bitset>
#include <climits>

#include "src/agents/chaos.h"
#include "src/agents/monitor.h"
#include "src/agents/sandbox.h"
#include "src/agents/trace.h"
#include "src/base/prng.h"
#include "src/base/strings.h"
#include "src/toolkit/toolkit.h"

namespace ia {
namespace {

using test::FileContents;
using test::MakeWorld;
using test::RunBody;
using test::RunBodyUnder;

TEST(Stress, SharedAgentManyConcurrentClients) {
  auto kernel = MakeWorld();
  auto monitor = std::make_shared<MonitorAgent>();
  constexpr int kClients = 8;
  constexpr int kCallsPerClient = 200;

  std::vector<Pid> pids;
  for (int c = 0; c < kClients; ++c) {
    SpawnOptions options;
    options.body = [](ProcessContext& ctx) {
      for (int i = 0; i < kCallsPerClient; ++i) {
        ctx.Getpid();
        if (i % 10 == 0) {
          ctx.WriteWholeFile(StringPrintf("/tmp/c%d-%d", ctx.Getpid(), i), "x");
        }
      }
      return 0;
    };
    const Pid pid = SpawnUnderAgents(*kernel, {monitor}, options);
    ASSERT_GT(pid, 0);
    pids.push_back(pid);
  }
  for (const Pid pid : pids) {
    EXPECT_EQ(WExitStatus(kernel->HostWaitPid(pid)), 0);
  }
  // All clients' calls funnelled through ONE shared agent instance.
  EXPECT_GE(monitor->CountOf(kSysGetpid), kClients * kCallsPerClient);
}

TEST(Stress, DeepForkChainPropagatesAgent) {
  auto kernel = MakeWorld();
  auto monitor = std::make_shared<MonitorAgent>();
  const int status = RunBodyUnder(*kernel, {monitor}, [](ProcessContext& ctx) {
    // Chain of 10 generations; each writes its depth.
    std::function<int(ProcessContext&, int)> descend = [&descend](ProcessContext& c,
                                                                  int depth) -> int {
      c.WriteWholeFile(StringPrintf("/tmp/depth%d", depth), "here");
      if (depth == 0) {
        return 0;
      }
      const Pid child =
          c.Fork([&descend, depth](ProcessContext& cc) { return descend(cc, depth - 1); });
      int child_status = 0;
      c.Wait4(child, &child_status, 0, nullptr);
      return WExitStatus(child_status);
    };
    return descend(ctx, 10);
  });
  EXPECT_EQ(WExitStatus(status), 0);
  for (int d = 0; d <= 10; ++d) {
    EXPECT_EQ(FileContents(*kernel, StringPrintf("/tmp/depth%d", d)), "here") << d;
  }
  // The open() for depth 0 went through the agent: propagation reached the leaf.
  EXPECT_GE(monitor->CountOf(kSysOpen), 11);
}

TEST(Stress, ExecChainKeepsAgentInstalled) {
  auto kernel = MakeWorld();
  // Program "hop" execs itself with a decremented counter, then writes DONE.
  kernel->InstallProgram("/bin/hop", "hop", [](ProcessContext& ctx) -> int {
    const int n = ctx.argv().size() > 1 ? std::atoi(ctx.argv()[1].c_str()) : 0;
    if (n <= 0) {
      ctx.WriteWholeFile("/tmp/hopped", "DONE");
      return 0;
    }
    ctx.Execve("/bin/hop", {"hop", std::to_string(n - 1)});
    return 9;  // exec failed
  });
  auto monitor = std::make_shared<MonitorAgent>();
  SpawnOptions options;
  options.path = "/bin/hop";
  options.argv = {"hop", "6"};
  const int status = RunUnderAgents(*kernel, {monitor}, options);
  EXPECT_EQ(WExitStatus(status), 0);
  EXPECT_EQ(FileContents(*kernel, "/tmp/hopped"), "DONE");
  // Every hop's execve passed through the (still installed) agent.
  EXPECT_GE(monitor->CountOf(kSysExecve), 6);
}

TEST(Stress, AgentStackFiveDeepStaysCorrect) {
  auto kernel = MakeWorld();
  class AddOne final : public SymbolicSyscall {
   public:
    std::string name() const override { return "addone"; }

   protected:
    SyscallStatus sys_gettimeofday(AgentCall& call, TimeVal* tp, TimeZone* tzp) override {
      const SyscallStatus st = SymbolicSyscall::sys_gettimeofday(call, tp, tzp);
      if (st >= 0 && tp != nullptr) {
        tp->tv_sec += 1;
      }
      return st;
    }
  };
  std::vector<AgentRef> stack;
  for (int i = 0; i < 5; ++i) {
    stack.push_back(std::make_shared<AddOne>());
  }
  const int64_t real = kernel->VirtualNow() / 1000000;
  const int status = RunBodyUnder(*kernel, stack, [real](ProcessContext& ctx) {
    TimeVal tv;
    ctx.Gettimeofday(&tv, nullptr);
    const int64_t shift = tv.tv_sec - real;
    return (shift >= 5 && shift <= 6) ? 0 : static_cast<int>(shift);
  });
  EXPECT_EQ(WExitStatus(status), 0);
}

TEST(Stress, MakeUnderStackedTraceAndMonitor) {
  auto kernel = MakeWorld();
  const std::string dir = SetupMakeWorkload(*kernel, 3);
  auto monitor = std::make_shared<MonitorAgent>();
  auto trace = std::make_shared<TraceAgent>(TraceOptions{.log_path = "/tmp/t.log"});
  SpawnOptions options;
  options.path = "/bin/make";
  options.argv = {"make"};
  options.cwd = dir;
  const int status = RunUnderAgents(*kernel, {monitor, trace}, options);
  EXPECT_EQ(WExitStatus(status), 0);
  for (int i = 1; i <= 3; ++i) {
    EXPECT_EQ(FileContents(*kernel, dir + StringPrintf("/prog%d", i)).substr(0, 4), "EXE1");
  }
  // The monitor (below trace) saw both the build's calls and trace's writes.
  EXPECT_GT(monitor->CountOf(kSysWrite), monitor->CountOf(kSysOpen));
}

TEST(Stress, KernelShutdownWithLiveAgentClients) {
  auto kernel = MakeWorld();
  auto monitor = std::make_shared<MonitorAgent>();
  for (int i = 0; i < 4; ++i) {
    SpawnOptions options;
    options.body = [](ProcessContext& ctx) -> int {
      for (;;) {
        ctx.Compute(50);
        ctx.Getpid();
      }
    };
    ASSERT_GT(SpawnUnderAgents(*kernel, {monitor}, options), 0);
  }
  // Destruction must cleanly kill and join everything (no hang, no crash).
  kernel->Shutdown();
  EXPECT_EQ(kernel->LiveProcessCount(), 0);
}


TEST(Stress, ShutdownReclaimsStoppedProcesses) {
  auto kernel = MakeWorld();
  SpawnOptions options;
  options.body = [](ProcessContext& ctx) -> int {
    // Stop ourselves; only SIGCONT/SIGKILL can move us again.
    ctx.Kill(ctx.Getpid(), kSigStop);
    ctx.Getpid();  // delivery point: parks in the stopped state
    return 0;
  };
  const Pid pid = kernel->Spawn(options);
  ASSERT_GT(pid, 0);
  // Give the process time to reach the stopped state, then tear down.
  for (int i = 0; i < 1000 && kernel->LiveProcessCount() == 0; ++i) {
  }
  kernel->Shutdown();  // must not hang on the stopped process
  EXPECT_EQ(kernel->LiveProcessCount(), 0);
}

// A raw kernel-primitive frame (no AgentHost boilerplate) that counts the calls
// routed to it and passes them through.
class CountingFrame final : public SyscallHandler {
 public:
  SyscallStatus HandleSyscall(ProcessContext& ctx, int frame, int number,
                              const SyscallArgs& args, SyscallResult* rv) override {
    hits.fetch_add(1, std::memory_order_relaxed);
    return ctx.SyscallBelow(frame, number, args, rv);
  }
  void HandleSignal(ProcessContext& ctx, int frame, int signo) override {
    ctx.ForwardSignal(frame, signo);
  }

  std::atomic<int64_t> hits{0};
};

EmulationFrame GetpidFrame(const std::shared_ptr<CountingFrame>& counter) {
  EmulationFrame frame;
  frame.handler = counter;
  frame.syscall_interest.set(kSysGetpid);
  return frame;
}

TEST(Routes, GenerationInvalidatesOnPushAndPop) {
  auto kernel = MakeWorld();
  auto counter = std::make_shared<CountingFrame>();
  const int status = RunBody(*kernel, [counter](ProcessContext& ctx) {
    EmulationStack& stack = ctx.emulation();
    const uint64_t g0 = stack.generation();
    ctx.Getpid();  // compiles the empty-stack route for getpid
    if (counter->hits.load() != 0) {
      return 1;
    }
    ctx.PushEmulation(GetpidFrame(counter));
    if (stack.generation() == g0) {
      return 2;  // push must bump the generation
    }
    ctx.Getpid();  // the stale route rebuilds and now includes the frame
    if (counter->hits.load() != 1) {
      return 3;
    }
    TimeVal tv;
    ctx.Gettimeofday(&tv, nullptr);  // uninterested number skips the frame
    if (counter->hits.load() != 1) {
      return 4;
    }
    ctx.PopEmulation();
    ctx.Getpid();  // popped frame must drop out of the route
    if (counter->hits.load() != 1) {
      return 5;
    }
    ctx.PushEmulation(GetpidFrame(counter));
    ctx.Getpid();  // and a re-push must route again
    if (counter->hits.load() != 2) {
      return 6;
    }
    ctx.PopEmulation();
    return 0;
  });
  EXPECT_EQ(WExitStatus(status), 0);
  // The exit path folded this process's route counters into the kernel tallies.
  const Kernel::RouteCacheStats stats = kernel->RouteStats();
  EXPECT_GT(stats.lookups, 0);
  EXPECT_GT(stats.builds, 0);
  EXPECT_LE(stats.builds, stats.lookups);
}

// A raw frame that the stack alone owns. On getpid it either pops itself
// or exits the process from inside the handler; either way the stack drops
// its last reference while the handler is still running.
class SelfRemovingFrame final : public SyscallHandler {
 public:
  enum class Mode { kPop, kExit };
  SelfRemovingFrame(Mode mode, bool* destroyed, bool* alive_after)
      : mode_(mode), destroyed_(destroyed), alive_after_(alive_after) {}
  ~SelfRemovingFrame() override { *destroyed_ = true; }

  SyscallStatus HandleSyscall(ProcessContext& ctx, int frame, int number,
                              const SyscallArgs& args, SyscallResult* rv) override {
    // Runs after the removal, on return or while ExitUnwind unwinds.
    struct Check {
      SelfRemovingFrame* self;
      ~Check() { *self->alive_after_ = !*self->destroyed_; }
    } check{this};
    if (mode_ == Mode::kExit) {
      ctx.Exit(7);
    }
    ctx.PopEmulation();
    return ctx.SyscallBelow(frame, number, args, rv);
  }
  void HandleSignal(ProcessContext& ctx, int frame, int signo) override {
    ctx.ForwardSignal(frame, signo);
  }

 private:
  Mode mode_;
  bool* destroyed_;
  bool* alive_after_;
};

// A frame removed while its handler runs lives until that run returns, then
// is freed.
TEST(FrameLifetime, HandlerThatPopsItselfOutlivesItsRun) {
  auto kernel = MakeWorld();
  bool destroyed = false;
  bool alive_after = false;
  const int status = RunBody(*kernel, [&](ProcessContext& ctx) {
    EmulationFrame frame;
    frame.handler = std::make_shared<SelfRemovingFrame>(SelfRemovingFrame::Mode::kPop,
                                                        &destroyed, &alive_after);
    frame.syscall_interest.set(kSysGetpid);
    ctx.PushEmulation(std::move(frame));
    if (ctx.Getpid() <= 0) {
      return 1;
    }
    if (!alive_after || !destroyed || !ctx.emulation().Empty()) {
      return 2;
    }
    return 0;
  });
  EXPECT_EQ(WExitStatus(status), 0);
}

TEST(FrameLifetime, ExitInsideAHandlerFreesTheStackAfterUnwinding) {
  auto kernel = MakeWorld();
  bool destroyed = false;
  bool alive_after = false;
  const int status = RunBody(*kernel, [&](ProcessContext& ctx) {
    EmulationFrame frame;
    frame.handler = std::make_shared<SelfRemovingFrame>(SelfRemovingFrame::Mode::kExit,
                                                        &destroyed, &alive_after);
    frame.syscall_interest.set(kSysGetpid);
    ctx.PushEmulation(std::move(frame));
    ctx.Getpid();
    return 1;  // not reached: the handler exits the process
  });
  EXPECT_TRUE(WifExited(status));
  EXPECT_EQ(WExitStatus(status), 7);
  EXPECT_TRUE(alive_after);
  EXPECT_TRUE(destroyed);
}

TEST(Routes, SetInterestRenarrowsLiveFrameInPlace) {
  auto kernel = MakeWorld();
  auto counter = std::make_shared<CountingFrame>();
  const int status = RunBody(*kernel, [counter](ProcessContext& ctx) {
    EmulationStack& stack = ctx.emulation();
    const int index = ctx.PushEmulation(GetpidFrame(counter));
    ctx.Getpid();
    if (counter->hits.load() != 1) {
      return 1;
    }
    stack.SetInterest(index, std::bitset<kMaxSyscall>(), 0);  // shed all interest
    ctx.Getpid();
    if (counter->hits.load() != 1) {
      return 2;
    }
    std::bitset<kMaxSyscall> again;
    again.set(kSysGetpid);
    stack.SetInterest(index, again, 0);  // re-widen: route must pick it back up
    ctx.Getpid();
    if (counter->hits.load() != 2) {
      return 3;
    }
    ctx.PopEmulation();
    return 0;
  });
  EXPECT_EQ(WExitStatus(status), 0);
}

TEST(Routes, ForkAndExecPreserveKeepRouting) {
  auto kernel = MakeWorld();
  kernel->InstallProgram("/bin/leaf", "leaf", [](ProcessContext& ctx) -> int {
    ctx.WriteWholeFile("/tmp/leaf", "L");
    return 0;
  });
  auto monitor = std::make_shared<MonitorAgent>();
  const int status = RunBodyUnder(*kernel, {monitor}, [](ProcessContext& ctx) {
    for (int i = 0; i < 10; ++i) {
      ctx.Getpid();
    }
    const Pid child = ctx.Fork([](ProcessContext& cc) -> int {
      for (int i = 0; i < 10; ++i) {
        cc.Getpid();  // the child's re-installed stack compiles fresh routes
      }
      cc.Execve("/bin/leaf", {"leaf"});
      return 9;  // exec failed
    });
    int child_status = 0;
    ctx.Wait4(child, &child_status, 0, nullptr);
    return WExitStatus(child_status);
  });
  EXPECT_EQ(WExitStatus(status), 0);
  EXPECT_EQ(FileContents(*kernel, "/tmp/leaf"), "L");
  // Parent and fork child both routed getpid through the shared agent, and the
  // post-exec write shows the preserved stack still routes after the image change.
  EXPECT_GE(monitor->CountOf(kSysGetpid), 20);
  EXPECT_GE(monitor->CountOf(kSysExecve), 1);
  EXPECT_GE(monitor->CountOf(kSysOpen), 1);
}

// Records the third numeric execve argument seen below an interposing agent.
class ExecArgRecorder final : public SymbolicSyscall {
 public:
  std::string name() const override { return "execargrec"; }

  std::atomic<int64_t> exec_arg2{-1};

 protected:
  SyscallStatus syscall(AgentCall& call) override {
    if (call.number() == kSysExecve) {
      exec_arg2.store(call.args().Long(2), std::memory_order_relaxed);
    }
    return SymbolicSyscall::syscall(call);
  }
};

TEST(Routes, ExecPreserveFlagLeavesApplicationArgsAlone) {
  auto kernel = MakeWorld();
  kernel->InstallProgram("/bin/hop2", "hop2", [](ProcessContext& ctx) -> int {
    ctx.WriteWholeFile("/tmp/hopped2", "DONE");
    return 0;
  });
  auto recorder = std::make_shared<ExecArgRecorder>();
  auto monitor = std::make_shared<MonitorAgent>();
  SpawnOptions options;
  // The recorder sits below the monitor: it observes the argument vector the
  // upper agent's preserve-emulation bookkeeping passed down.
  options.body = [](ProcessContext& ctx) -> int {
    ctx.process().exec_argv_staging = {"hop2"};
    SyscallArgs args;
    args.SetPtr(0, "/bin/hop2");
    args.SetInt(2, 42);  // an application-owned numeric argument
    ctx.Syscall(kSysExecve, args, nullptr);
    return 9;  // exec failed
  };
  const int status = RunUnderAgents(*kernel, {recorder, monitor}, options);
  EXPECT_EQ(WExitStatus(status), 0);
  EXPECT_EQ(FileContents(*kernel, "/tmp/hopped2"), "DONE");
  // The preserve-emulation flag rides out-of-band: the interposed exec must not
  // perturb the application's numeric arguments (it used to OR 1 into arg 2,
  // so the lower frame observed 43 here).
  EXPECT_EQ(recorder->exec_arg2.load(), 42);
  EXPECT_GE(monitor->CountOf(kSysExecve), 1);
}

TEST(Routes, InterceptAllSignalsMatchesPerSignalUnion) {
  AgentBinding all;
  all.InterceptAllSignals();
  AgentBinding each;
  for (int signo = 1; signo < kNumSignals; ++signo) {
    each.InterceptSignal(signo);
  }
  // The all-signals mask must agree bit-for-bit with the union of every valid
  // per-signal registration: no bit 0, no bits above kNumSignals.
  EXPECT_EQ(all.signals(), each.signals());
  EXPECT_EQ(all.signals(), kValidSignalsMask);
  EXPECT_EQ(all.signals() & 1u, 0u);
  // Out-of-range registrations are no-ops and cannot widen the mask.
  each.InterceptSignal(0);
  each.InterceptSignal(-3);
  each.InterceptSignal(kNumSignals);
  each.InterceptSignal(INT_MAX);
  EXPECT_EQ(each.signals(), all.signals());
}

TEST(Routes, InterceptSyscallRangeClampsExtremeBounds) {
  AgentBinding high;
  high.InterceptSyscallRange(5, INT_MAX);  // must clamp, not chase INT_MAX
  for (int n = 0; n < kMaxSyscall; ++n) {
    EXPECT_EQ(high.syscalls().test(static_cast<size_t>(n)), n >= 5) << n;
  }

  AgentBinding low;
  low.InterceptSyscallRange(INT_MIN, 3);
  EXPECT_EQ(low.syscalls().count(), 4u);
  for (int n = 0; n <= 3; ++n) {
    EXPECT_TRUE(low.syscalls().test(static_cast<size_t>(n))) << n;
  }

  AgentBinding empty;
  empty.InterceptSyscallRange(10, 5);  // inverted range registers nothing
  EXPECT_EQ(empty.syscalls().count(), 0u);

  AgentBinding whole;
  whole.InterceptSyscallRange(INT_MIN, INT_MAX);
  AgentBinding explicit_all;
  explicit_all.InterceptAllSyscalls();
  EXPECT_EQ(whole.syscalls(), explicit_all.syscalls());
}

// Counts getpid interceptions at the symbolic layer; used to observe dynamic
// use_footprint() re-narrowing of a live frame.
class GetpidCounter final : public SymbolicSyscall {
 public:
  std::string name() const override { return "getpidcount"; }

  std::atomic<int64_t> getpids{0};

 protected:
  SyscallStatus syscall(AgentCall& call) override {
    if (call.number() == kSysGetpid) {
      getpids.fetch_add(1, std::memory_order_relaxed);
    }
    return SymbolicSyscall::syscall(call);
  }
};

TEST(Routes, DynamicUseFootprintRenarrowsAndRewidens) {
  auto kernel = MakeWorld();
  auto agent = std::make_shared<GetpidCounter>();
  const int status = RunBodyUnder(*kernel, {agent}, [agent](ProcessContext& ctx) {
    for (int i = 0; i < 5; ++i) {
      ctx.Getpid();
    }
    if (agent->getpids.load() != 5) {
      return 1;
    }
    if (!agent->use_footprint(ctx, Footprint::None())) {
      return 2;
    }
    for (int i = 0; i < 5; ++i) {
      ctx.Getpid();  // re-narrowed: must bypass the agent's frame
    }
    if (agent->getpids.load() != 5) {
      return 3;
    }
    // Fork propagation survives the narrow (the bookkeeping rows stay set), and
    // the child inherits the recorded narrow footprint.
    const Pid child = ctx.Fork([](ProcessContext& cc) -> int {
      for (int i = 0; i < 3; ++i) {
        cc.Getpid();
      }
      return 0;
    });
    int child_status = 0;
    ctx.Wait4(child, &child_status, 0, nullptr);
    if (WExitStatus(child_status) != 0) {
      return 4;
    }
    if (agent->getpids.load() != 5) {
      return 5;
    }
    if (!agent->use_footprint(ctx, Footprint::All())) {
      return 6;
    }
    for (int i = 0; i < 5; ++i) {
      ctx.Getpid();  // re-widened: intercepted again
    }
    if (agent->getpids.load() != 10) {
      return 7;
    }
    return 0;
  });
  EXPECT_EQ(WExitStatus(status), 0);
}

TEST(Routes, SandboxDropSyscallBudgetKeepsPolicyArmed) {
  auto kernel = MakeWorld();
  SandboxPolicy policy;
  policy.read_prefixes = {"/"};
  policy.write_prefixes = {"/tmp"};
  policy.max_syscalls = 5000;
  auto sandbox = std::make_shared<SandboxAgent>(policy);
  const int status = RunBodyUnder(*kernel, {sandbox}, [sandbox](ProcessContext& ctx) {
    for (int i = 0; i < 10; ++i) {
      ctx.Getpid();
    }
    if (!sandbox->DropSyscallBudget(ctx)) {
      return 1;
    }
    // Far past the original budget: with the budget lifted (and getpid off the
    // narrowed footprint) the client must survive.
    for (int i = 0; i < 10000; ++i) {
      ctx.Getpid();
    }
    if (ctx.WriteWholeFile("/tmp/ok", "y") < 0) {
      return 2;
    }
    const int fd = ctx.Open("/etc/forbidden", kOWronly | kOCreat);
    if (fd != -kEPerm) {
      return 3;  // pathname policy must still deny writes outside /tmp
    }
    return 0;
  });
  EXPECT_EQ(WExitStatus(status), 0);
  EXPECT_GE(sandbox->violations(), 1);
}

TEST(Routes, ChaosQuiesceEndsInjectionWindow) {
  auto kernel = MakeWorld();
  FaultPlan plan;
  plan.number_rules.push_back(
      FaultNumberRule{.number = kSysGetpid, .probability = 1.0, .errno_value = kEIo});
  auto chaos = std::make_shared<ChaosAgent>(plan);
  const int status = RunBodyUnder(*kernel, {chaos}, [chaos](ProcessContext& ctx) {
    SyscallArgs args;
    SyscallResult rv;
    if (ctx.Syscall(kSysGetpid, args, &rv) != -kEIo) {
      return 1;  // the plan must be injecting before the quiesce
    }
    if (!chaos->Quiesce(ctx)) {
      return 2;
    }
    for (int i = 0; i < 100; ++i) {
      if (ctx.Syscall(kSysGetpid, args, &rv) < 0) {
        return 3;  // quiesced: every call passes clean
      }
    }
    return 0;
  });
  EXPECT_EQ(WExitStatus(status), 0);
  EXPECT_GE(chaos->TotalInjected(), 1);
}

TEST(Routes, CompiledRoutesMatchTheUncompiledReferenceScan) {
  // The route oracle: seeded random Push/Pop/SetInterest sequences, and after
  // every step each number's compiled route must list exactly the frames the
  // uncompiled NextInterestedBelow chain visits from the top of the stack.
  // Rows: seed, steps, deepest stack, percent of numbers each frame wants.
  struct Case {
    uint64_t seed;
    int steps;
    int max_depth;
    uint64_t interest_pct;
  };
  const Case kCases[] = {
      {1, 120, 4, 5}, {0x5eed, 120, 8, 30}, {42, 160, 16, 60}, {0xfeed, 80, 3, 95},
  };
  for (const Case& c : kCases) {
    Prng prng(c.seed);
    auto random_interest = [&prng, &c] {
      std::bitset<kMaxSyscall> interest;
      for (int n = 0; n < kMaxSyscall; ++n) {
        interest.set(static_cast<size_t>(n), prng.Below(100) < c.interest_pct);
      }
      return interest;
    };
    EmulationStack stack;
    for (int step = 0; step < c.steps; ++step) {
      const uint64_t op = prng.Below(3);
      if (op == 0 && stack.Depth() < c.max_depth) {
        EmulationFrame frame;
        frame.syscall_interest = random_interest();
        stack.Push(std::move(frame));
      } else if (op == 1) {
        stack.Pop();
      } else if (!stack.Empty()) {
        const int index = static_cast<int>(prng.Below(static_cast<uint64_t>(stack.Depth())));
        stack.SetInterest(index, random_interest(), 0);
      }
      for (int n = 0; n < kMaxSyscall; ++n) {
        std::vector<int16_t> expected;
        for (int f = stack.NextInterestedBelow(stack.Depth(), n); f >= 0;
             f = stack.NextInterestedBelow(f, n)) {
          expected.push_back(static_cast<int16_t>(f));
        }
        ASSERT_EQ(stack.RouteFor(n).hops, expected)
            << "seed " << c.seed << " step " << step << " number " << n;
      }
    }
  }
}

TEST(Stress, RouteChurnManyClientsStaysCoherent) {
  auto kernel = MakeWorld();
  auto monitor = std::make_shared<MonitorAgent>();
  auto counter = std::make_shared<CountingFrame>();
  constexpr int kClients = 8;
  constexpr int kIters = 300;

  std::vector<Pid> pids;
  for (int c = 0; c < kClients; ++c) {
    SpawnOptions options;
    options.body = [counter](ProcessContext& ctx) -> int {
      for (int i = 0; i < kIters; ++i) {
        ctx.Getpid();  // steady-state route hit
        if (i % 7 == 0) {
          // Per-client stack churn: push a private frame above the shared
          // agent, route one call through it, pop it again.
          ctx.PushEmulation(GetpidFrame(counter));
          ctx.Getpid();
          ctx.PopEmulation();
        }
        if (i % 97 == 0) {
          const Pid child = ctx.Fork([](ProcessContext& cc) -> int {
            for (int j = 0; j < 20; ++j) {
              cc.Getpid();
            }
            return 0;
          });
          int child_status = 0;
          ctx.Wait4(child, &child_status, 0, nullptr);
          if (WExitStatus(child_status) != 0) {
            return 1;
          }
        }
      }
      return 0;
    };
    const Pid pid = SpawnUnderAgents(*kernel, {monitor}, options);
    ASSERT_GT(pid, 0);
    pids.push_back(pid);
  }
  for (const Pid pid : pids) {
    EXPECT_EQ(WExitStatus(kernel->HostWaitPid(pid)), 0);
  }
  // Every churned frame call was routed (43 pushes per client), and the shared
  // monitor below kept counting through all the per-client invalidations.
  EXPECT_GE(counter->hits.load(), kClients * 43);
  EXPECT_GE(monitor->CountOf(kSysGetpid), kClients * kIters);
}

TEST(Stress, ManySequentialWorldsNoLeakage) {
  // Agents hold per-world descriptors; repeated worlds must not interfere.
  for (int round = 0; round < 5; ++round) {
    auto kernel = MakeWorld();
    auto trace = std::make_shared<TraceAgent>(TraceOptions{.log_path = "/tmp/t.log"});
    const int status = RunBodyUnder(*kernel, {trace}, [](ProcessContext& ctx) {
      ctx.WriteWholeFile("/tmp/file", "x");
      return 0;
    });
    EXPECT_EQ(WExitStatus(status), 0);
    EXPECT_NE(FileContents(*kernel, "/tmp/t.log").find("open("), std::string::npos)
        << "round " << round;
  }
}

}  // namespace
}  // namespace ia
