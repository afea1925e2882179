// End-to-end smoke tests: kernel substrate + raw interposition primitive.
#include <gtest/gtest.h>

#include "src/interpose/agent.h"
#include "src/kernel/kernel.h"

namespace ia {
namespace {

int RunBody(Kernel& kernel, std::function<int(ProcessContext&)> body) {
  SpawnOptions options;
  options.body = std::move(body);
  const Pid pid = kernel.Spawn(options);
  EXPECT_GT(pid, 0);
  return kernel.HostWaitPid(pid);
}

TEST(Smoke, SpawnExitStatus) {
  Kernel kernel;
  const int status = RunBody(kernel, [](ProcessContext&) { return 42; });
  ASSERT_TRUE(WifExited(status));
  EXPECT_EQ(WExitStatus(status), 42);
}

TEST(Smoke, FileRoundTrip) {
  Kernel kernel;
  const int status = RunBody(kernel, [](ProcessContext& ctx) {
    if (ctx.WriteWholeFile("/tmp/hello", "hello world") != 0) {
      return 1;
    }
    std::string back;
    if (ctx.ReadWholeFile("/tmp/hello", &back) != 0) {
      return 2;
    }
    return back == "hello world" ? 0 : 3;
  });
  EXPECT_EQ(WExitStatus(status), 0);
}

TEST(Smoke, ForkWaitPipe) {
  Kernel kernel;
  const int status = RunBody(kernel, [](ProcessContext& ctx) {
    int fds[2];
    if (ctx.Pipe(fds) != 0) {
      return 1;
    }
    const Pid child = ctx.Fork([fds](ProcessContext& c) {
      c.Close(fds[0]);
      c.WriteString(fds[1], "from child");
      c.Close(fds[1]);
      return 7;
    });
    if (child <= 0) {
      return 2;
    }
    ctx.Close(fds[1]);
    char buf[64] = {};
    const int64_t n = ctx.Read(fds[0], buf, sizeof(buf));
    if (n != 10 || std::string(buf, 10) != "from child") {
      return 3;
    }
    int child_status = 0;
    if (ctx.Wait4(child, &child_status, 0, nullptr) != child) {
      return 4;
    }
    return WExitStatus(child_status) == 7 ? 0 : 5;
  });
  EXPECT_EQ(WExitStatus(status), 0);
}

TEST(Smoke, ExecveRunsInstalledProgram) {
  Kernel kernel;
  kernel.InstallProgram("/bin/echo42", "echo42", [](ProcessContext& ctx) {
    ctx.WriteString(1, "42\n");
    return 0;
  });
  const int status = RunBody(kernel, [](ProcessContext& ctx) {
    int code = 0;
    if (ctx.Spawn("/bin/echo42", {"echo42"}, &code) != 0) {
      return 1;
    }
    return WExitStatus(code);
  });
  EXPECT_EQ(WExitStatus(status), 0);
  EXPECT_EQ(kernel.console().transcript(), "42\n");
}

TEST(Smoke, SignalHandlerRuns) {
  Kernel kernel;
  const int status = RunBody(kernel, [](ProcessContext& ctx) {
    int got = 0;
    ctx.Sigvec(kSigUsr1, 2, [&got](ProcessContext&, int signo) { got = signo; });
    ctx.Kill(ctx.Getpid(), kSigUsr1);
    return got == kSigUsr1 ? 0 : 1;
  });
  EXPECT_EQ(WExitStatus(status), 0);
}

TEST(Smoke, SigKillTerminates) {
  Kernel kernel;
  const int status = RunBody(kernel, [](ProcessContext& ctx) {
    const Pid child = ctx.Fork([](ProcessContext& c) -> int {
      for (;;) {
        c.Compute(10);
      }
    });
    ctx.Compute(100);
    ctx.Kill(child, kSigKill);
    int child_status = 0;
    ctx.Wait4(child, &child_status, 0, nullptr);
    return WifSignaled(child_status) && WTermSig(child_status) == kSigKill ? 0 : 1;
  });
  EXPECT_EQ(WExitStatus(status), 0);
}

// A raw agent at the interposition layer: adds 100 seconds to gettimeofday.
class PlusHundredAgent final : public Agent {
 public:
  std::string name() const override { return "plus100"; }
  void Init(ProcessContext&, AgentBinding& binding) override {
    binding.InterceptSyscall(kSysGettimeofday);
  }
  SyscallStatus OnSyscall(AgentCall& call) override {
    const SyscallStatus status = call.CallDown();
    auto* tp = call.args().Ptr<TimeVal>(0);
    if (status >= 0 && tp != nullptr) {
      tp->tv_sec += 100;
    }
    return status;
  }
};

TEST(Smoke, AgentInterceptsGettimeofday) {
  Kernel kernel;
  const int64_t epoch = kernel.VirtualNow() / 1000000;
  SpawnOptions options;
  options.body = [epoch](ProcessContext& ctx) {
    TimeVal tv;
    ctx.Gettimeofday(&tv, nullptr);
    return tv.tv_sec >= epoch + 100 ? 0 : 1;
  };
  const int status = RunUnderAgents(kernel, {std::make_shared<PlusHundredAgent>()}, options);
  EXPECT_EQ(WExitStatus(status), 0);
}

TEST(Smoke, AgentSurvivesForkAndExec) {
  Kernel kernel;
  kernel.InstallProgram("/bin/timecheck", "timecheck", [](ProcessContext& ctx) {
    TimeVal tv;
    ctx.Gettimeofday(&tv, nullptr);
    return tv.tv_sec >= 725846400 + 100 ? 0 : 1;
  });
  SpawnOptions options;
  options.body = [](ProcessContext& ctx) {
    int code = 0;
    if (ctx.Spawn("/bin/timecheck", {"timecheck"}, &code) != 0) {
      return 10;
    }
    return WExitStatus(code);
  };
  const int status = RunUnderAgents(kernel, {std::make_shared<PlusHundredAgent>()}, options);
  EXPECT_EQ(WExitStatus(status), 0);
}

}  // namespace
}  // namespace ia
