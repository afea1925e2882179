// Toolkit layer tests: interception routing, symbolic decode, descriptor and
// pathname object mechanics, directory iteration, call-down semantics.
#include "tests/test_helpers.h"

#include <atomic>

#include "src/base/strings.h"
#include "src/kernel/direntry_codec.h"
#include "src/toolkit/toolkit.h"

namespace ia {
namespace {

using test::ExitCodeOf;
using test::FileContents;
using test::MakeWorld;
using test::RunBodyUnder;

// ---------------------------------------------------------------------------
// Numeric layer.
// ---------------------------------------------------------------------------

// Records every number it sees; interest limited to a chosen set.
class RecordingAgent final : public NumericSyscall {
 public:
  explicit RecordingAgent(std::vector<int> interests) : interests_(std::move(interests)) {}

  std::string name() const override { return "recording"; }

  int64_t SeenCount(int number) {
    std::lock_guard<std::mutex> lock(mu_);
    int64_t count = 0;
    for (const int n : seen_) {
      if (n == number) {
        ++count;
      }
    }
    return count;
  }

  int64_t TotalSeen() {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int64_t>(seen_.size());
  }

 protected:
  void init(ProcessContext&) override {
    for (const int n : interests_) {
      register_interest(n);
    }
  }

  SyscallStatus syscall(AgentCall& call) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      seen_.push_back(call.number());
    }
    return call.CallDown();
  }

 private:
  std::vector<int> interests_;
  std::mutex mu_;
  std::vector<int> seen_;
};

TEST(NumericLayer, OnlyRegisteredCallsIntercepted) {
  auto kernel = MakeWorld();
  auto agent = std::make_shared<RecordingAgent>(std::vector<int>{kSysGetpid});
  const int status = RunBodyUnder(*kernel, {agent}, [](ProcessContext& ctx) {
    ctx.Getpid();
    ctx.Getpid();
    TimeVal tv;
    ctx.Gettimeofday(&tv, nullptr);  // NOT registered
    return 0;
  });
  EXPECT_EQ(WExitStatus(status), 0);
  EXPECT_EQ(agent->SeenCount(kSysGetpid), 2);
  EXPECT_EQ(agent->SeenCount(kSysGettimeofday), 0);
}

TEST(NumericLayer, ResultModificationVisibleToClient) {
  auto kernel = MakeWorld();
  // An agent that makes getpid() lie.
  class LyingAgent final : public NumericSyscall {
   public:
    std::string name() const override { return "liar"; }

   protected:
    void init(ProcessContext&) override { register_interest(kSysGetpid); }
    SyscallStatus syscall(AgentCall& call) override {
      const SyscallStatus st = call.CallDown();
      call.rv()->rv[0] = 31337;
      return st;
    }
  };
  const int status = RunBodyUnder(*kernel, {std::make_shared<LyingAgent>()},
                                  [](ProcessContext& ctx) {
                                    return ctx.Getpid() == 31337 ? 0 : 1;
                                  });
  EXPECT_EQ(WExitStatus(status), 0);
}

TEST(NumericLayer, AgentCanDenyCalls) {
  auto kernel = MakeWorld();
  class DenyUnlink final : public NumericSyscall {
   public:
    std::string name() const override { return "deny_unlink"; }

   protected:
    void init(ProcessContext&) override { register_interest(kSysUnlink); }
    SyscallStatus syscall(AgentCall&) override { return -kEPerm; }
  };
  kernel->fs().InstallFile("/tmp/protected", "keep me");
  const int status = RunBodyUnder(*kernel, {std::make_shared<DenyUnlink>()},
                                  [](ProcessContext& ctx) {
                                    return ctx.Unlink("/tmp/protected") == -kEPerm ? 0 : 1;
                                  });
  EXPECT_EQ(WExitStatus(status), 0);
  EXPECT_EQ(FileContents(*kernel, "/tmp/protected"), "keep me");
}

TEST(NumericLayer, RangeRegistration) {
  auto kernel = MakeWorld();
  auto agent = std::make_shared<RecordingAgent>(std::vector<int>{});
  // Use a custom agent with a range instead.
  class RangeAgent final : public NumericSyscall {
   public:
    std::string name() const override { return "range"; }
    std::atomic<int> hits{0};

   protected:
    void init(ProcessContext&) override {
      register_interest_range(kSysGetpid, kSysGeteuid);  // 20..25
    }
    SyscallStatus syscall(AgentCall& call) override {
      ++hits;
      return call.CallDown();
    }
  };
  auto range_agent = std::make_shared<RangeAgent>();
  RunBodyUnder(*kernel, {range_agent}, [](ProcessContext& ctx) {
    ctx.Getpid();   // 20: in range
    ctx.Getuid();   // 24: in range
    ctx.Geteuid();  // 25: in range
    ctx.Getgid();   // 47: not in range
    return 0;
  });
  EXPECT_EQ(range_agent->hits.load(), 3);
}

// ---------------------------------------------------------------------------
// Symbolic layer.
// ---------------------------------------------------------------------------

// Checks that the decoder hands each sys_* the correctly typed arguments.
class DecodeChecker final : public SymbolicSyscall {
 public:
  std::string name() const override { return "decode_checker"; }
  std::atomic<int> failures{0};
  std::atomic<int> checks{0};

 protected:
  SyscallStatus sys_open(AgentCall& call, const char* path, int flags, Mode mode) override {
    ++checks;
    if (path == nullptr || std::string(path) != "/tmp/decode" || (flags & kOCreat) == 0 ||
        mode != 0612) {
      ++failures;
    }
    return SymbolicSyscall::sys_open(call, path, flags, mode);
  }
  SyscallStatus sys_write(AgentCall& call, int fd, const void* buf, int64_t cnt) override {
    if (fd >= 3) {  // ignore stdio writes from the loader
      ++checks;
      if (buf == nullptr || cnt != 6 ||
          std::string(static_cast<const char*>(buf), 6) != "decode") {
        ++failures;
      }
    }
    return SymbolicSyscall::sys_write(call, fd, buf, cnt);
  }
  SyscallStatus sys_lseek(AgentCall& call, int fd, Off offset, int whence) override {
    ++checks;
    if (offset != -3 || whence != kSeekEnd) {
      ++failures;
    }
    return SymbolicSyscall::sys_lseek(call, fd, offset, whence);
  }
  SyscallStatus sys_kill(AgentCall& call, Pid pid, int signo) override {
    ++checks;
    if (signo != 0) {
      ++failures;
    }
    return SymbolicSyscall::sys_kill(call, pid, signo);
  }
};

TEST(SymbolicLayer, DecodePassesTypedArguments) {
  auto kernel = MakeWorld();
  auto checker = std::make_shared<DecodeChecker>();
  const int status = RunBodyUnder(*kernel, {checker}, [](ProcessContext& ctx) {
    const int fd = ctx.Open("/tmp/decode", kOCreat | kOWronly, 0612);
    ctx.Write(fd, "decode", 6);
    ctx.Lseek(fd, -3, kSeekEnd);
    ctx.Kill(ctx.Getpid(), 0);
    return 0;
  });
  EXPECT_EQ(WExitStatus(status), 0);
  EXPECT_EQ(checker->failures.load(), 0);
  EXPECT_GE(checker->checks.load(), 4);
}

TEST(SymbolicLayer, GenericHookSeesUntreatedCalls) {
  auto kernel = MakeWorld();
  class GenericCounter final : public SymbolicSyscall {
   public:
    std::string name() const override { return "generic_counter"; }
    std::atomic<int> generic_hits{0};

   protected:
    SyscallStatus sys_generic(AgentCall& call) override {
      ++generic_hits;
      return SymbolicSyscall::sys_generic(call);
    }
    SyscallStatus sys_getpid(AgentCall& call) override {
      return SymbolicSyscall::sys_getpid(call);  // treated: bypasses sys_generic? No —
      // the default of sys_getpid IS sys_generic; this override calls the base
      // default, which funnels to sys_generic. Count stays meaningful for gettimeofday.
    }
  };
  auto agent = std::make_shared<GenericCounter>();
  RunBodyUnder(*kernel, {agent}, [](ProcessContext& ctx) {
    TimeVal tv;
    ctx.Gettimeofday(&tv, nullptr);
    return 0;
  });
  EXPECT_GE(agent->generic_hits.load(), 1);
}

// ---------------------------------------------------------------------------
// Descriptor layer.
// ---------------------------------------------------------------------------

TEST(DescriptorLayer, TracksOpensDupsAndCloses) {
  auto kernel = MakeWorld();
  class TrackingSet final : public DescriptorSet {
   public:
    std::string name() const override { return "tracking"; }
  };
  auto agent = std::make_shared<TrackingSet>();
  Pid client_pid = 0;
  const int status = RunBodyUnder(*kernel, {agent}, [&](ProcessContext& ctx) {
    client_pid = ctx.Getpid();
    const int fd = ctx.Open("/etc/motd", kORdonly);
    const int d = ctx.Dup(fd);
    if (agent->TrackedCount(client_pid) < 2) {
      return 1;
    }
    ctx.Close(fd);
    ctx.Close(d);
    return 0;
  });
  EXPECT_EQ(WExitStatus(status), 0);
  EXPECT_EQ(agent->TrackedCount(client_pid), 0);
}

// exit(2) retires the caller's whole table, open objects included: 100
// forked children each exit holding a descriptor, and once the parent has
// reaped them and exited too, no process has a table left.
TEST(DescriptorLayer, ExitDropsTheCallersTable) {
  constexpr int kChildren = 100;
  auto kernel = MakeWorld();
  class TrackingSet final : public DescriptorSet {
   public:
    std::string name() const override { return "tracking"; }
  };
  auto agent = std::make_shared<TrackingSet>();
  std::vector<Pid> children;
  const int status = RunBodyUnder(*kernel, {agent}, [&](ProcessContext& ctx) {
    for (int i = 0; i < kChildren; ++i) {
      const Pid child = ctx.Fork([&agent](ProcessContext& c) {
        const int fd = c.Open("/etc/motd", kORdonly);
        return fd >= 0 && agent->TrackedCount(c.Getpid()) > 0 ? 0 : 1;
      });
      int wait_status = 0;
      if (child <= 0 || ctx.Wait4(child, &wait_status, 0, nullptr) != child ||
          !WifExited(wait_status) || WExitStatus(wait_status) != 0) {
        return 1;
      }
      children.push_back(child);
    }
    return 0;
  });
  EXPECT_EQ(WExitStatus(status), 0);
  ASSERT_EQ(children.size(), static_cast<size_t>(kChildren));
  int tracked = 0;
  for (const Pid child : children) {
    tracked += agent->TrackedCount(child);
  }
  EXPECT_EQ(tracked, 0);
  EXPECT_EQ(agent->TrackedProcesses(), 0u);
}

// A descriptor number no process can hold reaches the table through the lazy
// lookup: the call fails with EBADF below, and the table does not grow to
// that number (a table sized by it would exhaust memory).
TEST(DescriptorLayer, OutOfRangeDescriptorIsNotTracked) {
  auto kernel = MakeWorld();
  class TrackingSet final : public DescriptorSet {
   public:
    std::string name() const override { return "tracking"; }
  };
  auto agent = std::make_shared<TrackingSet>();
  Pid client_pid = 0;
  const int status = RunBodyUnder(*kernel, {agent}, [&](ProcessContext& ctx) {
    client_pid = ctx.Getpid();
    const char byte = 'x';
    for (const int fd : {kMaxFilesPerProcess, 1 << 30, 0x7fffffff, -1}) {
      if (ctx.Write(fd, &byte, 1) != -kEBadf) {
        return 1;
      }
    }
    return 0;
  });
  EXPECT_EQ(WExitStatus(status), 0);
  EXPECT_EQ(agent->TrackedCount(client_pid), 0);
  EXPECT_EQ(kernel->ContainmentStats().traps, 0);
}

// A custom open object that upper-cases everything read through it.
class UppercaseObject final : public OpenObject {
 public:
  using OpenObject::OpenObject;
  SyscallStatus read(AgentCall& call, void* buf, int64_t cnt) override {
    const SyscallStatus st = OpenObject::read(call, buf, cnt);
    if (st > 0) {
      auto* chars = static_cast<char*>(buf);
      for (int64_t i = 0; i < st; ++i) {
        if (chars[i] >= 'a' && chars[i] <= 'z') {
          chars[i] = static_cast<char>(chars[i] - 'a' + 'A');
        }
      }
    }
    return st;
  }
};

class UppercaseAgent final : public PathnameSet {
 public:
  std::string name() const override { return "uppercase"; }

 protected:
  // The uppercase object transforms the data plane, so the footprint must keep
  // the descriptor rows on top of the pathname default.
  Footprint default_footprint() const override {
    return PathnameSet::default_footprint().Merge(Footprint::Classes(kTakesFd));
  }

  OpenObjectRef MakeDefaultObject(AgentCall& call, int fd, std::string_view p) override {
    if (StartsWith(p, "/loud")) {
      return std::make_shared<UppercaseObject>(fd);
    }
    return PathnameSet::MakeDefaultObject(call, fd, p);
  }
};

TEST(DescriptorLayer, CustomObjectsInterposeOnReads) {
  auto kernel = MakeWorld();
  kernel->fs().InstallFile("/loud/shout.txt", "hello world");
  kernel->fs().InstallFile("/tmp/quiet.txt", "hello world");
  const int status = RunBodyUnder(
      *kernel, {std::make_shared<UppercaseAgent>()}, [](ProcessContext& ctx) {
        std::string loud;
        ctx.ReadWholeFile("/loud/shout.txt", &loud);
        if (loud != "HELLO WORLD") {
          return 1;
        }
        std::string quiet;
        ctx.ReadWholeFile("/tmp/quiet.txt", &quiet);
        if (quiet != "hello world") {
          return 2;
        }
        // dup()'d descriptors share the same object.
        const int fd = ctx.Open("/loud/shout.txt", kORdonly);
        const int d = ctx.Dup(fd);
        char buf[6] = {};
        ctx.Read(d, buf, 5);
        if (std::string(buf) != "HELLO") {
          return 3;
        }
        return 0;
      });
  EXPECT_EQ(WExitStatus(status), 0);
}

// ---------------------------------------------------------------------------
// Pathname layer.
// ---------------------------------------------------------------------------

// Redirects /virtual/... to /real/... — the minimal name-space transformer.
class RedirectAgent final : public PathnameSet {
 public:
  std::string name() const override { return "redirect"; }

 protected:
  PathnameRef getpn(AgentCall& call, const char* p) override {
    const std::string absolute = AbsoluteClientPath(call, p);
    if (StartsWith(absolute, "/virtual")) {
      return std::make_unique<Pathname>(this, "/real" + absolute.substr(8));
    }
    return PathnameSet::getpn(call, p);
  }
};

TEST(PathnameLayer, GetpnRedirectsAllPathCalls) {
  auto kernel = MakeWorld();
  kernel->fs().MkdirAll("/real");
  const int status = RunBodyUnder(
      *kernel, {std::make_shared<RedirectAgent>()}, [](ProcessContext& ctx) {
        if (ctx.WriteWholeFile("/virtual/f.txt", "redirected") != 0) {
          return 1;
        }
        ia::Stat st;
        if (ctx.Stat("/virtual/f.txt", &st) != 0 || st.st_size != 10) {
          return 2;
        }
        if (ctx.Mkdir("/virtual/sub") != 0) {
          return 3;
        }
        if (ctx.Rename("/virtual/f.txt", "/virtual/sub/g.txt") != 0) {
          return 4;
        }
        std::string back;
        if (ctx.ReadWholeFile("/virtual/sub/g.txt", &back) != 0 || back != "redirected") {
          return 5;
        }
        if (ctx.Unlink("/virtual/sub/g.txt") != 0) {
          return 6;
        }
        if (ctx.Rmdir("/virtual/sub") != 0) {
          return 7;
        }
        return 0;
      });
  EXPECT_EQ(WExitStatus(status), 0);
  // Everything materialized under /real, nothing under /virtual.
  EXPECT_EQ(FileContents(*kernel, "/virtual"), "<missing>");
}

TEST(PathnameLayer, RelativePathsNormalizedAgainstCwd) {
  auto kernel = MakeWorld();
  kernel->fs().MkdirAll("/real");
  kernel->fs().MkdirAll("/virtual");  // must exist for chdir below
  kernel->fs().InstallFile("/real/inside.txt", "found");
  const int status = RunBodyUnder(
      *kernel, {std::make_shared<RedirectAgent>()}, [](ProcessContext& ctx) {
        // NOTE: chdir("/virtual") itself is redirected to /real.
        if (ctx.Chdir("/virtual") != 0) {
          return 1;
        }
        std::string data;
        if (ctx.ReadWholeFile("inside.txt", &data) != 0) {
          return 2;
        }
        return data == "found" ? 0 : 3;
      });
  EXPECT_EQ(WExitStatus(status), 0);
}

// A handle built from an empty unique_ptr holds nothing and is released like
// the unique_ptr it replaced; a derived object keeps its own text.
TEST(PathnameLayer, RefFromEmptyOrDerivedObject) {
  {
    PathnameRef empty(std::unique_ptr<Pathname>{});
    EXPECT_EQ(empty.operator->(), nullptr);
  }
  PathnameRef derived(std::make_unique<Pathname>(nullptr, std::string("/real/x")));
  EXPECT_EQ(derived->path(), "/real/x");
  EXPECT_STREQ(derived->c_str(), "/real/x");
}

// ---------------------------------------------------------------------------
// Directory objects (layer 3).
// ---------------------------------------------------------------------------

// Filters "*.o" entries out of directory listings.
class HideObjectsDirectory final : public Directory {
 public:
  using Directory::Directory;
  int next_direntry(AgentCall& call, Dirent* out) override {
    for (;;) {
      const int got = Directory::next_direntry(call, out);
      if (got <= 0) {
        return got;
      }
      if (!EndsWith(out->d_name, ".o")) {
        return 1;
      }
    }
  }
};

class HideObjectsAgent final : public PathnameSet {
 public:
  std::string name() const override { return "hide_objects"; }

 protected:
  // The filtering iterator lives behind getdirentries/lseek, so merge the
  // direntry rows back on top of the pathname default.
  Footprint default_footprint() const override {
    return PathnameSet::default_footprint().Merge(Footprint::Direntry());
  }

  OpenObjectRef MakeDefaultObject(AgentCall& call, int fd, std::string_view p) override {
    DownApi api(call);
    Stat st;
    if (api.Fstat(fd, &st) == 0 && SIsDir(st.st_mode)) {
      return std::make_shared<HideObjectsDirectory>(fd);
    }
    return PathnameSet::MakeDefaultObject(call, fd, p);
  }
};

TEST(DirectoryLayer, DerivedIteratorFiltersEntries) {
  auto kernel = MakeWorld();
  kernel->fs().InstallFile("/proj/a.c", "");
  kernel->fs().InstallFile("/proj/a.o", "");
  kernel->fs().InstallFile("/proj/b.c", "");
  kernel->fs().InstallFile("/proj/b.o", "");
  const int status = RunBodyUnder(
      *kernel, {std::make_shared<HideObjectsAgent>()}, [](ProcessContext& ctx) {
        std::vector<std::string> names;
        if (ctx.ListDirectory("/proj", &names) != 0) {
          return 1;
        }
        for (const std::string& name : names) {
          if (EndsWith(name, ".o")) {
            return 2;
          }
        }
        int c_files = 0;
        for (const std::string& name : names) {
          if (EndsWith(name, ".c")) {
            ++c_files;
          }
        }
        return c_files == 2 ? 0 : 3;
      });
  EXPECT_EQ(WExitStatus(status), 0);
}

TEST(DirectoryLayer, SmallBufferPushbackWorks) {
  auto kernel = MakeWorld();
  for (int i = 0; i < 12; ++i) {
    kernel->fs().InstallFile(StringPrintf("/dirbuf/a-rather-long-file-name-%02d", i), "");
  }
  class PlainDirAgent final : public PathnameSet {
   public:
    std::string name() const override { return "plaindir"; }
  };
  const int status = RunBodyUnder(
      *kernel, {std::make_shared<PlainDirAgent>()}, [](ProcessContext& ctx) {
        const int fd = ctx.Open("/dirbuf", kORdonly);
        char tiny[48];  // roughly one record per call
        int64_t base = 0;
        int total = 0;
        for (;;) {
          const int n = ctx.Getdirentries(fd, tiny, sizeof(tiny), &base);
          if (n < 0) {
            return 1;
          }
          if (n == 0) {
            break;
          }
          total += static_cast<int>(DecodeDirents(tiny, n).size());
        }
        return total == 14 ? 0 : 2;  // 12 files + dot entries
      });
  EXPECT_EQ(WExitStatus(status), 0);
}

// ---------------------------------------------------------------------------
// Call-down semantics.
// ---------------------------------------------------------------------------


TEST(DescriptorLayer, CustomObjectsSurviveExecOnInheritedFds) {
  auto kernel = MakeWorld();
  kernel->fs().InstallFile("/loud/banner.txt", "quiet text");
  // The exec'd image reads fd 9, which the pre-exec image pointed at a custom
  // uppercasing object. The object must keep interposing after the image change.
  kernel->InstallProgram("/bin/reader9", "reader9", [](ProcessContext& ctx) {
    char buf[16] = {};
    const int64_t n = ctx.Read(9, buf, 10);
    if (n != 10) {
      return 1;
    }
    return std::string(buf, 10) == "QUIET TEXT" ? 0 : 2;
  });
  const int status = RunBodyUnder(
      *kernel, {std::make_shared<UppercaseAgent>()}, [](ProcessContext& ctx) {
        const int fd = ctx.Open("/loud/banner.txt", kORdonly);
        ctx.Dup2(fd, 9);
        ctx.Close(fd);
        ctx.Execve("/bin/reader9", {"reader9"});
        return 99;
      });
  EXPECT_EQ(WExitStatus(status), 0);
}

TEST(DescriptorLayer, CloexecObjectsDroppedOnExec) {
  auto kernel = MakeWorld();
  kernel->fs().InstallFile("/loud/secret.txt", "hidden");
  kernel->InstallProgram("/bin/probe9", "probe9", [](ProcessContext& ctx) {
    char buf[8];
    return ctx.Read(9, buf, 8) == -kEBadf ? 0 : 1;
  });
  const int status = RunBodyUnder(
      *kernel, {std::make_shared<UppercaseAgent>()}, [](ProcessContext& ctx) {
        const int fd = ctx.Open("/loud/secret.txt", kORdonly);
        ctx.Dup2(fd, 9);
        ctx.Close(fd);
        ctx.Fcntl(9, kFSetfd, 1);  // close-on-exec
        ctx.Execve("/bin/probe9", {"probe9"});
        return 99;
      });
  EXPECT_EQ(WExitStatus(status), 0);
}

TEST(CallDown, AgentOwnIoBypassesItself) {
  auto kernel = MakeWorld();
  // An agent that writes a log line on every unlink — through the lower
  // interface. If its own write() re-entered itself it would recurse.
  class LoggingUnlink final : public SymbolicSyscall {
   public:
    std::string name() const override { return "logging_unlink"; }
    std::atomic<int> unlinks_seen{0};

   protected:
    SyscallStatus sys_unlink(AgentCall& call, const char* p) override {
      ++unlinks_seen;
      DownApi api(call);
      const int log_fd = api.Open("/tmp/unlink.log", kOWronly | kOCreat | kOAppend, 0644);
      api.WriteString(log_fd, StringPrintf("unlink %s\n", p != nullptr ? p : "?"));
      api.Close(log_fd);
      return SymbolicSyscall::sys_unlink(call, p);
    }
  };
  auto agent = std::make_shared<LoggingUnlink>();
  kernel->fs().InstallFile("/tmp/victim1", "");
  kernel->fs().InstallFile("/tmp/victim2", "");
  const int status = RunBodyUnder(*kernel, {agent}, [](ProcessContext& ctx) {
    ctx.Unlink("/tmp/victim1");
    ctx.Unlink("/tmp/victim2");
    return 0;
  });
  EXPECT_EQ(WExitStatus(status), 0);
  EXPECT_EQ(agent->unlinks_seen.load(), 2);
  EXPECT_EQ(FileContents(*kernel, "/tmp/unlink.log"),
            "unlink /tmp/victim1\nunlink /tmp/victim2\n");
}

TEST(CallDown, UpperAgentCallsFlowThroughLowerAgent) {
  auto kernel = MakeWorld();
  auto lower = std::make_shared<RecordingAgent>(std::vector<int>{kSysWrite});
  class UpperWriter final : public NumericSyscall {
   public:
    std::string name() const override { return "upper_writer"; }

   protected:
    void init(ProcessContext&) override { register_interest(kSysGetpid); }
    SyscallStatus syscall(AgentCall& call) override {
      // On getpid, write a byte via the lower interface.
      DownApi api(call);
      const int fd = api.Open("/tmp/upper.log", kOWronly | kOCreat | kOAppend, 0644);
      api.Write(fd, "x", 1);
      api.Close(fd);
      return call.CallDown();
    }
  };
  RunBodyUnder(*kernel, {lower, std::make_shared<UpperWriter>()},
               [](ProcessContext& ctx) {
                 ctx.Getpid();
                 return 0;
               });
  // The lower agent must have seen the upper agent's write (Figure 1-3 stacking).
  EXPECT_GE(lower->SeenCount(kSysWrite), 1);
}

TEST(Signals, AgentSeesSignalBeforeApplication) {
  auto kernel = MakeWorld();
  class SignalTap final : public NumericSyscall {
   public:
    std::string name() const override { return "signal_tap"; }
    std::atomic<int> taps{0};
    std::atomic<bool> swallow{false};

   protected:
    void init(ProcessContext&) override { register_signal_interest(kSigUsr1); }
    void signal_handler(AgentSignal& signal) override {
      ++taps;
      if (!swallow.load()) {
        signal.ForwardUp();
      }
    }
  };
  auto tap = std::make_shared<SignalTap>();
  const int status = RunBodyUnder(*kernel, {tap}, [&tap](ProcessContext& ctx) {
    int app_got = 0;
    ctx.Sigvec(kSigUsr1, 2, [&app_got](ProcessContext&, int) { ++app_got; });
    ctx.Kill(ctx.Getpid(), kSigUsr1);
    ctx.Getpid();
    if (app_got != 1) {
      return 1;  // forwarded to the application
    }
    tap->swallow.store(true);
    ctx.Kill(ctx.Getpid(), kSigUsr1);
    ctx.Getpid();
    if (app_got != 1) {
      return 2;  // swallowed by the agent: the app never saw it
    }
    return 0;
  });
  EXPECT_EQ(WExitStatus(status), 0);
  EXPECT_EQ(tap->taps.load(), 2);
}

TEST(Signals, AgentCanSwallowTerminationSignal) {
  auto kernel = MakeWorld();
  class Shield final : public NumericSyscall {
   public:
    std::string name() const override { return "shield"; }

   protected:
    void init(ProcessContext&) override { register_signal_interest(kSigTerm); }
    void signal_handler(AgentSignal&) override {
      // Do not forward: the client survives SIGTERM.
    }
  };
  const int status = RunBodyUnder(*kernel, {std::make_shared<Shield>()},
                                  [](ProcessContext& ctx) {
                                    ctx.Kill(ctx.Getpid(), kSigTerm);
                                    ctx.Getpid();  // delivery point; shield absorbs
                                    return 0;      // still alive
                                  });
  EXPECT_TRUE(WifExited(status));
  EXPECT_EQ(WExitStatus(status), 0);
}

}  // namespace
}  // namespace ia
