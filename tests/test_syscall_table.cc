// The syscall specification table (src/kernel/syscalls.def) is the single
// source of truth for the system interface. These tests pin its completeness:
// every kSys* constant in types.h has a named row, every implemented row has a
// kernel dispatch handler and a symbolic-layer decode arm, name lookups round
// trip, and the kernel's per-syscall counters observe real traffic.
#include "tests/test_helpers.h"

#include <cstdio>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include "src/agents/monitor.h"
#include "src/kernel/syscall_table.h"
#include "src/toolkit/toolkit.h"

namespace ia {
namespace {

using test::FileContents;
using test::MakeWorld;
using test::RunBody;
using test::RunBodyUnder;

bool IsGapName(std::string_view name) { return !name.empty() && name[0] == '#'; }

// Every kSys* enumerator in types.h must have a named row in syscalls.def —
// an interface constant the table does not know about is a hole in the single
// source of truth. The enum is parsed from the source tree at test time.
TEST(SyscallTable, EveryTypesHConstantHasNamedRow) {
  std::ifstream in(std::string(IA_SOURCE_DIR) + "/src/kernel/types.h");
  ASSERT_TRUE(in.good()) << "cannot open types.h under IA_SOURCE_DIR";
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  const std::regex constant_re(R"((kSys\w+)\s*=\s*(\d+))");
  int constants_seen = 0;
  for (auto it = std::sregex_iterator(text.begin(), text.end(), constant_re);
       it != std::sregex_iterator(); ++it) {
    const std::string constant = (*it)[1];
    const int number = std::stoi((*it)[2]);
    ++constants_seen;
    EXPECT_FALSE(IsGapName(SyscallName(number)))
        << constant << " (" << number << ") has no named row in syscalls.def";
  }
  // The 4.3BSD subset in types.h is substantial; a tiny count means the regex
  // rotted, not that the interface shrank.
  EXPECT_GT(constants_seen, 100);
}

TEST(SyscallTable, NameLookupsRoundTrip) {
  EXPECT_EQ(SyscallName(kSysOpen), "open");
  EXPECT_EQ(SyscallName(kSysGetdirentries), "getdirentries");
  EXPECT_EQ(SyscallNumberByName("open"), kSysOpen);
  EXPECT_EQ(SyscallNumberByName("wait4"), kSysWait4);
  EXPECT_EQ(SyscallNumberByName("nonesuch"), -1);
  EXPECT_EQ(SyscallName(-1), "#?");
  EXPECT_EQ(SyscallName(kMaxSyscall + 100), "#?");

  for (int number = 0; number < kMaxSyscall; ++number) {
    const std::string_view name = SyscallName(number);
    if (IsGapName(name)) {
      EXPECT_EQ(SyscallNumberByName(name), -1) << number;
    } else {
      EXPECT_EQ(SyscallNumberByName(name), number) << name;
    }
  }
}

TEST(SyscallTable, SpecsCarryArgMetadata) {
  const SyscallSpec& open_spec = SyscallSpecOf(kSysOpen);
  EXPECT_EQ(open_spec.nargs, 3);
  EXPECT_EQ(open_spec.args[0], ArgKind::kPath);
  EXPECT_EQ(open_spec.path_arg, 0);
  EXPECT_NE(open_spec.flags & kTakesPath, 0u);
  EXPECT_NE(open_spec.flags & kFileRef, 0u);
  EXPECT_EQ(open_spec.default_cost_usec, 900);

  const SyscallSpec& mknod_spec = SyscallSpecOf(kSysMknod);
  EXPECT_EQ(mknod_spec.nargs, 3);
  EXPECT_EQ(mknod_spec.args[2], ArgKind::kDev);

  const SyscallSpec& close_spec = SyscallSpecOf(kSysClose);
  EXPECT_NE(close_spec.flags & kTakesFd, 0u);
  EXPECT_EQ(close_spec.default_cost_usec, 60);

  // Alias rows are implemented rows tagged kAlias; unimplemented rows are
  // named but not implemented; gap numbers have neither.
  EXPECT_NE(SyscallSpecOf(kSysVfork).flags & kAlias, 0u);
  EXPECT_NE(SyscallSpecOf(kSysVfork).flags & kImplemented, 0u);
  EXPECT_EQ(SyscallSpecOf(kSysSendmsg).flags & kImplemented, 0u);
  EXPECT_FALSE(IsGapName(SyscallName(kSysSendmsg)));

  // The AF_UNIX rows decode sockaddr arguments and belong to the socket
  // interest class; the rendezvous rows stay non-blocking while the transfer
  // rows (and accept) can sleep.
  const SyscallSpec& bind_spec = SyscallSpecOf(kSysBind);
  EXPECT_NE(bind_spec.flags & kImplemented, 0u);
  EXPECT_NE(bind_spec.flags & kSocketClass, 0u);
  EXPECT_EQ(bind_spec.args[1], ArgKind::kCSockAddrPtr);
  EXPECT_EQ(bind_spec.flags & kBlocking, 0u);
  const SyscallSpec& accept_spec = SyscallSpecOf(kSysAccept);
  EXPECT_NE(accept_spec.flags & kBlocking, 0u);
  EXPECT_EQ(accept_spec.args[1], ArgKind::kSockAddrPtr);
  const SyscallSpec& recvfrom_spec = SyscallSpecOf(kSysRecvfrom);
  EXPECT_EQ(recvfrom_spec.nargs, 6);
  EXPECT_EQ(recvfrom_spec.args[1], ArgKind::kBufOut);
  EXPECT_EQ(recvfrom_spec.args[4], ArgKind::kSockAddrPtr);
}

// The kernel dispatch table and the kImplemented flag must agree for every
// number: a row claiming implementation without a handler would silently
// ENOSYS, and a handler without a row would be unreachable metadata.
// Agent interest sets are now derived from the abstraction-class flags, so a
// flag that disagrees with the row's argument kinds silently mis-routes every
// footprint-narrowed agent. Pin the agreement: a first decoded Path argument
// implies kTakesPath, an Fd in slot 0 implies kTakesFd, and a sockaddr
// argument implies kSocketClass.
TEST(SyscallTable, FlagsAgreeWithArgKinds) {
  for (int n = 0; n < kMaxSyscall; ++n) {
    const SyscallSpec& spec = SyscallSpecOf(n);
    if (spec.number < 0) {
      continue;
    }
    // First Path-kind argument anywhere in the signature => kTakesPath.
    for (int i = 0; i < spec.nargs; ++i) {
      if (spec.args[static_cast<size_t>(i)] == ArgKind::kPath) {
        EXPECT_NE(spec.flags & kTakesPath, 0u)
            << spec.name << " decodes a Path argument but lacks kTakesPath";
        break;
      }
    }
    if (spec.nargs > 0 && spec.args[0] == ArgKind::kFd) {
      EXPECT_NE(spec.flags & kTakesFd, 0u)
          << spec.name << " takes an fd in slot 0 but lacks kTakesFd";
    }
    if ((spec.flags & kTakesPath) != 0) {
      // Unimplemented rows carry classification flags but no decode metadata,
      // so the path_arg requirement applies to implemented rows only.
      if ((spec.flags & kImplemented) != 0) {
        EXPECT_GE(spec.path_arg, 0)
            << spec.name << " is kTakesPath but records no path_arg";
      }
    }
    // Socket rows: decoding a sockaddr anywhere implies membership in the
    // kSocketClass interest class. (That every socket call takes the big lock is
    // counted in Lanes.SocketCallsTakeTheBigLock.)
    bool has_sockaddr = false;
    for (int i = 0; i < spec.nargs; ++i) {
      const ArgKind kind = spec.args[static_cast<size_t>(i)];
      if (kind == ArgKind::kSockAddrPtr || kind == ArgKind::kCSockAddrPtr) {
        has_sockaddr = true;
        break;
      }
    }
    if (has_sockaddr) {
      EXPECT_NE(spec.flags & kSocketClass, 0u)
          << spec.name << " decodes a sockaddr argument but lacks kSocketClass";
    }
    if ((spec.flags & kSocketClass) != 0) {
      // Socket addresses travel as sockaddr structs, never Path arguments, so
      // pathname-footprint agents don't accidentally claim socket rows.
      EXPECT_EQ(spec.flags & kTakesPath, 0u)
          << spec.name << " is kSocketClass but claims kTakesPath";
    }
  }
}

// Alias rows answer for their target's method and handler, so the flags that
// drive footprints and trace filters must match the abstractions the target
// actually has: execv must be file-reference like execve, vfork like fork.
TEST(SyscallTable, AliasRowsShareAbstractionFlags) {
  const uint32_t kAbstraction = kTakesPath | kTakesFd | kFileRef;
  const struct {
    int alias;
    int target;
  } pairs[] = {
      {kSysExecv, kSysExecve},
      {kSysVfork, kSysFork},
      {kSysWait, kSysWait4},
      {kSysSigaction, kSysSigvec},
  };
  for (const auto& pair : pairs) {
    const SyscallSpec& alias = SyscallSpecOf(pair.alias);
    const SyscallSpec& target = SyscallSpecOf(pair.target);
    EXPECT_NE(alias.flags & kAlias, 0u) << alias.name;
    EXPECT_EQ(alias.flags & kAbstraction, target.flags & kAbstraction)
        << alias.name << " and " << target.name
        << " disagree on abstraction-class flags";
  }
}

TEST(SyscallTable, KernelDispatchMatchesImplementedFlag) {
  for (int number = -2; number < kMaxSyscall + 2; ++number) {
    const bool implemented = (SyscallSpecOf(number).flags & kImplemented) != 0;
    EXPECT_EQ(Kernel::ImplementsSyscall(number), implemented) << SyscallName(number);
  }
}

// kBlocking drives EINTR fault injection, so it must mark exactly the rows
// whose handlers can actually sleep: a kBlocking row that is not implemented
// (or whose handler never blocks, like flock) would make the injector claim
// interruptions no real 4.3BSD caller could see.
TEST(SyscallTable, BlockingRowsAreImplementedAndGenuinelyInterruptible) {
  std::set<std::string> blocking_names;
  for (int number = 0; number < kMaxSyscall; ++number) {
    const uint32_t flags = SyscallSpecOf(number).flags;
    if ((flags & kBlocking) == 0) {
      continue;
    }
    EXPECT_NE(flags & kImplemented, 0u)
        << SyscallName(number) << " is kBlocking but not implemented";
    blocking_names.insert(std::string(SyscallName(number)));
  }
  const std::set<std::string> expected = {"read",   "write", "readv",  "writev", "wait4",
                                          "sigpause", "wait", "accept", "send",   "recv",
                                          "sendto", "recvfrom"};
  EXPECT_EQ(blocking_names, expected);
}

TEST(SyscallTable, FormatSyscallUsesKindMetadata) {
  SyscallArgs args;
  args.SetPtr(0, "/etc/motd");
  args.SetInt(1, 0);
  args.SetInt(2, 0644);
  const std::string open_text = FormatSyscall(kSysOpen, args);
  EXPECT_NE(open_text.find("open(\"/etc/motd\""), std::string::npos) << open_text;
  EXPECT_NE(open_text.find("0644"), std::string::npos) << open_text;

  // Null path decodes safely; unimplemented numbers format as raw hex words.
  SyscallArgs zeros;
  EXPECT_EQ(FormatSyscall(kSysUnlink, zeros), "unlink(NULL)");
  EXPECT_EQ(FormatSyscall(kSysSendmsg, zeros), "sendmsg(0x0, 0x0, 0x0)");

  // Socket rows decode sockaddr arguments: const (input) addresses render
  // their AF_UNIX pathname, out-parameter addresses render as opaque.
  SockAddr sa{};
  sa.sun_family = kAfUnix;
  std::snprintf(sa.sun_path, sizeof(sa.sun_path), "/tmp/sock");
  SyscallArgs bind_args;
  bind_args.SetInt(0, 3);
  bind_args.SetPtr(1, &sa);
  bind_args.SetInt(2, static_cast<int>(sizeof(sa)));
  EXPECT_EQ(FormatSyscall(kSysBind, bind_args),
            "bind(3, {AF_UNIX \"/tmp/sock\"}, 106)");
  EXPECT_EQ(FormatSyscall(kSysSocket, zeros), "socket(0, 0, 0)");
}

// Records which numbers the symbolic decoder routed to a decoded method versus
// unknown_syscall, swallowing everything except exit (no kernel side effects).
class DecodeProbeAgent final : public SymbolicSyscall {
 public:
  std::string name() const override { return "decode_probe"; }

  std::set<int> decoded;
  std::set<int> unknown;

 protected:
  SyscallStatus sys_generic(AgentCall& call) override {
    decoded.insert(call.number());
    if (call.number() == kSysExit) {
      return call.CallDown();
    }
    return 0;
  }

  SyscallStatus unknown_syscall(AgentCall& call) override {
    unknown.insert(call.number());
    return 0;
  }
};

// Sweeps every syscall number through the symbolic layer and checks the decode
// boundary is exactly the kImplemented flag: implemented rows reach a decoded
// sys_* method (whose default funnels into sys_generic), everything else
// lands in unknown_syscall.
TEST(SyscallTable, SymbolicDecodeCoversExactlyImplementedRows) {
  auto kernel = MakeWorld();
  auto probe = std::make_shared<DecodeProbeAgent>();
  const int status = RunBodyUnder(*kernel, {probe}, [](ProcessContext& ctx) {
    for (int number = 0; number < kMaxSyscall; ++number) {
      if (number == kSysExit) {
        continue;  // covered by the harness's own exit when the body returns
      }
      SyscallArgs args;  // all zeros; the probe never forwards to the kernel
      SyscallResult rv;
      ctx.Syscall(number, args, &rv);
    }
    return 0;
  });
  ASSERT_TRUE(WifExited(status));
  ASSERT_EQ(WExitStatus(status), 0);

  for (int number = 0; number < kMaxSyscall; ++number) {
    const bool implemented = (SyscallSpecOf(number).flags & kImplemented) != 0;
    if (implemented) {
      EXPECT_TRUE(probe->decoded.count(number)) << "not decoded: " << SyscallName(number);
      EXPECT_FALSE(probe->unknown.count(number)) << SyscallName(number);
    } else {
      EXPECT_TRUE(probe->unknown.count(number)) << "not unknown: " << SyscallName(number);
      EXPECT_FALSE(probe->decoded.count(number)) << SyscallName(number);
    }
  }
}

TEST(SyscallTable, KernelSyscallStatsCountCallsErrorsAndVtime) {
  auto kernel = MakeWorld();
  const int status = RunBody(*kernel, [](ProcessContext& ctx) {
    for (int i = 0; i < 10; ++i) {
      ctx.Getpid();
    }
    // A guaranteed failure: opening a path that does not exist.
    SyscallArgs args;
    args.SetPtr(0, "/definitely/absent");
    args.SetInt(1, 0);
    SyscallResult rv;
    return ctx.Syscall(kSysOpen, args, &rv) == -kENoent ? 0 : 1;
  });
  ASSERT_TRUE(WifExited(status));
  ASSERT_EQ(WExitStatus(status), 0);

  const auto stats = kernel->SyscallStats();
  EXPECT_GE(stats[kSysGetpid].calls, 10);
  EXPECT_EQ(stats[kSysGetpid].errors, 0);
  // Each getpid costs 25 virtual µs (Table 3-5), so vtime must reflect it.
  EXPECT_GE(stats[kSysGetpid].vtime_usec, 10 * 25);
  EXPECT_GE(stats[kSysOpen].calls, 1);
  EXPECT_GE(stats[kSysOpen].errors, 1);
  // Numbers never issued stay at zero.
  EXPECT_EQ(stats[kSysMknod].calls, 0);
  EXPECT_EQ(stats[kSysSendmsg].calls, 0);
}

TEST(SyscallTable, MonitorAgentSurfacesKernelStats) {
  auto kernel = MakeWorld();
  // The client's first open lands on fd 3 (0-2 are stdio); the monitor writes
  // its exit report, including the kernel-side stats, to that descriptor.
  auto monitor = std::make_shared<MonitorAgent>(3);
  monitor->set_report_kernel_stats(true);
  const int status = RunBodyUnder(*kernel, {monitor}, [](ProcessContext& ctx) {
    if (ctx.Open("/tmp/report", kOWronly | kOCreat, 0644) != 3) {
      return 1;
    }
    ctx.Getpid();
    return 0;
  });
  ASSERT_TRUE(WifExited(status));
  ASSERT_EQ(WExitStatus(status), 0);

  const std::string report = FileContents(*kernel, "/tmp/report");
  EXPECT_NE(report.find("system call usage"), std::string::npos) << report;
  EXPECT_NE(report.find("kernel per-syscall stats"), std::string::npos) << report;
  EXPECT_NE(report.find("getpid"), std::string::npos) << report;
}

}  // namespace
}  // namespace ia
