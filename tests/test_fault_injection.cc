// The deterministic fault-injection plane: seed reproducibility, the
// exhaustion regimes, 4.3BSD short-write semantics at the disk budget, the
// retry agent's transparency over both the kernel injector and the chaos
// agent, and the FaultStats surfacing in MonitorAgent reports.
#include "tests/test_helpers.h"

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/agents/chaos.h"
#include "src/agents/monitor.h"
#include "src/agents/retry.h"
#include "src/toolkit/toolkit.h"

namespace ia {
namespace {

using test::FileContents;
using test::MakeWorld;
using test::RunBody;
using test::RunBodyUnder;
using test::SnapshotFs;

// --- DecideFault is a pure function ----------------------------------------

TEST(FaultPlan, DecideFaultIsDeterministic) {
  FaultPlan plan;
  plan.seed = 42;
  plan.eintr_probability = 0.5;
  plan.short_probability = 0.5;
  plan.class_rules.push_back({kTakesPath, 0.5, kENoent});
  FaultEnv env;
  env.transfer_count = 100;
  for (int number = 0; number < kMaxSyscall; ++number) {
    for (uint64_t seq = 1; seq <= 20; ++seq) {
      const FaultDecision a = DecideFault(plan, 3, seq, number, env);
      const FaultDecision b = DecideFault(plan, 3, seq, number, env);
      ASSERT_EQ(a.action, b.action);
      ASSERT_EQ(a.errno_value, b.errno_value);
      ASSERT_EQ(a.clamp_len, b.clamp_len);
    }
  }
}

TEST(FaultPlan, EintrTargetsOnlyBlockingRowsAndExitIsExempt) {
  FaultPlan plan;
  plan.eintr_probability = 1.0;  // certain, wherever it is allowed at all
  for (int number = 0; number < kMaxSyscall; ++number) {
    const FaultDecision d = DecideFault(plan, 1, 1, number);
    const uint32_t flags = SyscallSpecOf(number).flags;
    const bool expect_eintr =
        (flags & kImplemented) != 0 && (flags & kBlocking) != 0 && number != kSysExit;
    EXPECT_EQ(d.action == FaultAction::kEintrReturn, expect_eintr) << SyscallName(number);
  }
  // The audited kBlocking set: exactly the rows whose handlers can sleep.
  EXPECT_NE(SyscallSpecOf(kSysRead).flags & kBlocking, 0u);
  EXPECT_NE(SyscallSpecOf(kSysWait4).flags & kBlocking, 0u);
  EXPECT_EQ(SyscallSpecOf(kSysFlock).flags & kBlocking, 0u);  // never sleeps
}

TEST(FaultPlan, ClassRulesFollowFlagMasks) {
  FaultPlan plan;
  plan.class_rules.push_back({kTakesPath, 1.0, kEAcces});
  for (int number : {kSysOpen, kSysStat, kSysUnlink, kSysMkdir}) {
    EXPECT_EQ(DecideFault(plan, 1, 1, number).action, FaultAction::kErrnoReturn)
        << SyscallName(number);
  }
  for (int number : {kSysGetpid, kSysClose, kSysDup}) {
    EXPECT_EQ(DecideFault(plan, 1, 1, number).action, FaultAction::kNone)
        << SyscallName(number);
  }
}

// --- seed reproducibility over a real workload ------------------------------

int ChurnBody(ProcessContext& ctx) {
  ctx.Mkdir("/tmp/churn", 0755);
  char buf[256];
  for (int i = 0; i < 120; ++i) {
    const std::string path = "/tmp/churn/f" + std::to_string(i % 4);
    const int fd = ctx.Open(path, kOWronly | kOCreat | kOAppend, 0644);
    if (fd >= 0) {
      ctx.Write(fd, "0123456789abcdef", 16);
      ctx.Close(fd);
    }
    ia::Stat st;
    ctx.Stat(path, &st);
    const int rfd = ctx.Open(path, kORdonly, 0);
    if (rfd >= 0) {
      while (ctx.Read(rfd, buf, sizeof buf) > 0) {
      }
      ctx.Close(rfd);
    }
  }
  return 0;
}

FaultPlan RichPlan(uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.record_trace = true;
  plan.eintr_probability = 0.2;
  plan.short_probability = 0.3;
  plan.class_rules.push_back({kTakesPath, 0.2, kENoent});
  return plan;
}

TEST(FaultInjection, SameSeedSamePlanGivesIdenticalTrace) {
  std::string traces[2];
  std::array<FaultStat, kMaxSyscall> stats[2];
  for (int run = 0; run < 2; ++run) {
    auto kernel = MakeWorld();
    kernel->SetFaultPlan(RichPlan(0xfeed));
    const int status = RunBody(*kernel, ChurnBody);
    ASSERT_TRUE(WifExited(status));
    traces[run] = kernel->FaultTraceText();
    stats[run] = kernel->FaultStats();
  }
  EXPECT_FALSE(traces[0].empty());
  EXPECT_EQ(traces[0], traces[1]);
  for (int number = 0; number < kMaxSyscall; ++number) {
    const auto i = static_cast<size_t>(number);
    ASSERT_EQ(stats[0][i].injected_errno, stats[1][i].injected_errno) << SyscallName(number);
    ASSERT_EQ(stats[0][i].injected_eintr, stats[1][i].injected_eintr) << SyscallName(number);
    ASSERT_EQ(stats[0][i].short_transfers, stats[1][i].short_transfers) << SyscallName(number);
  }
}

TEST(FaultInjection, DifferentSeedsDiverge) {
  std::string traces[2];
  const uint64_t seeds[2] = {0x1111, 0x2222};
  for (int run = 0; run < 2; ++run) {
    auto kernel = MakeWorld();
    kernel->SetFaultPlan(RichPlan(seeds[run]));
    const int status = RunBody(*kernel, ChurnBody);
    ASSERT_TRUE(WifExited(status));
    traces[run] = kernel->FaultTraceText();
  }
  EXPECT_NE(traces[0], traces[1]);
}

// --- exhaustion regimes ------------------------------------------------------

TEST(FaultInjection, EmfileRecoversAfterClose) {
  auto kernel = MakeWorld();
  FaultPlan plan;
  plan.fd_table_limit = 5;  // stdio takes 0-2, so two more opens fit
  kernel->SetFaultPlan(plan);
  const int code = test::ExitCodeOf(*kernel, [](ProcessContext& ctx) {
    const int a = ctx.Open("/tmp/a", kOWronly | kOCreat, 0644);
    const int b = ctx.Open("/tmp/b", kOWronly | kOCreat, 0644);
    if (a < 0 || b < 0) {
      return 1;
    }
    if (ctx.Open("/tmp/c", kOWronly | kOCreat, 0644) != -kEMfile) {
      return 2;  // at the artificial ceiling: EMFILE, deterministically
    }
    if (ctx.Close(a) != 0) {
      return 3;
    }
    const int c = ctx.Open("/tmp/c", kOWronly | kOCreat, 0644);
    if (c < 0) {
      return 4;  // closing a descriptor must lift the pressure
    }
    ctx.Close(b);
    ctx.Close(c);
    return 0;
  });
  EXPECT_EQ(code, 0);
  EXPECT_GE(kernel->FaultStats()[kSysOpen].exhaustion, 1);
}

// The bugfix regression: a write that hits the disk budget mid-buffer returns
// bytes-written-so-far (4.3BSD short-write semantics), not an error; only the
// next write, which cannot make progress, fails with ENOSPC.
TEST(FaultInjection, DiskBudgetShortWriteThenEnospc) {
  auto kernel = MakeWorld();
  FaultPlan plan;
  plan.disk_budget_bytes = kernel->fs().total_bytes() + 100;
  kernel->SetFaultPlan(plan);
  const int code = test::ExitCodeOf(*kernel, [](ProcessContext& ctx) {
    const int fd = ctx.Open("/tmp/full", kOWronly | kOCreat, 0644);
    if (fd < 0) {
      return 1;
    }
    char block[256] = {};
    for (char& c : block) {
      c = 'x';
    }
    const int64_t n = ctx.Write(fd, block, sizeof block);
    if (n != 100) {
      return 2;  // the prefix that fit, not an error and not the full count
    }
    if (ctx.Write(fd, block, sizeof block) != -kENospc) {
      return 3;  // no budget left at all: now it is an error
    }
    if (ctx.Truncate("/tmp/full", 0) != 0 || ctx.Lseek(fd, 0, kSeekSet) != 0) {
      return 4;
    }
    if (ctx.Write(fd, block, 50) != 50) {
      return 5;  // freeing space lifts the regime
    }
    ctx.Close(fd);
    return 0;
  });
  EXPECT_EQ(code, 0);
  EXPECT_EQ(static_cast<int64_t>(FileContents(*kernel, "/tmp/full").size()), 50);
  const auto stats = kernel->FaultStats();
  EXPECT_GE(stats[kSysWrite].short_transfers, 1);
  EXPECT_GE(stats[kSysWrite].exhaustion, 1);
}

// The disk-budget check and the growth's accounting are one atomic step.
// Writes to regular files run under the tree lock held shared, so two roots
// on two host threads grow two files at once. Each round they write until
// ENOSPC, and together they must have filled the budget exactly, never past
// it; then both truncate and the next round starts. Two writers pass a
// check-then-grow clamp together only near the budget's edge, so the test
// crosses that edge many times.
TEST(FaultInjection, ConcurrentWritersFillTheDiskBudgetExactly) {
  constexpr int kRounds = IA_TEST_UNDER_TSAN ? 30 : 300;
  constexpr int64_t kRoom = 97 * 20 + 13;  // 97-byte writes: each round ends short
  auto kernel = MakeWorld();
  kernel->fs().InstallFile("/tmp/fill0", "");
  kernel->fs().InstallFile("/tmp/fill1", "");
  FaultPlan plan;
  plan.disk_budget_bytes = kernel->fs().total_bytes() + kRoom;
  kernel->SetFaultPlan(plan);
  std::atomic<int> arrivals{0};
  std::atomic<int64_t> written{0};
  std::atomic<int> wrong_rounds{0};
  // The roots run on two host threads, so a host-side spin is a barrier.
  auto barrier = [&arrivals](int generation) {
    arrivals.fetch_add(1, std::memory_order_acq_rel);
    while (arrivals.load(std::memory_order_acquire) < 2 * generation) {
      std::this_thread::yield();
    }
  };
  std::vector<Pid> pids;
  for (int w = 0; w < 2; ++w) {
    SpawnOptions options;
    options.body = [&, w](ProcessContext& ctx) {
      const int fd = ctx.Open("/tmp/fill" + std::to_string(w), kOWronly);
      if (fd < 0) {
        return 1;
      }
      char block[97];
      std::memset(block, 'a' + w, sizeof block);
      for (int r = 0; r < kRounds; ++r) {
        for (;;) {
          const int64_t n = ctx.Write(fd, block, sizeof block);
          if (n == -kENospc) {
            break;
          }
          if (n <= 0) {
            return 2;
          }
          written.fetch_add(n, std::memory_order_relaxed);
        }
        barrier(2 * r + 1);
        if (w == 0) {
          if (written.load(std::memory_order_relaxed) != kRoom) {
            wrong_rounds.fetch_add(1, std::memory_order_relaxed);
          }
          written.store(0, std::memory_order_relaxed);
        }
        if (ctx.Ftruncate(fd, 0) != 0 || ctx.Lseek(fd, 0, kSeekSet) != 0) {
          return 3;
        }
        barrier(2 * r + 2);
      }
      return 0;
    };
    pids.push_back(kernel->Spawn(options));
  }
  for (const Pid pid : pids) {
    const int status = kernel->HostWaitPid(pid);
    EXPECT_TRUE(WifExited(status));
    EXPECT_EQ(WExitStatus(status), 0);
  }
  EXPECT_EQ(wrong_rounds.load(), 0) << "of " << kRounds << " rounds";
  EXPECT_EQ(kernel->FaultStats()[kSysWrite].exhaustion, 2 * kRounds);
}

// Growth past the per-file ceiling fails with EFBIG instead of dying inside
// an absurd resize (found by the hostile-ABI fuzz).
TEST(FaultInjection, FileSizeCeilingIsEfbig) {
  auto kernel = MakeWorld();
  const int code = test::ExitCodeOf(*kernel, [](ProcessContext& ctx) {
    if (ctx.Truncate("/etc/motd", kMaxFileBytes + 1) != -kEFbig) {
      return 1;
    }
    const int fd = ctx.Open("/tmp/big", kOWronly | kOCreat, 0644);
    if (fd < 0) {
      return 2;
    }
    if (ctx.Ftruncate(fd, kMaxFileBytes + 1) != -kEFbig) {
      return 3;
    }
    if (ctx.Lseek(fd, kMaxFileBytes, kSeekSet) != kMaxFileBytes) {
      return 4;
    }
    char byte = 'x';
    if (ctx.Write(fd, &byte, 1) != -kEFbig) {
      return 5;  // at the ceiling no progress is possible
    }
    ctx.Close(fd);
    return 0;
  });
  EXPECT_EQ(code, 0);
}

// --- retry transparency ------------------------------------------------------

// An unmodified workload under retry must produce a filesystem byte-identical
// to the fault-free run, whichever plane injects the faults.
std::map<std::string, std::string> RunChurnAndSnapshot(bool kernel_faults, bool chaos_faults,
                                                       bool with_retry) {
  auto kernel = MakeWorld();
  if (kernel_faults) {
    FaultPlan plan;
    plan.seed = 0xabcd;
    plan.eintr_probability = 0.3;
    plan.short_probability = 0.4;
    plan.enfile_probability = 0.1;
    kernel->SetFaultPlan(plan);
  }
  std::vector<AgentRef> agents;
  if (chaos_faults) {
    FaultPlan plan;
    plan.seed = 0x7777;
    plan.eintr_probability = 0.25;
    plan.short_probability = 0.4;
    agents.push_back(std::make_shared<ChaosAgent>(plan));  // closest to kernel
  }
  auto retry = std::make_shared<RetryAgent>();
  if (with_retry) {
    agents.push_back(retry);  // above chaos, closest to the application
  }
  const int status = agents.empty() ? RunBody(*kernel, ChurnBody)
                                    : RunBodyUnder(*kernel, agents, ChurnBody);
  EXPECT_TRUE(WifExited(status));
  EXPECT_EQ(WExitStatus(status), 0);
  if (with_retry && (kernel_faults || chaos_faults)) {
    EXPECT_GT(retry->EintrRetries() + retry->ShortResumes() + retry->TransientRetries(), 0);
  }
  return SnapshotFs(*kernel);
}

TEST(FaultInjection, RetryMasksKernelFaults) {
  const auto baseline = RunChurnAndSnapshot(false, false, false);
  const auto faulted = RunChurnAndSnapshot(true, false, true);
  EXPECT_EQ(baseline, faulted);
}

TEST(FaultInjection, RetryMasksChaosAgentFaults) {
  const auto baseline = RunChurnAndSnapshot(false, false, false);
  const auto faulted = RunChurnAndSnapshot(false, true, true);
  EXPECT_EQ(baseline, faulted);
}

TEST(FaultInjection, RetryMasksBothPlanesComposed) {
  const auto baseline = RunChurnAndSnapshot(false, false, false);
  const auto faulted = RunChurnAndSnapshot(true, true, true);
  EXPECT_EQ(baseline, faulted);
}

TEST(FaultInjection, RetryGivesUpUnderHundredPercentEintr) {
  // retry∘chaos under a 100%-rate EINTR plan must degrade to a bounded
  // failure, not a livelock: the per-class cap exhausts, GiveUps() counts the
  // surrender, and the last real errno propagates to the application.
  auto kernel = MakeWorld();
  FaultPlan plan;
  plan.seed = 0x5150;
  plan.eintr_probability = 1.0;
  RetryPolicy policy;
  policy.max_attempts_eintr = 4;
  auto retry = std::make_shared<RetryAgent>(policy);
  const int status = RunBodyUnder(
      *kernel, {std::make_shared<ChaosAgent>(plan), retry}, [](ProcessContext& ctx) {
        ctx.WriteWholeFile("/tmp/victim", "payload");
        const int fd = ctx.Open("/tmp/victim", kORdonly);
        if (fd < 0) {
          return 1;
        }
        char buf[32];
        // Every attempt (and every retry) draws EINTR; retry must hand the
        // errno back instead of spinning forever.
        return ctx.Read(fd, buf, sizeof buf) == -kEIntr ? 0 : 2;
      });
  EXPECT_TRUE(WifExited(status));
  EXPECT_EQ(WExitStatus(status), 0);
  EXPECT_GT(retry->GiveUps(), 0);
  EXPECT_GT(retry->EintrRetries(), 0);
}

TEST(FaultInjection, RetryPerClassCapsAreIndependent) {
  // A zero EINTR cap disables those retries outright while the transient cap
  // still inherits max_attempts — the classes budget separately.
  auto kernel = MakeWorld();
  FaultPlan plan;
  plan.seed = 0x5151;
  plan.eintr_probability = 1.0;
  RetryPolicy policy;
  policy.max_attempts_eintr = 1;  // one attempt, no retries
  auto retry = std::make_shared<RetryAgent>(policy);
  const int status = RunBodyUnder(
      *kernel, {std::make_shared<ChaosAgent>(plan), retry}, [](ProcessContext& ctx) {
        ctx.WriteWholeFile("/tmp/victim", "payload");
        const int fd = ctx.Open("/tmp/victim", kORdonly);
        if (fd < 0) {
          return 1;
        }
        char buf[32];
        return ctx.Read(fd, buf, sizeof buf) == -kEIntr ? 0 : 2;
      });
  EXPECT_TRUE(WifExited(status));
  EXPECT_EQ(WExitStatus(status), 0);
  EXPECT_EQ(retry->EintrRetries(), 0);
  EXPECT_GT(retry->GiveUps(), 0);
}

// --- surfacing ---------------------------------------------------------------

TEST(FaultInjection, MonitorReportSurfacesInjectedCounts) {
  auto kernel = MakeWorld();
  FaultPlan plan;
  plan.number_rules.push_back({kSysStat, 1.0, kEIo});
  kernel->SetFaultPlan(plan);
  auto monitor = std::make_shared<MonitorAgent>(3);
  monitor->set_report_kernel_stats(true);
  const int status = RunBodyUnder(*kernel, {monitor}, [](ProcessContext& ctx) {
    if (ctx.Open("/tmp/report", kOWronly | kOCreat, 0644) != 3) {
      return 1;
    }
    ia::Stat st;
    return ctx.Stat("/etc/motd", &st) == -kEIo ? 0 : 2;
  });
  ASSERT_TRUE(WifExited(status));
  ASSERT_EQ(WExitStatus(status), 0);

  EXPECT_GE(kernel->FaultStats()[kSysStat].injected_errno, 1);
  const std::string report = FileContents(*kernel, "/tmp/report");
  EXPECT_NE(report.find("injected faults"), std::string::npos) << report;
  EXPECT_NE(report.find("stat"), std::string::npos) << report;
}

TEST(FaultInjection, DownApiInstallsAndClearsPlans) {
  auto kernel = MakeWorld();
  const int code = test::ExitCodeOf(*kernel, [](ProcessContext& ctx) {
    DownApi api(ctx, -1);
    FaultPlan plan;
    plan.number_rules.push_back({kSysAccess, 1.0, kEPerm});
    api.InstallFaultPlan(plan);
    if (ctx.Access("/etc/motd", 0) != -kEPerm) {
      return 1;
    }
    if (api.KernelFaultStats()[kSysAccess].injected_errno < 1) {
      return 2;
    }
    api.ClearFaultPlan();
    if (ctx.Access("/etc/motd", 0) != 0) {
      return 3;
    }
    return 0;
  });
  EXPECT_EQ(code, 0);
}

// --- short transfers across iovec boundaries ---------------------------------

// Fills three iovecs over `storage` (60 + 100 + 140 bytes).
int BuildIovecs(char* storage, IoVec* iov) {
  const int64_t lens[3] = {60, 100, 140};
  int64_t off = 0;
  for (int i = 0; i < 3; ++i) {
    iov[i].iov_base = storage + off;
    iov[i].iov_len = lens[i];
    off += lens[i];
  }
  return 3;
}

std::string Pattern(size_t n) {
  std::string s(n, '\0');
  for (size_t i = 0; i < n; ++i) {
    s[i] = static_cast<char>('a' + i % 26);
  }
  return s;
}

TEST(FaultInjection, ReadvShortTransferReturnsExactPrefixAndOffset) {
  // With short_probability=1 every readv is clamped mid-vector. The returned
  // prefix must be byte-exact across the iovec boundary, bytes past rv must
  // be untouched, and the file offset must have advanced by exactly rv so a
  // follow-up readv resumes where the short one stopped.
  auto kernel = MakeWorld();
  FaultPlan plan;
  plan.seed = 0xbeef;
  plan.short_probability = 1.0;
  kernel->SetFaultPlan(plan);
  const std::string pattern = Pattern(300);
  const int code = test::ExitCodeOf(*kernel, [&pattern](ProcessContext& ctx) {
    ctx.WriteWholeFile("/tmp/vec", pattern);
    const int fd = ctx.Open("/tmp/vec", kORdonly);
    if (fd < 0) {
      return 1;
    }
    char storage[300];
    std::memset(storage, '.', sizeof(storage));
    IoVec iov[3];
    const int iovcnt = BuildIovecs(storage, iov);
    const int64_t rv = ctx.Readv(fd, iov, iovcnt);
    if (rv <= 0 || rv >= 300) {
      return 2;  // must be a genuine short transfer
    }
    for (int64_t i = 0; i < 300; ++i) {
      const char want = i < rv ? pattern[static_cast<size_t>(i)] : '.';
      if (storage[i] != want) {
        return 3;
      }
    }
    if (ctx.Lseek(fd, 0, kSeekCur) != rv) {
      return 4;  // offset advanced by exactly the bytes transferred
    }
    // The remainder is still there: resume with a plain read (scalar reads
    // with count tracked as one byte of slack are shortened too, so just
    // check the first resumed byte lines up).
    char next = 0;
    if (ctx.Read(fd, &next, 1) != 1 || next != pattern[static_cast<size_t>(rv)]) {
      return 5;
    }
    ctx.Close(fd);
    return 0;
  });
  EXPECT_EQ(code, 0);
  EXPECT_GE(kernel->FaultStats()[kSysReadv].short_transfers, 1);
}

TEST(FaultInjection, WritevShortTransferLeavesConsistentPrefix) {
  auto kernel = MakeWorld();
  FaultPlan plan;
  plan.seed = 0xd00d;
  plan.short_probability = 1.0;
  kernel->SetFaultPlan(plan);
  const std::string pattern = Pattern(300);
  int64_t rv = 0;
  const int code = test::ExitCodeOf(*kernel, [&pattern, &rv](ProcessContext& ctx) {
    const int fd = ctx.Open("/tmp/vecw", kOWronly | kOCreat, 0644);
    if (fd < 0) {
      return 1;
    }
    char storage[300];
    std::memcpy(storage, pattern.data(), sizeof(storage));
    IoVec iov[3];
    const int iovcnt = BuildIovecs(storage, iov);
    rv = ctx.Writev(fd, iov, iovcnt);
    if (rv <= 0 || rv >= 300) {
      return 2;
    }
    if (ctx.Lseek(fd, 0, kSeekCur) != rv) {
      return 3;
    }
    ctx.Close(fd);
    return 0;
  });
  EXPECT_EQ(code, 0);
  // The file holds exactly the written prefix — nothing torn past rv.
  const std::string contents = FileContents(*kernel, "/tmp/vecw");
  EXPECT_EQ(contents.size(), static_cast<size_t>(rv));
  EXPECT_EQ(contents, pattern.substr(0, static_cast<size_t>(rv)));
  EXPECT_GE(kernel->FaultStats()[kSysWritev].short_transfers, 1);
}

TEST(FaultInjection, RetryAgentResumesShortVectorTransfers) {
  // Under the retry agent a vector call must come back whole: the agent
  // decomposes it into per-segment scalar reads/writes and resumes each one
  // until the full count lands, masking every injected short transfer.
  auto kernel = MakeWorld();
  FaultPlan plan;
  plan.seed = 0x5151;
  plan.short_probability = 1.0;
  kernel->SetFaultPlan(plan);
  auto retry = std::make_shared<RetryAgent>();
  const std::string pattern = Pattern(300);
  const int status = RunBodyUnder(*kernel, {retry}, [&pattern](ProcessContext& ctx) {
    // writev side: the full 300 bytes must land despite per-call clamps.
    int fd = ctx.Open("/tmp/vecr", kOWronly | kOCreat, 0644);
    if (fd < 0) {
      return 1;
    }
    char wstorage[300];
    std::memcpy(wstorage, pattern.data(), sizeof(wstorage));
    IoVec wiov[3];
    if (ctx.Writev(fd, wiov, BuildIovecs(wstorage, wiov)) != 300) {
      return 2;
    }
    ctx.Close(fd);
    // readv side: the whole file comes back in one resumed vector call.
    fd = ctx.Open("/tmp/vecr", kORdonly);
    if (fd < 0) {
      return 3;
    }
    char rstorage[300];
    std::memset(rstorage, 0, sizeof(rstorage));
    IoVec riov[3];
    if (ctx.Readv(fd, riov, BuildIovecs(rstorage, riov)) != 300) {
      return 4;
    }
    if (std::memcmp(rstorage, pattern.data(), sizeof(rstorage)) != 0) {
      return 5;
    }
    ctx.Close(fd);
    return 0;
  });
  ASSERT_TRUE(WifExited(status));
  EXPECT_EQ(WExitStatus(status), 0);
  EXPECT_GT(retry->ShortResumes(), 0);
  EXPECT_EQ(FileContents(*kernel, "/tmp/vecr"), pattern);
}

}  // namespace
}  // namespace ia
