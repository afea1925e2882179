// Integration tests: paper workloads running under the paper's agents.
#include <gtest/gtest.h>

#include "src/agents/dfs_trace.h"
#include "src/agents/emul.h"
#include "src/agents/filter_fs.h"
#include "src/agents/monitor.h"
#include "src/agents/sandbox.h"
#include "src/agents/timex.h"
#include "src/agents/trace.h"
#include "src/agents/txn.h"
#include "src/agents/union_fs.h"
#include "src/apps/apps.h"

namespace ia {
namespace {

std::unique_ptr<Kernel> MakeWorld() {
  auto kernel = std::make_unique<Kernel>();
  InstallStandardPrograms(*kernel);
  return kernel;
}

int RunProgram(Kernel& kernel, const std::string& prog_path,
               const std::vector<std::string>& argv, const std::string& cwd = "/") {
  SpawnOptions options;
  options.path = prog_path;
  options.argv = argv;
  options.cwd = cwd;
  const Pid pid = kernel.Spawn(options);
  EXPECT_GT(pid, 0) << prog_path;
  return kernel.HostWaitPid(pid);
}

int RunProgramUnder(Kernel& kernel, const std::vector<AgentRef>& agents,
                    const std::string& prog_path, const std::vector<std::string>& argv,
                    const std::string& cwd = "/") {
  SpawnOptions options;
  options.path = prog_path;
  options.argv = argv;
  options.cwd = cwd;
  return RunUnderAgents(kernel, agents, options);
}

std::string FileContents(Kernel& kernel, const std::string& file_path) {
  Cred root;
  NameiEnv env{kernel.fs().root(), kernel.fs().root(), &root};
  NameiResult nr;
  if (kernel.fs().Namei(env, file_path, NameiOp::kLookup, true, &nr) != 0 ||
      nr.inode == nullptr) {
    return "<missing>";
  }
  return nr.inode->data;
}

// --- workloads without agents -------------------------------------------------

TEST(Workloads, ScribeFormatsDissertation) {
  auto kernel = MakeWorld();
  SetupScribeWorkload(*kernel);
  const int status = RunProgram(*kernel, "/usr/bin/scribe",
                                {"scribe", "dissertation.mss"}, "/home/mbj");
  ASSERT_TRUE(WifExited(status));
  EXPECT_EQ(WExitStatus(status), 0);
  const std::string doc = FileContents(*kernel, "/home/mbj/dissertation.doc");
  EXPECT_GT(doc.size(), 1000u);
  EXPECT_NE(doc.find("Chapter 3"), std::string::npos);
  const std::string aux = FileContents(*kernel, "/home/mbj/dissertation.aux");
  EXPECT_NE(aux.find("Section 1.1"), std::string::npos);
}

TEST(Workloads, MakeBuildsEightPrograms) {
  auto kernel = MakeWorld();
  const std::string dir = SetupMakeWorkload(*kernel, 8);
  const int64_t before = kernel->TotalSyscallCount();
  const int status = RunProgram(*kernel, "/bin/make", {"make"}, dir);
  ASSERT_TRUE(WifExited(status));
  EXPECT_EQ(WExitStatus(status), 0);
  for (int i = 1; i <= 8; ++i) {
    const std::string exe = FileContents(*kernel, dir + "/prog" + std::to_string(i));
    EXPECT_EQ(exe.substr(0, 4), "EXE1") << i;
  }
  // A syscall-heavy multi-process task (paper: tens of thousands of calls).
  EXPECT_GT(kernel->TotalSyscallCount() - before, 500);
  // Second run: everything is up to date, nothing rebuilds.
  const int status2 = RunProgram(*kernel, "/bin/make", {"make"}, dir);
  EXPECT_EQ(WExitStatus(status2), 0);
  EXPECT_NE(kernel->console().transcript().find("built 0 target(s)"), std::string::npos);
}

TEST(Workloads, AndrewBenchmarkRuns) {
  auto kernel = MakeWorld();
  SetupAndrewTree(*kernel, "/usr/andrew", /*files=*/5, /*subdirs=*/2);
  const int status =
      RunProgram(*kernel, "/usr/bin/andrew", {"andrew", "/usr/andrew", "/tmp/andrew"});
  ASSERT_TRUE(WifExited(status));
  EXPECT_EQ(WExitStatus(status), 0);
  const std::string log = FileContents(*kernel, "/tmp/andrew/MAKELOG");
  EXPECT_NE(log.find("files=10"), std::string::npos) << log;
}

TEST(Workloads, ShellPipelineAndRedirection) {
  auto kernel = MakeWorld();
  kernel->fs().InstallFile("/tmp/words.txt", "alpha\nbeta\ngamma\nalpha beta\n");
  const int status = RunProgram(
      *kernel, "/bin/sh",
      {"sh", "-c", "grep alpha /tmp/words.txt | wc /dev/null > /tmp/out.txt"});
  ASSERT_TRUE(WifExited(status));
  EXPECT_EQ(WExitStatus(status), 0);
  // And a script with cd + redirection.
  kernel->fs().InstallFile("/tmp/script.sh",
                           "#!/bin/sh\ncd /tmp\necho hello > greeting\ncat greeting\n", 0755);
  const int status2 = RunProgram(*kernel, "/tmp/script.sh", {"script.sh"});
  EXPECT_EQ(WExitStatus(status2), 0);
  EXPECT_EQ(FileContents(*kernel, "/tmp/greeting"), "hello\n");
}

// --- the paper's agents over the workloads ------------------------------------

TEST(AgentRuns, TimexShiftsTimeForDate) {
  auto kernel = MakeWorld();
  const int status = RunProgramUnder(
      *kernel, {std::make_shared<TimexAgent>(3600)}, "/bin/date", {"date"});
  EXPECT_EQ(WExitStatus(status), 0);
  const std::string out = kernel->console().transcript();
  const int64_t reported = std::atoll(out.c_str());
  const int64_t real = kernel->VirtualNow() / 1000000;
  EXPECT_GE(reported, real + 3590);
  EXPECT_LE(reported, real + 3610);
}

TEST(AgentRuns, TraceCapturesMakeActivity) {
  auto kernel = MakeWorld();
  const std::string dir = SetupMakeWorkload(*kernel, 2);
  auto trace = std::make_shared<TraceAgent>(TraceOptions{.log_path = "/tmp/trace.log"});
  const int status = RunProgramUnder(*kernel, {trace}, "/bin/make", {"make"}, dir);
  ASSERT_TRUE(WifExited(status));
  EXPECT_EQ(WExitStatus(status), 0);
  const std::string log = FileContents(*kernel, "/tmp/trace.log");
  EXPECT_NE(log.find("fork()"), std::string::npos);
  EXPECT_NE(log.find("execve("), std::string::npos);
  EXPECT_NE(log.find("open("), std::string::npos);
  EXPECT_GT(trace->traced_calls(), 100);
}

TEST(AgentRuns, UnionMergesSourceAndObjectDirs) {
  auto kernel = MakeWorld();
  kernel->fs().InstallFile("/src/main.c", "int main(){}\n");
  kernel->fs().InstallFile("/src/util.c", "void util(){}\n");
  kernel->fs().InstallFile("/obj/main.o", "OBJ1\n");
  kernel->fs().InstallFile("/obj/util.o", "OBJ1\n");
  kernel->fs().InstallFile("/src/README", "sources\n");

  auto agent = std::make_shared<UnionAgent>(
      std::vector<UnionMount>{{"/build", {"/src", "/obj"}}});
  const int status = RunProgramUnder(*kernel, {agent}, "/bin/ls", {"ls", "/build"});
  ASSERT_TRUE(WifExited(status));
  EXPECT_EQ(WExitStatus(status), 0);
  const std::string out = kernel->console().transcript();
  EXPECT_NE(out.find("main.c"), std::string::npos) << out;
  EXPECT_NE(out.find("main.o"), std::string::npos) << out;
  EXPECT_NE(out.find("README"), std::string::npos) << out;
}

TEST(AgentRuns, UnionReadsThroughToMembers) {
  auto kernel = MakeWorld();
  kernel->fs().InstallFile("/v1/shadowed.txt", "from v1\n");
  kernel->fs().InstallFile("/v2/shadowed.txt", "from v2\n");
  kernel->fs().InstallFile("/v2/only2.txt", "only in v2\n");
  auto agent = std::make_shared<UnionAgent>(
      std::vector<UnionMount>{{"/u", {"/v1", "/v2"}}});
  const int status = RunProgramUnder(*kernel, {agent}, "/bin/cat",
                                     {"cat", "/u/shadowed.txt", "/u/only2.txt"});
  EXPECT_EQ(WExitStatus(status), 0);
  EXPECT_EQ(kernel->console().transcript(), "from v1\nonly in v2\n");
}

TEST(AgentRuns, DfsTraceRecordsFileReferences) {
  auto kernel = MakeWorld();
  SetupAndrewTree(*kernel, "/usr/andrew", 3, 2);
  auto agent = std::make_shared<DfsTraceAgent>("/tmp/dfs.log");
  const int status = RunProgramUnder(*kernel, {agent}, "/usr/bin/andrew",
                                     {"andrew", "/usr/andrew", "/tmp/andrew"});
  ASSERT_TRUE(WifExited(status));
  EXPECT_EQ(WExitStatus(status), 0);
  EXPECT_GT(agent->count(DfsOpcode::kNameRef), 20);
  EXPECT_GT(agent->count(DfsOpcode::kOpen), 10);
  const std::vector<DfsDecodedRecord> records =
      DecodeDfsTraceLog(FileContents(*kernel, "/tmp/dfs.log"));
  ASSERT_GT(records.size(), 50u);
  bool saw_makelog = false;
  for (const DfsDecodedRecord& record : records) {
    if (record.payload.find("MAKELOG") != std::string::npos) {
      saw_makelog = true;
    }
  }
  EXPECT_TRUE(saw_makelog);
}

TEST(AgentRuns, MonitorCountsSyscalls) {
  auto kernel = MakeWorld();
  SetupScribeWorkload(*kernel);
  auto monitor = std::make_shared<MonitorAgent>();
  const int status = RunProgramUnder(*kernel, {monitor}, "/usr/bin/scribe",
                                     {"scribe", "dissertation.mss"}, "/home/mbj");
  EXPECT_EQ(WExitStatus(status), 0);
  EXPECT_GT(monitor->CountOf(kSysWrite), 10);
  EXPECT_GT(monitor->CountOf(kSysOpen), 5);
  EXPECT_GT(monitor->TotalCalls(), 100);
  EXPECT_NE(monitor->FormatReport().find("write"), std::string::npos);
}

TEST(AgentRuns, SandboxDeniesAndEmulates) {
  auto kernel = MakeWorld();
  kernel->fs().InstallFile("/etc/secret", "s3cr3t\n", 0644);

  SandboxPolicy policy;
  policy.read_prefixes = {"/bin", "/usr", "/dev", "/tmp"};
  policy.write_prefixes = {"/tmp/jail"};
  policy.emulate_denied_writes = true;
  auto sandbox = std::make_shared<SandboxAgent>(policy);

  SpawnOptions options;
  options.body = [](ProcessContext& ctx) {
    // Disallowed read.
    if (ctx.Open("/etc/secret", kORdonly) != -kEPerm) {
      return 1;
    }
    // Allowed write.
    ctx.Mkdir("/tmp/jail", 0755);
    if (ctx.WriteWholeFile("/tmp/jail/ok.txt", "fine") != 0) {
      return 2;
    }
    // Denied write is emulated: appears to succeed, goes nowhere.
    const int fd = ctx.Open("/etc/evil", kOWronly | kOCreat, 0644);
    if (fd < 0) {
      return 3;
    }
    if (ctx.WriteString(fd, "malware") != 0) {
      return 4;
    }
    ctx.Close(fd);
    ia::Stat st;
    if (ctx.Stat("/etc/evil", &st) != -kEPerm && ctx.Stat("/etc/evil", &st) != -kENoent) {
      return 5;  // it must not actually exist (stat is denied or absent)
    }
    return 0;
  };
  const int status = RunUnderAgents(*kernel, {sandbox}, options);
  EXPECT_EQ(WExitStatus(status), 0);
  EXPECT_GT(sandbox->violations(), 0);
  EXPECT_EQ(FileContents(*kernel, "/etc/evil"), "<missing>");
}

TEST(AgentRuns, SandboxSyscallBudgetKills) {
  auto kernel = MakeWorld();
  SandboxPolicy policy;
  policy.max_syscalls = 50;
  auto sandbox = std::make_shared<SandboxAgent>(policy);
  SpawnOptions options;
  options.body = [](ProcessContext& ctx) {
    for (int i = 0; i < 10000; ++i) {
      ctx.Getpid();
    }
    return 0;
  };
  const int status = RunUnderAgents(*kernel, {sandbox}, options);
  EXPECT_TRUE(WifSignaled(status));
  EXPECT_EQ(WTermSig(status), kSigKill);
}

TEST(AgentRuns, TxnCommitAndAbort) {
  auto kernel = MakeWorld();
  kernel->fs().InstallFile("/data/config.txt", "version=1\n");
  kernel->fs().InstallFile("/data/doomed.txt", "delete me\n");

  // Abort: nothing persists.
  {
    auto txn = std::make_shared<TxnAgent>("/data", "/tmp/.txn1");
    SpawnOptions options;
    options.body = [&txn](ProcessContext& ctx) {
      ctx.WriteWholeFile("/data/config.txt", "version=2\n");
      ctx.Unlink("/data/doomed.txt");
      ctx.WriteWholeFile("/data/new.txt", "fresh\n");
      std::string view;
      ctx.ReadWholeFile("/data/config.txt", &view);
      if (view != "version=2\n") {
        return 1;  // inside the txn the write must be visible
      }
      ia::Stat st;
      if (ctx.Stat("/data/doomed.txt", &st) != -kENoent) {
        return 2;  // inside the txn the delete must be visible
      }
      txn->Abort(ctx);
      return 0;
    };
    const int status = RunUnderAgents(*kernel, {txn}, options);
    EXPECT_EQ(WExitStatus(status), 0);
    EXPECT_EQ(FileContents(*kernel, "/data/config.txt"), "version=1\n");
    EXPECT_EQ(FileContents(*kernel, "/data/doomed.txt"), "delete me\n");
    EXPECT_EQ(FileContents(*kernel, "/data/new.txt"), "<missing>");
  }

  // Commit: everything persists.
  {
    auto txn = std::make_shared<TxnAgent>("/data", "/tmp/.txn2");
    SpawnOptions options;
    options.body = [&txn](ProcessContext& ctx) {
      ctx.WriteWholeFile("/data/config.txt", "version=3\n");
      ctx.Unlink("/data/doomed.txt");
      ctx.WriteWholeFile("/data/new.txt", "fresh\n");
      txn->Commit(ctx);
      return 0;
    };
    const int status = RunUnderAgents(*kernel, {txn}, options);
    EXPECT_EQ(WExitStatus(status), 0);
    EXPECT_EQ(FileContents(*kernel, "/data/config.txt"), "version=3\n");
    EXPECT_EQ(FileContents(*kernel, "/data/doomed.txt"), "<missing>");
    EXPECT_EQ(FileContents(*kernel, "/data/new.txt"), "fresh\n");
  }
}

TEST(AgentRuns, NestedTransactions) {
  auto kernel = MakeWorld();
  kernel->fs().InstallFile("/data/x.txt", "base\n");
  auto outer = std::make_shared<TxnAgent>("/data", "/tmp/.outer");
  auto inner = std::make_shared<TxnAgent>("/data", "/tmp/.inner");
  SpawnOptions options;
  // agents[0] = outer (closest to kernel), agents[1] = inner (closest to app).
  options.body = [&outer, &inner](ProcessContext& ctx) {
    ctx.WriteWholeFile("/data/x.txt", "inner change\n");
    inner->Commit(ctx);  // commits into the OUTER transaction, not the base
    std::string view;
    ctx.ReadWholeFile("/data/x.txt", &view);
    if (view != "inner change\n") {
      return 1;
    }
    outer->Abort(ctx);  // discard everything
    return 0;
  };
  const int status = RunUnderAgents(*kernel, {outer, inner}, options);
  EXPECT_EQ(WExitStatus(status), 0);
  // The inner commit landed in the outer overlay, which was aborted.
  EXPECT_EQ(FileContents(*kernel, "/data/x.txt"), "base\n");
}

TEST(AgentRuns, CompressRoundTripAndStoredForm) {
  auto kernel = MakeWorld();
  kernel->fs().MkdirAll("/zip");
  auto agent = std::make_shared<CompressAgent>("/zip");
  SpawnOptions options;
  options.body = [](ProcessContext& ctx) {
    const std::string payload(4000, 'a');  // compresses well under RLE
    if (ctx.WriteWholeFile("/zip/runs.dat", payload) != 0) {
      return 1;
    }
    std::string back;
    if (ctx.ReadWholeFile("/zip/runs.dat", &back) != 0) {
      return 2;
    }
    if (back != payload) {
      return 3;
    }
    ia::Stat st;
    if (ctx.Stat("/zip/runs.dat", &st) != 0 || st.st_size != 4000) {
      return 4;  // logical size reported
    }
    return 0;
  };
  const int status = RunUnderAgents(*kernel, {agent}, options);
  EXPECT_EQ(WExitStatus(status), 0);
  // The stored bytes are the RLE form: magic + far fewer than 4000 bytes.
  const std::string stored = FileContents(*kernel, "/zip/runs.dat");
  EXPECT_EQ(stored.substr(0, 4), "RLE1");
  EXPECT_LT(stored.size(), 200u);
}

TEST(AgentRuns, CryptStoresCiphertext) {
  auto kernel = MakeWorld();
  kernel->fs().MkdirAll("/vault");
  auto agent = std::make_shared<CryptAgent>("/vault", /*key=*/0xfeedface);
  SpawnOptions options;
  options.body = [](ProcessContext& ctx) {
    if (ctx.WriteWholeFile("/vault/diary.txt", "attack at dawn") != 0) {
      return 1;
    }
    std::string back;
    if (ctx.ReadWholeFile("/vault/diary.txt", &back) != 0 || back != "attack at dawn") {
      return 2;
    }
    return 0;
  };
  const int status = RunUnderAgents(*kernel, {agent}, options);
  EXPECT_EQ(WExitStatus(status), 0);
  const std::string stored = FileContents(*kernel, "/vault/diary.txt");
  EXPECT_EQ(stored.substr(0, 4), "XOR1");
  EXPECT_EQ(stored.find("attack"), std::string::npos);
}

TEST(AgentRuns, HpuxEmulatorRunsForeignBinary) {
  auto kernel = MakeWorld();
  // Without the emulator, the foreign binary fails fast.
  const int bare = RunProgram(*kernel, "/usr/bin/hpux_hello", {"hpux_hello"});
  EXPECT_EQ(WExitStatus(bare), 10);
  // Under the emulator it runs to completion.
  auto emul = std::make_shared<HpuxEmulAgent>();
  const int status =
      RunProgramUnder(*kernel, {emul}, "/usr/bin/hpux_hello", {"hpux_hello"});
  EXPECT_EQ(WExitStatus(status), 0);
  EXPECT_GT(emul->emulated_calls(), 4);
  EXPECT_EQ(FileContents(*kernel, "/tmp/hpux.out"), "hello from an HP-UX binary\n");
}

TEST(AgentRuns, StackedAgentsTimexUnderTraceUnderUnion) {
  // Figure 1-3: multiple agents stacked between one application and the kernel.
  auto kernel = MakeWorld();
  kernel->fs().InstallFile("/v1/a.txt", "A\n");
  kernel->fs().InstallFile("/v2/b.txt", "B\n");
  auto timex = std::make_shared<TimexAgent>(1000);
  auto trace = std::make_shared<TraceAgent>(TraceOptions{.log_path = "/tmp/stack.log"});
  auto union_agent = std::make_shared<UnionAgent>(
      std::vector<UnionMount>{{"/u", {"/v1", "/v2"}}});
  const int status = RunProgramUnder(*kernel, {timex, trace, union_agent}, "/bin/cat",
                                     {"cat", "/u/a.txt", "/u/b.txt"});
  EXPECT_EQ(WExitStatus(status), 0);
  EXPECT_EQ(kernel->console().transcript(), "A\nB\n");
  EXPECT_GT(trace->traced_calls(), 0);
}

}  // namespace
}  // namespace ia
