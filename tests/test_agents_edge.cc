// Edge-case tests for the bundled agents.
#include "tests/test_helpers.h"

#include "src/agents/codec.h"
#include "src/agents/dfs_trace.h"
#include "src/agents/emul.h"
#include "src/agents/filter_fs.h"
#include "src/agents/sandbox.h"
#include "src/agents/timex.h"
#include "src/agents/trace.h"
#include "src/agents/txn.h"
#include "src/agents/union_fs.h"
#include "src/base/strings.h"

namespace ia {
namespace {

using test::ExitCodeOf;
using test::FileContents;
using test::MakeWorld;
using test::RunBodyUnder;

// ---------------------------------------------------------------------------
// timex.
// ---------------------------------------------------------------------------

TEST(Timex, SettimeofdayCompensated) {
  auto kernel = MakeWorld();
  auto timex = std::make_shared<TimexAgent>(1000);
  const int status = RunBodyUnder(*kernel, {timex}, [](ProcessContext& ctx) {
    TimeVal now;
    ctx.Gettimeofday(&now, nullptr);
    // Set the funky time to exactly what we read; re-reading must round-trip.
    if (ctx.Settimeofday(&now, nullptr) != 0) {
      return 1;
    }
    TimeVal again;
    ctx.Gettimeofday(&again, nullptr);
    const int64_t drift = again.tv_sec - now.tv_sec;
    return (drift >= 0 && drift <= 2) ? 0 : 2;
  });
  EXPECT_EQ(WExitStatus(status), 0);
  // The real clock is NOT 1000 seconds ahead: the agent compensated.
  EXPECT_LT(kernel->VirtualNow() / 1000000, 725846400 + 500);
}

TEST(Timex, NullPointerTolerated) {
  auto kernel = MakeWorld();
  const int status = RunBodyUnder(*kernel, {std::make_shared<TimexAgent>(50)},
                                  [](ProcessContext& ctx) {
                                    SyscallArgs args;  // tp == nullptr
                                    return ctx.Syscall(kSysGettimeofday, args, nullptr) == 0
                                               ? 0
                                               : 1;
                                  });
  EXPECT_EQ(WExitStatus(status), 0);
}

// ---------------------------------------------------------------------------
// trace.
// ---------------------------------------------------------------------------

TEST(Trace, ErrorResultsPrintedSymbolically) {
  auto kernel = MakeWorld();
  auto trace = std::make_shared<TraceAgent>(TraceOptions{.log_path = "/tmp/t.log"});
  RunBodyUnder(*kernel, {trace}, [](ProcessContext& ctx) {
    ctx.Open("/no/such/file", kORdonly);
    return 0;
  });
  const std::string log = FileContents(*kernel, "/tmp/t.log");
  EXPECT_NE(log.find("open(\"/no/such/file\""), std::string::npos);
  EXPECT_NE(log.find("-> ENOENT"), std::string::npos);
}

TEST(Trace, SignalsTraced) {
  auto kernel = MakeWorld();
  auto trace = std::make_shared<TraceAgent>(TraceOptions{.log_path = "/tmp/t.log"});
  RunBodyUnder(*kernel, {trace}, [](ProcessContext& ctx) {
    ctx.Sigvec(kSigUsr1, 2, [](ProcessContext&, int) {});
    ctx.Kill(ctx.Getpid(), kSigUsr1);
    ctx.Getpid();
    return 0;
  });
  EXPECT_NE(FileContents(*kernel, "/tmp/t.log").find("--- signal SIGUSR1 ---"),
            std::string::npos);
  EXPECT_EQ(trace->traced_signals(), 1);
}

TEST(Trace, BufferedModeFlushesOnExit) {
  auto kernel = MakeWorld();
  auto trace = std::make_shared<TraceAgent>(
      TraceOptions{.log_path = "/tmp/t.log", .unbuffered = false});
  RunBodyUnder(*kernel, {trace}, [](ProcessContext& ctx) {
    ctx.Getpid();
    return 0;
  });
  // exit is a no-return trace that flushes the buffer.
  const std::string log = FileContents(*kernel, "/tmp/t.log");
  EXPECT_NE(log.find("getpid()"), std::string::npos);
  EXPECT_NE(log.find("exit(0)"), std::string::npos);
}

TEST(Trace, ChildProcessesTraced) {
  auto kernel = MakeWorld();
  auto trace = std::make_shared<TraceAgent>(TraceOptions{.log_path = "/tmp/t.log"});
  RunBodyUnder(*kernel, {trace}, [](ProcessContext& ctx) {
    const Pid child = ctx.Fork([](ProcessContext& c) {
      c.Open("/from/child", kORdonly);
      return 0;
    });
    int status = 0;
    ctx.Wait4(child, &status, 0, nullptr);
    return 0;
  });
  const std::string log = FileContents(*kernel, "/tmp/t.log");
  EXPECT_NE(log.find("open(\"/from/child\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// union.
// ---------------------------------------------------------------------------

TEST(Union, CandidateComputation) {
  UnionMount mount{"/u", {"/v1", "/v2"}};
  EXPECT_EQ(UnionAgent::Candidates(mount, "/u"),
            (std::vector<std::string>{"/v1", "/v2"}));
  EXPECT_EQ(UnionAgent::Candidates(mount, "/u/a/b"),
            (std::vector<std::string>{"/v1/a/b", "/v2/a/b"}));
}

TEST(Union, FindMountLongestPrefix) {
  UnionAgent agent({{"/u", {"/a"}}, {"/u/deep", {"/b"}}});
  EXPECT_EQ(agent.FindMount("/u/x")->members[0], "/a");
  EXPECT_EQ(agent.FindMount("/u/deep/x")->members[0], "/b");
  EXPECT_EQ(agent.FindMount("/unrelated"), nullptr);
  EXPECT_EQ(agent.FindMount("/ux"), nullptr);  // no partial-component match
}

TEST(Union, CreationGoesToFirstMember) {
  auto kernel = MakeWorld();
  kernel->fs().MkdirAll("/w");
  kernel->fs().MkdirAll("/r");
  kernel->fs().InstallFile("/r/existing", "old");
  auto agent = std::make_shared<UnionAgent>(
      std::vector<UnionMount>{{"/u", {"/w", "/r"}}});
  const int status = RunBodyUnder(*kernel, {agent}, [](ProcessContext& ctx) {
    if (ctx.WriteWholeFile("/u/fresh", "new file") != 0) {
      return 1;
    }
    // Writing to an existing second-member file mutates it in place.
    if (ctx.WriteWholeFile("/u/existing", "updated") != 0) {
      return 2;
    }
    return 0;
  });
  EXPECT_EQ(WExitStatus(status), 0);
  EXPECT_EQ(FileContents(*kernel, "/w/fresh"), "new file");
  EXPECT_EQ(FileContents(*kernel, "/r/existing"), "updated");
  EXPECT_EQ(FileContents(*kernel, "/r/fresh"), "<missing>");
}

TEST(Union, UnlinkActsOnShadowingMember) {
  auto kernel = MakeWorld();
  kernel->fs().InstallFile("/v1/both", "v1");
  kernel->fs().InstallFile("/v2/both", "v2");
  auto agent = std::make_shared<UnionAgent>(
      std::vector<UnionMount>{{"/u", {"/v1", "/v2"}}});
  const int status = RunBodyUnder(*kernel, {agent}, [](ProcessContext& ctx) {
    if (ctx.Unlink("/u/both") != 0) {
      return 1;
    }
    // v2's copy now shows through.
    std::string data;
    if (ctx.ReadWholeFile("/u/both", &data) != 0 || data != "v2") {
      return 2;
    }
    return 0;
  });
  EXPECT_EQ(WExitStatus(status), 0);
  EXPECT_EQ(FileContents(*kernel, "/v1/both"), "<missing>");
  EXPECT_EQ(FileContents(*kernel, "/v2/both"), "v2");
}

TEST(Union, DirectoryListingDedupes) {
  auto kernel = MakeWorld();
  kernel->fs().InstallFile("/v1/common.txt", "");
  kernel->fs().InstallFile("/v1/first.txt", "");
  kernel->fs().InstallFile("/v2/common.txt", "");
  kernel->fs().InstallFile("/v2/second.txt", "");
  auto agent = std::make_shared<UnionAgent>(
      std::vector<UnionMount>{{"/u", {"/v1", "/v2"}}});
  const int status = RunBodyUnder(*kernel, {agent}, [](ProcessContext& ctx) {
    std::vector<std::string> names;
    if (ctx.ListDirectory("/u", &names) != 0) {
      return 1;
    }
    int common = 0;
    int dots = 0;
    bool first = false;
    bool second = false;
    for (const std::string& name : names) {
      common += name == "common.txt";
      dots += name == "." || name == "..";
      first |= name == "first.txt";
      second |= name == "second.txt";
    }
    if (common != 1) {
      return 2;  // deduped
    }
    if (dots != 2) {
      return 3;  // "." and ".." exactly once
    }
    return first && second ? 0 : 4;
  });
  EXPECT_EQ(WExitStatus(status), 0);
}

TEST(Union, SubdirectoriesMergeToo) {
  auto kernel = MakeWorld();
  kernel->fs().InstallFile("/v1/sub/a", "");
  kernel->fs().InstallFile("/v2/sub/b", "");
  auto agent = std::make_shared<UnionAgent>(
      std::vector<UnionMount>{{"/u", {"/v1", "/v2"}}});
  const int status = RunBodyUnder(*kernel, {agent}, [](ProcessContext& ctx) {
    std::vector<std::string> names;
    if (ctx.ListDirectory("/u/sub", &names) != 0) {
      return 1;
    }
    bool a = false;
    bool b = false;
    for (const std::string& name : names) {
      a |= name == "a";
      b |= name == "b";
    }
    return a && b ? 0 : 2;
  });
  EXPECT_EQ(WExitStatus(status), 0);
}

// ---------------------------------------------------------------------------
// codecs + filter agents.
// ---------------------------------------------------------------------------

TEST(Codecs, RleRoundTripAndCorruption) {
  RleCodec codec;
  for (const std::string& plain :
       {std::string(""), std::string("a"), std::string(1000, 'z'),
        std::string("abcabcabc"), std::string(300, '\0')}) {
    std::string decoded;
    ASSERT_EQ(codec.Decode(codec.Encode(plain), &decoded), 0);
    EXPECT_EQ(decoded, plain);
  }
  std::string out;
  EXPECT_EQ(codec.Decode("garbage-not-rle", &out), -kEInval);
  EXPECT_EQ(codec.Decode("RLE1\x05", &out), -kEInval);  // truncated pair
  EXPECT_EQ(codec.Decode("", &out), 0);                 // empty stores empty
}

TEST(Codecs, RleCompressesRuns) {
  RleCodec codec;
  EXPECT_LT(codec.Encode(std::string(10000, 'x')).size(), 100u);
  // Alternation is the worst case: ~2x.
  std::string worst;
  for (int i = 0; i < 100; ++i) {
    worst += (i % 2 != 0) ? 'a' : 'b';
  }
  EXPECT_LE(codec.Encode(worst).size(), 2 * worst.size() + 4);
}

TEST(Codecs, XorKeyMatters) {
  XorCodec k1(111);
  XorCodec k2(222);
  const std::string plain = "the same plaintext";
  EXPECT_NE(k1.Encode(plain), k2.Encode(plain));
  std::string wrong;
  ASSERT_EQ(k2.Decode(k1.Encode(plain), &wrong), 0);
  EXPECT_NE(wrong, plain);  // wrong key yields garbage, not an error
}

TEST(Filter, AppendSeekAndTruncateOnLogicalBytes) {
  auto kernel = MakeWorld();
  kernel->fs().MkdirAll("/zip");
  auto agent = std::make_shared<CompressAgent>("/zip");
  const int status = RunBodyUnder(*kernel, {agent}, [](ProcessContext& ctx) {
    if (ctx.WriteWholeFile("/zip/f", "0123456789") != 0) {
      return 1;
    }
    // Append.
    int fd = ctx.Open("/zip/f", kOWronly | kOAppend);
    ctx.WriteString(fd, "AB");
    ctx.Close(fd);
    // Seek + read the middle.
    fd = ctx.Open("/zip/f", kORdonly);
    ctx.Lseek(fd, 8, kSeekSet);
    char buf[8] = {};
    const int64_t n = ctx.Read(fd, buf, 4);
    ctx.Close(fd);
    if (n != 4 || std::string(buf, 4) != "89AB") {
      return 2;
    }
    // ftruncate.
    fd = ctx.Open("/zip/f", kORdwr);
    ctx.Ftruncate(fd, 3);
    ctx.Close(fd);
    std::string back;
    ctx.ReadWholeFile("/zip/f", &back);
    return back == "012" ? 0 : 3;
  });
  EXPECT_EQ(WExitStatus(status), 0);
}

TEST(Filter, DupSharesLogicalOffset) {
  auto kernel = MakeWorld();
  kernel->fs().MkdirAll("/zip");
  auto agent = std::make_shared<CompressAgent>("/zip");
  const int status = RunBodyUnder(*kernel, {agent}, [](ProcessContext& ctx) {
    ctx.WriteWholeFile("/zip/g", "abcdef");
    const int fd = ctx.Open("/zip/g", kORdonly);
    const int d = ctx.Dup(fd);
    char c;
    ctx.Read(fd, &c, 1);
    ctx.Read(d, &c, 1);
    return c == 'b' ? 0 : 1;
  });
  EXPECT_EQ(WExitStatus(status), 0);
}

TEST(Filter, CorruptStoredFileRejected) {
  auto kernel = MakeWorld();
  kernel->fs().MkdirAll("/zip");
  kernel->fs().InstallFile("/zip/corrupt", "this is not RLE data");
  auto agent = std::make_shared<CompressAgent>("/zip");
  const int status = RunBodyUnder(*kernel, {agent}, [](ProcessContext& ctx) {
    return ctx.Open("/zip/corrupt", kORdonly) == -kEInval ? 0 : 1;
  });
  EXPECT_EQ(WExitStatus(status), 0);
}

TEST(Filter, OutOfScopeUntouched) {
  auto kernel = MakeWorld();
  kernel->fs().MkdirAll("/zip");
  auto agent = std::make_shared<CompressAgent>("/zip");
  const int status = RunBodyUnder(*kernel, {agent}, [](ProcessContext& ctx) {
    ctx.WriteWholeFile("/tmp/plain", "stays plain");
    return 0;
  });
  EXPECT_EQ(WExitStatus(status), 0);
  EXPECT_EQ(FileContents(*kernel, "/tmp/plain"), "stays plain");
}

TEST(Filter, FsyncWritesBack) {
  auto kernel = MakeWorld();
  kernel->fs().MkdirAll("/zip");
  auto agent = std::make_shared<CompressAgent>("/zip");
  const int status = RunBodyUnder(*kernel, {agent}, [&kernel](ProcessContext& ctx) {
    const int fd = ctx.Open("/zip/sync", kOCreat | kOWronly, 0644);
    ctx.WriteString(fd, std::string(100, 'y'));
    ctx.Fsync(fd);
    // Stored form exists before close.
    (void)kernel;
    ctx.Close(fd);
    return 0;
  });
  EXPECT_EQ(WExitStatus(status), 0);
  EXPECT_EQ(FileContents(*kernel, "/zip/sync").substr(0, 4), "RLE1");
}

TEST(Filter, StackedCryptUnderCompress) {
  // Compression over encryption: /vault files are XOR'd then RLE'd... actually
  // agents stack the other way: the agent closest to the kernel sees the final
  // stored bytes. crypt (lower) stores XOR; compress (upper) feeds it RLE bytes.
  auto kernel = MakeWorld();
  kernel->fs().MkdirAll("/both");
  auto crypt = std::make_shared<CryptAgent>("/both", 42);
  auto compress = std::make_shared<CompressAgent>("/both");
  const int status =
      RunBodyUnder(*kernel, {crypt, compress}, [](ProcessContext& ctx) {
        const std::string payload(500, 'r');
        if (ctx.WriteWholeFile("/both/f", payload) != 0) {
          return 1;
        }
        std::string back;
        if (ctx.ReadWholeFile("/both/f", &back) != 0 || back != payload) {
          return 2;
        }
        return 0;
      });
  EXPECT_EQ(WExitStatus(status), 0);
  // Outermost stored layer is the crypt agent's (closest to the kernel).
  EXPECT_EQ(FileContents(*kernel, "/both/f").substr(0, 4), "XOR1");
}

// ---------------------------------------------------------------------------
// txn.
// ---------------------------------------------------------------------------

TEST(Txn, DirectoryListingShowsMergedView) {
  auto kernel = MakeWorld();
  kernel->fs().InstallFile("/data/base1.txt", "");
  kernel->fs().InstallFile("/data/base2.txt", "");
  auto txn = std::make_shared<TxnAgent>("/data", "/tmp/.t");
  const int status = RunBodyUnder(*kernel, {txn}, [](ProcessContext& ctx) {
    ctx.WriteWholeFile("/data/new.txt", "n");
    ctx.Unlink("/data/base2.txt");
    std::vector<std::string> names;
    if (ctx.ListDirectory("/data", &names) != 0) {
      return 1;
    }
    bool base1 = false;
    bool base2 = false;
    bool fresh = false;
    for (const std::string& name : names) {
      base1 |= name == "base1.txt";
      base2 |= name == "base2.txt";
      fresh |= name == "new.txt";
    }
    if (!base1 || !fresh) {
      return 2;
    }
    if (base2) {
      return 3;  // deleted entries must not appear
    }
    return 0;
  });
  EXPECT_EQ(WExitStatus(status), 0);
}

TEST(Txn, RenameWithinTransaction) {
  auto kernel = MakeWorld();
  kernel->fs().InstallFile("/data/old.txt", "payload");
  auto txn = std::make_shared<TxnAgent>("/data", "/tmp/.t");
  const int status = RunBodyUnder(*kernel, {txn}, [&txn](ProcessContext& ctx) {
    if (ctx.Rename("/data/old.txt", "/data/new.txt") != 0) {
      return 1;
    }
    ia::Stat st;
    if (ctx.Stat("/data/old.txt", &st) != -kENoent) {
      return 2;
    }
    std::string data;
    if (ctx.ReadWholeFile("/data/new.txt", &data) != 0 || data != "payload") {
      return 3;
    }
    txn->Commit(ctx);
    return 0;
  });
  EXPECT_EQ(WExitStatus(status), 0);
  EXPECT_EQ(FileContents(*kernel, "/data/old.txt"), "<missing>");
  EXPECT_EQ(FileContents(*kernel, "/data/new.txt"), "payload");
}

TEST(Txn, RecreateAfterDelete) {
  auto kernel = MakeWorld();
  kernel->fs().InstallFile("/data/phoenix", "first life");
  auto txn = std::make_shared<TxnAgent>("/data", "/tmp/.t");
  const int status = RunBodyUnder(*kernel, {txn}, [&txn](ProcessContext& ctx) {
    ctx.Unlink("/data/phoenix");
    ia::Stat st;
    if (ctx.Stat("/data/phoenix", &st) != -kENoent) {
      return 1;
    }
    if (ctx.WriteWholeFile("/data/phoenix", "second life") != 0) {
      return 2;
    }
    std::string data;
    ctx.ReadWholeFile("/data/phoenix", &data);
    if (data != "second life") {
      return 3;
    }
    txn->Commit(ctx);
    return 0;
  });
  EXPECT_EQ(WExitStatus(status), 0);
  EXPECT_EQ(FileContents(*kernel, "/data/phoenix"), "second life");
}

TEST(Txn, MkdirTreeCommits) {
  auto kernel = MakeWorld();
  kernel->fs().MkdirAll("/data");
  auto txn = std::make_shared<TxnAgent>("/data", "/tmp/.t");
  const int status = RunBodyUnder(*kernel, {txn}, [&txn](ProcessContext& ctx) {
    ctx.Mkdir("/data/d1");
    ctx.Mkdir("/data/d1/d2");
    ctx.WriteWholeFile("/data/d1/d2/leaf", "deep");
    txn->Commit(ctx);
    return 0;
  });
  EXPECT_EQ(WExitStatus(status), 0);
  EXPECT_EQ(FileContents(*kernel, "/data/d1/d2/leaf"), "deep");
}

TEST(Txn, ModificationsInvisibleOutsideUntilCommit) {
  auto kernel = MakeWorld();
  kernel->fs().InstallFile("/data/shared.txt", "original");
  auto txn = std::make_shared<TxnAgent>("/data", "/tmp/.t");
  // The transactional client writes; an independent bare process reads.
  RunBodyUnder(*kernel, {txn}, [](ProcessContext& ctx) {
    ctx.WriteWholeFile("/data/shared.txt", "txn view");
    return 0;
  });
  // No commit: the base is untouched.
  EXPECT_EQ(FileContents(*kernel, "/data/shared.txt"), "original");
  EXPECT_GT(txn->OverlayCount(), 0);
}

// ---------------------------------------------------------------------------
// sandbox.
// ---------------------------------------------------------------------------

struct SandboxOpCase {
  const char* name;
  std::function<int(ProcessContext&)> attempt;  // returns the syscall status
};

// Prints the case by name, so the parameter's printed form (which test
// discovery folds into the test name) does not depend on load addresses.
void PrintTo(const SandboxOpCase& c, std::ostream* os) { *os << c.name; }

class SandboxWriteOps : public ::testing::TestWithParam<SandboxOpCase> {};

TEST_P(SandboxWriteOps, DeniedOutsideWritePrefixes) {
  auto kernel = MakeWorld();
  kernel->fs().InstallFile("/etc/target", "x");
  kernel->fs().MkdirAll("/etc/dir");
  SandboxPolicy policy;
  policy.read_prefixes = {"/"};
  policy.write_prefixes = {"/tmp"};
  auto sandbox = std::make_shared<SandboxAgent>(policy);
  const SandboxOpCase& op = GetParam();
  const int status = RunBodyUnder(*kernel, {sandbox}, [&op](ProcessContext& ctx) {
    return op.attempt(ctx) == -kEPerm ? 0 : 1;
  });
  EXPECT_EQ(WExitStatus(status), 0) << op.name;
  EXPECT_GT(sandbox->violations(), 0) << op.name;
}

INSTANTIATE_TEST_SUITE_P(
    WriteOps, SandboxWriteOps,
    ::testing::Values(
        SandboxOpCase{"unlink", [](ProcessContext& c) { return c.Unlink("/etc/target"); }},
        SandboxOpCase{"mkdir", [](ProcessContext& c) { return c.Mkdir("/etc/newdir"); }},
        SandboxOpCase{"rmdir", [](ProcessContext& c) { return c.Rmdir("/etc/dir"); }},
        SandboxOpCase{"chmod",
                      [](ProcessContext& c) { return c.Chmod("/etc/target", 0777); }},
        SandboxOpCase{"truncate",
                      [](ProcessContext& c) { return c.Truncate("/etc/target", 0); }},
        SandboxOpCase{"rename",
                      [](ProcessContext& c) {
                        return c.Rename("/etc/target", "/etc/elsewhere");
                      }},
        SandboxOpCase{"symlink",
                      [](ProcessContext& c) { return c.Symlink("/tmp/x", "/etc/link"); }},
        SandboxOpCase{"open_creat",
                      [](ProcessContext& c) {
                        return c.Open("/etc/created", kOCreat | kOWronly, 0644);
                      }},
        SandboxOpCase{"utimes",
                      [](ProcessContext& c) { return c.Utimes("/etc/target", nullptr); }}),
    [](const ::testing::TestParamInfo<SandboxOpCase>& param_info) { return param_info.param.name; });

TEST(Sandbox, ReadOnlyViewStillWorks) {
  auto kernel = MakeWorld();
  SandboxPolicy policy;
  policy.read_prefixes = {"/etc"};
  policy.write_prefixes = {};
  auto sandbox = std::make_shared<SandboxAgent>(policy);
  const int status = RunBodyUnder(*kernel, {sandbox}, [](ProcessContext& ctx) {
    std::string motd;
    if (ctx.ReadWholeFile("/etc/motd", &motd) != 0 || motd.empty()) {
      return 1;
    }
    std::vector<std::string> names;
    if (ctx.ListDirectory("/etc", &names) != 0) {
      return 2;
    }
    return 0;
  });
  EXPECT_EQ(WExitStatus(status), 0);
  EXPECT_EQ(sandbox->violations(), 0);
}

TEST(Sandbox, ForkAndExecControls) {
  auto kernel = MakeWorld();
  SandboxPolicy no_fork;
  no_fork.allow_fork = false;
  const int status1 = RunBodyUnder(
      *kernel, {std::make_shared<SandboxAgent>(no_fork)}, [](ProcessContext& ctx) {
        return ctx.Fork([](ProcessContext&) { return 0; }) == -kEPerm ? 0 : 1;
      });
  EXPECT_EQ(WExitStatus(status1), 0);

  SandboxPolicy no_exec;
  no_exec.allow_exec = false;
  const int status2 = RunBodyUnder(
      *kernel, {std::make_shared<SandboxAgent>(no_exec)}, [](ProcessContext& ctx) {
        return ctx.Execve("/bin/true", {"true"}) == -kEPerm ? 0 : 1;
      });
  EXPECT_EQ(WExitStatus(status2), 0);
}

TEST(Sandbox, WriteBudgetLooksLikeFullDisk) {
  auto kernel = MakeWorld();
  SandboxPolicy policy;
  policy.write_prefixes = {"/tmp"};
  policy.max_write_bytes = 100;
  const int status = RunBodyUnder(
      *kernel, {std::make_shared<SandboxAgent>(policy)}, [](ProcessContext& ctx) {
        const int fd = ctx.Open("/tmp/out", kOCreat | kOWronly, 0644);
        const std::string chunk(60, 'x');
        if (ctx.Write(fd, chunk.data(), chunk.size()) != 60) {
          return 1;
        }
        // Second write exceeds the budget: looks like ENOSPC.
        if (ctx.Write(fd, chunk.data(), chunk.size()) != -kENospc) {
          return 2;
        }
        return 0;
      });
  EXPECT_EQ(WExitStatus(status), 0);
}

// ---------------------------------------------------------------------------
// emul.
// ---------------------------------------------------------------------------

TEST(Emul, FlagTranslation) {
  EXPECT_EQ(HpuxToNativeOpenFlags(kHpuxORdonly), kORdonly);
  EXPECT_EQ(HpuxToNativeOpenFlags(kHpuxOWronly | kHpuxOCreat | kHpuxOTrunc),
            kOWronly | kOCreat | kOTrunc);
  EXPECT_EQ(HpuxToNativeOpenFlags(kHpuxORdwr | kHpuxOAppend), kORdwr | kOAppend);
  EXPECT_EQ(HpuxToNativeOpenFlags(kHpuxOExcl), kOExcl);
}

TEST(Emul, NumberTranslation) {
  EXPECT_EQ(HpuxToNativeSyscall(kHpuxRead), kSysRead);
  EXPECT_EQ(HpuxToNativeSyscall(kHpuxGettimeofday), kSysGettimeofday);
  EXPECT_EQ(HpuxToNativeSyscall(12345), -1);
  EXPECT_EQ(HpuxToNativeSyscall(kSysRead), -1);  // native numbers are not foreign
}

TEST(Emul, ForeignAndNativeCoexist) {
  auto kernel = MakeWorld();
  auto emul = std::make_shared<HpuxEmulAgent>();
  const int status = RunBodyUnder(*kernel, {emul}, [](ProcessContext& ctx) {
    // Native calls pass through untouched...
    if (ctx.Getpid() <= 0) {
      return 1;
    }
    // ...while foreign numbers are remapped by the same agent.
    SyscallArgs args;
    SyscallResult rv;
    if (ctx.Syscall(kHpuxGetpid, args, &rv) < 0) {
      return 2;
    }
    return rv.rv[0] == ctx.Getpid() ? 0 : 3;
  });
  EXPECT_EQ(WExitStatus(status), 0);
  EXPECT_EQ(emul->emulated_calls(), 1);
}

// ---------------------------------------------------------------------------
// dfs_trace record format.
// ---------------------------------------------------------------------------

TEST(DfsTrace, DecodeRejectsGarbage) {
  EXPECT_TRUE(DecodeDfsTraceLog("short").empty());
  std::string bad(sizeof(DfsRecordHeader), '\0');
  EXPECT_TRUE(DecodeDfsTraceLog(bad).empty());  // wrong magic
}

TEST(DfsTrace, SequenceNumbersMonotonic) {
  auto kernel = MakeWorld();
  auto agent = std::make_shared<DfsTraceAgent>("/tmp/dfs.log");
  RunBodyUnder(*kernel, {agent}, [](ProcessContext& ctx) {
    ctx.WriteWholeFile("/tmp/a", "1");
    ctx.WriteWholeFile("/tmp/b", "2");
    ctx.Unlink("/tmp/a");
    return 0;
  });
  const std::vector<DfsDecodedRecord> records =
      DecodeDfsTraceLog(FileContents(*kernel, "/tmp/dfs.log"));
  ASSERT_GT(records.size(), 4u);
  for (size_t i = 1; i < records.size(); ++i) {
    EXPECT_EQ(records[i].header.sequence, records[i - 1].header.sequence + 1);
  }
  bool saw_unlink = false;
  for (const DfsDecodedRecord& record : records) {
    if (record.header.opcode == static_cast<uint8_t>(DfsOpcode::kUnlink) &&
        record.payload == "/tmp/a") {
      saw_unlink = true;
    }
  }
  EXPECT_TRUE(saw_unlink);
}

}  // namespace
}  // namespace ia
