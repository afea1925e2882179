// Cross-agent composition and lifetime-corner tests.
#include "tests/test_helpers.h"

#include <array>
#include <atomic>
#include <functional>
#include <set>

#include "src/agents/sandbox.h"
#include "src/agents/timex.h"
#include "src/agents/txn.h"
#include "src/agents/union_fs.h"
#include "src/agents/userdev.h"
#include "src/base/prng.h"
#include "src/base/strings.h"

namespace ia {
namespace {

using test::ExitCodeOf;
using test::FileContents;
using test::MakeWorld;
using test::RunBodyUnder;

TEST(Composition, TxnOverUnionCommitsIntoFirstMember) {
  // Stack: union (closest to kernel) under txn (closest to app). The client
  // edits /u/file transactionally; commit writes through the union, which
  // routes the mutation to the member where the file lives.
  auto kernel = MakeWorld();
  kernel->fs().MkdirAll("/w");
  kernel->fs().InstallFile("/r/file.txt", "original");
  auto union_agent = std::make_shared<UnionAgent>(
      std::vector<UnionMount>{{"/u", {"/w", "/r"}}});
  auto txn = std::make_shared<TxnAgent>("/u", "/tmp/.txn");
  SpawnOptions spawn;
  spawn.body = [&txn](ProcessContext& ctx) {
    if (ctx.WriteWholeFile("/u/file.txt", "edited in txn") != 0) {
      return 1;
    }
    std::string view;
    ctx.ReadWholeFile("/u/file.txt", &view);
    if (view != "edited in txn") {
      return 2;
    }
    txn->Commit(ctx);
    return 0;
  };
  const int status = RunUnderAgents(*kernel, {union_agent, txn}, spawn);
  EXPECT_EQ(WExitStatus(status), 0);
  // The commit went through the union: the edit landed on the file in place.
  EXPECT_EQ(FileContents(*kernel, "/r/file.txt"), "edited in txn");
}

TEST(Composition, TxnOverUnionAbortLeavesMembersUntouched) {
  auto kernel = MakeWorld();
  kernel->fs().MkdirAll("/w");
  kernel->fs().InstallFile("/r/file.txt", "original");
  auto union_agent = std::make_shared<UnionAgent>(
      std::vector<UnionMount>{{"/u", {"/w", "/r"}}});
  auto txn = std::make_shared<TxnAgent>("/u", "/tmp/.txn");
  SpawnOptions spawn;
  spawn.body = [&txn](ProcessContext& ctx) {
    ctx.WriteWholeFile("/u/file.txt", "doomed edit");
    ctx.WriteWholeFile("/u/new.txt", "doomed file");
    txn->Abort(ctx);
    return 0;
  };
  const int status = RunUnderAgents(*kernel, {union_agent, txn}, spawn);
  EXPECT_EQ(WExitStatus(status), 0);
  EXPECT_EQ(FileContents(*kernel, "/r/file.txt"), "original");
  EXPECT_EQ(FileContents(*kernel, "/w/new.txt"), "<missing>");
  EXPECT_EQ(FileContents(*kernel, "/w/file.txt"), "<missing>");
}

TEST(Composition, SandboxAboveUserdevAllowsDeviceOnly) {
  // The sandbox (closest to the app) restricts the name space; the userdev agent
  // below it provides the logical device. The client may read the device but
  // nothing else.
  auto kernel = MakeWorld();
  auto dev = std::make_shared<UserDevAgent>();
  dev->AddDevice("/dev/fortune", std::make_shared<FortuneDevice>(
                                     std::vector<std::string>{"lucky\n"}));
  SandboxPolicy policy;
  policy.read_prefixes = {"/dev"};
  policy.write_prefixes = {};
  auto sandbox = std::make_shared<SandboxAgent>(policy);
  const int status =
      RunBodyUnder(*kernel, {dev, sandbox}, [](ProcessContext& ctx) {
        std::string fortune;
        if (ctx.ReadWholeFile("/dev/fortune", &fortune) != 0 || fortune != "lucky\n") {
          return 1;
        }
        std::string motd;
        if (ctx.ReadWholeFile("/etc/motd", &motd) != -kEPerm) {
          return 2;
        }
        return 0;
      });
  EXPECT_EQ(WExitStatus(status), 0);
}

TEST(Composition, TimexVisibleThroughWholeStack) {
  auto kernel = MakeWorld();
  auto timex = std::make_shared<TimexAgent>(10000);
  auto union_agent = std::make_shared<UnionAgent>(
      std::vector<UnionMount>{{"/u", {"/v1"}}});
  SandboxPolicy policy;  // permissive
  policy.write_prefixes = {"/"};
  auto sandbox = std::make_shared<SandboxAgent>(policy);
  const int64_t real = kernel->VirtualNow() / 1000000;
  const int status =
      RunBodyUnder(*kernel, {timex, union_agent, sandbox}, [real](ProcessContext& ctx) {
        TimeVal tv;
        ctx.Gettimeofday(&tv, nullptr);
        return tv.tv_sec >= real + 10000 ? 0 : 1;
      });
  EXPECT_EQ(WExitStatus(status), 0);
}

// ---------------------------------------------------------------------------
// Pay-per-use routing: stacked narrowed agents see exactly their footprints.
// ---------------------------------------------------------------------------

// A symbolic agent with a configurable footprint that counts every call and
// signal actually reaching its frame.
class CountingAgent final : public SymbolicSyscall {
 public:
  CountingAgent(std::string label, Footprint fp)
      : label_(std::move(label)), footprint_(fp) {}

  std::string name() const override { return label_; }

  int64_t seen(int number) const {
    return counts_[static_cast<size_t>(number)].load(std::memory_order_relaxed);
  }
  int64_t total_seen() const {
    int64_t total = 0;
    for (const auto& count : counts_) {
      total += count.load(std::memory_order_relaxed);
    }
    return total;
  }
  int64_t signals_seen() const { return signals_.load(std::memory_order_relaxed); }

 protected:
  Footprint default_footprint() const override { return footprint_; }

  SyscallStatus syscall(AgentCall& call) override {
    counts_[static_cast<size_t>(call.number())].fetch_add(1, std::memory_order_relaxed);
    return SymbolicSyscall::syscall(call);
  }

  void signal_handler(AgentSignal& signal) override {
    signals_.fetch_add(1, std::memory_order_relaxed);
    signal.ForwardUp();
  }

 private:
  std::string label_;
  Footprint footprint_;
  std::array<std::atomic<int64_t>, kMaxSyscall> counts_{};
  std::atomic<int64_t> signals_{0};
};

TEST(PayPerUse, StackedNarrowedAgentsRouteByFootprint) {
  // A pathname-footprint frame and a time-footprint frame stacked together:
  // each number reaches exactly the frames whose footprint declares it, and
  // numbers in neither footprint (getpid) hit no frame at all.
  auto kernel = MakeWorld();
  auto path_frames = std::make_shared<CountingAgent>(
      "count_path", Footprint::Classes(kTakesPath));
  auto time_frames = std::make_shared<CountingAgent>(
      "count_time", Footprint::Numbers({kSysGettimeofday, kSysSettimeofday}));
  const int status = RunBodyUnder(
      *kernel, {path_frames, time_frames}, [](ProcessContext& ctx) {
        ia::Stat st;
        if (ctx.Stat("/etc/motd", &st) != 0) {
          return 1;
        }
        TimeVal tv;
        if (ctx.Gettimeofday(&tv, nullptr) != 0) {
          return 2;
        }
        for (int i = 0; i < 25; ++i) {
          ctx.Getpid();
        }
        return 0;
      });
  EXPECT_EQ(WExitStatus(status), 0);

  EXPECT_EQ(path_frames->seen(kSysStat), 1);
  EXPECT_EQ(path_frames->seen(kSysGettimeofday), 0);
  EXPECT_EQ(path_frames->seen(kSysGetpid), 0);

  EXPECT_EQ(time_frames->seen(kSysGettimeofday), 1);
  EXPECT_EQ(time_frames->seen(kSysStat), 0);
  EXPECT_EQ(time_frames->seen(kSysGetpid), 0);
}

TEST(PayPerUse, UnionAndTimexStackEachServeTheirAbstraction) {
  // The real agents from the ISSUE wording: a union (pathname footprint) and
  // timex (two time rows) stacked. Path calls reach union (the merged view
  // resolves), gettimeofday reaches timex (the offset applies) — each via a
  // frame the other never sees — and getpid reaches neither.
  auto kernel = MakeWorld();
  kernel->fs().MkdirAll("/w");
  kernel->fs().InstallFile("/r/only-in-r.txt", "from r");
  auto union_agent = std::make_shared<UnionAgent>(
      std::vector<UnionMount>{{"/u", {"/w", "/r"}}});
  auto timex = std::make_shared<TimexAgent>(3600);
  const int status = RunBodyUnder(
      *kernel, {union_agent, timex}, [](ProcessContext& ctx) {
        std::string via_union;
        if (ctx.ReadWholeFile("/u/only-in-r.txt", &via_union) != 0 ||
            via_union != "from r") {
          return 1;  // the path call did not route through the union frame
        }
        TimeVal shifted;
        ctx.Gettimeofday(&shifted, nullptr);
        if (ctx.Getpid() <= 0) {
          return 2;
        }
        // The timex offset is visible => gettimeofday routed through its frame.
        return shifted.tv_sec >= 3600 ? 0 : 3;
      });
  EXPECT_EQ(WExitStatus(status), 0);
}

TEST(PayPerUse, EmptyFootprintSeesNothingButLifecycleStillWorks) {
  // An agent with an empty footprint intercepts nothing — yet the boilerplate
  // fork/exec propagation (which is host bookkeeping, not agent interest)
  // still re-installs it into children correctly.
  auto kernel = MakeWorld();
  auto silent = std::make_shared<CountingAgent>("silent", Footprint::None());
  const int status = RunBodyUnder(*kernel, {silent}, [](ProcessContext& ctx) {
    ctx.WriteWholeFile("/tmp/f", "x");
    const Pid child = ctx.Fork([](ProcessContext& c) {
      c.Getpid();
      return 7;
    });
    int wait_status = 0;
    ctx.Wait4(child, &wait_status, 0, nullptr);
    return WifExited(wait_status) && WExitStatus(wait_status) == 7 ? 0 : 1;
  });
  EXPECT_EQ(WExitStatus(status), 0);
  EXPECT_EQ(silent->total_seen(), 0);
}

TEST(PayPerUse, UseFootprintOverridesTheDefault) {
  // use_footprint() renarrows (or widens) an agent without subclassing: the
  // same counting agent, narrowed to gettimeofday only, stops seeing the
  // pathname traffic its default footprint would have claimed.
  auto kernel = MakeWorld();
  auto narrowed = std::make_shared<CountingAgent>(
      "renarrowed", Footprint::Classes(kTakesPath));
  narrowed->use_footprint(Footprint::Numbers({kSysGettimeofday}));
  const int status = RunBodyUnder(*kernel, {narrowed}, [](ProcessContext& ctx) {
    ia::Stat st;
    ctx.Stat("/etc/motd", &st);
    TimeVal tv;
    ctx.Gettimeofday(&tv, nullptr);
    return 0;
  });
  EXPECT_EQ(WExitStatus(status), 0);
  EXPECT_EQ(narrowed->seen(kSysStat), 0);
  EXPECT_EQ(narrowed->seen(kSysGettimeofday), 1);
}

TEST(PayPerUse, SignalRoutingSkipsUninterestedNarrowedFrames) {
  // Upward signal delivery walks only signal-interested frames: a narrowed
  // frame with signal interest sees the signal, a narrowed frame without it
  // is skipped, and the application handler still runs.
  auto kernel = MakeWorld();
  auto listener = std::make_shared<CountingAgent>(
      "sig_listener", Footprint::Numbers({kSysGettimeofday}).AddSignal(kSigUsr1));
  auto deaf = std::make_shared<CountingAgent>("sig_deaf", Footprint::None());
  const int status = RunBodyUnder(
      *kernel, {deaf, listener}, [](ProcessContext& ctx) {
        int delivered = 0;
        ctx.Sigvec(kSigUsr1, 2,
                   [&delivered](ProcessContext&, int) { ++delivered; });
        ctx.Kill(ctx.Getpid(), kSigUsr1);
        ctx.Getpid();  // delivery point
        return delivered == 1 ? 0 : 1;
      });
  EXPECT_EQ(WExitStatus(status), 0);
  EXPECT_EQ(listener->signals_seen(), 1);
  EXPECT_EQ(deaf->signals_seen(), 0);
}

// ---------------------------------------------------------------------------
// VFS lifetime corners driven through the full syscall path.
// ---------------------------------------------------------------------------

TEST(Lifetime, OpenFileSurvivesUnlink) {
  auto kernel = MakeWorld();
  EXPECT_EQ(ExitCodeOf(*kernel, [](ProcessContext& ctx) {
              ctx.WriteWholeFile("/tmp/doomed", "still readable");
              const int fd = ctx.Open("/tmp/doomed", kORdonly);
              if (ctx.Unlink("/tmp/doomed") != 0) {
                return 1;
              }
              ia::Stat st;
              if (ctx.Stat("/tmp/doomed", &st) != -kENoent) {
                return 2;
              }
              char buf[32] = {};
              const int64_t n = ctx.Read(fd, buf, sizeof(buf));
              if (n != 14 || std::string(buf, 14) != "still readable") {
                return 3;  // classic unlink-while-open semantics
              }
              return 0;
            }),
            0);
}

TEST(Lifetime, RenameWhileOpenKeepsDescriptorValid) {
  auto kernel = MakeWorld();
  EXPECT_EQ(ExitCodeOf(*kernel, [](ProcessContext& ctx) {
              ctx.WriteWholeFile("/tmp/a", "content");
              const int fd = ctx.Open("/tmp/a", kORdonly);
              ctx.Rename("/tmp/a", "/tmp/b");
              char buf[8] = {};
              return ctx.Read(fd, buf, 7) == 7 ? 0 : 1;
            }),
            0);
}

// ---------------------------------------------------------------------------
// VFS accounting invariants under random operation sequences.
// ---------------------------------------------------------------------------

class VfsInvariantProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VfsInvariantProperty, BytesAndLinksStayConsistent) {
  Filesystem fs;
  Cred cred;
  NameiEnv env{fs.root(), fs.root(), &cred};
  Prng prng(GetParam());
  std::vector<std::string> files;
  std::vector<std::string> dirs{""};

  for (int i = 0; i < 300; ++i) {
    const std::string dir = dirs[prng.Below(dirs.size())];
    switch (prng.Below(7)) {
      case 0: {
        const std::string p = dir + StringPrintf("/f%llu",
                                                 static_cast<unsigned long long>(prng.Below(30)));
        InodeRef inode;
        if (fs.Open(env, p, kOCreat | kOWronly, 0644, &inode) == 0) {
          fs.ResizeFile(inode, static_cast<Off>(prng.Below(1000)));
          files.push_back(p);
        }
        break;
      }
      case 1:
        if (!files.empty()) {
          fs.Unlink(env, files[prng.Below(files.size())]);
        }
        break;
      case 2: {
        const std::string p = dir + StringPrintf("/d%llu",
                                                 static_cast<unsigned long long>(prng.Below(8)));
        if (fs.Mkdir(env, p, 0755) == 0) {
          dirs.push_back(p);
        }
        break;
      }
      case 3:
        if (dirs.size() > 1) {
          fs.Rmdir(env, dirs[1 + prng.Below(dirs.size() - 1)]);
        }
        break;
      case 4:
        if (!files.empty()) {
          const std::string from = files[prng.Below(files.size())];
          const std::string to = dir + StringPrintf("/r%d", i);
          if (fs.Rename(env, from, to) == 0) {
            files.push_back(to);
          }
        }
        break;
      case 5:
        if (!files.empty()) {
          const std::string existing = files[prng.Below(files.size())];
          const std::string link = dir + StringPrintf("/h%d", i);
          if (fs.Link(env, existing, link) == 0) {
            files.push_back(link);
          }
        }
        break;
      case 6:
        if (!files.empty()) {
          fs.Truncate(env, files[prng.Below(files.size())],
                      static_cast<Off>(prng.Below(500)));
        }
        break;
    }
  }

  // Invariant 1: total_bytes equals the sum of reachable regular-file sizes,
  // counting multiply-linked inodes once.
  int64_t sum = 0;
  std::set<const Inode*> seen;
  std::function<void(const InodeRef&)> walk = [&](const InodeRef& d) {
    for (const auto& [name, child] : d->entries) {
      if (child->IsRegular() && seen.insert(child.get()).second) {
        sum += static_cast<int64_t>(child->data.size());
      }
      if (child->IsDirectory()) {
        walk(child);
      }
    }
  };
  walk(fs.root());
  EXPECT_EQ(fs.total_bytes(), sum) << "seed " << GetParam();

  // Invariant 2: directory nlink = 2 + number of subdirectories; regular file
  // nlink = number of directory entries referencing the inode.
  std::map<const Inode*, int> refs;
  std::function<void(const InodeRef&)> count = [&](const InodeRef& d) {
    int subdirs = 0;
    for (const auto& [name, child] : d->entries) {
      refs[child.get()] += 1;
      if (child->IsDirectory()) {
        ++subdirs;
        count(child);
      }
    }
    EXPECT_EQ(d->nlink, 2 + subdirs) << "seed " << GetParam();
  };
  count(fs.root());
  for (const auto& [inode, ref_count] : refs) {
    if (inode->IsRegular()) {
      EXPECT_EQ(inode->nlink, ref_count) << "seed " << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VfsInvariantProperty,
                         ::testing::Values(3, 9, 27, 81, 243, 729));

}  // namespace
}  // namespace ia
