// Concurrency stress tests for the big-lock breakup: handlers that take no
// lock or only the shared tree lock racing big-lock mutators, shared
// descriptors hammered from forked children, and observability snapshots
// taken mid-storm. These tests are the primary targets of
// the ThreadSanitizer gate (scripts/check_sanitize.sh --tsan): they are
// written to maximize real interleavings, not to assert timing.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/kernel/direntry_codec.h"
#include "src/kernel/kernel.h"
#include "src/kernel/syscall_table.h"
#include "src/kernel/types.h"
#include "src/toolkit/pathname_set.h"
#include "tests/test_helpers.h"

namespace ia {
namespace {

using test::ExitCodeOf;
using test::FileContents;
using test::RunBody;

// Forked children inherit the parent's descriptors and hammer the SAME
// OpenFile: the shared offset, flags, and inode time stamps are the atomics
// the close/read fast paths rely on. The assertions are pure safety (every
// read returns a full block from within the file); the interleaving itself is
// what TSan inspects.
TEST(ConcurrencyStress, SharedFdHammeringAcrossForkedChildren) {
  auto kernel = test::MakeWorld();
  kernel->fs().InstallFile("/shared.dat", std::string(4096, 's'));
  const int status = RunBody(*kernel, [](ProcessContext& ctx) {
    const int fd = ctx.Open("/shared.dat", kORdwr);
    if (fd < 0) {
      return 10;
    }
    constexpr int kChildren = 4;
    for (int c = 0; c < kChildren; ++c) {
      const Pid child = ctx.Fork([fd](ProcessContext& child_ctx) {
        char buf[64];
        Stat st;
        for (int i = 0; i < 1500; ++i) {
          // Racing lseek/read pairs on a shared offset: any interleaving is
          // legal, but every read must stay inside the file.
          if (child_ctx.Lseek(fd, (i % 32) * 64, kSeekSet) < 0) {
            return 1;
          }
          const int64_t n = child_ctx.Read(fd, buf, sizeof buf);
          if (n < 0 || n > static_cast<int64_t>(sizeof buf)) {
            return 2;
          }
          if (child_ctx.Fstat(fd, &st) != 0 || st.st_size != 4096) {
            return 3;
          }
          // A private descriptor opened and closed per iteration exercises
          // the unlocked close fast path concurrently with the shared fd.
          const int own = child_ctx.Open("/shared.dat", kORdonly);
          if (own < 0 || child_ctx.Close(own) != 0) {
            return 4;
          }
        }
        return 0;
      });
      if (child < 0) {
        return 11;
      }
    }
    int failures = 0;
    for (int c = 0; c < kChildren; ++c) {
      int child_status = 0;
      if (ctx.Wait(&child_status) < 0 || WExitStatus(child_status) != 0) {
        ++failures;
      }
    }
    return failures;
  });
  ASSERT_TRUE(WifExited(status));
  EXPECT_EQ(WExitStatus(status), 0);
}

// One process renames a file back and forth (the big lock and the exclusive
// tree lock) while two others stat both names under the shared tree lock.
// Every stat must observe exactly "present" or "absent" — never a partial
// rename, never a spurious errno — and the final tree state must be exact.
TEST(ConcurrencyStress, ConcurrentRenameVsStat) {
  auto kernel = test::MakeWorld();
  kernel->fs().MkdirAll("/dir");
  kernel->fs().InstallFile("/dir/a", "payload");

  SpawnOptions mover_options;
  mover_options.body = [](ProcessContext& ctx) {
    for (int i = 0; i < 1200; ++i) {
      if (ctx.Rename("/dir/a", "/dir/b") != 0 || ctx.Rename("/dir/b", "/dir/a") != 0) {
        return 1;  // the only mover: every rename must succeed
      }
    }
    return 0;
  };
  const Pid mover = kernel->Spawn(mover_options);

  std::vector<Pid> statters;
  for (int s = 0; s < 2; ++s) {
    SpawnOptions options;
    options.body = [](ProcessContext& ctx) {
      Stat st;
      int seen_a = 0;
      int seen_b = 0;
      for (int i = 0; i < 2400; ++i) {
        for (const char* path : {"/dir/a", "/dir/b"}) {
          const int err = ctx.Stat(path, &st);
          if (err == 0) {
            if (st.st_size != 7) {
              return 2;  // visible file must always be the whole payload
            }
            (path[5] == 'a' ? seen_a : seen_b) += 1;
          } else if (err != -kENoent) {
            return 3;  // rename-in-progress must never leak another errno
          }
        }
      }
      // The file exists under exactly one name at all times; across thousands
      // of probes at least one name must have been visible.
      return seen_a + seen_b > 0 ? 0 : 4;
    };
    statters.push_back(kernel->Spawn(options));
  }

  const int mover_status = kernel->HostWaitPid(mover);
  EXPECT_TRUE(WifExited(mover_status));
  EXPECT_EQ(WExitStatus(mover_status), 0);
  for (const Pid pid : statters) {
    const int status = kernel->HostWaitPid(pid);
    EXPECT_TRUE(WifExited(status));
    EXPECT_EQ(WExitStatus(status), 0);
  }
  EXPECT_EQ(FileContents(*kernel, "/dir/a"), "payload");  // even rename count
  EXPECT_EQ(FileContents(*kernel, "/dir/b"), "<missing>");
}

// A fork/exit storm runs while the host thread takes SyscallStats /
// TotalSyscallCount / CacheStats snapshots as fast as it can. Snapshots
// during the storm only need to be safe (TSan's concern) and monotonic;
// after quiescing, the counters must be exact.
TEST(ConcurrencyStress, ForkExitStormVsStatsSnapshots) {
  auto kernel = test::MakeWorld();
  constexpr int kForks = 250;
  std::atomic<bool> done{false};

  SpawnOptions options;
  options.body = [&done](ProcessContext& ctx) {
    int failures = 0;
    for (int i = 0; i < kForks; ++i) {
      const Pid child = ctx.Fork([](ProcessContext&) { return 0; });
      if (child < 0) {
        ++failures;
        continue;
      }
      int status = 0;
      if (ctx.Wait(&status) < 0) {
        ++failures;
      }
    }
    done.store(true, std::memory_order_release);
    return failures;
  };
  // Snapshot BEFORE the spawn: the storm body starts concurrently the moment
  // Spawn returns, so a snapshot taken after it races the first forks and the
  // exact-delta checks below undercount.
  const auto before = kernel->SyscallStats();
  int64_t last_total = kernel->TotalSyscallCount();
  const Pid pid = kernel->Spawn(options);

  int64_t snapshots = 0;
  while (!done.load(std::memory_order_acquire)) {
    const auto mid = kernel->SyscallStats();
    const int64_t total = kernel->TotalSyscallCount();
    EXPECT_GE(total, last_total) << "TotalSyscallCount went backwards mid-storm";
    EXPECT_GE(mid[kSysFork].calls, before[kSysFork].calls);
    (void)kernel->CacheStats();
    (void)kernel->LiveProcessCount();
    last_total = total;
    ++snapshots;
  }
  const int status = kernel->HostWaitPid(pid);
  ASSERT_TRUE(WifExited(status));
  EXPECT_EQ(WExitStatus(status), 0);
  EXPECT_GT(snapshots, 0);

  // Quiesced: every relaxed counter store is ordered before this read by the
  // thread joins above, so the arithmetic is exact.
  const auto after = kernel->SyscallStats();
  EXPECT_EQ(after[kSysFork].calls - before[kSysFork].calls, kForks);
  EXPECT_EQ(after[kSysWait4].calls - before[kSysWait4].calls, kForks);
  EXPECT_EQ(after[kSysExit].calls - before[kSysExit].calls, kForks + 1);
  int64_t summed = 0;
  for (int n = 0; n < kMaxSyscall; ++n) {
    summed += after[n].calls;
  }
  EXPECT_EQ(summed, kernel->TotalSyscallCount());
}

// One owner per process (process.h): a process's [owner] fields take no
// lock, so the only edges between two processes on two host threads are the
// big lock and single-word atomics. Root A signals root B and moves B's
// process group (kill and setpgrp read B's cred under the big lock; the post
// sets B's pending word) while B rewrites its cred and reads its rusage. The
// interleaving is what TSan inspects: a cred writer off the big lock,
// or a signal counted in B's rusage by A's post, is a reported race. Both
// roots run as the same non-superuser, so the permission checks read B's
// cred instead of short-circuiting on A's.
TEST(ProcessOwnership, CrossProcessEdgesAcrossTwoHosts) {
  auto kernel = test::MakeWorld();
  constexpr int kRounds = IA_TEST_UNDER_TSAN ? 1500 : 4000;
  constexpr Uid kUid = 100;
  std::atomic<bool> b_ready{false};
  std::atomic<bool> b_done{false};
  std::atomic<bool> a_done{false};

  SpawnOptions b_options;
  b_options.uid = kUid;
  b_options.gid = kUid;
  b_options.body = [&b_ready, &b_done, &a_done](ProcessContext& ctx) {
    int delivered = 0;
    ctx.Sigvec(kSigUsr1, 2, [&delivered](ProcessContext&, int) { ++delivered; });
    b_ready.store(true, std::memory_order_release);
    const Gid groups[1] = {kUid};
    Rusage ru;
    int failures = 0;
    for (int i = 0; i < kRounds; ++i) {
      failures += ctx.Setuid(ctx.Getuid()) != 0 ? 1 : 0;
      ctx.Setgroups(1, groups);  // EPERM for a non-superuser: still dispatched
      failures += ctx.Getrusage(kRusageSelf, &ru) != 0 ? 1 : 0;
      failures += ctx.Getuid() != kUid ? 1 : 0;
    }
    b_done.store(true, std::memory_order_release);
    while (!a_done.load(std::memory_order_acquire)) {
      // Stay alive (kill on a zombie is ESRCH) until A stops posting.
    }
    ctx.Getpid();  // delivers a signal still pending from A's last kill
    // SIGUSR1 is the only signal B receives: each delivery is counted once.
    if (ctx.Getrusage(kRusageSelf, &ru) != 0 || ru.ru_nsignals != delivered) {
      return 2;
    }
    return failures == 0 ? 0 : 1;
  };
  const Pid b = kernel->Spawn(b_options);
  ASSERT_GT(b, 0);

  SpawnOptions a_options;
  a_options.uid = kUid;
  a_options.gid = kUid;
  a_options.body = [b, &b_ready, &b_done, &a_done](ProcessContext& ctx) {
    while (!b_ready.load(std::memory_order_acquire)) {
      // B runs on its own host thread; nothing else runs on this one.
    }
    int failures = 0;
    while (!b_done.load(std::memory_order_acquire)) {
      failures += ctx.Kill(b, kSigUsr1) != 0 ? 1 : 0;
      failures += ctx.Setpgrp(b, b) != 0 ? 1 : 0;
    }
    a_done.store(true, std::memory_order_release);
    return failures == 0 ? 0 : 1;
  };
  const Pid a = kernel->Spawn(a_options);
  ASSERT_GT(a, 0);

  for (const Pid pid : {a, b}) {
    const int status = kernel->HostWaitPid(pid);
    ASSERT_TRUE(WifExited(status));
    EXPECT_EQ(WExitStatus(status), 0) << "pid " << pid;
  }
}

// The cred writers run under the big lock: kill and setpgrp read another
// process's cred under it, so a lock-free writer would race them. Each takes
// it exactly once.
TEST(ProcessOwnership, CredWritersTakeTheBigLock) {
  auto kernel = test::MakeWorld();
  Kernel* const k = kernel.get();
  EXPECT_EQ(ExitCodeOf(*kernel, [k](ProcessContext& ctx) {
              const Gid groups[] = {0, 5};
              int64_t before = k->BigLockDispatches();
              if (ctx.Setgroups(2, groups) != 0 || k->BigLockDispatches() != before + 1) {
                return 1;
              }
              before = k->BigLockDispatches();
              if (ctx.Setuid(0) != 0 || k->BigLockDispatches() != before + 1) {
                return 2;
              }
              return 0;
            }),
            0);
}

// The contract behind the lock-free process-local handlers: those calls must
// complete while another process sleeps inside the kernel. Process A parks in
// wait4 (its child is parked in sigpause); process B then runs a burst of
// process-local calls to
// completion. Under the old single-lock dispatcher this still worked only
// because cv_.wait dropped mu_; here the assertion is stronger — B finishes
// its whole burst while A has demonstrably not returned, and on a
// TSan/1-core host any accidental dependence on the big lock shows up as a
// hang (ctest's timeout) rather than a flake.
TEST(ConcurrencyStress, PerProcessCallsCompleteWhileAnotherProcessSleepsInWait4) {
  auto kernel = test::MakeWorld();
  std::atomic<Pid> child_pid{0};
  std::atomic<bool> a_returned{false};

  SpawnOptions a_options;
  a_options.body = [&child_pid, &a_returned](ProcessContext& ctx) {
    const Pid child = ctx.Fork([](ProcessContext& child_ctx) {
      child_ctx.Sigpause(0);  // parks until a signal arrives
      return 0;
    });
    child_pid.store(child, std::memory_order_release);
    int status = 0;
    const Pid reaped = ctx.Wait(&status);  // parks in wait4 until the child dies
    a_returned.store(true, std::memory_order_release);
    return reaped == child ? 0 : 1;
  };
  const Pid a = kernel->Spawn(a_options);
  while (child_pid.load(std::memory_order_acquire) == 0) {
    // spin: A has not forked yet
  }

  // B: a pure process-local burst. If any of these calls needed the big lock
  // while a sleeper interacts with it, this would stall; instead it must run
  // to completion while A is still parked.
  const int b_exit = ExitCodeOf(*kernel, [](ProcessContext& ctx) {
    Rusage ru;
    TimeVal tv;
    for (int i = 0; i < 20000; ++i) {
      if (ctx.Getpid() <= 0) {
        return 1;
      }
      ctx.Gettimeofday(&tv, nullptr);
      ctx.Sigblock(0);
      ctx.Getrusage(kRusageSelf, &ru);
    }
    return 0;
  });
  EXPECT_EQ(b_exit, 0);
  EXPECT_FALSE(a_returned.load(std::memory_order_acquire))
      << "A returned from wait4 before its sleeping child was signaled";

  // Release the sleepers: a third process signals A's child.
  const Pid target = child_pid.load(std::memory_order_acquire);
  EXPECT_EQ(ExitCodeOf(*kernel,
                       [target](ProcessContext& ctx) {
                         return ctx.Kill(target, kSigTerm) == 0 ? 0 : 1;
                       }),
            0);
  const int a_status = kernel->HostWaitPid(a);
  ASSERT_TRUE(WifExited(a_status));
  EXPECT_EQ(WExitStatus(a_status), 0);
  EXPECT_TRUE(a_returned.load(std::memory_order_acquire));
}

// Many clients pound the shared-tree-lock calls (stat/open/read/close) against one
// shared tree while a mutator churns a sibling directory under the exclusive
// lock. Mixed shared/exclusive tree traffic is where a reader/writer bug
// would corrupt a walk; every client must see fully consistent files.
TEST(ConcurrencyStress, SharedTreeReadersVsExclusiveMutator) {
  auto kernel = test::MakeWorld();
  kernel->fs().MkdirAll("/hot");
  kernel->fs().MkdirAll("/churn");
  for (int f = 0; f < 4; ++f) {
    kernel->fs().InstallFile("/hot/f" + std::to_string(f), std::string(256, 'h'));
  }

  std::vector<Pid> pids;
  for (int r = 0; r < 3; ++r) {
    SpawnOptions options;
    options.body = [](ProcessContext& ctx) {
      char buf[256];
      Stat st;
      for (int i = 0; i < 2000; ++i) {
        const std::string path = "/hot/f" + std::to_string(i % 4);
        if (ctx.Stat(path, &st) != 0 || st.st_size != 256) {
          return 1;
        }
        const int fd = ctx.Open(path, kORdonly);
        if (fd < 0) {
          return 2;
        }
        if (ctx.Read(fd, buf, sizeof buf) != 256 || buf[0] != 'h' || buf[255] != 'h') {
          return 3;
        }
        if (ctx.Close(fd) != 0) {
          return 4;
        }
      }
      return 0;
    };
    pids.push_back(kernel->Spawn(options));
  }
  SpawnOptions mutator_options;
  mutator_options.body = [](ProcessContext& ctx) {
    for (int i = 0; i < 1000; ++i) {
      const std::string name = "/churn/t" + std::to_string(i % 13);
      const int fd = ctx.Open(name, kOCreat | kOWronly, 0644);
      if (fd < 0) {
        return 1;
      }
      if (ctx.Write(fd, "wwww", 4) != 4 || ctx.Close(fd) != 0) {
        return 2;
      }
      if (i % 3 == 0 && ctx.Unlink(name) != 0) {
        return 3;
      }
    }
    return 0;
  };
  pids.push_back(kernel->Spawn(mutator_options));

  for (const Pid pid : pids) {
    const int status = kernel->HostWaitPid(pid);
    EXPECT_TRUE(WifExited(status));
    EXPECT_EQ(WExitStatus(status), 0);
  }
}

// A 32-byte append record: "<w:", an 8-digit sequence number and ":" (12
// bytes), 19 fill bytes that name the writer, and "\n". Any torn or
// interleaved record fails ParseRecord.
constexpr int kRecordBytes = 32;

std::string MakeRecord(int writer, int seq) {
  std::string rec = "<" + std::to_string(writer) + ":";
  const std::string digits = std::to_string(seq);
  rec += std::string(8 - digits.size(), '0') + digits + ":";
  rec += std::string(kRecordBytes - 1 - rec.size(), static_cast<char>('a' + writer));
  return rec + "\n";
}

// Returns false unless `rec` is exactly MakeRecord(*writer, *seq).
bool ParseRecord(const char* rec, int* writer, int* seq) {
  if (rec[0] != '<' || rec[1] < '0' || rec[1] > '9') {
    return false;
  }
  *writer = rec[1] - '0';
  *seq = 0;
  for (int i = 3; i < 11; ++i) {
    if (rec[i] < '0' || rec[i] > '9') {
      return false;
    }
    *seq = *seq * 10 + (rec[i] - '0');
  }
  return std::string(rec, kRecordBytes) == MakeRecord(*writer, *seq);
}

// Each of `n` roots calls this first, so their loops overlap. Roots run on
// their own host threads, so a host-side spin is a barrier.
void StartTogether(std::atomic<int>* arrivals, int n) {
  arrivals->fetch_add(1, std::memory_order_acq_rel);
  while (arrivals->load(std::memory_order_acquire) < n) {
    std::this_thread::yield();
  }
}

// Every record of `data` is whole, and each writer's records appear in the
// order it wrote them, all `per_writer` of them.
void ExpectWholeRecordsInWriterOrder(const std::string& data, int writers, int per_writer) {
  ASSERT_EQ(data.size(), static_cast<size_t>(writers * per_writer * kRecordBytes));
  std::vector<int> next(static_cast<size_t>(writers), 0);
  for (size_t at = 0; at < data.size(); at += kRecordBytes) {
    int writer = -1;
    int seq = -1;
    ASSERT_TRUE(ParseRecord(data.data() + at, &writer, &seq)) << "torn record at " << at;
    ASSERT_LT(writer, writers);
    EXPECT_EQ(seq, next[static_cast<size_t>(writer)]++) << "writer " << writer << " at " << at;
  }
}

// Three roots on three host threads append records to one file with O_APPEND
// (under the tree lock shared plus the inode's data_mu) while a
// fourth loops stat, fstat, lseek(SEEK_END) and a read of the last record on
// it. Every size it sees is a whole number of records and never shrinks, the
// last record is never torn, and the file ends as the sum of the appends.
// TSan checks that every reader of the inode's bytes holds data_mu.
TEST(ConcurrencyStress, AppendersReaderAndStatShareOneInode) {
  constexpr int kWriters = 3;
  constexpr int kRecords = IA_TEST_UNDER_TSAN ? 200 : 2000;
  auto kernel = test::MakeWorld();
  kernel->fs().InstallFile("/log", "");
  std::atomic<int> arrivals{0};
  std::atomic<int> writers_done{0};

  std::vector<Pid> pids;
  for (int w = 0; w < kWriters; ++w) {
    SpawnOptions options;
    options.body = [w, &arrivals, &writers_done](ProcessContext& ctx) {
      const int fd = ctx.Open("/log", kOWronly | kOAppend);
      if (fd < 0) {
        return 1;
      }
      StartTogether(&arrivals, kWriters + 1);
      for (int i = 0; i < kRecords; ++i) {
        if (ctx.Write(fd, MakeRecord(w, i).data(), kRecordBytes) != kRecordBytes) {
          return 2;
        }
      }
      writers_done.fetch_add(1, std::memory_order_release);
      return 0;
    };
    pids.push_back(kernel->Spawn(options));
  }
  SpawnOptions reader_options;
  reader_options.body = [&arrivals, &writers_done](ProcessContext& ctx) {
    const int fd = ctx.Open("/log", kORdonly);
    if (fd < 0) {
      return 1;
    }
    StartTogether(&arrivals, kWriters + 1);
    int64_t last = 0;
    auto whole_and_growing = [&last](int64_t size) {
      const bool ok = size >= last && size % kRecordBytes == 0;
      last = size;
      return ok;
    };
    for (int i = 0; i < 100 || writers_done.load(std::memory_order_acquire) < kWriters; ++i) {
      Stat st;
      if (ctx.Stat("/log", &st) != 0 || !whole_and_growing(st.st_size)) {
        return 2;
      }
      if (ctx.Fstat(fd, &st) != 0 || !whole_and_growing(st.st_size)) {
        return 3;
      }
      const int64_t end = ctx.Lseek(fd, 0, kSeekEnd);
      if (!whole_and_growing(end)) {
        return 4;
      }
      if (end >= kRecordBytes) {
        char rec[kRecordBytes];
        int writer = 0;
        int seq = 0;
        if (ctx.Lseek(fd, end - kRecordBytes, kSeekSet) != end - kRecordBytes ||
            ctx.Read(fd, rec, kRecordBytes) != kRecordBytes || !ParseRecord(rec, &writer, &seq)) {
          return 5;
        }
      }
    }
    return 0;
  };
  pids.push_back(kernel->Spawn(reader_options));

  for (const Pid pid : pids) {
    const int status = kernel->HostWaitPid(pid);
    EXPECT_TRUE(WifExited(status));
    EXPECT_EQ(WExitStatus(status), 0);
  }
  ExpectWholeRecordsInWriterOrder(FileContents(*kernel, "/log"), kWriters, kRecords);
}

// Two roots on two host threads append 3-segment records with O_APPEND
// writev. Each writev holds the inode's data_mu across all its segments, so
// every record lands contiguous, as it did when writev ran under the big
// lock; a per-segment hold would interleave the segments.
TEST(ConcurrencyStress, AppendWritevRecordsStayContiguous) {
  constexpr int kWriters = 2;
  constexpr int kRecords = IA_TEST_UNDER_TSAN ? 200 : 2000;
  auto kernel = test::MakeWorld();
  kernel->fs().InstallFile("/vlog", "");
  std::atomic<int> arrivals{0};

  std::vector<Pid> pids;
  for (int w = 0; w < kWriters; ++w) {
    SpawnOptions options;
    options.body = [w, &arrivals](ProcessContext& ctx) {
      const int fd = ctx.Open("/vlog", kOWronly | kOAppend);
      if (fd < 0) {
        return 1;
      }
      StartTogether(&arrivals, kWriters);
      for (int i = 0; i < kRecords; ++i) {
        std::string rec = MakeRecord(w, i);
        IoVec iov[3] = {{rec.data(), 12}, {rec.data() + 12, 16}, {rec.data() + 28, 4}};
        if (ctx.Writev(fd, iov, 3) != kRecordBytes) {
          return 2;
        }
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
  ExpectWholeRecordsInWriterOrder(FileContents(*kernel, "/vlog"), kWriters, kRecords);
}

// World sizes self-cap under TSan (instrumentation slowdown), same as the
// ring stress tests.
#if defined(__SANITIZE_THREAD__)
#define IA_SOCKET_STRESS_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define IA_SOCKET_STRESS_UNDER_TSAN 1
#endif
#endif
#ifndef IA_SOCKET_STRESS_UNDER_TSAN
#define IA_SOCKET_STRESS_UNDER_TSAN 0
#endif

// Forked children share BOTH ends of one socketpair and hammer them
// concurrently: several writers pushing into the same ring (blocking when
// full) while the parent drains from the shared read end. Byte conservation
// is the only functional assertion; the interleavings — concurrent Send
// big-lock dispatches, close-time end accounting, CV wakeups across
// processes — are what TSan inspects.
TEST(SocketStress, ForkSharedSocketpairHammering) {
  auto kernel = test::MakeWorld();
  const int status = RunBody(*kernel, [](ProcessContext& ctx) {
    constexpr int kWriters = 3;
    constexpr int kBytesEach = IA_SOCKET_STRESS_UNDER_TSAN ? 16 * 1024 : 64 * 1024;
    int sv[2];
    if (ctx.Socketpair(kAfUnix, kSockStream, 0, sv) != 0) {
      return 10;
    }
    for (int w = 0; w < kWriters; ++w) {
      ctx.Fork([&sv](ProcessContext& c) {
        c.Close(sv[1]);  // writers hold only the write-side end
        char chunk[512];
        for (char& b : chunk) {
          b = 'w';
        }
        int64_t sent = 0;
        while (sent < kBytesEach) {
          const int64_t n = c.Send(sv[0], chunk,
                                   std::min<int64_t>(sizeof chunk, kBytesEach - sent));
          if (n <= 0) {
            return 1;
          }
          sent += n;
          if (sent % 8192 == 0) {
            // Stress the descriptor plane from the side: shared-fd fstat and
            // dup/close churn race the transfer plane's big-lock handlers.
            Stat st;
            if (c.Fstat(sv[0], &st) != 0) {
              return 2;
            }
            const int dup = c.Dup(sv[0]);
            if (dup < 0 || c.Close(dup) != 0) {
              return 3;
            }
          }
        }
        return c.Close(sv[0]) == 0 ? 0 : 4;
      });
    }
    ctx.Close(sv[0]);  // parent holds only the read end; EOF when writers finish
    int64_t received = 0;
    char buf[1024];
    for (;;) {
      const int64_t n = ctx.Recv(sv[1], buf, sizeof buf);
      if (n < 0) {
        return 11;
      }
      if (n == 0) {
        break;
      }
      received += n;
    }
    for (int w = 0; w < kWriters; ++w) {
      int child_status = 0;
      if (ctx.Wait(&child_status) < 0 || !WifExited(child_status) ||
          WExitStatus(child_status) != 0) {
        return 12;
      }
    }
    return received == static_cast<int64_t>(kWriters) * kBytesEach ? 0 : 13;
  });
  ASSERT_TRUE(WifExited(status));
  EXPECT_EQ(WExitStatus(status), 0);
}

// Accept racing client-side close: clients connect and sometimes slam the
// connection shut before the server's accept pops it from the pending queue.
// Every accept must still return a coherent endpoint — either live (ping
// echoes) or orphaned (recv gives clean EOF, never a hang or a junk fd).
TEST(SocketStress, AcceptVersusClientCloseRaces) {
  auto kernel = test::MakeWorld();
  const int status = RunBody(*kernel, [](ProcessContext& ctx) {
    constexpr int kDials = IA_SOCKET_STRESS_UNDER_TSAN ? 60 : 200;
    const int lfd = ctx.Socket(kAfUnix, kSockStream, 0);
    if (ctx.BindUnix(lfd, "/race.sock") != 0 || ctx.Listen(lfd, kSoMaxConn) != 0) {
      return 10;
    }
    const Pid child = ctx.Fork([](ProcessContext& c) {
      for (int i = 0; i < kDials; ++i) {
        const int fd = c.Socket(kAfUnix, kSockStream, 0);
        if (fd < 0) {
          return 1;
        }
        const int err = c.ConnectUnix(fd, "/race.sock");
        if (err == -kEConnrefused) {
          c.Close(fd);
          --i;  // backlog momentarily full: redial
          c.Compute(50);
          c.Yield();  // the accepting parent shares this host thread
          continue;
        }
        if (err != 0) {
          return 2;
        }
        if (i % 2 == 0) {
          c.Close(fd);  // slam: close before the server accepts
          continue;
        }
        char b = 'p';
        if (c.Send(fd, &b, 1) != 1) {
          return 3;
        }
        if (c.Recv(fd, &b, 1) != 1 || b != 'q') {
          return 4;
        }
        c.Close(fd);
      }
      return 0;
    });
    for (int served = 0; served < kDials; ++served) {
      const int cfd = ctx.Accept(lfd);
      if (cfd < 0) {
        return 11;
      }
      char b;
      const int64_t n = ctx.Recv(cfd, &b, 1);
      if (n == 1 && b == 'p') {
        b = 'q';
        if (ctx.Send(cfd, &b, 1) != 1) {
          return 12;  // the client is still waiting for this reply
        }
      } else if (n != 0) {
        return 13;  // orphaned connections must read as clean EOF
      }
      if (ctx.Close(cfd) != 0) {
        return 14;
      }
    }
    ctx.Close(lfd);
    int child_status = 0;
    ctx.Wait4(child, &child_status, 0, nullptr);
    return WifExited(child_status) ? WExitStatus(child_status) : 15;
  });
  ASSERT_TRUE(WifExited(status));
  EXPECT_EQ(WExitStatus(status), 0);
}

// Many client processes rendezvous with one server process by pathname while
// an unrelated mutator churns the same directory: socket rendezvous
// (Namei-driven connect under the full tree lock) interleaving with VFS
// create/unlink traffic and the shared-tree-lock calls.
TEST(SocketStress, PathnameRendezvousUnderVfsChurn) {
  auto kernel = test::MakeWorld();
  constexpr int kClients = IA_SOCKET_STRESS_UNDER_TSAN ? 3 : 6;
  constexpr int kRequestsEach = IA_SOCKET_STRESS_UNDER_TSAN ? 15 : 40;

  SpawnOptions server_options;
  server_options.body = [](ProcessContext& ctx) {
    ctx.Mkdir("/hub", 0755);
    const int lfd = ctx.Socket(kAfUnix, kSockStream, 0);
    if (ctx.BindUnix(lfd, "/hub/srv.sock") != 0 || ctx.Listen(lfd, kSoMaxConn) != 0) {
      return 1;
    }
    for (int served = 0; served < kClients * kRequestsEach; ++served) {
      const int cfd = ctx.Accept(lfd);
      if (cfd < 0) {
        return 2;
      }
      char b;
      if (ctx.Recv(cfd, &b, 1) == 1) {
        ctx.Send(cfd, &b, 1);
      }
      ctx.Close(cfd);
    }
    return 0;
  };
  const Pid server = kernel->Spawn(server_options);

  std::vector<Pid> pids;
  for (int c = 0; c < kClients; ++c) {
    SpawnOptions options;
    options.body = [](ProcessContext& ctx) {
      for (int i = 0; i < kRequestsEach; ++i) {
        int fd = -1;
        for (int attempt = 0; attempt < 20000; ++attempt) {
          fd = ctx.Socket(kAfUnix, kSockStream, 0);
          const int err = ctx.ConnectUnix(fd, "/hub/srv.sock");
          if (err == 0) {
            break;
          }
          ctx.Close(fd);
          fd = -1;
          if (err != -kENoent && err != -kEConnrefused) {
            return 1;
          }
          // Compute only advances the virtual clock; the yield hands real host
          // cycles to the server racing to bind and accept.
          ctx.Compute(100);
          ctx.Yield();
        }
        if (fd < 0) {
          return 2;
        }
        char b = 'm';
        if (ctx.Send(fd, &b, 1) != 1 || ctx.Recv(fd, &b, 1) != 1 || b != 'm') {
          return 3;
        }
        ctx.Close(fd);
      }
      return 0;
    };
    pids.push_back(kernel->Spawn(options));
  }
  SpawnOptions mutator_options;
  mutator_options.body = [](ProcessContext& ctx) {
    for (int i = 0; i < (IA_SOCKET_STRESS_UNDER_TSAN ? 200 : 800); ++i) {
      const std::string name = "/hub/f" + std::to_string(i % 7);
      const int fd = ctx.Open(name, kOCreat | kOWronly, 0644);
      if (fd >= 0) {
        ctx.Write(fd, "x", 1);
        ctx.Close(fd);
      }
      Stat st;
      ctx.Stat("/hub/srv.sock", &st);  // the shared tree lock against the socket node
      if (i % 4 == 0) {
        ctx.Unlink(name);
      }
    }
    return 0;
  };
  pids.push_back(kernel->Spawn(mutator_options));

  pids.push_back(server);
  for (const Pid pid : pids) {
    const int status = kernel->HostWaitPid(pid);
    EXPECT_TRUE(WifExited(status));
    EXPECT_EQ(WExitStatus(status), 0);
  }
}

// Two roots list one directory with getdirentries (the tree lock shared, the open directory's offset under its data_mu) in small
// chunks while a third creates and unlinks files in it. Every chunk decodes
// into whole records with names from the directory, each listing starts with
// "." and "..", and TSan checks the listing against the creates and unlinks.
TEST(ConcurrencyStress, GetdirentriesAgainstCreatesAndUnlinks) {
  constexpr int kRounds = IA_TEST_UNDER_TSAN ? 60 : 600;
  auto kernel = test::MakeWorld();
  kernel->fs().MkdirAll("/listed");
  for (int f = 0; f < 8; ++f) {
    kernel->fs().InstallFile("/listed/keep" + std::to_string(f), "k");
  }
  std::atomic<int> arrivals{0};
  std::vector<Pid> pids;
  for (int r = 0; r < 2; ++r) {
    SpawnOptions options;
    options.body = [&arrivals](ProcessContext& ctx) {
      StartTogether(&arrivals, 3);
      for (int round = 0; round < kRounds; ++round) {
        const int dfd = ctx.Open("/listed", kORdonly);
        if (dfd < 0) {
          return 1;
        }
        std::vector<std::string> names;
        char buf[64];  // a few records per call: many offset steps
        int64_t base = 0;
        for (;;) {
          const int n = ctx.Getdirentries(dfd, buf, sizeof buf, &base);
          if (n < 0) {
            return 2;
          }
          if (n == 0) {
            break;
          }
          for (const Dirent& d : DecodeDirents(buf, static_cast<size_t>(n))) {
            names.push_back(d.d_name);
          }
        }
        if (names.size() < 2 || names[0] != "." || names[1] != "..") {
          return 3;
        }
        for (size_t i = 2; i < names.size(); ++i) {
          if (names[i].rfind("keep", 0) != 0 && names[i].rfind("t", 0) != 0) {
            return 4;
          }
        }
        if (ctx.Close(dfd) != 0) {
          return 5;
        }
      }
      return 0;
    };
    pids.push_back(kernel->Spawn(options));
  }
  SpawnOptions mutator;
  mutator.body = [&arrivals](ProcessContext& ctx) {
    StartTogether(&arrivals, 3);
    for (int i = 0; i < kRounds * 2; ++i) {
      const std::string name = "/listed/t" + std::to_string(i % 11);
      const int fd = ctx.Open(name, kOCreat | kOWronly, 0644);
      if (fd < 0 || ctx.Close(fd) != 0) {
        return 1;
      }
      if (i % 2 == 1 && ctx.Unlink(name) != 0) {
        return 2;
      }
    }
    return 0;
  };
  pids.push_back(kernel->Spawn(mutator));
  for (const Pid pid : pids) {
    const int status = kernel->HostWaitPid(pid);
    EXPECT_TRUE(WifExited(status));
    EXPECT_EQ(WExitStatus(status), 0);
  }
}

// Each of `n` roots calls this before its `round`-th step, so every step
// starts together and the roots collide on it.
void StepTogether(std::atomic<int>* arrivals, int n, int round) {
  arrivals->fetch_add(1, std::memory_order_acq_rel);
  while (arrivals->load(std::memory_order_acquire) < n * (round + 1)) {
    std::this_thread::yield();
  }
}

void ExpectAllExitZero(Kernel& kernel, const std::vector<Pid>& pids) {
  for (const Pid pid : pids) {
    const int status = kernel.HostWaitPid(pid);
    EXPECT_TRUE(WifExited(status));
    EXPECT_EQ(WExitStatus(status), 0);
  }
}

// Two roots on two host threads race O_CREAT opens of one new name per
// round, in lockstep (the walk under the tree lock held shared, the link under the parent's data_mu). The creator that loses the
// race for the name opens the winner's inode, so both get the same inode
// number. Under O_EXCL exactly one of them wins each name.
TEST(ConcurrencyStress, SameNameCreatesOpenOneInode) {
  constexpr int kRoots = 2;
  constexpr int kRounds = IA_TEST_UNDER_TSAN ? 150 : 1500;
  auto kernel = test::MakeWorld();
  kernel->fs().MkdirAll("/race");
  std::atomic<int> arrivals{0};
  std::vector<std::vector<Ino>> inos(kRoots, std::vector<Ino>(kRounds, 0));
  std::vector<std::vector<int>> excl_wins(kRoots, std::vector<int>(kRounds, 0));
  std::vector<Pid> pids;
  for (int r = 0; r < kRoots; ++r) {
    SpawnOptions options;
    options.body = [r, &arrivals, &inos, &excl_wins](ProcessContext& ctx) {
      for (int i = 0; i < kRounds; ++i) {
        StepTogether(&arrivals, kRoots, 2 * i);
        const int fd = ctx.Open("/race/n" + std::to_string(i), kOWronly | kOCreat, 0644);
        Stat st;
        if (fd < 0 || ctx.Fstat(fd, &st) != 0 || ctx.Close(fd) != 0) {
          return 1;
        }
        inos[static_cast<size_t>(r)][static_cast<size_t>(i)] = st.st_ino;
        StepTogether(&arrivals, kRoots, 2 * i + 1);
        const int xfd = ctx.Open("/race/x" + std::to_string(i), kOWronly | kOCreat | kOExcl, 0644);
        if (xfd >= 0) {
          excl_wins[static_cast<size_t>(r)][static_cast<size_t>(i)] = 1;
          if (ctx.Close(xfd) != 0) {
            return 2;
          }
        } else if (xfd != -kEExist) {
          return 3;
        }
      }
      return 0;
    };
    pids.push_back(kernel->Spawn(options));
  }
  ExpectAllExitZero(*kernel, pids);
  for (int i = 0; i < kRounds; ++i) {
    ASSERT_EQ(inos[0][static_cast<size_t>(i)], inos[1][static_cast<size_t>(i)]) << "round " << i;
    ASSERT_EQ(excl_wins[0][static_cast<size_t>(i)] + excl_wins[1][static_cast<size_t>(i)], 1)
        << "round " << i;
  }
  const InodeRef dir = kernel->fs().root()->entries.at("race");
  EXPECT_EQ(dir->entries.size(), static_cast<size_t>(2 * kRounds));
  for (const auto& [name, file] : dir->entries) {
    EXPECT_EQ(file->nlink, 1) << name;
  }
}

// Two roots create files in one directory (the links under its data_mu)
// while two more walk it: stat and open of names that may not exist yet,
// and getdirentries with a buffer that holds the whole listing. A listing
// taken in one call never holds a name twice, every name a walker finds is
// a whole file, and once the creators finish the directory holds exactly
// their files, each with one link, and the directory's own link count and
// size are exact. TSan checks every reader of the entries against the
// links.
TEST(ConcurrencyStress, CreatorsAndWalkersShareOneDirectory) {
  constexpr int kCreators = 2;
  constexpr int kWalkers = 2;
  constexpr int kFiles = IA_TEST_UNDER_TSAN ? 150 : 1000;
  auto kernel = test::MakeWorld();
  kernel->fs().MkdirAll("/shared");
  std::atomic<int> arrivals{0};
  std::atomic<int> creators_done{0};
  std::vector<Pid> pids;
  for (int c = 0; c < kCreators; ++c) {
    SpawnOptions options;
    options.body = [c, &arrivals, &creators_done](ProcessContext& ctx) {
      StartTogether(&arrivals, kCreators + kWalkers);
      for (int i = 0; i < kFiles; ++i) {
        const std::string name = "/shared/c" + std::to_string(c) + "_" + std::to_string(i);
        const int fd = ctx.Open(name, kOWronly | kOCreat | kOTrunc, 0644);
        if (fd < 0 || ctx.Write(fd, "x", 1) != 1 || ctx.Close(fd) != 0) {
          return 1;
        }
      }
      creators_done.fetch_add(1, std::memory_order_release);
      return 0;
    };
    pids.push_back(kernel->Spawn(options));
  }
  for (int w = 0; w < kWalkers; ++w) {
    SpawnOptions options;
    options.body = [w, &arrivals, &creators_done](ProcessContext& ctx) {
      StartTogether(&arrivals, kCreators + kWalkers);
      std::vector<char> buf(64 * kFiles * kCreators);
      for (int i = 0; i < 50 || creators_done.load(std::memory_order_acquire) < kCreators; ++i) {
        const std::string name = "/shared/c" + std::to_string((i + w) % kCreators) + "_" +
                                 std::to_string(i % kFiles);
        Stat st;
        const int stat_err = ctx.Stat(name, &st);
        if (stat_err != 0 && stat_err != -kENoent) {
          return 1;
        }
        if (stat_err == 0 && st.st_nlink != 1) {
          return 2;
        }
        const int fd = ctx.Open(name, kORdonly);
        if (fd >= 0 ? ctx.Close(fd) != 0 : fd != -kENoent) {
          return 3;
        }
        const int dfd = ctx.Open("/shared", kORdonly);
        int64_t base = 0;
        const int n = ctx.Getdirentries(dfd, buf.data(), static_cast<int>(buf.size()), &base);
        if (dfd < 0 || n <= 0 || ctx.Close(dfd) != 0) {
          return 4;
        }
        std::vector<std::string> names;
        for (const Dirent& d : DecodeDirents(buf.data(), static_cast<size_t>(n))) {
          names.push_back(d.d_name);
        }
        std::sort(names.begin(), names.end());
        if (std::adjacent_find(names.begin(), names.end()) != names.end()) {
          return 5;
        }
      }
      return 0;
    };
    pids.push_back(kernel->Spawn(options));
  }
  ExpectAllExitZero(*kernel, pids);
  const InodeRef dir = kernel->fs().root()->entries.at("shared");
  EXPECT_EQ(dir->entries.size(), static_cast<size_t>(kCreators * kFiles));
  EXPECT_EQ(dir->nlink, 2);
  Stat st;
  dir->FillStat(&st);
  EXPECT_EQ(st.st_size, (kCreators * kFiles + 2) * 16);
  for (const auto& [name, file] : dir->entries) {
    EXPECT_EQ(file->nlink, 1) << name;
    EXPECT_EQ(file->data, "x") << name;
  }
}

// Two roots append records to four files while a third truncates them with
// O_TRUNC opens (the tree lock shared: each resize under the file's data_mu,
// its byte change one atomic add). Once they quiesce, the kernel's byte
// total is the world's other bytes plus exactly the four files' sizes, and
// every file holds whole records.
TEST(ConcurrencyStress, TruncatingOpensConserveBytes) {
  constexpr int kAppenders = 2;
  constexpr int kFiles = 4;
  constexpr int kRecords = IA_TEST_UNDER_TSAN ? 200 : 2000;
  auto kernel = test::MakeWorld();
  for (int f = 0; f < kFiles; ++f) {
    kernel->fs().InstallFile("/trunc/f" + std::to_string(f), "");
  }
  const int64_t other_bytes = kernel->fs().total_bytes();
  std::atomic<int> arrivals{0};
  std::atomic<int> appenders_done{0};
  std::vector<Pid> pids;
  for (int a = 0; a < kAppenders; ++a) {
    SpawnOptions options;
    options.body = [a, &arrivals, &appenders_done](ProcessContext& ctx) {
      int fds[kFiles];
      for (int f = 0; f < kFiles; ++f) {
        fds[f] = ctx.Open("/trunc/f" + std::to_string(f), kOWronly | kOAppend);
        if (fds[f] < 0) {
          return 1;
        }
      }
      StartTogether(&arrivals, kAppenders + 1);
      for (int i = 0; i < kRecords; ++i) {
        if (ctx.Write(fds[i % kFiles], MakeRecord(a, i).data(), kRecordBytes) != kRecordBytes) {
          return 2;
        }
      }
      appenders_done.fetch_add(1, std::memory_order_release);
      return 0;
    };
    pids.push_back(kernel->Spawn(options));
  }
  SpawnOptions truncator;
  truncator.body = [&arrivals, &appenders_done](ProcessContext& ctx) {
    StartTogether(&arrivals, kAppenders + 1);
    for (int i = 0; i < 50 || appenders_done.load(std::memory_order_acquire) < kAppenders; ++i) {
      const int fd = ctx.Open("/trunc/f" + std::to_string(i % kFiles), kOWronly | kOTrunc);
      if (fd < 0 || ctx.Close(fd) != 0) {
        return 1;
      }
    }
    return 0;
  };
  pids.push_back(kernel->Spawn(truncator));
  ExpectAllExitZero(*kernel, pids);
  int64_t sizes = 0;
  for (int f = 0; f < kFiles; ++f) {
    const std::string data = FileContents(*kernel, "/trunc/f" + std::to_string(f));
    ASSERT_EQ(data.size() % kRecordBytes, 0u) << "f" << f;
    for (size_t at = 0; at < data.size(); at += kRecordBytes) {
      int writer = -1;
      int seq = -1;
      ASSERT_TRUE(ParseRecord(data.data() + at, &writer, &seq)) << "f" << f << " at " << at;
    }
    sizes += static_cast<int64_t>(data.size());
  }
  EXPECT_EQ(kernel->fs().total_bytes(), other_bytes + sizes);
}

// A pathname agent that resolves every path against the client's working
// directory, as union, sandbox and txn do, and counts the resolutions that
// come out wrong. It passes the caller's own path down, so a relative call
// resolves from the cwd and reads no directory above it.
class AbsolutePathAgent final : public PathnameSet {
 public:
  explicit AbsolutePathAgent(std::string expect) : expect_(std::move(expect)) {}
  std::string name() const override { return "abspath"; }
  int wrong() const { return wrong_.load(std::memory_order_relaxed); }

 protected:
  PathnameRef getpn(AgentCall& call, const char* path) override {
    if (AbsoluteClientPath(call, path) != expect_) {
      wrong_.fetch_add(1, std::memory_order_relaxed);
    }
    return PathnameSet::getpn(call, path);
  }

 private:
  const std::string expect_;
  std::atomic<int> wrong_{0};
};

// A root under a pathname agent stats a relative name from /work/sub, so
// every call rebuilds its cwd's absolute path by scanning /work's entries
// up to "sub", while a second root creates and unlinks files in /work whose
// names sort before "sub", so the scan reads the nodes the creates link.
// The scan runs outside any system call: it takes the tree lock shared and
// /work's data_mu, which TSan checks against the creates. The stat itself
// resolves "f" from the cwd, so between scans the walker takes no lock of
// /work's that would order its next scan after the creates.
TEST(ConcurrencyStress, RelativePathStatThroughPathnameAgentAgainstCreates) {
  constexpr int kRounds = IA_TEST_UNDER_TSAN ? 600 : 1500;
  auto kernel = test::MakeWorld();
  kernel->fs().MkdirAll("/work/sub");
  kernel->fs().InstallFile("/work/sub/f", "f");
  for (int i = 0; i < 64; ++i) {
    kernel->fs().InstallFile("/work/a" + std::to_string(i), "");
  }
  std::atomic<int> arrivals{0};
  std::atomic<bool> walker_done{false};
  std::vector<Pid> pids;
  SpawnOptions walker;
  walker.cwd = "/work/sub";
  walker.body = [&arrivals, &walker_done](ProcessContext& ctx) {
    StartTogether(&arrivals, 2);
    int status = 0;
    for (int i = 0; i < kRounds && status == 0; ++i) {
      Stat st;
      if (ctx.Stat("f", &st) != 0 || st.st_size != 1) {
        status = 1;
      }
    }
    walker_done.store(true, std::memory_order_relaxed);
    return status;
  };
  auto agent = std::make_shared<AbsolutePathAgent>("/work/sub/f");
  pids.push_back(SpawnUnderAgents(*kernel, {agent}, walker));
  // Creates until the last scan is done, so every scan overlaps them.
  SpawnOptions mutator;
  mutator.body = [&arrivals, &walker_done](ProcessContext& ctx) {
    StartTogether(&arrivals, 2);
    for (int i = 0; i < kRounds || !walker_done.load(std::memory_order_relaxed); ++i) {
      const std::string name = "/work/b" + std::to_string(i);
      const int fd = ctx.Open(name, kOWronly | kOCreat, 0644);
      if (fd < 0 || ctx.Close(fd) != 0 || (i % 4 == 3 && ctx.Unlink(name) != 0)) {
        return 1;
      }
    }
    return 0;
  };
  pids.push_back(kernel->Spawn(mutator));
  ExpectAllExitZero(*kernel, pids);
  EXPECT_EQ(agent->wrong(), 0);
}

}  // namespace
}  // namespace ia
