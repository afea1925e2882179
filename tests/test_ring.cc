// The submission/completion ring plane and its supporting refactors: the
// SyscallRing single-producer/single-consumer queues and their derived
// in-flight accounting, DrainRing's batched kernel-lane trap and agent-routed
// fallbacks, the ring's exit/exec semantics (the drain stops after an exit or
// exec entry; exec drops the image's ring), the determinism gates (ring-
// submitted batches are result- and ktrace- and fault-stream-identical to
// synchronous issue), the aggregated RouteStats() counters, the VFS tree lock
// under concurrent clients.
#include "tests/test_helpers.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <thread>

#include "src/agents/dfs_trace.h"
#include "src/apps/apps.h"
#include "src/apps/batch.h"
#include "src/base/rwlock.h"
#include "src/base/strings.h"
#include "src/kernel/ktrace.h"
#include "src/kernel/ring.h"

namespace ia {
namespace {

using test::ExitCodeOf;
using test::FileContents;
using test::MakeWorld;
using test::RunBody;
using test::RunBodyUnder;

// --- SyscallRing unit tests --------------------------------------------------

SyscallRequest GetpidReq(uint64_t tag) {
  SyscallRequest req;
  req.number = kSysGetpid;
  req.user_data = tag;
  return req;
}

TEST(RingUnit, RoundTripPreservesFifoOrderAndCookies) {
  SyscallRing ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  for (uint64_t tag = 1; tag <= 3; ++tag) {
    EXPECT_TRUE(ring.Submit(GetpidReq(tag)));
  }
  EXPECT_EQ(ring.SubmissionsPending(), 3u);
  EXPECT_EQ(ring.InFlight(), 3u);

  for (uint64_t tag = 1; tag <= 3; ++tag) {
    const SyscallBatch queued = ring.Queued();
    ASSERT_EQ(queued.count, static_cast<int>(4 - tag));
    EXPECT_EQ(queued.req(0).user_data, tag);
    queued.comp(0).user_data = queued.req(0).user_data;
    queued.comp(0).status = 42;
    ring.Complete(1);
  }
  EXPECT_EQ(ring.Queued().count, 0);
  EXPECT_EQ(ring.CompletionsPending(), 3u);

  SyscallCompletion comp;
  for (uint64_t tag = 1; tag <= 3; ++tag) {
    ASSERT_TRUE(ring.Reap(&comp));
    EXPECT_EQ(comp.user_data, tag);
    EXPECT_EQ(comp.status, 42);
  }
  EXPECT_FALSE(ring.Reap(&comp));
  EXPECT_EQ(ring.InFlight(), 0u);
}

TEST(RingUnit, CapacityCountsInFlightNotJustQueued) {
  SyscallRing ring(4);
  for (uint64_t tag = 0; tag < 4; ++tag) {
    ASSERT_TRUE(ring.Submit(GetpidReq(tag)));
  }
  // Full: the 5th entry is refused.
  EXPECT_FALSE(ring.Submit(GetpidReq(99)));

  // Completing a request does NOT free space — the reservation keeps its
  // completion slot until it is reaped, so only reaping releases it.
  const SyscallBatch queued = ring.Queued();
  ASSERT_EQ(queued.count, 4);
  queued.comp(0).user_data = queued.req(0).user_data;
  ring.Complete(1);
  EXPECT_FALSE(ring.Submit(GetpidReq(99)));

  SyscallCompletion comp;
  ASSERT_TRUE(ring.Reap(&comp));
  EXPECT_TRUE(ring.Submit(GetpidReq(99)));
}

TEST(RingUnit, SubmitBatchAcceptsExactlyTheRoom) {
  SyscallRing ring(2);
  SyscallRequest reqs[5];
  for (uint64_t tag = 0; tag < 5; ++tag) {
    reqs[tag] = GetpidReq(tag);
  }
  EXPECT_EQ(ring.SubmitBatch(reqs, 5), 2u);
  EXPECT_EQ(ring.SubmitBatch(reqs + 2, 3), 0u);
  const SyscallBatch queued = ring.Queued();
  ASSERT_EQ(queued.count, 2);
  EXPECT_EQ(queued.req(0).user_data, 0u);
  EXPECT_EQ(queued.req(1).user_data, 1u);
}

TEST(RingUnit, EntriesRoundUpToPowerOfTwo) {
  EXPECT_EQ(SyscallRing(1).capacity(), 2u);
  EXPECT_EQ(SyscallRing(3).capacity(), 4u);
  EXPECT_EQ(SyscallRing(8).capacity(), 8u);
  EXPECT_EQ(SyscallRing(100).capacity(), 128u);
}

// --- the drain path ----------------------------------------------------------

TEST(Ring, DrainCompletesInSubmissionOrder) {
  auto kernel = MakeWorld();
  const int code = ExitCodeOf(*kernel, [](ProcessContext& ctx) {
    ctx.WriteWholeFile("/tmp/ringd", "x");
    ia::Stat st{};
    SyscallRequest reqs[4];
    reqs[0] = GetpidReq(10);
    reqs[1].number = kSysStat;
    reqs[1].user_data = 11;
    reqs[1].args.SetPtr(0, "/tmp/ringd");
    reqs[1].args.SetPtr(1, &st);
    reqs[2] = GetpidReq(12);
    reqs[3].number = kSysStat;
    reqs[3].user_data = 13;
    reqs[3].args.SetPtr(0, "/absent");
    reqs[3].args.SetPtr(1, &st);

    ctx.Ring(8);
    if (ctx.SubmitBatch(reqs, 4) != 4) {
      return 1;
    }
    if (ctx.DrainRing() != 4) {
      return 2;
    }
    SyscallCompletion comps[4];
    if (ctx.ReapBatch(comps, 4) != 4) {
      return 3;
    }
    const Pid self = ctx.Getpid();
    if (comps[0].user_data != 10 || comps[0].status != 0 || comps[0].result.rv[0] != self) {
      return 4;
    }
    if (comps[1].user_data != 11 || comps[1].status != 0) {
      return 5;
    }
    if (comps[2].user_data != 12 || comps[2].status != 0 || comps[2].result.rv[0] != self) {
      return 6;
    }
    if (comps[3].user_data != 13 || comps[3].status != -kENoent) {
      return 7;
    }
    return 0;
  });
  EXPECT_EQ(code, 0);
}

// A counting frame interested in getpid, for the agent-lane tests.
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

TEST(Ring, AgentRoutedEntriesTraverseTheEmulationStack) {
  // Ring entries whose number has an interested frame must run through the
  // compiled route exactly like synchronous calls; kernel-lane entries around
  // them still batch, and completion order stays submission order.
  auto kernel = MakeWorld();
  auto counter = std::make_shared<CountingFrame>();
  const int code = ExitCodeOf(*kernel, [counter](ProcessContext& ctx) {
    ctx.WriteWholeFile("/tmp/ringa", "x");
    EmulationFrame frame;
    frame.handler = counter;
    frame.syscall_interest.set(kSysGetpid);
    ctx.PushEmulation(std::move(frame));

    ia::Stat st{};
    SyscallRequest reqs[6];
    for (uint64_t i = 0; i < 6; ++i) {
      if (i % 2 == 0) {
        reqs[i] = GetpidReq(i);  // agent lane
      } else {
        reqs[i].number = kSysStat;  // kernel lane
        reqs[i].user_data = i;
        reqs[i].args.SetPtr(0, "/tmp/ringa");
        reqs[i].args.SetPtr(1, &st);
      }
    }
    ctx.Ring(8);
    if (ctx.SubmitBatch(reqs, 6) != 6 || ctx.DrainRing() != 6) {
      return 1;
    }
    SyscallCompletion comps[6];
    if (ctx.ReapBatch(comps, 6) != 6) {
      return 2;
    }
    for (uint64_t i = 0; i < 6; ++i) {
      if (comps[i].user_data != i || comps[i].status < 0) {
        return 3;
      }
    }
    ctx.PopEmulation();
    return counter->hits.load() == 3 ? 0 : 4;
  });
  EXPECT_EQ(code, 0);
}

// A getpid frame that drains the ring from inside its handler, then passes
// the call down: an agent may not complete the entries queued behind the one
// it is handling.
class DrainingFrame final : public SyscallHandler {
 public:
  SyscallStatus HandleSyscall(ProcessContext& ctx, int frame, int number,
                              const SyscallArgs& args, SyscallResult* rv) override {
    nested_drained.fetch_add(ctx.DrainRing(), std::memory_order_relaxed);
    return ctx.SyscallBelow(frame, number, args, rv);
  }
  void HandleSignal(ProcessContext& ctx, int frame, int signo) override {
    ctx.ForwardSignal(frame, signo);
  }

  std::atomic<int64_t> nested_drained{0};
};

TEST(Ring, DrainNestedInAnAgentRoutedEntryKeepsSubmissionOrder) {
  auto kernel = MakeWorld();
  auto drainer = std::make_shared<DrainingFrame>();
  const int code = ExitCodeOf(*kernel, [drainer](ProcessContext& ctx) {
    ctx.WriteWholeFile("/tmp/ringn", "x");
    EmulationFrame frame;
    frame.handler = drainer;
    frame.syscall_interest.set(kSysGetpid);
    ctx.PushEmulation(std::move(frame));

    ia::Stat st{};
    BatchClient batch(ctx, /*ring_entries=*/8);
    for (int i = 0; i < 5; ++i) {
      batch.PushStat("/tmp/ringn", &st, 100);
    }
    if (batch.Flush() != 5) {  // slots 0..4
      return 1;
    }
    // Slots 5..10, across the slot array's end: an agent-routed getpid,
    // four kernel-lane stats, and a second agent-routed getpid.
    batch.PushGetpid(0);
    for (uint64_t i = 1; i <= 4; ++i) {
      batch.PushStat("/tmp/ringn", &st, i);
    }
    batch.PushGetpid(5);
    if (batch.Flush() != 6) {
      return 2;
    }
    for (uint64_t i = 0; i < 6; ++i) {
      const SyscallCompletion& c = batch.completions()[i];
      if (c.user_data != i || c.status < 0) {
        return 3;  // a nested drain completed later entries ahead of a getpid
      }
    }
    ctx.PopEmulation();
    return drainer->nested_drained.load() == 0 ? 0 : 4;
  });
  EXPECT_EQ(code, 0);
}

// A run that crosses the end of the ring's slot array is still one batch:
// the dispatch core reads its entries through a view that wraps at the
// array's end, so they all complete at the clock the batch pre-charged,
// like any other run's.
TEST(Ring, RunAcrossTheSlotArrayEndIsOneBatch) {
  auto kernel = MakeWorld();
  Kernel* const k = kernel.get();
  EXPECT_EQ(ExitCodeOf(*kernel, [k](ProcessContext& ctx) {
              BatchClient batch(ctx, /*ring_entries=*/8);
              for (int i = 0; i < 5; ++i) {
                batch.PushGetpid(static_cast<uint64_t>(i));
              }
              if (batch.Flush() != 5) {  // slots 0..4, in place
                return 1;
              }
              constexpr int kRun = 6;  // slots 5..10: past the array's end
              for (int i = 0; i < kRun; ++i) {
                batch.PushGetpid(static_cast<uint64_t>(i));
              }
              TimeVal tv{};
              if (ctx.Gettimeofday(&tv, nullptr) != 0) {
                return 2;
              }
              const int64_t before = tv.tv_sec * 1000000 + tv.tv_usec;
              if (batch.Flush() != kRun) {
                return 3;
              }
              for (const SyscallCompletion& c : batch.completions()) {
                if (c.status < 0 || c.vtime_usec != before + kRun * k->SyscallCost(kSysGetpid)) {
                  return 4;
                }
              }
              return 0;
            }),
            0);
}

TEST(Ring, BatchClientSplitsOversizedBatches) {
  auto kernel = MakeWorld();
  const int code = ExitCodeOf(*kernel, [](ProcessContext& ctx) {
    BatchClient batch(ctx, /*ring_entries=*/8);
    constexpr int kCalls = 100;
    for (int i = 0; i < kCalls; ++i) {
      batch.PushGetpid(static_cast<uint64_t>(i));
    }
    if (batch.Flush() != kCalls) {
      return 1;
    }
    const Pid self = ctx.Getpid();
    for (int i = 0; i < kCalls; ++i) {
      const SyscallCompletion& c = batch.completions()[static_cast<size_t>(i)];
      if (c.user_data != static_cast<uint64_t>(i) || c.status != 0 ||
          c.result.rv[0] != self) {
        return 2;
      }
    }
    return 0;
  });
  EXPECT_EQ(code, 0);
}

TEST(Ring, RingloadProgramExitsClean) {
  // With no plan, and with an inert FaultPlan installed (consulted on every
  // call, injecting nothing).
  for (const bool inert_plan : {false, true}) {
    auto kernel = MakeWorld();
    if (inert_plan) {
      kernel->SetFaultPlan(FaultPlan{});
    }
    SpawnOptions options;
    options.path = "/usr/bin/ringload";
    options.argv = {"ringload", "/tmp", "8"};
    const Pid pid = kernel->Spawn(options);
    ASSERT_GT(pid, 0);
    const int status = kernel->HostWaitPid(pid);
    ASSERT_TRUE(WifExited(status)) << "inert_plan=" << inert_plan;
    EXPECT_EQ(WExitStatus(status), 0) << "inert_plan=" << inert_plan;
  }
}

TEST(Ring, DrainStopsAfterExitEntry) {
  // Synchronous issue never reaches a call after _exit; neither may a drain,
  // even when both entries sit in one kernel-lane run.
  auto kernel = MakeWorld();
  const int code = ExitCodeOf(*kernel, [](ProcessContext& ctx) {
    const int fd = ctx.Open("/tmp/after_exit", kOWronly | kOCreat | kOTrunc, 0644);
    if (fd < 0) {
      return 1;
    }
    SyscallRequest reqs[2];
    reqs[0].number = kSysExit;
    reqs[0].args.SetInt(0, 7);
    reqs[1].number = kSysWrite;
    reqs[1].args.SetInt(0, fd);
    reqs[1].args.SetPtr(1, "x");
    reqs[1].args.SetInt(2, 1);
    if (ctx.SubmitBatch(reqs, 2) != 2) {
      return 2;
    }
    ctx.DrainRing();  // the boundary after the drain performs the exit
    return 3;
  });
  EXPECT_EQ(code, 7);
  EXPECT_EQ(FileContents(*kernel, "/tmp/after_exit"), "");
}

TEST(Ring, ExecDropsTheRing) {
  // The ring belongs to the image: the new image must neither reap the old
  // image's completions nor drain its queued entries (their pointer
  // arguments point into the unwound image).
  auto kernel = MakeWorld();
  kernel->InstallProgram("/bin/ringexec", "ringexec", [](ProcessContext& ctx) -> int {
    if (ctx.HasRing()) {
      return 10;
    }
    const SyscallRequest req = GetpidReq(1);
    if (ctx.SubmitBatch(&req, 1) != 1 || ctx.DrainRing() != 1) {
      return 11;
    }
    SyscallCompletion comps[8];
    const uint32_t n = ctx.ReapBatch(comps, 8);
    return n == 1 && comps[0].user_data == 1 && comps[0].result.rv[0] == ctx.Getpid()
               ? 0
               : 20 + static_cast<int>(n);
  });
  const int code = ExitCodeOf(*kernel, [](ProcessContext& ctx) {
    // 63 getpids and the execve fill one kernel-lane run; the getpid after
    // the execve is still queued when the exec happens.
    std::vector<SyscallRequest> reqs;
    for (uint64_t tag = 100; tag < 163; ++tag) {
      reqs.push_back(GetpidReq(tag));
    }
    SyscallRequest exec;
    exec.number = kSysExecve;
    exec.args.SetPtr(0, "/bin/ringexec");
    reqs.push_back(exec);
    reqs.push_back(GetpidReq(200));
    if (ctx.SubmitBatch(reqs.data(), static_cast<uint32_t>(reqs.size())) != reqs.size()) {
      return 1;
    }
    ctx.DrainRing();
    return 2;  // exec failed
  });
  EXPECT_EQ(code, 0);
}

// --- determinism gates: ring vs synchronous ---------------------------------

// The mixed per-iteration workload both variants issue: open (synchronous —
// its fd feeds the fd-keyed entries), then stat/fstat/lseek/read/getpid/close.
// Returns a digest line per call, "number:status:rv0", and the read buffer.
std::string RunMixedWorkload(ProcessContext& ctx, bool via_ring, int iterations) {
  const std::string file = "/tmp/mixed.dat";
  std::string payload(512, '\0');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>('A' + i % 23);
  }
  ctx.WriteWholeFile(file, payload);

  std::string digest;
  char buf[128];
  ia::Stat st{};
  ia::Stat fst{};
  for (int it = 0; it < iterations; ++it) {
    std::memset(buf, 0, sizeof(buf));
    const int fd = ctx.Open(file, kORdonly);
    if (fd < 0) {
      digest += StringPrintf("open:%d\n", fd);
      continue;
    }
    SyscallRequest reqs[6];
    reqs[0].number = kSysStat;
    reqs[0].args.SetPtr(0, file.c_str());
    reqs[0].args.SetPtr(1, &st);
    reqs[1].number = kSysFstat;
    reqs[1].args.SetInt(0, fd);
    reqs[1].args.SetPtr(1, &fst);
    reqs[2].number = kSysLseek;
    reqs[2].args.SetInt(0, fd);
    reqs[2].args.SetInt(1, static_cast<int64_t>(it % 64));
    reqs[2].args.SetInt(2, kSeekSet);
    reqs[3].number = kSysRead;
    reqs[3].args.SetInt(0, fd);
    reqs[3].args.SetPtr(1, buf);
    reqs[3].args.SetInt(2, static_cast<int64_t>(sizeof(buf)));
    reqs[4].number = kSysGetpid;
    reqs[5].number = kSysClose;
    reqs[5].args.SetInt(0, fd);

    if (via_ring) {
      ctx.Ring(8);
      ctx.SubmitBatch(reqs, 6);
      ctx.DrainRing();
      SyscallCompletion comps[6];
      const uint32_t reaped = ctx.ReapBatch(comps, 6);
      for (uint32_t i = 0; i < reaped; ++i) {
        digest += StringPrintf("%d:%lld:%lld\n", reqs[i].number,
                               static_cast<long long>(comps[i].status),
                               static_cast<long long>(comps[i].result.rv[0]));
      }
    } else {
      for (const SyscallRequest& req : reqs) {
        SyscallResult rv;
        const SyscallStatus status = ctx.Syscall(req.number, req.args, &rv);
        digest += StringPrintf("%d:%lld:%lld\n", req.number, static_cast<long long>(status),
                               static_cast<long long>(rv.rv[0]));
      }
    }
    digest.append(buf, sizeof(buf));  // the bytes prove the read's offset
    digest += '\n';
  }
  return digest;
}

// A frame pushed raw onto the emulation stack (EmulationStack::Push, null
// health) runs UNCONTAINED — an exception out of it mid-drain must poison only
// its own entry (error completion, in-flight slot released), never the ring.
class ThrowingFrame final : public SyscallHandler {
 public:
  SyscallStatus HandleSyscall(ProcessContext& ctx, int frame, int number,
                              const SyscallArgs& args, SyscallResult* rv) override {
    if (number == kSysGetpid) {
      throw std::runtime_error("poisoned entry");
    }
    return ctx.SyscallBelow(frame, number, args, rv);
  }
  void HandleSignal(ProcessContext& ctx, int frame, int signo) override {
    ctx.ForwardSignal(frame, signo);
  }
};

TEST(Ring, UncontainedFrameThrowMidDrainPoisonsOnlyItsEntry) {
  auto kernel = MakeWorld();
  const int code = ExitCodeOf(*kernel, [](ProcessContext& ctx) {
    ctx.WriteWholeFile("/tmp/ringp", "x");
    EmulationFrame frame;
    frame.handler = std::make_shared<ThrowingFrame>();
    frame.syscall_interest.set(kSysGetpid);
    ctx.emulation().Push(std::move(frame));  // raw push: no health, no trap

    ia::Stat st{};
    SyscallRequest reqs[3];
    reqs[0].number = kSysStat;
    reqs[0].user_data = 0;
    reqs[0].args.SetPtr(0, "/tmp/ringp");
    reqs[0].args.SetPtr(1, &st);
    reqs[1] = GetpidReq(1);  // the poisoned entry
    reqs[2].number = kSysStat;
    reqs[2].user_data = 2;
    reqs[2].args.SetPtr(0, "/tmp/ringp");
    reqs[2].args.SetPtr(1, &st);

    SyscallRing& ring = ctx.Ring(8);
    if (ctx.SubmitBatch(reqs, 3) != 3 || ctx.DrainRing() != 3) {
      return 1;  // the drain must complete all three, not stall at the throw
    }
    SyscallCompletion comps[3];
    if (ctx.ReapBatch(comps, 3) != 3) {
      return 2;
    }
    if (comps[0].user_data != 0 || comps[0].status != 0) {
      return 3;
    }
    if (comps[1].user_data != 1 || comps[1].status != -kEIo) {
      return 4;  // the error completion, not a slot left in flight
    }
    if (comps[2].user_data != 2 || comps[2].status != 0) {
      return 5;
    }
    if (ring.InFlight() != 0) {
      return 6;  // a leak here would wedge the ring once capacity is reached
    }
    ctx.emulation().Pop();
    // The ring stays usable after the poisoned entry.
    SyscallRequest again = GetpidReq(7);
    if (ctx.SubmitBatch(&again, 1) != 1 || ctx.DrainRing() != 1) {
      return 7;
    }
    SyscallCompletion comp;
    if (ctx.ReapBatch(&comp, 1) != 1 || comp.status != 0 || comp.result.rv[0] <= 0) {
      return 8;
    }
    return 0;
  });
  EXPECT_EQ(code, 0);
}

TEST(RingDeterminism, BatchResultsIdenticalToSynchronousIssue) {
  std::string digests[2];
  for (int run = 0; run < 2; ++run) {
    auto kernel = MakeWorld();
    std::string digest;
    const int code = ExitCodeOf(*kernel, [&digest, run](ProcessContext& ctx) {
      digest = RunMixedWorkload(ctx, /*via_ring=*/run == 1, /*iterations=*/12);
      return 0;
    });
    EXPECT_EQ(code, 0);
    digests[run] = digest;
  }
  EXPECT_FALSE(digests[0].empty());
  EXPECT_EQ(digests[0], digests[1]);
}

std::string KtraceDigest(const VectorKtraceSink& sink) {
  std::string digest;
  for (const KtraceRecord& r : sink.records()) {
    digest += StringPrintf("%d:%d:%lld:%d:%s:%lld\n", r.pid, r.syscall,
                           static_cast<long long>(r.result), r.fd, r.path.c_str(),
                           static_cast<long long>(r.vtime_usec));
  }
  return digest;
}

TEST(RingDeterminism, KtraceDigestIdenticalToSynchronousIssue) {
  // An attached sink changes no lane and no prologue, and each record is
  // stamped with the virtual time synchronous issue would give, so the trace
  // — pids, paths, results, fds, even virtual timestamps — must be
  // byte-identical between ring and synchronous issue.
  std::string results[2];
  std::string traces[2];
  for (int run = 0; run < 2; ++run) {
    auto kernel = MakeWorld();
    VectorKtraceSink sink;
    kernel->SetKtrace(&sink);
    std::string digest;
    const int code = ExitCodeOf(*kernel, [&digest, run](ProcessContext& ctx) {
      digest = RunMixedWorkload(ctx, /*via_ring=*/run == 1, /*iterations=*/10);
      return 0;
    });
    kernel->SetKtrace(nullptr);
    EXPECT_EQ(code, 0);
    results[run] = digest;
    traces[run] = KtraceDigest(sink);
  }
  EXPECT_FALSE(traces[0].empty());
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(traces[0], traces[1]);
}

TEST(RingDeterminism, FaultStreamIdenticalToSynchronousIssue) {
  // An installed FaultPlan keys every decision on (seed, pid, sequence,
  // number); the ring path must consume the identical sequence, so statuses,
  // injected errors, and the recorded fault trace all match synchronous
  // issue byte for byte.
  std::string results[2];
  std::string traces[2];
  for (int run = 0; run < 2; ++run) {
    auto kernel = MakeWorld();
    FaultPlan plan;
    plan.seed = 0x0ab5;
    plan.eintr_probability = 0.2;
    plan.short_probability = 0.4;
    plan.class_rules.push_back({kTakesPath, 0.2, kENoent});
    plan.record_trace = true;
    kernel->SetFaultPlan(plan);
    std::string digest;
    const int code = ExitCodeOf(*kernel, [&digest, run](ProcessContext& ctx) {
      digest = RunMixedWorkload(ctx, /*via_ring=*/run == 1, /*iterations=*/30);
      return 0;
    });
    EXPECT_EQ(code, 0);
    results[run] = digest;
    traces[run] = kernel->FaultTraceText();
  }
  EXPECT_FALSE(traces[0].empty());
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(traces[0], traces[1]);
}

// --- RouteStats() ------------------------------------------------------------

TEST(RouteStats, StartsZeroAndAggregatesAtProcessExit) {
  auto kernel = MakeWorld();
  const Kernel::RouteCacheStats before = kernel->RouteStats();
  EXPECT_EQ(before.lookups, 0);
  EXPECT_EQ(before.builds, 0);

  constexpr int kCalls = 50;
  const int code = ExitCodeOf(*kernel, [](ProcessContext& ctx) {
    for (int i = 0; i < kCalls; ++i) {
      ctx.Getpid();
    }
    return 0;
  });
  EXPECT_EQ(code, 0);

  // The exit path folded the process's counters into the kernel tallies:
  // one lookup per call, but only the first compiled a route, so the
  // steady-state hit rate is high.
  const Kernel::RouteCacheStats after = kernel->RouteStats();
  EXPECT_GE(after.lookups, kCalls);
  EXPECT_GE(after.builds, 1);
  EXPECT_LE(after.builds, after.lookups);
  const double hit_rate =
      1.0 - static_cast<double>(after.builds) / static_cast<double>(after.lookups);
  EXPECT_GE(hit_rate, 0.8);
}

TEST(RouteStats, PushPopChurnForcesOneRebuildPerGeneration) {
  auto kernel = MakeWorld();
  auto counter = std::make_shared<CountingFrame>();
  int64_t in_body_lookups = 0;
  int64_t in_body_builds = 0;
  const int code = ExitCodeOf(*kernel, [&, counter](ProcessContext& ctx) {
    // Steady phase: many lookups, at most one build for this number.
    ctx.Getpid();  // compile the route once
    const int64_t l0 = ctx.emulation().route_lookups();
    const int64_t b0 = ctx.emulation().route_builds();
    for (int i = 0; i < 20; ++i) {
      ctx.Getpid();
    }
    if (ctx.emulation().route_lookups() - l0 != 20) {
      return 1;
    }
    if (ctx.emulation().route_builds() != b0) {
      return 2;  // steady-state calls must all be cache hits
    }

    // Churn phase: every push and every pop bumps the generation, so the
    // first lookup after each is a miss that recompiles. The routed call
    // itself performs two lookups (dispatch entry + the frame's
    // SyscallBelow continuation), the second of which hits the fresh route.
    const int64_t l1 = ctx.emulation().route_lookups();
    const int64_t b1 = ctx.emulation().route_builds();
    constexpr int kChurn = 10;
    for (int i = 0; i < kChurn; ++i) {
      EmulationFrame frame;
      frame.handler = counter;
      frame.syscall_interest.set(kSysGetpid);
      ctx.PushEmulation(std::move(frame));
      ctx.Getpid();
      ctx.PopEmulation();
      ctx.Getpid();
    }
    if (ctx.emulation().route_lookups() - l1 != 3 * kChurn) {
      return 3;
    }
    if (ctx.emulation().route_builds() - b1 != 2 * kChurn) {
      return 4;  // one rebuild per generation bump, no more
    }
    in_body_lookups = ctx.emulation().route_lookups();
    in_body_builds = ctx.emulation().route_builds();
    return 0;
  });
  EXPECT_EQ(code, 0);
  EXPECT_EQ(counter->hits.load(), 10);

  // Exit-time aggregation preserves (at least) what the body observed.
  const Kernel::RouteCacheStats stats = kernel->RouteStats();
  EXPECT_GE(stats.lookups, in_body_lookups);
  EXPECT_GE(stats.builds, in_body_builds);
  EXPECT_LE(stats.builds, stats.lookups);
}

TEST(RouteStats, ForkAccumulatesBothProcessesCounters) {
  auto kernel = MakeWorld();
  constexpr int kParentCalls = 20;
  constexpr int kChildCalls = 30;
  const int code = ExitCodeOf(*kernel, [](ProcessContext& ctx) {
    for (int i = 0; i < kParentCalls; ++i) {
      ctx.Getpid();
    }
    const Pid child = ctx.Fork([](ProcessContext& cc) {
      for (int i = 0; i < kChildCalls; ++i) {
        cc.Getpid();
      }
      return 0;
    });
    int status = 0;
    ctx.Wait4(child, &status, 0, nullptr);
    return WExitStatus(status);
  });
  EXPECT_EQ(code, 0);

  // Both processes' counters landed in the kernel aggregate; the child's
  // stack starts empty (agents re-install via the wrapped body), so it
  // compiled its own routes — builds reflects at least two processes.
  const Kernel::RouteCacheStats stats = kernel->RouteStats();
  EXPECT_GE(stats.lookups, kParentCalls + kChildCalls);
  EXPECT_GE(stats.builds, 2);
  EXPECT_LE(stats.builds, stats.lookups);
}

// --- concurrency stress (TSan targets) ---------------------------------------

TEST(RingStress, SiblingSubmitterWhileOwnerDrains) {
  // The documented split arrangement: one sibling host thread owns the
  // submission side while the process thread drains and reaps. The SPSC
  // atomics must hand entries across cleanly and in order.
  auto kernel = MakeWorld();
  const int code = ExitCodeOf(*kernel, [](ProcessContext& ctx) {
    constexpr int kTotal = 500;
    SyscallRing& ring = ctx.Ring(16);
    std::thread submitter([&ring]() {
      for (int i = 0; i < kTotal; ++i) {
        SyscallRequest req = GetpidReq(static_cast<uint64_t>(i));
        while (!ring.Submit(req)) {
          std::this_thread::yield();
        }
      }
    });
    const Pid self = ctx.Getpid();
    int reaped = 0;
    int bad = 0;
    SyscallCompletion comp;
    while (reaped < kTotal) {
      ctx.DrainRing();
      while (ctx.Reap(&comp)) {
        if (comp.user_data != static_cast<uint64_t>(reaped) || comp.status != 0 ||
            comp.result.rv[0] != self) {
          ++bad;
        }
        ++reaped;
      }
      ctx.Yield();
    }
    submitter.join();
    return bad == 0 ? 0 : 1;
  });
  EXPECT_EQ(code, 0);
}

TEST(StripeStress, ParallelReadersAcrossDirectorySubtrees) {
  // Eight clients hammer the shared-lock VFS read path against their own
  // subtrees plus one shared file: many shared holders of the one tree
  // rwlock at once, with open/close doing their descriptor-slot work outside
  // it. Under TSan this validates the lock order; the assertions validate
  // what concurrent readers see.
  auto kernel = MakeWorld();
  constexpr int kClients = 8;
  constexpr int kIters = 150;
  const std::string payload(256, 'p');
  const int setup = ExitCodeOf(*kernel, [&payload](ProcessContext& ctx) {
    ctx.Mkdir("/data");
    ctx.WriteWholeFile("/data/shared.dat", payload);
    for (int c = 0; c < kClients; ++c) {
      ctx.Mkdir(StringPrintf("/data/c%d", c));
      ctx.WriteWholeFile(StringPrintf("/data/c%d/f.dat", c), payload);
    }
    return 0;
  });
  ASSERT_EQ(setup, 0);

  std::vector<Pid> pids;
  for (int c = 0; c < kClients; ++c) {
    SpawnOptions options;
    options.body = [c, &payload](ProcessContext& ctx) {
      const std::string mine = StringPrintf("/data/c%d/f.dat", c);
      char buf[256];
      ia::Stat st{};
      for (int i = 0; i < kIters; ++i) {
        if (ctx.Stat(mine, &st) != 0 || st.st_size != static_cast<Off>(payload.size())) {
          return 1;
        }
        const int fd = ctx.Open(i % 4 == 0 ? "/data/shared.dat" : mine, kORdonly);
        if (fd < 0) {
          return 2;
        }
        if (ctx.Read(fd, buf, sizeof(buf)) != static_cast<int64_t>(sizeof(buf))) {
          return 3;
        }
        if (ctx.Fstat(fd, &st) != 0) {
          return 4;
        }
        ctx.Close(fd);
      }
      return 0;
    };
    const Pid pid = kernel->Spawn(options);
    ASSERT_GT(pid, 0);
    pids.push_back(pid);
  }
  for (const Pid pid : pids) {
    const int status = kernel->HostWaitPid(pid);
    ASSERT_TRUE(WifExited(status));
    EXPECT_EQ(WExitStatus(status), 0);
  }
}

TEST(StripeStress, ReadersScanWhileWritersChurnTheTree) {
  // Shared readers racing exclusive writers (create/unlink churn) on the one
  // tree rwlock. Correctness: readers of the stable file never see a torn
  // result, and the churned files resolve to a consistent final state.
  auto kernel = MakeWorld();
  const std::string payload(128, 's');
  const int setup = ExitCodeOf(*kernel, [&payload](ProcessContext& ctx) {
    ctx.Mkdir("/mix");
    ctx.WriteWholeFile("/mix/stable.dat", payload);
    return 0;
  });
  ASSERT_EQ(setup, 0);

  std::vector<Pid> pids;
  for (int r = 0; r < 4; ++r) {
    SpawnOptions options;
    options.body = [&payload](ProcessContext& ctx) {
      char buf[128];
      ia::Stat st{};
      for (int i = 0; i < 150; ++i) {
        if (ctx.Stat("/mix/stable.dat", &st) != 0 ||
            st.st_size != static_cast<Off>(payload.size())) {
          return 1;
        }
        const int fd = ctx.Open("/mix/stable.dat", kORdonly);
        if (fd < 0 || ctx.Read(fd, buf, sizeof(buf)) != static_cast<int64_t>(sizeof(buf))) {
          return 2;
        }
        ctx.Close(fd);
        ctx.Access(StringPrintf("/mix/churn%d", i % 8), 0);  // may or may not exist
      }
      return 0;
    };
    pids.push_back(kernel->Spawn(options));
    ASSERT_GT(pids.back(), 0);
  }
  for (int w = 0; w < 2; ++w) {
    SpawnOptions options;
    options.body = [w](ProcessContext& ctx) {
      for (int i = 0; i < 100; ++i) {
        const std::string path = StringPrintf("/mix/churn%d", (w * 4 + i) % 8);
        ctx.WriteWholeFile(path, "c");
        ctx.Unlink(path);
      }
      ctx.WriteWholeFile(StringPrintf("/mix/final%d", w), "done");
      return 0;
    };
    pids.push_back(kernel->Spawn(options));
    ASSERT_GT(pids.back(), 0);
  }
  for (const Pid pid : pids) {
    const int status = kernel->HostWaitPid(pid);
    ASSERT_TRUE(WifExited(status));
    EXPECT_EQ(WExitStatus(status), 0);
  }
  EXPECT_EQ(FileContents(*kernel, "/mix/final0"), "done");
  EXPECT_EQ(FileContents(*kernel, "/mix/final1"), "done");
}

// --- the single-producer ring across threads ---------------------------------

TEST(RingUnit, WraparoundAcrossProducerDrainerAndReaperThreads) {
  // One producer, one drainer and one reaper, each on its own thread, over a
  // capacity-4 ring that wraps hundreds of times. In flight is derived from
  // the producer's and the reaper's indices alone, so every cookie must still
  // arrive exactly once and in order, and nothing may stay in flight.
  constexpr uint64_t kTotal = IA_TEST_UNDER_TSAN ? 800 : 2400;
  SyscallRing ring(4);
  std::thread producer([&ring] {
    for (uint64_t i = 0; i < kTotal; ++i) {
      while (!ring.Submit(GetpidReq(i))) {
        std::this_thread::yield();
      }
    }
  });
  std::thread drainer([&ring] {
    uint64_t drained = 0;
    while (drained < kTotal) {
      const SyscallBatch queued = ring.Queued();
      if (queued.count == 0) {
        std::this_thread::yield();
        continue;
      }
      // Completes in place: admission reserved each entry's completion slot.
      for (int i = 0; i < queued.count; ++i) {
        queued.comp(i).user_data = queued.req(i).user_data;
      }
      ring.Complete(static_cast<uint32_t>(queued.count));
      drained += static_cast<uint64_t>(queued.count);
    }
  });
  uint64_t next = 0;
  int bad = 0;
  SyscallCompletion comp;
  while (next < kTotal) {
    if (!ring.Reap(&comp)) {
      std::this_thread::yield();
      continue;
    }
    if (comp.user_data != next++) {
      ++bad;  // lost, duplicated or reordered
    }
    if (ring.InFlight() > ring.capacity()) {
      ++bad;  // the derived count wrapped
    }
  }
  producer.join();
  drainer.join();
  EXPECT_EQ(bad, 0);
  EXPECT_EQ(next, kTotal);
  EXPECT_EQ(ring.InFlight(), 0u);
  EXPECT_FALSE(ring.Reap(&comp));
}

// --- batched shared-lock rows and the kernel-lane digest matrix --------------

// The reorderable batch workload: per iteration, stat/fstat/lseek/read rows
// on eight files, each on its own descriptor, issued as ONE batch through
// the dispatch core — or, with via_ring false, call by call, the exact-order
// reference. Every file's atime is reset to a
// past value before each batch, so a stat that ran after its file's read
// (out of submission order) reports the read's atime instead. Returns a
// digest line per completion: "index:tag:status:rv0", the read buffers, and
// each stat/fstat result, so any reordering that leaked into results (stale
// or fresh atimes, wrong offsets, swapped completions, crossed fd streams)
// breaks the comparison.
std::string RunReorderableBatchWorkload(ProcessContext& ctx, bool via_ring, int iterations) {
  constexpr int kFiles = 8;
  std::string digest;
  ctx.Mkdir("/ov");
  std::vector<std::string> paths;
  for (int f = 0; f < kFiles; ++f) {
    paths.push_back(StringPrintf("/ov/f%d.dat", f));
    // Position-dependent bytes: a read at the wrong offset reads other data.
    std::string payload(256 + 16 * f, '\0');
    for (size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<char>('a' + (i + 3 * f) % 26);
    }
    ctx.WriteWholeFile(paths.back(), payload);
  }
  int fds[kFiles];
  for (int f = 0; f < kFiles; ++f) {
    fds[f] = ctx.Open(paths[static_cast<size_t>(f)], kORdonly);
    if (fds[f] < 0) {
      return "open-failed";
    }
  }
  BatchClient batch(ctx, /*ring_entries=*/64);
  ia::Stat st[kFiles];
  ia::Stat fst[kFiles];
  char bufs[kFiles][64];
  std::vector<SyscallRequest> reqs;
  auto push = [&reqs](int number, std::initializer_list<uint64_t> args) {
    SyscallRequest req;
    req.number = number;
    req.user_data = reqs.size();
    int i = 0;
    for (const uint64_t arg : args) {
      req.args.arg[i++] = arg;
    }
    reqs.push_back(req);
  };
  auto ptr = [](const void* p) { return static_cast<uint64_t>(reinterpret_cast<uintptr_t>(p)); };
  const TimeVal past[2] = {{1, 0}, {1, 0}};
  for (int it = 0; it < iterations; ++it) {
    for (const std::string& path : paths) {
      ctx.Utimes(path, past);
    }
    reqs.clear();
    for (int f = 0; f < kFiles; ++f) {
      const auto fd = static_cast<uint64_t>(fds[f]);
      push(kSysStat, {ptr(paths[static_cast<size_t>(f)].c_str()), ptr(&st[f])});
      push(kSysFstat, {fd, ptr(&fst[f])});
      push(kSysLseek, {fd, static_cast<uint64_t>((it * 7 + f) % 64), kSeekSet});
      push(kSysRead, {fd, ptr(bufs[f]), sizeof(bufs[f])});
    }
    std::vector<SyscallCompletion> comps;
    if (via_ring) {
      for (const SyscallRequest& req : reqs) {
        batch.Push(req.number, req.args, req.user_data);
      }
      batch.Flush();
      comps = batch.completions();
    } else {
      for (const SyscallRequest& req : reqs) {
        SyscallCompletion comp;
        comp.user_data = req.user_data;
        comp.status = ctx.Syscall(req.number, req.args, &comp.result);
        comps.push_back(comp);
      }
    }
    for (size_t i = 0; i < comps.size(); ++i) {
      digest += StringPrintf("%zu:%llu:%lld:%lld\n", i,
                             static_cast<unsigned long long>(comps[i].user_data),
                             static_cast<long long>(comps[i].status),
                             static_cast<long long>(comps[i].result.rv[0]));
    }
    for (int f = 0; f < kFiles; ++f) {
      digest.append(bufs[f], sizeof(bufs[f]));
      for (const ia::Stat* s : {&st[f], &fst[f]}) {
        digest += StringPrintf(" %lld/%lld/%lld", static_cast<long long>(s->st_atime_sec),
                               static_cast<long long>(s->st_size),
                               static_cast<long long>(s->st_ino));
      }
      digest += '\n';
    }
  }
  for (int f = 0; f < kFiles; ++f) {
    ctx.Close(fds[f]);
  }
  return digest;
}

// A pass-through frame interested in one syscall number: those rows become
// agent-routed barriers in the drain, everything else still batches.
class PassthroughFrame final : public SyscallHandler {
 public:
  SyscallStatus HandleSyscall(ProcessContext& ctx, int frame, int number,
                              const SyscallArgs& args, SyscallResult* rv) override {
    return ctx.SyscallBelow(frame, number, args, rv);
  }
  void HandleSignal(ProcessContext& ctx, int frame, int signo) override {
    ctx.ForwardSignal(frame, signo);
  }
};

// The kernel-lane differential matrix: {mixed, reorderable} workload x
// {per-call, ring} issue x {no plan, inert plan}. Every cell runs the fast
// lanes; an empty FaultPlan is consulted on every call but injects nothing.
// Every cell must reproduce the per-call, no-plan digest byte for byte.
enum class DigestWorkload { kMixed, kReorderable };
void PrintTo(DigestWorkload workload, std::ostream* os) {
  *os << (workload == DigestWorkload::kMixed ? "Mixed" : "Reorderable");
}
using DigestCell = std::tuple<DigestWorkload, bool /*via_ring*/, bool /*inert_plan*/>;

std::string RunDigestCell(DigestWorkload workload, bool via_ring, bool inert_plan) {
  auto kernel = MakeWorld();
  if (inert_plan) {
    kernel->SetFaultPlan(FaultPlan{});
  }
  std::string digest;
  const int code = ExitCodeOf(*kernel, [&](ProcessContext& ctx) {
    digest = workload == DigestWorkload::kMixed
                 ? RunMixedWorkload(ctx, via_ring, /*iterations=*/12)
                 : RunReorderableBatchWorkload(ctx, via_ring, /*iterations=*/10);
    return 0;
  });
  EXPECT_EQ(code, 0);
  return digest;
}

class DigestMatrix : public ::testing::TestWithParam<DigestCell> {};

TEST_P(DigestMatrix, MatchesPerCallFastLanes) {
  const auto [workload, via_ring, inert_plan] = GetParam();
  const std::string reference = RunDigestCell(workload, /*via_ring=*/false,
                                              /*inert_plan=*/false);
  EXPECT_FALSE(reference.empty());
  EXPECT_NE(reference, "open-failed");
  EXPECT_EQ(RunDigestCell(workload, via_ring, inert_plan), reference);
}

std::string DigestCellName(const ::testing::TestParamInfo<DigestCell>& info) {
  const auto [workload, via_ring, inert_plan] = info.param;
  return ::testing::PrintToString(workload) + (via_ring ? "Ring" : "PerCall") +
         (inert_plan ? "FastLanesInertPlan" : "FastLanes");
}

INSTANTIATE_TEST_SUITE_P(
    RingDeterminism, DigestMatrix,
    ::testing::Combine(::testing::Values(DigestWorkload::kMixed, DigestWorkload::kReorderable),
                       ::testing::Bool(), ::testing::Bool()),
    DigestCellName);

TEST(RingDeterminism, StripeOverlapResultsIdenticalToExactOrder) {
  // The same shared-lock batch through the ring and call by call: batched
  // execution must be result-identical to submission order — completions
  // land at their original indices with the values exact-order issue gives,
  // and no stat sees its file's later read.
  std::string digests[2];
  for (int run = 0; run < 2; ++run) {
    auto kernel = MakeWorld();
    std::string digest;
    const int code = ExitCodeOf(*kernel, [&digest, run](ProcessContext& ctx) {
      digest = RunReorderableBatchWorkload(ctx, /*via_ring=*/run == 1, /*iterations=*/10);
      return 0;
    });
    EXPECT_EQ(code, 0);
    digests[run] = digest;
  }
  EXPECT_FALSE(digests[0].empty());
  EXPECT_NE(digests[0], "open-failed");
  EXPECT_EQ(digests[0], digests[1]);
}

TEST(RingDeterminism, StripeOverlapWithAgentFrameIdenticalToExactOrder) {
  // With a frame interposed on stat, every fourth row of the batch is an
  // agent-routed barrier: the drain must batch only the runs between
  // barriers and still match per-call issue byte for byte.
  std::string digests[2];
  for (int run = 0; run < 2; ++run) {
    auto kernel = MakeWorld();
    std::string digest;
    const int code = ExitCodeOf(*kernel, [&digest, run](ProcessContext& ctx) {
      EmulationFrame frame;
      frame.handler = std::make_shared<PassthroughFrame>();
      frame.syscall_interest.set(kSysStat);
      ctx.emulation().Push(std::move(frame));
      digest = RunReorderableBatchWorkload(ctx, /*via_ring=*/run == 1, /*iterations=*/6);
      ctx.emulation().Pop();
      return 0;
    });
    EXPECT_EQ(code, 0);
    digests[run] = digest;
  }
  EXPECT_FALSE(digests[0].empty());
  EXPECT_EQ(digests[0], digests[1]);
}

TEST(RingDeterminism, StripeOverlapUnderFaultPlanKeepsExactOrder) {
  // An installed FaultPlan is consulted per entry, in submission order,
  // before the entry's own handler: an injected entry completes with its
  // status, a clamped read runs with its clamped count. Result digests AND the recorded
  // fault decision stream must match per-call issue.
  std::string digests[2];
  std::string traces[2];
  for (int run = 0; run < 2; ++run) {
    auto kernel = MakeWorld();
    FaultPlan plan;
    plan.seed = 0x51ab;
    plan.eintr_probability = 0.15;
    plan.short_probability = 0.3;
    plan.class_rules.push_back({kTakesPath, 0.2, kENoent});
    plan.record_trace = true;
    kernel->SetFaultPlan(plan);
    std::string digest;
    const int code = ExitCodeOf(*kernel, [&digest, run](ProcessContext& ctx) {
      digest = RunReorderableBatchWorkload(ctx, /*via_ring=*/run == 1, /*iterations=*/8);
      return 0;
    });
    EXPECT_EQ(code, 0);
    digests[run] = digest;
    traces[run] = kernel->FaultTraceText();
  }
  EXPECT_FALSE(traces[0].empty());
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(traces[0], traces[1]);
}

// --- lane differentials --------------------------------------------------------

// Issues the same opens and reads in one of two forms, chosen by the inputs
// alone: open(O_RDONLY) and open(O_RDONLY|O_CREAT) of an existing file both
// walk under the shared tree lock (they differ only in Filesystem::Open's
// create check); read takes only the tree lock shared, while a one-segment
// readv takes the big lock first.
// Returns a digest line per call, with the bytes read and each fstat.
std::string RunOpenReadLaneWorkload(ProcessContext& ctx, bool big_lock_forms) {
  std::string digest;
  std::vector<char> buf(6000);
  auto read = [&](const char* what, int fd, void* dst, int64_t count) {
    IoVec iov{dst, count};
    const int64_t n = big_lock_forms ? ctx.Readv(fd, &iov, 1) : ctx.Read(fd, dst, count);
    digest += StringPrintf("%s:%lld\n", what, static_cast<long long>(n));
    digest.append(buf.data(), n > 0 ? static_cast<size_t>(n) : 0);
  };
  for (const char* path : {"/lanes/small", "/lanes/empty", "/lanes/big", "/lanes/link",
                           "/lanes/dir/../small"}) {
    const int fd = ctx.Open(path, big_lock_forms ? (kORdonly | kOCreat) : kORdonly);
    digest += StringPrintf("open %s:%d\n", path, fd);
    for (const int64_t count : {0, 1, 100, 4096, 6000}) {
      read("read", fd, buf.data(), count);
    }
    ctx.Lseek(fd, 10, kSeekSet);
    read("read@10", fd, buf.data(), 50);
    ctx.Lseek(fd, 100000, kSeekSet);
    read("read@eof", fd, buf.data(), 50);
    read("read-null", fd, nullptr, 8);
    read("read-negative", fd, buf.data(), -1);
    ia::Stat st{};
    digest += StringPrintf("fstat:%d %lld/%lld/%o close:%d\n", ctx.Fstat(fd, &st),
                           static_cast<long long>(st.st_size), static_cast<long long>(st.st_ino),
                           static_cast<unsigned>(st.st_mode), ctx.Close(fd));
    read("read-closed", fd, buf.data(), 8);
  }
  for (const int flags : {kORdonly, kOWronly}) {
    const int fd = ctx.Open(flags == kORdonly ? "/lanes/dir" : "/lanes/small", flags);
    read("read-dir-or-wronly", fd, buf.data(), 8);
    ctx.Close(fd);
  }
  return digest;
}

TEST(LaneDifferential, OpenAndReadImplementationsAgree) {
  std::string digests[2];
  for (const bool big_lock_forms : {false, true}) {
    auto kernel = MakeWorld();
    kernel->fs().MkdirAll("/lanes/dir");
    std::string small;
    while (small.size() < 300) {
      small += static_cast<char>('a' + small.size() % 26);
    }
    kernel->fs().InstallFile("/lanes/small", small);
    kernel->fs().InstallFile("/lanes/empty", "");
    kernel->fs().InstallFile("/lanes/big", std::string(5000, 'B') + "tail");
    std::string& digest = digests[big_lock_forms ? 1 : 0];
    EXPECT_EQ(ExitCodeOf(*kernel, [&digest, big_lock_forms](ProcessContext& ctx) {
                if (ctx.Symlink("/lanes/small", "/lanes/link") != 0) {
                  return 1;
                }
                digest = RunOpenReadLaneWorkload(ctx, big_lock_forms);
                return 0;
              }),
              0);
  }
  EXPECT_NE(digests[0].find("open /lanes/link:3"), std::string::npos) << digests[0];
  EXPECT_EQ(digests[0], digests[1]);
}

// --- which calls take the big lock -------------------------------------------

// Which calls take mu_, as a count of BigLock acquisitions: writes to a
// regular file in every form (plain, O_APPEND, writev, through a ring flush,
// inside a ringmix-shaped batch) run under the shared tree lock and never
// take the big lock, and neither do the batch's stat/access/fstat/lseek/read
// rows or the open-for-read and close around it. A pipe write still does.
TEST(Lanes, RegularFileWritesStayOffTheBigLock) {
  auto kernel = MakeWorld();
  kernel->fs().MkdirAll("/lanes");
  kernel->fs().InstallFile("/lanes/f", std::string(256, 'f'));
  Kernel* const k = kernel.get();
  EXPECT_EQ(ExitCodeOf(*kernel, [k](ProcessContext& ctx) {
              const int fd = ctx.Open("/lanes/f", kORdwr);
              const int afd = ctx.Open("/lanes/f", kOWronly | kOAppend);
              if (fd < 0 || afd < 0) {
                return 1;
              }
              char head[] = "head";
              char body[] = "body";
              IoVec iov[2] = {{head, 4}, {body, 4}};
              SyscallArgs writev_args;
              writev_args.SetInt(0, afd);
              writev_args.SetPtr(1, iov);
              writev_args.SetInt(2, 2);

              int64_t before = k->BigLockDispatches();
              if (ctx.Write(fd, "abcd", 4) != 4 || ctx.Write(afd, "efgh", 4) != 4 ||
                  ctx.Writev(afd, iov, 2) != 8) {
                return 2;
              }
              if (k->BigLockDispatches() != before) {
                return 3;
              }

              BatchClient batch(ctx, /*ring_entries=*/32);
              batch.PushWrite(fd, "ijkl", 4);
              batch.PushWrite(afd, "mnop", 4);
              batch.Push(kSysWritev, writev_args);
              before = k->BigLockDispatches();
              batch.Flush();
              for (const SyscallCompletion& c : batch.completions()) {
                if (c.status < 0) {
                  return 4;
                }
              }
              if (k->BigLockDispatches() != before) {
                return 5;
              }

              ia::Stat st;
              char buf[64];
              batch.PushStat("/lanes/f", &st);
              batch.PushAccess("/lanes/f", kROk);
              batch.PushFstat(fd, &st);
              batch.PushWrite(fd, "qrst", 4);
              batch.PushLseek(fd, 0, kSeekSet);
              batch.PushRead(fd, buf, sizeof buf);
              batch.PushWrite(afd, "uvwx", 4);
              batch.PushStat("/lanes/f", &st);
              // ringmix opens and closes a round's files around its batch.
              before = k->BigLockDispatches();
              const int rfd = ctx.Open("/lanes/f", kORdonly);
              batch.Flush();
              for (const SyscallCompletion& c : batch.completions()) {
                if (c.status < 0) {
                  return 6;
                }
              }
              if (rfd < 0 || ctx.Close(rfd) != 0 || k->BigLockDispatches() != before) {
                return 7;
              }

              int pipe_fds[2];
              if (ctx.Pipe(pipe_fds) != 0) {
                return 8;
              }
              before = k->BigLockDispatches();
              if (ctx.Write(pipe_fds[1], "p", 1) != 1) {
                return 9;
              }
              if (k->BigLockDispatches() != before + 1) {
                return 10;
              }
              return 0;
            }),
            0);
  const std::string data = FileContents(*kernel, "/lanes/f");
  EXPECT_EQ(data.size(), 256u + 4 + 8 + 4 + 8 + 4);
  EXPECT_EQ(data.substr(0, 12), "abcdijklqrst");
  EXPECT_EQ(data.substr(256), "efghheadbodymnopheadbodyuvwx");
}

// The handlers of process-local calls touch only the caller's own state, its
// host clock and single-word atomics, so they take no lock at all. This
// counts the big lock only: each adds nothing to the big-lock count,
// whatever its answer.
TEST(Lanes, ProcessLocalCallsTakeNoBigLock) {
  auto kernel = MakeWorld();
  Kernel* const k = kernel.get();
  std::string taken;
  EXPECT_EQ(ExitCodeOf(*kernel, [k, &taken](ProcessContext& ctx) {
              char login[32];
              Gid groups[16];
              TimeVal tv;
              Rusage ru;
              struct Call {
                int number;
                SyscallArgs args;
              };
              std::vector<Call> calls;
              for (const int number : {kSysGetpid, kSysGetppid, kSysGetpgrp, kSysGetuid,
                                       kSysGeteuid, kSysGetgid, kSysGetegid, kSysGetpagesize,
                                       kSysGetdtablesize}) {
                calls.push_back({number, SyscallArgs{}});
              }
              Call call{kSysGetlogin, SyscallArgs{}};
              call.args.SetPtr(0, login);
              call.args.SetInt(1, sizeof login);
              calls.push_back(call);
              call = Call{kSysSetlogin, SyscallArgs{}};
              call.args.SetPtr(0, "lanes");
              calls.push_back(call);
              call = Call{kSysUmask, SyscallArgs{}};
              call.args.SetInt(0, 022);
              calls.push_back(call);
              call = Call{kSysGetgroups, SyscallArgs{}};
              call.args.SetInt(0, 16);
              call.args.SetPtr(1, groups);
              calls.push_back(call);
              for (const int number : {kSysSigvec, kSysSigaction}) {
                call = Call{number, SyscallArgs{}};
                call.args.SetInt(0, kSigUsr1);
                call.args.SetInt(1, static_cast<int64_t>(kSigDfl));
                calls.push_back(call);
              }
              for (const int number : {kSysSigblock, kSysSigsetmask}) {
                calls.push_back({number, SyscallArgs{}});
              }
              call = Call{kSysGettimeofday, SyscallArgs{}};
              call.args.SetPtr(0, &tv);
              calls.push_back(call);
              call = Call{kSysGetrusage, SyscallArgs{}};
              call.args.SetInt(0, kRusageSelf);
              call.args.SetPtr(1, &ru);
              calls.push_back(call);
              if (calls.size() != 19) {
                return 1;
              }
              for (const Call& c : calls) {
                const int64_t before = k->BigLockDispatches();
                SyscallResult rv;
                ctx.Syscall(c.number, c.args, &rv);
                if (k->BigLockDispatches() != before) {
                  taken += std::string(SyscallSpecOf(c.number).name) + " ";
                }
              }
              return 0;
            }),
            0);
  EXPECT_EQ(taken, "");
}

// RwLock keeping (rwlock.h): while a thread keeps the lock, its first
// shared hold is kept after its release, and the holds taken inside it only
// count. A writer that arrives meanwhile waits for the kept hold alone, and
// a nested shared acquire while that writer waits does not deadlock.
TEST(TreeLockKeeping, WriterWaitsForTheKeptHoldOnly) {
  RwLock lock;
  lock.Keep();
  lock.lock_shared();
  lock.unlock_shared();  // kept, not released
  std::atomic<bool> wrote{false};
  std::thread writer([&lock, &wrote] {
    lock.lock();
    wrote.store(true);
    lock.unlock();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(wrote.load());
  lock.lock_shared();  // takes the kept hold back, past the waiting writer
  lock.lock_shared();  // and nests inside it
  lock.unlock_shared();
  lock.unlock_shared();
  EXPECT_FALSE(wrote.load());
  lock.StopKeeping();
  writer.join();
  EXPECT_TRUE(wrote.load());
  lock.lock_shared();  // keeping ended: a plain hold again
  lock.unlock_shared();
  lock.lock();
  lock.unlock();
}

// A batch keeps the shared tree hold its entries take, and an entry whose
// handler takes mu_ and the exclusive tree lock (mkdir, rmdir) gives the
// kept hold up first; otherwise it would wait on its own thread's hold.
// Another root mutates the tree in a loop meanwhile, so kept holds also
// meet waiting writers.
TEST(TreeLockKeeping, BatchesMixKeptHoldsAndBigLockEntries) {
  auto kernel = MakeWorld();
  ASSERT_EQ(ExitCodeOf(*kernel,
                       [](ProcessContext& ctx) {
                         return ctx.Mkdir("/keep") == 0 &&
                                        ctx.WriteWholeFile("/keep/f", "kept") == 0
                                    ? 0
                                    : 1;
                       }),
            0);
  constexpr int kRounds = IA_TEST_UNDER_TSAN ? 50 : 300;
  std::atomic<bool> running{true};
  SpawnOptions mutator;
  mutator.body = [&running](ProcessContext& ctx) {
    while (running.load(std::memory_order_acquire)) {
      if (ctx.Mkdir("/keep/m") != 0 || ctx.Rmdir("/keep/m") != 0) {
        return 1;
      }
    }
    return 0;
  };
  const Pid other = kernel->Spawn(mutator);
  ASSERT_GT(other, 0);
  const int code = ExitCodeOf(*kernel, [](ProcessContext& ctx) {
    const int fd = ctx.Open("/keep/f", kORdonly);
    if (fd < 0) {
      return 1;
    }
    ctx.Ring(16);
    ia::Stat st{};
    char buf[8];
    for (int r = 0; r < kRounds; ++r) {
      const std::string dir = StringPrintf("/keep/d%d", r);
      SyscallRequest reqs[7];
      reqs[0].number = kSysStat;
      reqs[0].args.SetPtr(0, "/keep/f");
      reqs[0].args.SetPtr(1, &st);
      reqs[1].number = kSysMkdir;
      reqs[1].args.SetPtr(0, dir.c_str());
      reqs[1].args.SetInt(1, 0755);
      reqs[2].number = kSysStat;
      reqs[2].args.SetPtr(0, dir.c_str());
      reqs[2].args.SetPtr(1, &st);
      reqs[3].number = kSysLseek;
      reqs[3].args.SetInt(0, fd);
      reqs[3].args.SetInt(1, 0);
      reqs[3].args.SetInt(2, kSeekSet);
      reqs[4].number = kSysRead;
      reqs[4].args.SetInt(0, fd);
      reqs[4].args.SetPtr(1, buf);
      reqs[4].args.SetInt(2, 4);
      reqs[5].number = kSysRmdir;
      reqs[5].args.SetPtr(0, dir.c_str());
      reqs[6].number = kSysFstat;
      reqs[6].args.SetInt(0, fd);
      reqs[6].args.SetPtr(1, &st);
      for (uint64_t i = 0; i < 7; ++i) {
        reqs[i].user_data = i;
      }
      if (ctx.SubmitBatch(reqs, 7) != 7 || ctx.DrainRing() != 7) {
        return 2;
      }
      SyscallCompletion comps[7];
      if (ctx.ReapBatch(comps, 7) != 7) {
        return 3;
      }
      for (int i = 0; i < 7; ++i) {
        if (comps[i].status < 0) {
          return 10 + i;
        }
      }
      if (comps[4].status != 4 || std::memcmp(buf, "kept", 4) != 0 || st.st_size != 4) {
        return 4;
      }
    }
    return 0;
  });
  running.store(false, std::memory_order_release);
  EXPECT_EQ(code, 0);
  const int status = kernel->HostWaitPid(other);
  EXPECT_TRUE(WifExited(status) && WExitStatus(status) == 0);
}

// Every socket call takes the big lock, once: sockets are rendezvous and
// peer state shared between processes. The transfers (send, recv and their
// address forms) hand the held lock to the socket's backing, which takes
// nothing more.
TEST(Lanes, SocketCallsTakeTheBigLock) {
  auto kernel = MakeWorld();
  Kernel* const k = kernel.get();
  std::string counts;
  EXPECT_EQ(ExitCodeOf(*kernel, [k, &counts](ProcessContext& ctx) {
              int64_t before = k->BigLockDispatches();
              // Appends "name=delta " for the call just made.
              const auto note = [&](const char* name) {
                const int64_t now = k->BigLockDispatches();
                counts += StringPrintf("%s=%lld ", name, static_cast<long long>(now - before));
                before = now;
              };
              int sv[2];
              char buf[8];
              SockAddr addr;
              int addrlen = sizeof addr;
              const bool pair_ok = ctx.Socketpair(kAfUnix, kSockStream, 0, sv) == 0;
              note("socketpair");
              if (!pair_ok) {
                return 1;
              }
              ctx.Send(sv[0], "ab", 2);
              note("send");
              ctx.Recv(sv[1], buf, 2);
              note("recv");
              ctx.Sendto(sv[1], "cd", 2, 0, nullptr, 0);
              note("sendto");
              ctx.Recvfrom(sv[0], buf, 2, 0, &addr, &addrlen);
              note("recvfrom");
              ctx.Getpeername(sv[0], &addr, &addrlen);
              note("getpeername");
              ctx.Shutdown(sv[0], kShutRdWr);
              note("shutdown");
              const int server = ctx.Socket(kAfUnix, kSockStream, 0);
              note("socket");
              ctx.BindUnix(server, "/tmp/lanes.sock");
              note("bind");
              ctx.Listen(server, 4);
              note("listen");
              ctx.Getsockname(server, &addr, &addrlen);
              note("getsockname");
              const int client = ctx.Socket(kAfUnix, kSockStream, 0);
              before = k->BigLockDispatches();
              ctx.ConnectUnix(client, "/tmp/lanes.sock");
              note("connect");
              const int accepted = ctx.Accept(server);
              note("accept");
              return server >= 0 && client >= 0 && accepted >= 0 ? 0 : 2;
            }),
            0);
  EXPECT_EQ(counts,
            "socketpair=1 send=1 recv=1 sendto=1 recvfrom=1 getpeername=1 shutdown=1 socket=1 "
            "bind=1 listen=1 getsockname=1 connect=1 accept=1 ");
}

// getdirentries only reads a directory: it runs under the shared tree lock,
// its offset under the directory's data_mu, and never takes the big lock.
TEST(Lanes, GetdirentriesStaysOffTheBigLock) {
  auto kernel = MakeWorld();
  kernel->fs().MkdirAll("/lanes/dir");
  for (int i = 0; i < 5; ++i) {
    kernel->fs().InstallFile(StringPrintf("/lanes/dir/f%d", i), "x");
  }
  Kernel* const k = kernel.get();
  EXPECT_EQ(ExitCodeOf(*kernel, [k](ProcessContext& ctx) {
              const int dfd = ctx.Open("/lanes/dir", kORdonly);
              if (dfd < 0) {
                return 1;
              }
              char buf[4096];
              int64_t base = -1;
              const int64_t before = k->BigLockDispatches();
              const int n = ctx.Getdirentries(dfd, buf, sizeof buf, &base);
              const int rest = ctx.Getdirentries(dfd, buf, sizeof buf, &base);
              if (n <= 0 || rest != 0 || base != 7) {  // ".", "..", five files
                return 2;
              }
              if (ctx.Getdirentries(99, buf, sizeof buf, &base) != -kEBadf) {
                return 3;
              }
              if (k->BigLockDispatches() != before) {
                return 4;
              }
              return 0;
            }),
            0);
}

// Creating and truncating opens of regular files, creat(2) among them, run
// under the tree lock held shared: the new name linked under the parent
// directory's data_mu, a truncation under the file's. None of them takes the
// big lock. An O_CREAT open that finds a fifo still does, once: pipe ends
// are big-lock state.
TEST(Lanes, CreatingOpensStayOffTheBigLock) {
  auto kernel = MakeWorld();
  kernel->fs().MkdirAll("/lanes");
  kernel->fs().InstallFile("/lanes/old", "0123456789");
  Cred root;
  ASSERT_EQ(kernel->fs().MknodFifo(NameiEnv{kernel->fs().root(), kernel->fs().root(), &root},
                                   "/lanes/fifo", 0644),
            0);
  const int64_t bytes_before = kernel->fs().total_bytes();
  Kernel* const k = kernel.get();
  EXPECT_EQ(ExitCodeOf(*kernel, [k](ProcessContext& ctx) {
              struct Case {
                const char* path;
                int flags;
                bool ok;  // a descriptor, else EEXIST
              };
              const Case cases[] = {
                  {"/lanes/new", kOWronly | kOCreat, true},            // creates
                  {"/lanes/new", kOWronly | kOCreat, true},            // exists
                  {"/lanes/old", kOWronly | kOTrunc, true},            // truncates
                  {"/lanes/excl", kOWronly | kOCreat | kOExcl, true},  // creates
                  {"/lanes/excl", kOWronly | kOCreat | kOExcl, false},
                  {"/lanes/log", kOWronly | kOCreat | kOAppend, true},  // DfsTraceAgent::init
              };
              for (const Case& c : cases) {
                const int64_t before = k->BigLockDispatches();
                const int fd = ctx.Open(c.path, c.flags, 0600);
                if (c.ok ? fd < 0 : fd != -kEExist) {
                  return 1;
                }
                if (k->BigLockDispatches() != before) {
                  return 2;
                }
                if (fd >= 0 && (ctx.Write(fd, "ab", 2) != 2 || ctx.Close(fd) != 0)) {
                  return 3;
                }
              }
              Stat st;
              if (ctx.Stat("/lanes/new", &st) != 0 || st.st_nlink != 1 ||
                  (st.st_mode & 07777) != (0600 & ~ctx.Umask(022))) {
                return 4;
              }
              SyscallArgs creat_args;
              creat_args.SetPtr(0, "/lanes/creat");
              creat_args.SetInt(1, 0644);
              SyscallResult creat_rv;
              int64_t before = k->BigLockDispatches();
              const int cfd = ctx.Syscall(kSysCreat, creat_args, &creat_rv);
              if (cfd < 0 || k->BigLockDispatches() != before) {
                return 6;
              }
              if (ctx.Write(cfd, "ab", 2) != 2 || ctx.Close(cfd) != 0) {
                return 7;
              }
              before = k->BigLockDispatches();
              const int fifo = ctx.Open("/lanes/fifo", kOWronly | kOCreat);
              if (fifo < 0 || k->BigLockDispatches() != before + 1) {
                return 5;
              }
              return 0;
            }),
            0);
  EXPECT_EQ(FileContents(*kernel, "/lanes/new"), "ab");  // the second open did not truncate
  EXPECT_EQ(FileContents(*kernel, "/lanes/old"), "ab");
  EXPECT_EQ(FileContents(*kernel, "/lanes/log"), "ab");
  EXPECT_EQ(FileContents(*kernel, "/lanes/creat"), "ab");
  EXPECT_EQ(kernel->fs().total_bytes(), bytes_before - 10 + 2 * 5);
}

// The counted twin of the andrew workload: one /usr/bin/andrew client under
// a DfsTraceAgent, as e2ebench runs four, on a small tree. Its walks, reads,
// stats, listings, copies (O_CREAT|O_TRUNC opens and writes) and the
// agent's log appends all stay off the big lock; what is left is its
// mkdirs (the work directory and one per source subdirectory), the loader's
// execve and the exit.
TEST(Lanes, AndrewClientTakesTheBigLockOnlyForMkdirsExecveAndExit) {
  constexpr int kSubdirs = 3;
  auto kernel = MakeWorld();
  SetupAndrewTree(*kernel, "/usr/andrew", /*files=*/4, kSubdirs);
  SpawnOptions options;
  options.path = "/usr/bin/andrew";
  options.argv = {"andrew", "/usr/andrew", "/tmp/andrew"};
  const auto agent = std::make_shared<DfsTraceAgent>("/tmp/dfs.log");
  const int64_t before = kernel->BigLockDispatches();
  const int status = RunUnderAgents(*kernel, {agent}, options);
  ASSERT_TRUE(WifExited(status));
  ASSERT_EQ(WExitStatus(status), 0);
  EXPECT_NE(FileContents(*kernel, "/tmp/andrew/MAKELOG").find("files=12"), std::string::npos);
  EXPECT_GT(agent->count(DfsOpcode::kOpen), 24);
  EXPECT_EQ(kernel->BigLockDispatches() - before, (1 + kSubdirs) + 1 + 1);
}

// The counted twin of bench_scalability's single_client_parity gate: a
// 64-entry flush from one client runs through the dispatch core as one
// batch, paying one clock advance for all its entries. Every completion
// carries the same virtual time, the host clock before the flush plus the
// entries' summed cost; issued one call at a time, each would differ.
TEST(RingBatch, SixtyFourEntryFlushIsOneDispatchBatch) {
  auto kernel = MakeWorld();
  kernel->fs().InstallFile("/tmp/batch.dat", std::string(256, 'b'));
  Kernel* const k = kernel.get();
  EXPECT_EQ(ExitCodeOf(*kernel, [k](ProcessContext& ctx) {
              const int fd = ctx.Open("/tmp/batch.dat", kORdonly);
              if (fd < 0) {
                return 1;
              }
              BatchClient batch(ctx, /*ring_entries=*/64);
              ia::Stat st{};
              char buf[16];
              int64_t cost = 0;
              for (int i = 0; i < 16; ++i) {
                batch.PushStat("/tmp/batch.dat", &st);
                batch.PushLseek(fd, i, kSeekSet);
                batch.PushRead(fd, buf, sizeof buf);
                batch.PushGetpid();
                cost += k->SyscallCost(kSysStat) + k->SyscallCost(kSysLseek) +
                        k->SyscallCost(kSysRead) + k->SyscallCost(kSysGetpid);
              }
              TimeVal tv{};
              if (ctx.Gettimeofday(&tv, nullptr) != 0) {
                return 2;
              }
              const int64_t before = tv.tv_sec * 1000000 + tv.tv_usec;
              if (batch.Flush() != 64) {
                return 3;
              }
              for (const SyscallCompletion& c : batch.completions()) {
                if (c.status < 0 || c.vtime_usec != before + cost) {
                  return 4;
                }
              }
              return 0;
            }),
            0);
}

// --- concurrent determinism off the big lock ----------------------------------

// One client of the concurrent-determinism test: per iteration it opens three
// of the shared files without closing (the fd_table_limit regime denies the
// third), runs a batch of stat/fstat/lseek/read rows (shared tree lock), then
// one synchronous read and stat, and closes what it opened.
int FaultMixClient(ProcessContext& ctx) {
  const char* const paths[] = {"/mix/f0", "/mix/f1", "/mix/f2", "/mix/f3"};
  BatchClient batch(ctx, /*ring_entries=*/32);
  ia::Stat st[3];
  char bufs[3][96];
  for (int it = 0; it < (IA_TEST_UNDER_TSAN ? 10 : 40); ++it) {
    int fds[3];
    for (int k = 0; k < 3; ++k) {
      fds[k] = ctx.Open(paths[(it + k) % 4], kORdonly);
      batch.PushStat(paths[(it + k) % 4], &st[k]);
      batch.PushFstat(fds[k], &st[k]);
      batch.PushLseek(fds[k], (it * 5 + k) % 200, kSeekSet);
      batch.PushRead(fds[k], bufs[k], sizeof(bufs[k]));
    }
    batch.Flush();
    ctx.Read(fds[0], bufs[0], sizeof(bufs[0]));
    ctx.Stat(paths[it % 4], &st[0]);
    for (const int fd : fds) {
      ctx.Close(fd);
    }
  }
  return 0;
}

// Runs four FaultMixClients under one recorded plan (errno, EINTR, short and
// fd_table_limit regimes) and one ktrace sink, concurrently or one after
// another. Returns each pid's fault-trace lines and ktrace records, keyed by
// pid. A record's vtime_usec is taken from its pid's first record: each
// root runs on its own host clock, and a root spawned after another has
// exited starts where that one ended.
std::pair<std::map<Pid, std::string>, std::map<Pid, std::string>> RunFaultMixClients(
    bool concurrent) {
  auto kernel = MakeWorld();
  kernel->fs().MkdirAll("/mix");
  for (size_t f = 0; f < 4; ++f) {
    std::string payload;
    while (payload.size() < 200 + 40 * f) {
      payload += static_cast<char>('A' + (payload.size() + 7 * f) % 26);
    }
    kernel->fs().InstallFile(StringPrintf("/mix/f%zu", f), payload);
  }
  FaultPlan plan;
  plan.seed = 0xc0c0;
  plan.class_rules.push_back({kTakesPath, 0.1, kENoent});
  plan.eintr_probability = 0.15;
  plan.short_probability = 0.3;
  plan.fd_table_limit = 5;  // stdio holds 3: the third open of an iteration fails
  plan.record_trace = true;
  kernel->SetFaultPlan(plan);
  VectorKtraceSink sink;
  kernel->SetKtrace(&sink);
  std::vector<Pid> pids;
  for (int c = 0; c < 4; ++c) {
    SpawnOptions options;
    options.body = FaultMixClient;
    pids.push_back(kernel->Spawn(options));
    if (!concurrent) {
      EXPECT_EQ(kernel->HostWaitPid(pids.back()), 0);
    }
  }
  for (size_t c = 0; concurrent && c < pids.size(); ++c) {
    EXPECT_EQ(kernel->HostWaitPid(pids[c]), 0);
  }
  kernel->SetKtrace(nullptr);
  std::map<Pid, std::string> faults;
  for (const std::string& line : Split(kernel->FaultTraceText(), '\n')) {
    int pid = 0;
    if (std::sscanf(line.c_str(), "pid %d ", &pid) == 1) {
      faults[pid] += line + "\n";
    }
  }
  std::map<Pid, std::string> records;
  std::map<Pid, int64_t> first_vtime;
  for (const KtraceRecord& r : sink.records()) {
    const int64_t start = first_vtime.emplace(r.pid, r.vtime_usec).first->second;
    records[r.pid] += StringPrintf("%d:%d:%lld:%d:%s:%lld\n", static_cast<int>(r.kind),
                                   r.syscall, static_cast<long long>(r.result), r.fd,
                                   r.path.c_str(), static_cast<long long>(r.vtime_usec - start));
  }
  return {faults, records};
}

TEST(FastLaneDeterminism, ConcurrentFaultAndKtraceStreamsMatchSequentialRuns) {
  // Each pid's fault decisions and trace records depend on its own call
  // sequence only, not on whether its neighbours run at the same time.
  const auto [faults, records] = RunFaultMixClients(/*concurrent=*/true);
  const auto [sequential_faults, sequential_records] = RunFaultMixClients(false);
  ASSERT_EQ(sequential_faults.size(), 4u);
  ASSERT_EQ(sequential_records.size(), 4u);
  for (const auto& [pid, lines] : sequential_faults) {
    for (const char* regime : {"errno", "eintr", "short", "EMFILE"}) {
      EXPECT_NE(lines.find(regime), std::string::npos) << "pid " << pid << " never hit " << regime;
    }
  }
  EXPECT_EQ(faults, sequential_faults);
  EXPECT_EQ(records, sequential_records);
}

// --- sharded statistics ------------------------------------------------------

TEST(KernelStats, ShardedCountersFoldExactlyAfterQuiesce) {
  // K concurrent processes each make a known number of calls; once every one
  // has been reaped the folded shards must recount them exactly — sharding
  // trades live-read atomicity, never quiesced accuracy.
  auto kernel = MakeWorld();
  const int64_t base_total = kernel->TotalSyscallCount();
  const std::array<SyscallStat, kMaxSyscall> base = kernel->SyscallStats();

  constexpr int kProcs = 4;
  constexpr int kCallsEach = IA_TEST_UNDER_TSAN ? 50 : 200;
  std::vector<Pid> pids;
  for (int p = 0; p < kProcs; ++p) {
    SpawnOptions options;
    options.body = [](ProcessContext& ctx) {
      for (int i = 0; i < kCallsEach; ++i) {
        ctx.Getpid();
      }
      return 0;
    };
    pids.push_back(kernel->Spawn(options));
    ASSERT_GT(pids.back(), 0);
  }
  for (const Pid pid : pids) {
    const int status = kernel->HostWaitPid(pid);
    ASSERT_TRUE(WifExited(status));
    EXPECT_EQ(WExitStatus(status), 0);
  }

  const std::array<SyscallStat, kMaxSyscall> after = kernel->SyscallStats();
  const int64_t getpid_delta =
      after[kSysGetpid].calls - base[kSysGetpid].calls;
  EXPECT_EQ(getpid_delta, static_cast<int64_t>(kProcs) * kCallsEach);
  EXPECT_EQ(after[kSysGetpid].errors, base[kSysGetpid].errors);
  // vtime accounting rode along shard-by-shard too, exactly: each root
  // advances its own host's clock, so no other process's advance lands
  // inside a call's span.
  EXPECT_EQ(after[kSysGetpid].vtime_usec - base[kSysGetpid].vtime_usec,
            getpid_delta * kernel->SyscallCost(kSysGetpid));
  // The folded per-number calls and the folded total agree: both tallies are
  // bumped together on every dispatch, just in per-thread shards.
  int64_t per_number_total = 0;
  for (int i = 0; i < kMaxSyscall; ++i) {
    per_number_total += after[static_cast<size_t>(i)].calls - base[static_cast<size_t>(i)].calls;
  }
  EXPECT_EQ(kernel->TotalSyscallCount() - base_total, per_number_total);
}

TEST(KernelStats, BatchPathFoldsIntoTheSameShardedTallies) {
  // A batch must tally into the shards exactly what the same calls issued
  // one at a time would have tallied, virtual time included.
  auto kernel = MakeWorld();
  const std::array<SyscallStat, kMaxSyscall> base = kernel->SyscallStats();
  const int code = ExitCodeOf(*kernel, [](ProcessContext& ctx) {
    ctx.WriteWholeFile("/tmp/fold.dat", std::string(128, 'f'));
    BatchClient batch(ctx, /*ring_entries=*/32);
    ia::Stat st{};
    char buf[64];
    const int fd = ctx.Open("/tmp/fold.dat", kORdonly);
    if (fd < 0) {
      return 1;
    }
    for (int it = 0; it < 5; ++it) {
      for (int i = 0; i < 4; ++i) {
        batch.PushStat("/tmp/fold.dat", &st, 0);
        batch.PushLseek(fd, 0, kSeekSet, 0);
        batch.PushRead(fd, buf, static_cast<int64_t>(sizeof(buf)), 0);
        batch.PushGetpid(0);
      }
      if (batch.Flush() != 16) {
        return 2;
      }
    }
    ctx.Close(fd);
    return 0;
  });
  ASSERT_EQ(code, 0);
  const std::array<SyscallStat, kMaxSyscall> after = kernel->SyscallStats();
  EXPECT_EQ(after[kSysStat].calls - base[kSysStat].calls, 20);
  EXPECT_EQ(after[kSysLseek].calls - base[kSysLseek].calls, 20);
  EXPECT_EQ(after[kSysRead].calls - base[kSysRead].calls, 20);
  EXPECT_EQ(after[kSysGetpid].calls - base[kSysGetpid].calls, 20);
  EXPECT_EQ(after[kSysRead].vtime_usec - base[kSysRead].vtime_usec,
            20 * kernel->SyscallCost(kSysRead));
}

}  // namespace
}  // namespace ia
