// Fault sweep: the robustness companion to the Table 3-3 make benchmark.
//
// Part 1 drives every implemented system call with benign arguments under an
// aggressive kernel FaultPlan (25% errno injection per abstraction class, 25%
// EINTR on blocking calls, 25% short transfers) and checks the two properties
// the fault plane promises: the process always sees an errno or a partial
// result (never a crash, and the world stays usable afterwards), and the
// entire fault stream is byte-reproducible from the plan seed.
//
// Part 2 runs the paper's "make 8 programs" workload under composed
// chaos+retry agents (and a chaos+retry+union stack, each agent at its
// table-derived narrowed footprint) and under a kernel-plane plan with a retry
// agent, at escalating recoverable-fault rates, and checks transparency end to
// end: the resulting filesystem is byte-identical to the fault-free build.
//
// Part 3 reports the cost of the *disabled* hook (no plan installed — one null
// pointer test per batch) against an installed-but-empty plan, on the
// Table 3-5 null-call row.
//
// Part 4 is the containment gate (DESIGN.md §12): the make workload runs under
// a 7-agent stack whose kernel-nearest frame is a deliberately misbehaving
// FaultyAgent (throws, garbled completions, budget overruns, all decided by
// DecideAgentFault from a fixed seed). The gate demands that the breaker trips
// (quarantine events in ContainmentStats() and the kProcess ktrace slice) and
// that the build output is byte-for-byte identical to the same stack with the
// faulty frame absent — and that a second identical run reproduces the digest
// and the quarantine count exactly.
//
// Usage: bench_fault_sweep [--chaos=<seed>,<rate>] [--agent-chaos=<seed>,<rate>]
//                          [--containment-only]
//   --chaos: plan seed for parts 1-2 (default 0x1993) and the steepest
//            recoverable-fault rate for part 2 (default 0.25)
//   --agent-chaos: seed and throw-rate for part 4's FaultyAgent (default
//            0x1993, 0.5; garble and overrun rates derive from the throw rate)
//   --containment-only: run only part 4 (the sanitizer legs use this)
//
// Exits nonzero on any correctness failure; timing is reported, not gated.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/agents/chaos.h"
#include "src/agents/dfs_trace.h"
#include "src/agents/faulty.h"
#include "src/agents/filter_fs.h"
#include "src/agents/retry.h"
#include "src/agents/sandbox.h"
#include "src/agents/txn.h"
#include "src/agents/union_fs.h"
#include "src/apps/apps.h"
#include "src/kernel/ktrace.h"
#include "src/kernel/syscall_table.h"

namespace ia {
namespace {

// FNV-1a over every path, type, mode, and byte of content in the filesystem.
// Entry maps are ordered, so the walk (and the digest) is deterministic.
uint64_t DigestInode(const InodeRef& dir, const std::string& prefix, uint64_t h) {
  auto mix = [&h](const std::string& s) {
    for (const char c : s) {
      h = (h ^ static_cast<uint8_t>(c)) * 0x100000001b3ull;
    }
  };
  for (const auto& [name, child] : dir->entries) {
    const std::string full = prefix + "/" + name;
    if (full.rfind("/tmp", 0) == 0) {
      continue;  // scratch space is not part of the build output
    }
    mix(full);
    mix(std::to_string(static_cast<int>(child->type())));
    mix(std::to_string(child->mode_bits));
    if (child->IsRegular()) {
      mix(child->data);
    }
    if (child->IsSymlink()) {
      mix(child->symlink_target);
    }
    if (child->IsDirectory()) {
      h = DigestInode(child, full, h);
    }
  }
  return h;
}

uint64_t FsDigest(Kernel& kernel) {
  return DigestInode(kernel.fs().root(), "", 0xcbf29ce484222325ull);
}

// ---- Part 1: per-class errno sweep over the whole implemented interface ----

struct SweepScratch {
  alignas(16) char buf[4096];
  IoVec iov[1];
  SweepScratch() {
    std::memset(buf, 'b', sizeof(buf));
    buf[sizeof(buf) - 1] = '\0';
    iov[0] = {buf, 64};
  }
};

void SetBenignArg(SyscallArgs* args, int i, ArgKind kind, SweepScratch& scratch) {
  switch (kind) {
    case ArgKind::kFd: args->SetInt(i, 1); return;
    case ArgKind::kInt: args->SetInt(i, 1); return;
    case ArgKind::kLong: args->SetInt(i, 64); return;
    case ArgKind::kFlags: args->SetInt(i, kORdwr | kOCreat); return;
    case ArgKind::kMode: args->SetInt(i, 0644); return;
    case ArgKind::kOff: args->SetInt(i, 0); return;
    case ArgKind::kPid: args->SetInt(i, 0); return;
    // Signal 0 is rejected with EINVAL everywhere: the sweep must not deliver
    // real signals to itself mid-loop.
    case ArgKind::kSig: args->SetInt(i, 0); return;
    case ArgKind::kPath: args->SetPtr(i, "/tmp/sweep_target"); return;
    case ArgKind::kStr: args->SetPtr(i, "sweep_str"); return;
    case ArgKind::kBufIn:
    case ArgKind::kBufOut:
    case ArgKind::kCharBuf:
    case ArgKind::kVoidPtr:
    case ArgKind::kStatPtr:
    case ArgKind::kRusagePtr:
    case ArgKind::kIntPtr:
    case ArgKind::kLongPtr:
    case ArgKind::kTvPtr:
    case ArgKind::kCTvPtr:
    case ArgKind::kTzPtr:
    case ArgKind::kCTzPtr:
    case ArgKind::kGidPtr:
    case ArgKind::kCGidPtr:
      args->SetPtr(i, scratch.buf);
      return;
    case ArgKind::kIoVecPtr: args->SetPtr(i, scratch.iov); return;
    default: args->SetInt(i, 0); return;
  }
}

bool SkipInSweep(int number) {
  switch (number) {
    case kSysExit:
    case kSysFork:
    case kSysVfork:
    case kSysSigpause:  // would block awaiting a signal
    // Pipes are the one way this single-process sweep can mint a descriptor
    // that blocks: when the plan then injects EBADF into the cleanup close(),
    // a write end leaks and the next round's read() waits forever. Console
    // and regular-file descriptors never block, so everything else is safe.
    case kSysPipe:
      return true;
    default:
      return false;
  }
}

int SweepBody(ProcessContext& ctx) {
  SweepScratch scratch;
  for (int round = 0; round < 40; ++round) {
    for (int number = 1; number < kMaxSyscall; ++number) {
      if (SkipInSweep(number) || (SyscallSpecOf(number).flags & kImplemented) == 0) {
        continue;
      }
      const SyscallSpec& spec = SyscallSpecOf(number);
      SyscallArgs args;
      for (int i = 0; i < spec.nargs; ++i) {
        SetBenignArg(&args, i, spec.args[static_cast<size_t>(i)], scratch);
      }
      SyscallResult rv;
      (void)ctx.Syscall(number, args, &rv);
    }
    // Drop every descriptor the round may have opened (pipe ends included).
    // Without this, a pipe read end can migrate into the fd the next round
    // reads from while its write end stays open elsewhere — and a blocking
    // read on an empty pipe with live writers waits forever.
    for (int fd = 3; fd < kMaxFilesPerProcess; ++fd) {
      ctx.Close(fd);
    }
  }
  return 0;
}

FaultPlan SweepPlan(uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.class_rules = {{kTakesPath, 0.25, kENoent},
                      {kTakesFd, 0.25, kEBadf},
                      {kProcess, 0.25, kEAgain},
                      {kSignalRelated, 0.25, kEInval}};
  plan.eintr_probability = 0.25;
  plan.short_probability = 0.25;
  plan.record_trace = true;
  return plan;
}

struct SweepOutcome {
  bool exited_clean = false;
  bool world_usable = false;
  int64_t total_injected = 0;
  std::string trace;
};

SweepOutcome RunKernelSweep(uint64_t seed) {
  SweepOutcome out;
  Kernel kernel{KernelConfig{}};
  kernel.SetFaultPlan(SweepPlan(seed));
  SpawnOptions spawn;
  spawn.body = SweepBody;
  const int status = kernel.HostWaitPid(kernel.Spawn(spawn));
  out.exited_clean = WifExited(status) && WExitStatus(status) == 0;
  for (const FaultStat& stat : kernel.FaultStats()) {
    out.total_injected += stat.Total();
  }
  out.trace = kernel.FaultTraceText();
  // The world must still work after the storm (clearing the plan drops the
  // injector and its counters, so the snapshot above comes first).
  kernel.ClearFaultPlan();
  SpawnOptions probe;
  probe.body = [](ProcessContext& ctx) {
    const int fd = ctx.Open("/tmp/post_sweep", kOWronly | kOCreat, 0644);
    if (fd < 0) {
      return 1;
    }
    return ctx.Write(fd, "ok", 2) == 2 && ctx.Close(fd) == 0 ? 0 : 1;
  };
  const int probe_status = kernel.HostWaitPid(kernel.Spawn(probe));
  out.world_usable = WifExited(probe_status) && WExitStatus(probe_status) == 0;
  return out;
}

// ---- Part 2: make workload transparency under escalating fault rates -------

FaultPlan RecoverablePlan(uint64_t seed, double rate) {
  // Only faults the retry agent can mask: EINTR on blocking calls, short
  // transfers, and transient EAGAIN on read/write. No exhaustion regimes —
  // a build genuinely out of descriptors or disk is *supposed* to fail.
  FaultPlan plan;
  plan.seed = seed;
  plan.eintr_probability = rate;
  plan.short_probability = rate;
  plan.number_rules = {{kSysRead, rate / 2, kEAgain}, {kSysWrite, rate / 2, kEAgain}};
  return plan;
}

// Which layer injects the faults, and what sits above it.
enum class MakePlane {
  kKernelRetry,      // kernel FaultPlan + retry agent
  kChaosRetry,       // chaos agent (nearest kernel) + retry agent
  kChaosRetryUnion,  // chaos + retry + a union agent on top, every agent at its
                     // table-derived narrowed footprint (the pay-per-use stack)
};

int RunMake(uint64_t seed, double rate, MakePlane plane, uint64_t* digest,
            int64_t* injected) {
  KernelConfig config;
  config.compute_spin_scale = 0.15;
  Kernel kernel(config);
  InstallStandardPrograms(kernel);
  SetupMakeWorkload(kernel, /*programs=*/8);

  SpawnOptions spawn;
  spawn.path = "/bin/make";
  spawn.argv = {"make"};
  spawn.cwd = "/home/mbj/progs";

  std::shared_ptr<ChaosAgent> chaos;
  std::vector<AgentRef> agents;
  if (rate > 0) {
    if (plane == MakePlane::kKernelRetry) {
      kernel.SetFaultPlan(RecoverablePlan(seed, rate));
      agents = {std::make_shared<RetryAgent>()};
    } else {
      chaos = std::make_shared<ChaosAgent>(RecoverablePlan(seed, rate));
      agents = {chaos, std::make_shared<RetryAgent>()};  // chaos nearest the kernel
      if (plane == MakePlane::kChaosRetryUnion) {
        // Union members live under /tmp so the extra mount scaffolding stays
        // outside the digested build output.
        kernel.fs().MkdirAll("/tmp/w");
        kernel.fs().MkdirAll("/tmp/r");
        agents.push_back(std::make_shared<UnionAgent>(
            std::vector<UnionMount>{{"/tmp/u", {"/tmp/w", "/tmp/r"}}}));
      }
    }
  }
  const int status = agents.empty() ? kernel.HostWaitPid(kernel.Spawn(spawn))
                                    : RunUnderAgents(kernel, agents, spawn);
  *digest = FsDigest(kernel);
  *injected = 0;
  const auto stats = plane == MakePlane::kKernelRetry ? kernel.FaultStats()
                     : chaos != nullptr ? chaos->FaultStats()
                                        : std::array<FaultStat, kMaxSyscall>{};
  for (const FaultStat& stat : stats) {
    *injected += stat.Total();
  }
  return status;
}

// ---- Part 4: containment gate — faulty frame quarantined mid-make ----------

// The agent-plane misbehavior regime: `rate` is the throw probability; garble
// and overrun fire at rate/2 and rate/8 so every failure kind is exercised
// without the overrun spin dominating wall-clock.
FaultPlan AgentChaosPlan(uint64_t seed, double rate) {
  FaultPlan plan;
  plan.seed = seed;
  plan.agent_throw_probability = rate;
  plan.agent_garble_probability = rate / 2;
  plan.agent_overrun_probability = rate / 8;
  return plan;
}

struct FaultyStackOutcome {
  bool exited_clean = false;
  uint64_t digest = 0;
  int64_t misbehaved = 0;        // throws + garbles + overruns actually performed
  int64_t quarantines = 0;       // Kernel::ContainmentStats().quarantines
  int64_t ktrace_quarantines = 0;  // kAgentQuarantined records on the kProcess slice
};

// The make workload under the pay-per-use 7-agent stack shape, with a
// FaultyAgent interposed nearest the kernel when `include_faulty` is set. All
// scaffolding lives under /tmp, which FsDigest skips, so the two stacks are
// digest-comparable. No compute spin: the TSan containment leg runs this too.
FaultyStackOutcome RunMakeUnderFaultyStack(uint64_t seed, double rate, bool include_faulty) {
  FaultyStackOutcome out;
  Kernel kernel{KernelConfig{}};
  InstallStandardPrograms(kernel);
  SetupMakeWorkload(kernel, /*programs=*/8);
  kernel.fs().MkdirAll("/tmp/w");
  kernel.fs().MkdirAll("/tmp/r");
  RingKtraceSink process_slice(4096);
  kernel.SetKtraceSlot(1, &process_slice, kProcess);

  auto faulty = std::make_shared<FaultyAgent>(AgentChaosPlan(seed, rate));
  std::vector<AgentRef> agents;
  if (include_faulty) {
    agents.push_back(faulty);  // nearest the kernel: every frame above survives it
  }
  agents.push_back(std::make_shared<RetryAgent>());
  agents.push_back(std::make_shared<UnionAgent>(
      std::vector<UnionMount>{{"/tmp/u", {"/tmp/w", "/tmp/r"}}}));
  SandboxPolicy sandbox_policy;  // default write_prefixes is empty = read-only
  sandbox_policy.write_prefixes = {"/"};
  agents.push_back(std::make_shared<SandboxAgent>(sandbox_policy));
  agents.push_back(std::make_shared<TxnAgent>("/t", "/tmp/.txn"));
  agents.push_back(std::make_shared<CompressAgent>("/z"));
  agents.push_back(std::make_shared<DfsTraceAgent>("/tmp/dfs.log"));

  SpawnOptions spawn;
  spawn.path = "/bin/make";
  spawn.argv = {"make"};
  spawn.cwd = "/home/mbj/progs";
  const int status = RunUnderAgents(kernel, agents, spawn);
  out.exited_clean = WifExited(status) && WExitStatus(status) == 0;
  out.digest = FsDigest(kernel);
  out.misbehaved = faulty->Misbehaved();
  out.quarantines = kernel.ContainmentStats().quarantines;
  for (const KtraceRecord& record : process_slice.Snapshot()) {
    if (record.kind == KtraceEventKind::kAgentQuarantined) {
      ++out.ktrace_quarantines;
    }
  }
  kernel.SetKtraceSlot(1, nullptr, 0);
  return out;
}

// Runs part 4 and returns the number of gate failures.
int RunContainmentGate(uint64_t agent_seed, double agent_rate) {
  std::printf("\nPart 4: containment gate — faulty frame under the 7-agent make stack "
              "(seed %#" PRIx64 ", rate %.2f)\n",
              agent_seed, agent_rate);
  int failures = 0;
  const FaultyStackOutcome baseline =
      RunMakeUnderFaultyStack(agent_seed, agent_rate, /*include_faulty=*/false);
  if (!baseline.exited_clean) {
    std::printf("  FAIL: baseline stack (no faulty frame) did not build cleanly\n");
    return 1;
  }
  std::printf("  %-28s %12s %10s %11s\n", "stack", "fs digest", "misbehave", "quarantine");
  std::printf("  %-28s %12" PRIx64 " %10s %11s\n", "6 agents (no faulty frame)",
              baseline.digest, "-", "-");
  const FaultyStackOutcome faulty =
      RunMakeUnderFaultyStack(agent_seed, agent_rate, /*include_faulty=*/true);
  const bool contained = faulty.exited_clean && faulty.digest == baseline.digest &&
                         faulty.misbehaved > 0 && faulty.quarantines >= 1 &&
                         faulty.ktrace_quarantines >= 1;
  std::printf("  %-28s %12" PRIx64 " %10lld %11lld  %s\n", "7 agents (faulty nearest k)",
              faulty.digest, static_cast<long long>(faulty.misbehaved),
              static_cast<long long>(faulty.quarantines),
              contained ? "contained, output identical" : "FAIL");
  if (!contained) {
    if (!faulty.exited_clean) {
      std::printf("  FAIL: faulty-stack build did not exit cleanly\n");
    }
    if (faulty.digest != baseline.digest) {
      std::printf("  FAIL: faulty-stack output differs from the baseline\n");
    }
    if (faulty.misbehaved == 0) {
      std::printf("  FAIL: the faulty agent never misbehaved (rate too low?)\n");
    }
    if (faulty.quarantines < 1) {
      std::printf("  FAIL: the breaker never tripped (ContainmentStats)\n");
    }
    if (faulty.ktrace_quarantines < 1) {
      std::printf("  FAIL: no kAgentQuarantined record on the ktrace process slice\n");
    }
    ++failures;
  }
  const FaultyStackOutcome again =
      RunMakeUnderFaultyStack(agent_seed, agent_rate, /*include_faulty=*/true);
  if (again.digest == faulty.digest && again.quarantines == faulty.quarantines &&
      again.misbehaved == faulty.misbehaved) {
    std::printf("  same seed reproduces digest, misbehavior, and quarantine count\n");
  } else {
    std::printf("  FAIL: same seed diverged (digest %12" PRIx64 " vs %12" PRIx64
                ", quarantines %lld vs %lld)\n",
                again.digest, faulty.digest, static_cast<long long>(again.quarantines),
                static_cast<long long>(faulty.quarantines));
    ++failures;
  }
  return failures;
}

// ---- Part 3: disabled-hook null-call cost ----------------------------------

double NullCallMicros(Kernel& kernel) {
  std::vector<AgentRef> no_agents;
  return bench::MeasurePerCallMicros(kernel, no_agents, [](ProcessContext& ctx) {
    SyscallArgs args;
    SyscallResult rv;
    ctx.Syscall(kSysGetpid, args, &rv);
  });
}

}  // namespace
}  // namespace ia

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IONBF, 0);  // progress stays visible under CI redirection
  uint64_t seed = 0x1993;
  double max_rate = 0.25;
  uint64_t agent_seed = 0x1993;
  double agent_rate = 0.5;
  bool containment_only = false;
  for (int i = 1; i < argc; ++i) {
    unsigned long long parsed_seed = 0;
    double parsed_rate = 0;
    if (std::sscanf(argv[i], "--chaos=%llu,%lf", &parsed_seed, &parsed_rate) == 2) {
      seed = parsed_seed;
      max_rate = parsed_rate;
    } else if (std::sscanf(argv[i], "--agent-chaos=%llu,%lf", &parsed_seed, &parsed_rate) == 2) {
      agent_seed = parsed_seed;
      agent_rate = parsed_rate;
    } else if (std::strcmp(argv[i], "--containment-only") == 0) {
      containment_only = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--chaos=<seed>,<rate>] [--agent-chaos=<seed>,<rate>] "
                   "[--containment-only]\n",
                   argv[0]);
      return 2;
    }
  }

  if (containment_only) {
    const int failures = ia::RunContainmentGate(agent_seed, agent_rate);
    if (failures == 0) {
      std::printf("\ncontainment gate: all correctness checks passed\n");
      return 0;
    }
    std::printf("\ncontainment gate: %d FAILURE(S)\n", failures);
    return 1;
  }

  int failures = 0;

  std::printf("Part 1: 25%%-per-class fault sweep over the implemented interface (seed %#" PRIx64
              ")\n",
              seed);
  const ia::SweepOutcome a = ia::RunKernelSweep(seed);
  const ia::SweepOutcome b = ia::RunKernelSweep(seed);
  const ia::SweepOutcome c = ia::RunKernelSweep(seed + 1);
  std::printf("  run A: clean exit %s, world usable %s, %lld faults injected\n",
              a.exited_clean ? "yes" : "NO", a.world_usable ? "yes" : "NO",
              static_cast<long long>(a.total_injected));
  if (!a.exited_clean || !a.world_usable || a.total_injected == 0) {
    ++failures;
  }
  if (a.trace == b.trace && a.total_injected == b.total_injected) {
    std::printf("  same seed reproduces the fault stream byte-for-byte (%zu trace bytes)\n",
                a.trace.size());
  } else {
    std::printf("  FAIL: same seed gave a different fault stream\n");
    ++failures;
  }
  if (c.trace != a.trace) {
    std::printf("  different seed diverges (as expected)\n");
  } else {
    std::printf("  FAIL: seed %#" PRIx64 " and %#" PRIx64 " gave identical streams\n", seed,
                seed + 1);
    ++failures;
  }

  std::printf("\nPart 2: make 8 programs under recoverable faults + retry\n");
  uint64_t clean_digest = 0;
  int64_t injected = 0;
  const int clean_status =
      ia::RunMake(seed, 0.0, ia::MakePlane::kChaosRetry, &clean_digest, &injected);
  if (!ia::WifExited(clean_status) || ia::WExitStatus(clean_status) != 0) {
    std::printf("  FAIL: fault-free build did not exit cleanly\n");
    return failures + 1;
  }
  std::printf("  %-22s %-8s %10s %12s\n", "plane", "rate", "faults", "fs digest");
  std::printf("  %-22s %-8s %10s %12" PRIx64 "\n", "none", "0", "-", clean_digest);
  const double rates[] = {0.02, 0.10, max_rate};
  const ia::MakePlane planes[] = {ia::MakePlane::kKernelRetry, ia::MakePlane::kChaosRetry,
                                  ia::MakePlane::kChaosRetryUnion};
  const char* plane_names[] = {"kernel+retry", "chaos+retry", "chaos+retry+union"};
  for (size_t p = 0; p < 3; ++p) {
    for (const double rate : rates) {
      uint64_t digest = 0;
      const int status = ia::RunMake(seed, rate, planes[p], &digest, &injected);
      const bool ok = ia::WifExited(status) && ia::WExitStatus(status) == 0 &&
                      digest == clean_digest;
      std::printf("  %-22s %-8.2f %10lld %12" PRIx64 "  %s\n", plane_names[p], rate,
                  static_cast<long long>(injected), digest,
                  ok ? "identical" : "FAIL: output differs");
      if (!ok) {
        ++failures;
      }
    }
  }

  std::printf("\nPart 3: null-call cost of the dispatch hook (Table 3-5 row)\n");
  {
    ia::Kernel off{ia::KernelConfig{}};
    const double no_plan = ia::NullCallMicros(off);
    ia::Kernel on{ia::KernelConfig{}};
    on.SetFaultPlan(ia::FaultPlan{});  // installed but entirely inert
    const double empty_plan = ia::NullCallMicros(on);
    std::printf("  no plan installed:    %.3f us/call\n", no_plan);
    std::printf("  empty plan installed: %.3f us/call (+%.1f%%)\n", empty_plan,
                no_plan > 0 ? (empty_plan / no_plan - 1) * 100 : 0);
  }

  failures += ia::RunContainmentGate(agent_seed, agent_rate);

  if (failures == 0) {
    std::printf("\nfault sweep: all correctness checks passed\n");
  } else {
    std::printf("\nfault sweep: %d FAILURE(S)\n", failures);
  }
  return failures == 0 ? 0 : 1;
}
