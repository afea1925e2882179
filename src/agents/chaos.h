// The chaos agent: deterministic fault injection *above* the kernel.
//
// Speaks the same FaultPlan vocabulary as the kernel's injector (errno rules,
// EINTR on blocking rows, short transfers), so the two planes can be composed
// — e.g. a retry agent interposed above chaos must mask everything chaos
// injects — and compared: same plan, same seed, same per-process decision
// stream on either side of the system interface.
//
// The exhaustion regimes (EMFILE/ENFILE/ENOSPC) need kernel state and stay
// kernel-plane-only; process-control transfers (fork/exec/exit) are likewise
// left to the kernel plane, because swallowing them at the agent layer would
// break the host's fork/exec propagation bookkeeping.
#ifndef SRC_AGENTS_CHAOS_H_
#define SRC_AGENTS_CHAOS_H_

#include <array>
#include <atomic>
#include <map>
#include <mutex>
#include <string>

#include "src/kernel/faultplan.h"
#include "src/toolkit/toolkit.h"

namespace ia {

class ChaosAgent final : public SymbolicSyscall {
 public:
  explicit ChaosAgent(const FaultPlan& plan);

  std::string name() const override { return "chaos"; }

  // Snapshot of the per-syscall injected counters (same shape as
  // Kernel::FaultStats) and the recorded trace.
  std::array<FaultStat, kMaxSyscall> FaultStats() const;
  std::string FaultTraceText() const;
  int64_t TotalInjected() const;

  // Post-setup narrowing: permanently stops injecting and re-narrows the live
  // frame in `ctx` to nothing, so the fault window ends and every row returns
  // straight to its kernel handler (the fork/exec bookkeeping interceptions remain,
  // keeping propagation alive). Other processes served by this instance stop
  // injecting immediately and shed their frames on their own next Quiesce.
  // Returns false if not installed in ctx.
  bool Quiesce(ProcessContext& ctx);

 protected:
  SyscallStatus syscall(AgentCall& call) override;

  // The footprint is derived from the installed plan: only rows some rule can
  // actually fire on are intercepted (number rules, class rules by flag mask,
  // kBlocking for EINTR, the transfer rows for short transfers). A chaos agent
  // with an empty plan intercepts nothing and costs nothing. Note the per-pid
  // decision sequence then counts intercepted calls only — still fully
  // deterministic for a given plan, but a different stream than a
  // whole-interface chaos agent would see.
  Footprint default_footprint() const override;

 private:
  // One agent instance serves every process in the tree (ForkInstance default),
  // so each pid gets its own decision sequence: swallowed calls never reach the
  // kernel, which means ru_nsyscalls cannot serve as the counter here.
  uint64_t NextSeq(Pid pid);

  FaultPlan plan_;
  std::atomic<bool> quiesced_{false};  // set once by Quiesce(); never cleared
  std::mutex mu_;  // guards seq_
  std::map<Pid, uint64_t> seq_;
  FaultInjector injector_;  // counters + trace only (internally locked)
};

}  // namespace ia

#endif  // SRC_AGENTS_CHAOS_H_
