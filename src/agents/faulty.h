// FaultyAgent — a deliberately misbehaving agent fixture for the containment
// plane (containment.h, DESIGN.md §12).
//
// Where ChaosAgent injects *well-formed* failures (legitimate errnos, short
// transfers) to exercise applications, FaultyAgent misbehaves at the frame
// level to exercise the kernel's per-frame traps: it throws C++ exceptions out
// of its handler, returns garbled completions (absurd errnos, transfer counts
// larger than the request), and spins in down-calls until the frame budget
// watchdog fires. Decisions come from FaultPlan's agent-plane regime via
// DecideAgentFault — a pure function of (seed, pid, frame, seq) — so a
// containment run is byte-reproducible from its seed. The plan is held by the
// agent itself and never installed into the kernel.
#ifndef SRC_AGENTS_FAULTY_H_
#define SRC_AGENTS_FAULTY_H_

#include <atomic>
#include <map>
#include <mutex>
#include <string>

#include "src/kernel/faultplan.h"
#include "src/toolkit/toolkit.h"

namespace ia {

class FaultyAgent final : public SymbolicSyscall {
 public:
  explicit FaultyAgent(const FaultPlan& plan) : plan_(plan) {}

  std::string name() const override { return "faulty"; }

  // A tight down-call budget so the kOverrunBudget spin trips the watchdog
  // quickly instead of burning the full default allowance.
  ContainmentPolicy containment_policy() const override {
    ContainmentPolicy policy;
    policy.max_downcalls_per_call = 256;
    return policy;
  }

  // Misbehaviors actually performed (one per decision that fired).
  int64_t Throws() const { return throws_.load(std::memory_order_relaxed); }
  int64_t Garbles() const { return garbles_.load(std::memory_order_relaxed); }
  int64_t Overruns() const { return overruns_.load(std::memory_order_relaxed); }
  int64_t Misbehaved() const { return Throws() + Garbles() + Overruns(); }

 protected:
  SyscallStatus syscall(AgentCall& call) override;

  // Broad but not process-control: path and descriptor rows cover the make
  // workload's traffic, and fork/exec/exit stay exempt (same reasoning as
  // ChaosAgent — stranding the host's propagation bookkeeping would be a bug
  // in the fixture, not a containable frame fault).
  Footprint default_footprint() const override {
    return Footprint::Classes(kTakesPath | kTakesFd);
  }

 private:
  // One instance serves the whole process tree (ForkInstance default); each
  // pid gets its own decision sequence over intercepted calls.
  uint64_t NextSeq(Pid pid) {
    std::lock_guard<std::mutex> guard(mu_);
    return ++seq_[pid];
  }

  FaultPlan plan_;
  std::atomic<int64_t> throws_{0};
  std::atomic<int64_t> garbles_{0};
  std::atomic<int64_t> overruns_{0};
  std::mutex mu_;
  std::map<Pid, uint64_t> seq_;
};

}  // namespace ia

#endif  // SRC_AGENTS_FAULTY_H_
