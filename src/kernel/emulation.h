// The kernel's system-call interception primitive — the Mach 2.5
// task_set_emulation() equivalent.
//
// Each process carries an *emulation stack* of frames. A frame names a handler and
// the set of syscall numbers and signals it has registered interest in. Application
// system calls enter at the top of the stack (the frame closest to the application)
// and are delivered to the first interested frame; a handler continues the call
// downward with ProcessContext::SyscallBelow() (the htg_unix_syscall() equivalent).
// Signals travel the other way: the kernel delivers to the bottom-most interested
// frame, which forwards upward with ProcessContext::ForwardSignal() until the
// application's own handler (or default action) runs.
//
// Dispatch no longer walks the stack per call. The stack carries a *route table*:
// for each syscall number, a compiled route — the exact ordered list of interested
// frame indices, highest (application side) first, with the kernel as the implicit
// terminal. Routes are built lazily on first use and validated against a
// monotonically increasing stack *generation*; any structural change (push, pop,
// clear, an in-place interest rewrite from a dynamic re-narrow) bumps the
// generation, invalidating every cached route in O(1). The common narrowed case —
// no frame interested in this number — is then a single generation compare plus an
// empty check before the call drops straight into the kernel lane.
#ifndef SRC_KERNEL_EMULATION_H_
#define SRC_KERNEL_EMULATION_H_

#include <array>
#include <bitset>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/kernel/containment.h"
#include "src/kernel/types.h"

namespace ia {

class ProcessContext;

// Implemented by interposition code (the toolkit's boilerplate layer).
class SyscallHandler {
 public:
  virtual ~SyscallHandler() = default;

  // Handles an intercepted syscall. `frame` identifies this handler's position so it
  // can continue the call downward via ctx.SyscallBelow(frame, ...). Returns the
  // syscall status (negative errno or >= 0).
  virtual SyscallStatus HandleSyscall(ProcessContext& ctx, int frame, int number,
                                      const SyscallArgs& args, SyscallResult* rv) = 0;

  // Handles an intercepted incoming signal. Forward upward (toward the application)
  // with ctx.ForwardSignal(frame, signo) to preserve delivery.
  virtual void HandleSignal(ProcessContext& ctx, int frame, int signo) = 0;

  // Containment hook: invoked in the owning process when this frame's
  // circuit breaker trips (see containment.h). Implementations must re-narrow
  // the frame's interest so the quarantined handler stops receiving
  // application calls. The default clears the interest sets entirely;
  // AgentHost's override keeps its fork/exec bookkeeping rows so stack
  // propagation stays coherent. Defined in context.cc.
  virtual void OnQuarantine(ProcessContext& ctx, int frame);
};

struct EmulationFrame {
  std::shared_ptr<SyscallHandler> handler;
  std::bitset<kMaxSyscall> syscall_interest;
  uint32_t signal_interest = 0;
  uint64_t cookie = 0;  // opaque tag for the owner (interpose layer uses it)
  // Containment record; attached (and a default created if absent) by
  // ProcessContext::PushEmulation. A frame pushed directly onto the stack
  // with EmulationStack::Push keeps a null health and runs UNCONTAINED —
  // the deliberate escape hatch for code that must observe raw handler
  // exceptions (and the reason the ring drain keeps its own backstop).
  std::shared_ptr<FrameHealth> health;
};

// One compiled dispatch route: the interested frame indices for a syscall number,
// descending (closest to the application first); the kernel lane is the implicit
// last hop. `generation` records the stack generation the route was compiled
// against; a mismatch means the route is stale and must be rebuilt.
struct CompiledRoute {
  uint64_t generation = 0;  // 0 never matches a live stack (generations start at 1)
  std::vector<int16_t> hops;
};

// The per-process emulation state. Frame index 0 is closest to the kernel; the
// highest index is closest to the application. Structural mutation and route
// compilation run in the owning process (the same discipline as the
// frame vector itself), and so do the route-stat tallies: the kernel folds
// them in from the exiting process's own FinalizeExit.
class EmulationStack {
 public:
  // Pushes a frame on top (closest to the application). Returns its index.
  int Push(EmulationFrame frame) {
    frames_.push_back(std::move(frame));
    BumpGeneration();
    return static_cast<int>(frames_.size()) - 1;
  }

  // Removes the topmost frame (no-op on an empty stack).
  void Pop() {
    if (!frames_.empty()) {
      frames_.pop_back();
      BumpGeneration();
    }
  }

  void Clear() {
    frames_.clear();
    BumpGeneration();
  }

  bool Empty() const { return frames_.empty(); }
  int Depth() const { return static_cast<int>(frames_.size()); }

  EmulationFrame& At(int index) { return frames_[static_cast<size_t>(index)]; }
  const EmulationFrame& At(int index) const { return frames_[static_cast<size_t>(index)]; }

  // Rewrites a live frame's interest sets in place (the dynamic re-narrow
  // primitive). Bumps the generation so every compiled route rebuilds on its
  // next use.
  void SetInterest(int index, const std::bitset<kMaxSyscall>& syscalls, uint32_t signals) {
    if (index < 0 || index >= Depth()) {
      return;
    }
    EmulationFrame& frame = frames_[static_cast<size_t>(index)];
    frame.syscall_interest = syscalls;
    frame.signal_interest = signals;
    BumpGeneration();
  }

  // The current stack generation. Bumped by every structural change; cached
  // routes (and any external cache keyed on the stack shape) compare against it.
  uint64_t generation() const { return generation_; }

  // O(1) invalidation of every compiled route without touching the table.
  void BumpGeneration() { ++generation_; }

  // The compiled route for `number`, rebuilt lazily when the stack generation
  // has moved. `number` must be in [0, kMaxSyscall). The returned reference is
  // valid until the next RouteFor() call with a stale generation — callers copy
  // the hop they dispatch to before invoking the handler (which may mutate the
  // stack underneath them).
  const CompiledRoute& RouteFor(int number) {
    ++route_lookups_;
    CompiledRoute& route = routes_[static_cast<size_t>(number)];
    if (route.generation != generation_) {
      CompileRoute(number, &route);
    }
    return route;
  }

  // Highest interested frame strictly below `from_frame` for `number`, or -1.
  // The uncompiled reference path; route dispatch must agree with it exactly.
  int NextInterestedBelow(int from_frame, int number) const {
    for (int i = from_frame - 1; i >= 0; --i) {
      if (frames_[static_cast<size_t>(i)].syscall_interest.test(static_cast<size_t>(number))) {
        return i;
      }
    }
    return -1;
  }

  // Lowest interested frame strictly above `from_frame` for `signo`, or -1.
  int NextSignalInterestAbove(int from_frame, int signo) const {
    for (int i = from_frame + 1; i < Depth(); ++i) {
      if ((frames_[static_cast<size_t>(i)].signal_interest & SigMask(signo)) != 0) {
        return i;
      }
    }
    return -1;
  }

  // Route-cache observability: total route consultations and how many had to
  // (re)compile. The hit rate is 1 - builds/lookups.
  int64_t route_lookups() const { return route_lookups_; }
  int64_t route_builds() const { return route_builds_; }

 private:
  void CompileRoute(int number, CompiledRoute* route) {
    ++route_builds_;
    route->hops.clear();
    for (int i = Depth() - 1; i >= 0; --i) {
      if (frames_[static_cast<size_t>(i)].syscall_interest.test(static_cast<size_t>(number))) {
        route->hops.push_back(static_cast<int16_t>(i));
      }
    }
    route->generation = generation_;
  }

  std::vector<EmulationFrame> frames_;
  // Generations start at 1 so a default-constructed CompiledRoute (generation 0)
  // can never read as fresh.
  uint64_t generation_ = 1;
  std::array<CompiledRoute, kMaxSyscall> routes_;
  int64_t route_lookups_ = 0;
  int64_t route_builds_ = 0;
};

}  // namespace ia

#endif  // SRC_KERNEL_EMULATION_H_
