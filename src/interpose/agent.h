// Interposition agents: the boilerplate layer of the toolkit.
//
// An Agent is user code that both uses and provides the system interface. The
// classes here hide the interception mechanism (our kernel's emulation-stack
// primitive, standing in for Mach 2.5 task_set_emulation()), the call-down path
// (htg_unix_syscall()), fork/exec propagation, and upward signal delivery — the
// paper's "boilerplate layers ... not normally used directly by interposition
// agents" (Section 2.3).
#ifndef SRC_INTERPOSE_AGENT_H_
#define SRC_INTERPOSE_AGENT_H_

#include <atomic>
#include <bitset>
#include <memory>
#include <string>
#include <vector>

#include "src/kernel/context.h"
#include "src/kernel/kernel.h"

namespace ia {

class Agent;
class AgentHost;

// Collects an agent's interception interests during Init().
class AgentBinding {
 public:
  void InterceptSyscall(int number) {
    if (number >= 0 && number < kMaxSyscall) {
      syscalls_.set(static_cast<size_t>(number));
    }
  }
  void InterceptSyscallRange(int low, int high) {
    // Clamp to the table BEFORE iterating: the loop counter must never chase an
    // unreachable bound (high == INT_MAX would make `n <= high` loop forever —
    // signed-overflow UB at the wrap).
    if (low < 0) {
      low = 0;
    }
    if (high >= kMaxSyscall) {
      high = kMaxSyscall - 1;
    }
    for (int n = low; n <= high; ++n) {
      syscalls_.set(static_cast<size_t>(n));
    }
  }
  void InterceptAllSyscalls() { syscalls_.set(); }
  void InterceptSignal(int signo) {
    if (signo > 0 && signo < kNumSignals) {
      signals_ |= SigMask(signo);
    }
  }
  // Clamped to valid signal numbers so the all-signals mask agrees bit-for-bit
  // with what per-signal InterceptSignal() calls can produce — no interest
  // bits for signal numbers >= kNumSignals that delivery would never match.
  void InterceptAllSignals() { signals_ = kValidSignalsMask; }

  const std::bitset<kMaxSyscall>& syscalls() const { return syscalls_; }
  uint32_t signals() const { return signals_; }

 private:
  std::bitset<kMaxSyscall> syscalls_;
  uint32_t signals_ = 0;
};

// One in-flight intercepted system call. CallDown() continues it toward the kernel
// (the htg_unix_syscall() analogue); Call() issues an arbitrary different call on
// the next-lower interface (agents use this for their own I/O).
//
// The call reaches its host through a plain reference: ProcessContext::InvokeFrame
// holds a copy of the frame's handler for as long as it runs, and an AgentCall
// lives only inside that run.
class AgentCall {
 public:
  AgentCall(AgentHost& host, ProcessContext& ctx, int frame, int number,
            const SyscallArgs& args, SyscallResult* rv)
      : host_(host), ctx_(ctx), frame_(frame), number_(number), args_(args), rv_(rv) {}

  int number() const { return number_; }
  const SyscallArgs& args() const { return args_; }
  SyscallResult* rv() const { return rv_; }
  ProcessContext& ctx() const { return ctx_; }
  int frame() const { return frame_; }

  // Continues this call unchanged.
  SyscallStatus CallDown();

  // Continues this call with substituted arguments.
  SyscallStatus CallDown(const SyscallArgs& new_args);

  // Makes an unrelated call on the next-lower interface.
  SyscallStatus Call(int number, const SyscallArgs& args, SyscallResult* rv);

 private:
  AgentHost& host_;
  ProcessContext& ctx_;
  int frame_;
  int number_;
  const SyscallArgs& args_;
  SyscallResult* rv_;
};

// One in-flight intercepted incoming signal.
class AgentSignal {
 public:
  AgentSignal(ProcessContext& ctx, int frame, int signo)
      : ctx_(ctx), frame_(frame), signo_(signo) {}

  int signo() const { return signo_; }
  ProcessContext& ctx() const { return ctx_; }

  // Continues delivery toward the application.
  void ForwardUp() { ctx_.ForwardSignal(frame_, signo_); }

 private:
  ProcessContext& ctx_;
  int frame_;
  int signo_;
};

// Base class of every interposition agent. Subclasses register interest in Init()
// and override OnSyscall()/OnSignal(); the defaults are transparent pass-through.
//
// A single Agent instance may serve several processes at once (it is re-installed
// into fork children and survives execve), which is exactly the "agents can share
// state and provide multiple instances of the system interface" capability of
// paper Figure 1-4. Agents holding per-process state should key it by pid or
// return a fresh instance from ForkInstance().
class Agent : public std::enable_shared_from_this<Agent> {
 public:
  virtual ~Agent() = default;

  virtual std::string name() const = 0;

  // Called when the agent is installed into a process. Register interception
  // interests on `binding`; the context allows setup I/O (e.g. opening a log).
  virtual void Init(ProcessContext& ctx, AgentBinding& binding) = 0;

  // Called in a fork child after this agent has been re-installed there.
  virtual void InitChild(ProcessContext& ctx) { (void)ctx; }

  // Called after the agent's frame is pushed; `frame` is its position in the
  // process's emulation stack (agents needing out-of-band call-down record it).
  virtual void OnInstalled(ProcessContext& ctx, int frame) {
    (void)ctx;
    (void)frame;
  }

  // The instance to install into a fork child. Default: share this instance.
  virtual std::shared_ptr<Agent> ForkInstance() { return shared_from_this(); }

  // An intercepted system call. Default: transparent.
  virtual SyscallStatus OnSyscall(AgentCall& call) { return call.CallDown(); }

  // An intercepted incoming signal. Default: transparent.
  virtual void OnSignal(AgentSignal& signal) { signal.ForwardUp(); }

  // Containment knobs for this agent's frames (containment.h). Install()
  // stamps the returned policy into the frame's FrameHealth record; override
  // to tighten the budgets (test fixtures) or loosen trip_streak. Applies to
  // fork children too (they re-install through the same path).
  virtual ContainmentPolicy containment_policy() const { return ContainmentPolicy{}; }
};

using AgentRef = std::shared_ptr<Agent>;

// Adapts an Agent to the kernel's SyscallHandler primitive and implements the
// boilerplate bookkeeping: fork propagation (wrapping the pending child body) and
// execve survival (setting the preserve-emulation flag when continuing down).
class AgentHost final : public SyscallHandler {
 public:
  // Installs `agent` on top of `ctx`'s emulation stack (closest to the application).
  // Returns the frame index.
  static int Install(ProcessContext& ctx, const AgentRef& agent);

  SyscallStatus HandleSyscall(ProcessContext& ctx, int frame, int number,
                              const SyscallArgs& args, SyscallResult* rv) override;
  void HandleSignal(ProcessContext& ctx, int frame, int signo) override;

  // Continues a call below `frame`, applying fork/exec bookkeeping. Used by
  // AgentCall::CallDown().
  SyscallStatus DownCall(ProcessContext& ctx, int frame, int number, const SyscallArgs& args,
                         SyscallResult* rv);

  // Dynamic re-narrow: rewrites the live interest sets of every frame in
  // `ctx`'s emulation stack hosting `agent` — both the host's own dispatch
  // filter and the kernel-visible frame bits (the fork/exec bookkeeping rows
  // stay set so propagation and exec survival keep working). Bumps the stack
  // generation, so compiled routes rebuild on the next call. Must run on the
  // client process's own thread (agent or application code). Returns false if
  // the agent is not installed in `ctx`.
  static bool Refootprint(ProcessContext& ctx, const Agent* agent,
                          const std::bitset<kMaxSyscall>& syscalls, uint32_t signals);

  // Containment: the breaker tripped on this host's frame. Narrows the
  // kernel-visible interest to the fork/exec bookkeeping rows (so stack
  // propagation and exec survival stay coherent) and stops dispatching to the
  // agent — quarantined calls pass straight through.
  void OnQuarantine(ProcessContext& ctx, int frame) override;

  // Operator-driven recovery: reopens every quarantined frame hosting `agent`
  // in `ctx`'s stack. The frame returns in the HALF-OPEN state — the next
  // policy.half_open_probes calls are probes, and one failure among them
  // re-trips instantly. Must run on the client process's own thread (same
  // discipline as Refootprint). Returns false if no quarantined frame hosts
  // `agent`.
  static bool Reinstate(ProcessContext& ctx, const Agent* agent);

  const AgentRef& agent() const { return agent_; }
  bool quarantined() const { return quarantined_.load(std::memory_order_relaxed); }

 private:
  explicit AgentHost(AgentRef agent) : agent_(std::move(agent)) {}

  AgentRef agent_;
  std::bitset<kMaxSyscall> agent_interest_;
  uint32_t agent_signal_interest_ = 0;
  // Set by OnQuarantine, cleared by Reinstate. Atomic only so the flag can be
  // read from monitoring threads; dispatch checks run on the owner thread.
  std::atomic<bool> quarantined_{false};
};

// Spawns `options` with `agents` interposed; agents[0] ends up closest to the
// kernel, agents.back() closest to the application. The agent-loader body installs
// the agents and then execs the target (or runs options.body under them).
Pid SpawnUnderAgents(Kernel& kernel, const std::vector<AgentRef>& agents,
                     const SpawnOptions& options);

// Convenience: SpawnUnderAgents + HostWaitPid. Returns the wait status or -errno.
int RunUnderAgents(Kernel& kernel, const std::vector<AgentRef>& agents,
                   const SpawnOptions& options);

}  // namespace ia

#endif  // SRC_INTERPOSE_AGENT_H_
