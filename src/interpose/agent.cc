#include "src/interpose/agent.h"

namespace ia {
namespace {

bool IsForkNumber(int number) { return number == kSysFork || number == kSysVfork; }
bool IsExecNumber(int number) { return number == kSysExecve || number == kSysExecv; }

// The kernel-visible interest a quarantined host keeps: only the fork/exec
// bookkeeping rows, so agent propagation and exec survival stay coherent
// while every other number routes around the frame.
std::bitset<kMaxSyscall> BookkeepingBits() {
  std::bitset<kMaxSyscall> bits;
  bits.set(kSysFork);
  bits.set(kSysVfork);
  bits.set(kSysExecve);
  bits.set(kSysExecv);
  return bits;
}

}  // namespace

SyscallStatus AgentCall::CallDown() { return host_.DownCall(ctx_, frame_, number_, args_, rv_); }

SyscallStatus AgentCall::CallDown(const SyscallArgs& new_args) {
  return host_.DownCall(ctx_, frame_, number_, new_args, rv_);
}

SyscallStatus AgentCall::Call(int number, const SyscallArgs& args, SyscallResult* rv) {
  return host_.DownCall(ctx_, frame_, number, args, rv);
}

int AgentHost::Install(ProcessContext& ctx, const AgentRef& agent) {
  auto host = std::shared_ptr<AgentHost>(new AgentHost(agent));
  AgentBinding binding;
  agent->Init(ctx, binding);
  host->agent_interest_ = binding.syscalls();
  host->agent_signal_interest_ = binding.signals();

  EmulationFrame frame;
  frame.handler = host;
  // Bookkeeping interceptions keep the agent alive across fork and execve even
  // when the agent itself has no interest in those calls.
  frame.syscall_interest = binding.syscalls() | BookkeepingBits();
  frame.signal_interest = binding.signals();
  // Containment identity: PushEmulation fills pid/frame and registers the
  // record with the kernel.
  frame.health = std::make_shared<FrameHealth>();
  frame.health->agent = agent->name();
  frame.health->policy = agent->containment_policy();
  const int index = ctx.PushEmulation(std::move(frame));
  agent->OnInstalled(ctx, index);
  return index;
}

SyscallStatus AgentHost::HandleSyscall(ProcessContext& ctx, int frame, int number,
                                       const SyscallArgs& args, SyscallResult* rv) {
  if (number >= 0 && number < kMaxSyscall &&
      agent_interest_.test(static_cast<size_t>(number)) &&
      !quarantined_.load(std::memory_order_relaxed)) {
    AgentCall call(*this, ctx, frame, number, args, rv);
    return agent_->OnSyscall(call);
  }
  // Interception exists only for boilerplate bookkeeping (or the frame is
  // quarantined); stay transparent.
  return DownCall(ctx, frame, number, args, rv);
}

void AgentHost::HandleSignal(ProcessContext& ctx, int frame, int signo) {
  if ((agent_signal_interest_ & SigMask(signo)) != 0 &&
      !quarantined_.load(std::memory_order_relaxed)) {
    AgentSignal signal(ctx, frame, signo);
    agent_->OnSignal(signal);
    return;
  }
  ctx.ForwardSignal(frame, signo);
}

SyscallStatus AgentHost::DownCall(ProcessContext& ctx, int frame, int number,
                                  const SyscallArgs& args, SyscallResult* rv) {
  if (IsForkNumber(number)) {
    // Propagate this agent into the child: wrap the pending child body so the
    // child re-installs the agent before running (paper: the ~10ms fork
    // bookkeeping, toolkit init_child()).
    Process& proc = ctx.process();
    std::function<int(ProcessContext&)> body = std::move(proc.pending_fork_body);
    AgentRef child_agent = agent_->ForkInstance();
    proc.pending_fork_body = [child_agent, body](ProcessContext& child_ctx) -> int {
      AgentHost::Install(child_ctx, child_agent);
      child_agent->InitChild(child_ctx);
      return body != nullptr ? body(child_ctx) : 0;
    };
    return ctx.SyscallBelow(frame, number, args, rv);
  }
  if (IsExecNumber(number)) {
    // Reimplement execve enough to survive it: the underlying exec would wipe the
    // emulation state, so arm the preserve flag for the kernel (paper: execve
    // "must be completely reimplemented by the toolkit from lower-level
    // primitives ... the agent needs to be preserved"). The flag rides
    // out-of-band on the Process (like the argv strings): smuggling it into a
    // numeric argument would corrupt whatever the application passed there and
    // leak through agents that substitute arguments.
    ctx.process().exec_preserve_staging = true;
    return ctx.SyscallBelow(frame, number, args, rv);
  }
  return ctx.SyscallBelow(frame, number, args, rv);
}

bool AgentHost::Refootprint(ProcessContext& ctx, const Agent* agent,
                            const std::bitset<kMaxSyscall>& syscalls, uint32_t signals) {
  EmulationStack& stack = ctx.emulation();
  bool found = false;
  for (int i = 0; i < stack.Depth(); ++i) {
    auto* host = dynamic_cast<AgentHost*>(stack.At(i).handler.get());
    if (host == nullptr || host->agent_.get() != agent) {
      continue;
    }
    host->agent_interest_ = syscalls;
    host->agent_signal_interest_ = signals & kValidSignalsMask;
    if (!host->quarantined_.load(std::memory_order_relaxed)) {
      // While quarantined the kernel-visible bits stay at bookkeeping-only;
      // the recorded interest above is what Reinstate will restore.
      stack.SetInterest(i, syscalls | BookkeepingBits(), host->agent_signal_interest_);
    }
    found = true;
  }
  return found;
}

void AgentHost::OnQuarantine(ProcessContext& ctx, int frame) {
  quarantined_.store(true, std::memory_order_relaxed);
  ctx.emulation().SetInterest(frame, BookkeepingBits(), 0);
}

bool AgentHost::Reinstate(ProcessContext& ctx, const Agent* agent) {
  EmulationStack& stack = ctx.emulation();
  bool found = false;
  for (int i = 0; i < stack.Depth(); ++i) {
    auto* host = dynamic_cast<AgentHost*>(stack.At(i).handler.get());
    if (host == nullptr || host->agent_.get() != agent ||
        !host->quarantined_.load(std::memory_order_relaxed)) {
      continue;
    }
    host->quarantined_.store(false, std::memory_order_relaxed);
    stack.SetInterest(i, host->agent_interest_ | BookkeepingBits(),
                      host->agent_signal_interest_);
    const std::shared_ptr<FrameHealth>& health = stack.At(i).health;
    if (health != nullptr) {
      // Half-open: the next half_open_probes calls are probes; one failure
      // among them re-trips instantly (NoteFrameFailure), a clean run closes
      // the breaker (NoteFrameSuccess).
      health->streak.store(0, std::memory_order_relaxed);
      health->probes_left.store(health->policy.half_open_probes, std::memory_order_relaxed);
      health->state.store(static_cast<uint8_t>(BreakerState::kHalfOpen),
                          std::memory_order_relaxed);
      ctx.kernel().NoteReinstate(*health);
    }
    found = true;
  }
  return found;
}

Pid SpawnUnderAgents(Kernel& kernel, const std::vector<AgentRef>& agents,
                     const SpawnOptions& options) {
  SpawnOptions loader = options;
  const std::string target_path = options.path;
  const std::vector<std::string> target_argv = options.argv;
  const std::function<int(ProcessContext&)> target_body = options.body;
  loader.body = [agents, target_path, target_argv, target_body](ProcessContext& ctx) -> int {
    for (const AgentRef& agent : agents) {
      AgentHost::Install(ctx, agent);
    }
    if (target_body != nullptr) {
      return target_body(ctx);
    }
    const int err = ctx.Execve(target_path, target_argv);
    ctx.WriteString(2, "agent loader: exec failed\n");
    return err < 0 ? 127 : 0;
  };
  return kernel.Spawn(loader);
}

int RunUnderAgents(Kernel& kernel, const std::vector<AgentRef>& agents,
                   const SpawnOptions& options) {
  const Pid pid = SpawnUnderAgents(kernel, agents, options);
  if (pid < 0) {
    return pid;
  }
  return kernel.HostWaitPid(pid);
}

}  // namespace ia
