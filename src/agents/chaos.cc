#include "src/agents/chaos.h"

namespace ia {

namespace {

// Process-control transfers are kernel-plane injection targets only: failing
// them from the agent layer would strand the host's pending-fork/exec
// bookkeeping (the body is armed before the call descends).
bool AgentPlaneExempt(int number) {
  switch (number) {
    case kSysFork:
    case kSysVfork:
    case kSysExecve:
    case kSysExecv:
    case kSysExit:
      return true;
    default:
      return false;
  }
}

}  // namespace

ChaosAgent::ChaosAgent(const FaultPlan& plan) : plan_(plan), injector_(plan) {}

Footprint ChaosAgent::default_footprint() const {
  Footprint fp;
  for (const FaultNumberRule& rule : plan_.number_rules) {
    if (rule.probability > 0) {
      fp.Add(rule.number);
    }
  }
  for (const FaultClassRule& rule : plan_.class_rules) {
    if (rule.probability > 0) {
      fp.AddClasses(rule.flag_mask);
    }
  }
  if (plan_.eintr_probability > 0) {
    fp.AddClasses(kBlocking);
  }
  if (plan_.short_probability > 0) {
    fp.Add(kSysRead).Add(kSysWrite).Add(kSysReadv).Add(kSysWritev);
    fp.Add(kSysSend).Add(kSysRecv).Add(kSysSendto).Add(kSysRecvfrom);
  }
  if (plan_.enfile_probability > 0 || plan_.fd_table_limit >= 0 ||
      plan_.disk_budget_bytes >= 0) {
    // Exhaustion regimes are kernel-plane-only, but keep the fd-allocating and
    // write rows visible so a plan that sets them observes its traffic.
    fp.Add(kSysOpen).Add(kSysCreat).Add(kSysDup).Add(kSysDup2).Add(kSysFcntl).Add(kSysPipe);
    fp.Add(kSysWrite).Add(kSysWritev);
  }
  return fp;
}

uint64_t ChaosAgent::NextSeq(Pid pid) {
  std::lock_guard<std::mutex> guard(mu_);
  return ++seq_[pid];
}

std::array<FaultStat, kMaxSyscall> ChaosAgent::FaultStats() const { return injector_.stats(); }

std::string ChaosAgent::FaultTraceText() const { return injector_.FormatTrace(); }

int64_t ChaosAgent::TotalInjected() const {
  int64_t total = 0;
  for (const FaultStat& stat : injector_.stats()) {
    total += stat.Total();
  }
  return total;
}

bool ChaosAgent::Quiesce(ProcessContext& ctx) {
  quiesced_.store(true, std::memory_order_relaxed);
  // Shed every interest bit on the live frame (and record the empty footprint
  // for future fork-child installs): the fault window is over, so calls should
  // not pay for this frame at all.
  return use_footprint(ctx, Footprint::None());
}

SyscallStatus ChaosAgent::syscall(AgentCall& call) {
  const int number = call.number();
  if (AgentPlaneExempt(number) || quiesced_.load(std::memory_order_relaxed)) {
    return SymbolicSyscall::syscall(call);
  }
  const Pid pid = call.ctx().process().pid;
  const uint64_t seq = NextSeq(pid);
  FaultEnv env;
  env.transfer_count = TransferCount(number, call.args());
  const FaultDecision decision = injector_.Decide(static_cast<uint64_t>(pid), seq, number, env);
  switch (decision.action) {
    case FaultAction::kErrnoReturn:
    case FaultAction::kExhaustion:
      return -decision.errno_value;
    case FaultAction::kEintrReturn:
      return -kEIntr;
    case FaultAction::kShortTransfer: {
      // CallDown is synchronous, so stack-local clamped copies outlive the
      // whole downward call chain.
      SyscallArgs clamped = call.args();
      IoVec scratch[kMaxIoVecs];
      ClampTransfer(number, decision.clamp_len, &clamped, scratch);
      return call.CallDown(clamped);
    }
    case FaultAction::kNone:
      break;
  }
  return SymbolicSyscall::syscall(call);
}

}  // namespace ia
