#include "src/kernel/faultplan.h"

#include <algorithm>

#include "src/base/prng.h"
#include "src/base/strings.h"

namespace ia {

namespace {

// SplitMix64-style finalizer over the four decision inputs. Each input gets a
// distinct odd multiplier so (stream, seq) and (seq, stream) land far apart.
uint64_t MixDecisionKey(uint64_t seed, uint64_t stream, uint64_t seq, uint64_t number) {
  uint64_t x = seed;
  x += stream * 0x9e3779b97f4a7c15ULL;
  x += seq * 0xbf58476d1ce4e5b9ULL;
  x += number * 0x94d049bb133111ebULL;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

const char* ActionName(FaultAction action) {
  switch (action) {
    case FaultAction::kErrnoReturn:
      return "errno";
    case FaultAction::kEintrReturn:
      return "eintr";
    case FaultAction::kShortTransfer:
      return "short";
    case FaultAction::kExhaustion:
      return "exhaustion";
    case FaultAction::kNone:
      break;
  }
  return "none";
}

}  // namespace

FaultDecision DecideFault(const FaultPlan& plan, uint64_t stream, uint64_t seq, int number,
                          const FaultEnv& env) {
  FaultDecision decision;
  const SyscallSpec& spec = SyscallSpecOf(number);
  if ((spec.flags & kImplemented) == 0 || number == kSysExit) {
    return decision;  // unimplemented rows already fail; exit cannot
  }

  // Exhaustion regimes are deterministic functions of kernel state, not of the
  // random stream: a process at its descriptor ceiling fails until it closes
  // something, exactly like a real full table.
  if (plan.fd_table_limit >= 0 && env.fd_allocating && env.open_fds >= plan.fd_table_limit) {
    decision.action = FaultAction::kExhaustion;
    decision.errno_value = kEMfile;
    return decision;
  }
  if (plan.disk_budget_bytes >= 0 && env.creates_node && env.fs_bytes >= plan.disk_budget_bytes) {
    decision.action = FaultAction::kExhaustion;
    decision.errno_value = kENospc;
    return decision;
  }

  Prng rng(MixDecisionKey(plan.seed, stream, seq, static_cast<uint64_t>(number)));

  for (const FaultNumberRule& rule : plan.number_rules) {
    if (rule.number == number && rng.NextDouble() < rule.probability) {
      decision.action = FaultAction::kErrnoReturn;
      decision.errno_value = rule.errno_value;
      return decision;
    }
  }
  for (const FaultClassRule& rule : plan.class_rules) {
    if ((spec.flags & rule.flag_mask) != 0 && rng.NextDouble() < rule.probability) {
      decision.action = FaultAction::kErrnoReturn;
      decision.errno_value = rule.errno_value;
      return decision;
    }
  }
  if ((spec.flags & kBlocking) != 0 && plan.eintr_probability > 0 &&
      rng.NextDouble() < plan.eintr_probability) {
    decision.action = FaultAction::kEintrReturn;
    decision.errno_value = kEIntr;
    return decision;
  }
  if ((number == kSysRead || number == kSysWrite || number == kSysReadv ||
       number == kSysWritev || number == kSysSend || number == kSysRecv ||
       number == kSysSendto || number == kSysRecvfrom) &&
      env.transfer_count > 1 && plan.short_probability > 0 &&
      rng.NextDouble() < plan.short_probability) {
    decision.action = FaultAction::kShortTransfer;
    decision.clamp_len = 1 + static_cast<int64_t>(
                                 rng.Below(static_cast<uint64_t>(env.transfer_count - 1)));
    return decision;
  }
  if (plan.enfile_probability > 0 && env.fd_allocating &&
      rng.NextDouble() < plan.enfile_probability) {
    decision.action = FaultAction::kExhaustion;
    decision.errno_value = kENfile;
    return decision;
  }
  return decision;
}

int64_t TransferCount(int number, const SyscallArgs& args) {
  if (number == kSysRead || number == kSysWrite || number == kSysSend || number == kSysRecv ||
      number == kSysSendto || number == kSysRecvfrom) {
    return args.Long(2);
  }
  const auto* iov = args.Ptr<const IoVec>(1);
  const int iovcnt = args.Int(2);
  if ((number != kSysReadv && number != kSysWritev) || iov == nullptr || iovcnt <= 0 ||
      iovcnt > kMaxIoVecs) {
    return -1;
  }
  int64_t total = 0;
  for (int i = 0; i < iovcnt; ++i) {
    total += iov[i].iov_len > 0 ? iov[i].iov_len : 0;
  }
  return total;
}

void ClampTransfer(int number, int64_t len, SyscallArgs* args, IoVec* scratch) {
  if (number != kSysReadv && number != kSysWritev) {
    args->SetInt(2, len);
    return;
  }
  // The handler's normal segment loop then transfers exactly the prefix and
  // leaves the offset consistent.
  const auto* iov = args->Ptr<const IoVec>(1);
  const int iovcnt = args->Int(2);
  int out_cnt = 0;
  for (int i = 0; i < iovcnt && len > 0; ++i) {
    IoVec seg = iov[i];
    if (seg.iov_len <= 0) {
      continue;
    }
    seg.iov_len = std::min(seg.iov_len, len);
    len -= seg.iov_len;
    scratch[out_cnt++] = seg;
  }
  args->SetPtr(1, scratch);
  args->SetInt(2, out_cnt);
}

AgentFaultAction DecideAgentFault(const FaultPlan& plan, uint64_t stream, uint64_t frame,
                                  uint64_t seq) {
  if (plan.agent_throw_probability <= 0 && plan.agent_garble_probability <= 0 &&
      plan.agent_overrun_probability <= 0) {
    return AgentFaultAction::kNone;
  }
  // Salt the seed so the agent-plane decision stream is independent of the
  // kernel injector's under the same plan seed; the frame index takes the
  // `number` slot of the mix (the acted-on call is whatever the frame
  // intercepted — the decision must not depend on it, or retries of a failed
  // call would re-roll).
  Prng rng(MixDecisionKey(plan.seed ^ 0xa9e47ab1c0de5eedULL, stream, seq, frame));
  if (plan.agent_throw_probability > 0 && rng.NextDouble() < plan.agent_throw_probability) {
    return AgentFaultAction::kThrow;
  }
  if (plan.agent_garble_probability > 0 && rng.NextDouble() < plan.agent_garble_probability) {
    return AgentFaultAction::kGarbleResult;
  }
  if (plan.agent_overrun_probability > 0 && rng.NextDouble() < plan.agent_overrun_probability) {
    return AgentFaultAction::kOverrunBudget;
  }
  return AgentFaultAction::kNone;
}

FaultDecision FaultInjector::Decide(uint64_t stream, uint64_t seq, int number,
                                    const FaultEnv& env) {
  const FaultDecision decision = DecideFault(plan_, stream, seq, number, env);
  if (decision.action != FaultAction::kNone) {
    const bool is_short = decision.action == FaultAction::kShortTransfer;
    std::lock_guard<std::mutex> lk(mu_);
    CountLocked(static_cast<Pid>(stream), number, decision.action,
                is_short ? static_cast<int32_t>(decision.clamp_len) : decision.errno_value);
  }
  return decision;
}

void FaultInjector::CountShortTransfer(Pid pid, int number, int64_t clamped_len) {
  std::lock_guard<std::mutex> lk(mu_);
  CountLocked(pid, number, FaultAction::kShortTransfer, static_cast<int32_t>(clamped_len));
}

void FaultInjector::CountExhaustion(Pid pid, int number, int errno_value) {
  std::lock_guard<std::mutex> lk(mu_);
  CountLocked(pid, number, FaultAction::kExhaustion, errno_value);
}

void FaultInjector::CountLocked(Pid pid, int number, FaultAction action, int32_t value) {
  if (number < 0 || number >= kMaxSyscall) {
    return;
  }
  FaultStat& stat = stats_[static_cast<size_t>(number)];
  switch (action) {
    case FaultAction::kErrnoReturn:
      stat.injected_errno += 1;
      break;
    case FaultAction::kEintrReturn:
      stat.injected_eintr += 1;
      break;
    case FaultAction::kShortTransfer:
      stat.short_transfers += 1;
      break;
    case FaultAction::kExhaustion:
      stat.exhaustion += 1;
      break;
    case FaultAction::kNone:
      break;
  }
  // Bounded: a runaway plan must not turn the trace into the workload.
  if (plan_.record_trace && trace_.size() < (1u << 16)) {
    trace_.push_back(FaultEvent{pid, static_cast<int16_t>(number), action, value});
  }
}

std::array<FaultStat, kMaxSyscall> FaultInjector::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

std::string FaultInjector::FormatTrace() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::string out;
  for (const FaultEvent& event : trace_) {
    const bool is_errno = event.action == FaultAction::kErrnoReturn ||
                          event.action == FaultAction::kEintrReturn ||
                          event.action == FaultAction::kExhaustion;
    out += StringPrintf("pid %d %s %s %s\n", event.pid,
                        std::string(SyscallName(event.number)).c_str(),
                        ActionName(event.action),
                        is_errno ? std::string(ErrnoName(event.value)).c_str()
                                 : std::to_string(event.value).c_str());
  }
  return out;
}

}  // namespace ia
