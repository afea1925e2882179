// The deterministic fault-injection plane.
//
// A FaultPlan describes which system calls should fail, how, and how often.
// The kernel's dispatch core consults it once per call, before the call's
// handler, so an installed plan changes no call's locks (none, the shared
// tree lock, or the big lock); the chaos agent consults the same plan *above* the
// kernel, so kernel-level and agent-level injection share one vocabulary
// and can be composed or compared.
//
// Determinism is the whole point: every decision is a pure function of
// (plan.seed, stream, sequence, syscall number), where `stream` is the pid and
// `sequence` is that process's own call counter. Cross-process interleaving
// therefore cannot perturb any one process's fault stream, and a run is
// byte-reproducible from its seed.
#ifndef SRC_KERNEL_FAULTPLAN_H_
#define SRC_KERNEL_FAULTPLAN_H_

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/base/errno_codes.h"
#include "src/kernel/syscall_table.h"
#include "src/kernel/types.h"

namespace ia {

// Inject `errno_value` with `probability` on every implemented row carrying any
// flag in `flag_mask` (kTakesPath / kTakesFd / kBlocking / kFileRef / ...).
struct FaultClassRule {
  uint32_t flag_mask = 0;
  double probability = 0.0;
  int errno_value = kEIo;  // positive errno constant (kE*); returned negated
};

// Inject `errno_value` with `probability` on one explicit syscall number.
struct FaultNumberRule {
  int number = -1;
  double probability = 0.0;
  int errno_value = kEIo;
};

struct FaultPlan {
  uint64_t seed = 0x1993;

  // Probabilistic errno injection, checked in order: number rules first (most
  // specific wins), then class rules.
  std::vector<FaultNumberRule> number_rules;
  std::vector<FaultClassRule> class_rules;

  // EINTR on kBlocking rows (read, write, readv, writev, wait4, sigpause) —
  // the classic "slow call interrupted by a signal" failure.
  double eintr_probability = 0.0;

  // Short transfers: clamp a read/write count to a random prefix, exercising
  // callers that forget that n < count is a success.
  double short_probability = 0.0;

  // Resource-exhaustion regimes (kernel plane only; they need kernel state):
  // an artificial per-process descriptor ceiling (EMFILE on fd-allocating
  // calls once OpenCount reaches it), a probabilistic system-wide table
  // pressure (ENFILE), and a disk budget in bytes (ENOSPC once the filesystem
  // would grow past it; writes that fit partially are clamped, 4.3BSD-style).
  int fd_table_limit = -1;          // -1 = off; else inject EMFILE at/above this
  double enfile_probability = 0.0;  // fd-allocating calls only
  int64_t disk_budget_bytes = -1;   // -1 = off

  // Record a bounded per-event trace (for reproducibility assertions).
  bool record_trace = false;

  // Agent-plane misbehavior regime (DecideAgentFault): probabilities that a
  // deliberately faulty frame throws out of its handler, garbles its
  // completion, or spins past its per-call down-call budget. These knobs are
  // consumed ONLY by agent fixtures (FaultyAgent holds its own plan); the
  // kernel injector never reads them, so they are deliberately excluded from
  // ActiveAnywhere().
  double agent_throw_probability = 0.0;
  double agent_garble_probability = 0.0;
  double agent_overrun_probability = 0.0;

  // True when any kernel-plane knob is set; a kernel with an all-default plan
  // installed behaves exactly like one with no plan.
  bool ActiveAnywhere() const {
    return !number_rules.empty() || !class_rules.empty() || eintr_probability > 0 ||
           short_probability > 0 || fd_table_limit >= 0 || enfile_probability > 0 ||
           disk_budget_bytes >= 0;
  }
};

enum class FaultAction : uint8_t {
  kNone = 0,
  kErrnoReturn,    // fail the call with a planned errno before dispatch
  kEintrReturn,    // fail a blocking call with EINTR
  kShortTransfer,  // dispatch with the transfer count clamped to clamp_len
  kExhaustion,     // deterministic resource-regime denial (EMFILE/ENFILE/ENOSPC)
};

struct FaultDecision {
  FaultAction action = FaultAction::kNone;
  int errno_value = 0;    // positive kE* constant for the two errno actions
  int64_t clamp_len = 0;  // for kShortTransfer
};

// Kernel-state inputs the exhaustion regimes need. Agent-plane callers pass the
// default (regimes never fire without kernel state).
struct FaultEnv {
  int open_fds = -1;           // caller's current descriptor count
  int64_t fs_bytes = -1;       // filesystem total bytes
  int64_t transfer_count = -1; // requested read/write byte count (for shorts)
  bool fd_allocating = false;  // this call would allocate a descriptor slot
  bool creates_node = false;   // this call would allocate an inode (creat/mkdir/...)
};

// The pure decision function shared by the kernel injector and the chaos
// agent. `stream` is conventionally the pid; `seq` the caller's own per-stream
// call counter. Never injects on exit (a call that cannot fail) or on
// unimplemented rows (they already fail with ENOSYS).
FaultDecision DecideFault(const FaultPlan& plan, uint64_t stream, uint64_t seq, int number,
                          const FaultEnv& env = FaultEnv{});

// The byte count a read/write-family call asks to move, the short-transfer
// regime's input: arg 2 for the flat rows, the summed vector for
// readv/writev. -1 for other rows and malformed vectors, which disables the
// regime and leaves the real errno to the handler.
int64_t TransferCount(int number, const SyscallArgs& args);

// Rewrites a read/write-family call's `args` to move only its first `len`
// bytes: arg 2 for the flat rows; for readv/writev (whose arg 2 is the
// segment count), copies the vector's `len`-byte prefix into `scratch`
// (kMaxIoVecs entries, which must outlive the call) and points `args` at it.
void ClampTransfer(int number, int64_t len, SyscallArgs* args, IoVec* scratch);

// What a deliberately faulty agent frame should do on one intercepted call.
enum class AgentFaultAction : uint8_t {
  kNone = 0,
  kThrow,          // throw a C++ exception out of the handler
  kGarbleResult,   // return a corrupted completion (bad errno / long transfer)
  kOverrunBudget,  // spin in down-calls until the frame budget watchdog fires
};

// The agent-plane twin of DecideFault: a pure function of (plan.seed, stream,
// frame, seq) — `stream` is conventionally the pid, `frame` the emulation
// frame index — salted so its decision stream is independent of the kernel
// injector's even under the same seed. Checked in order: throw, garble,
// overrun.
AgentFaultAction DecideAgentFault(const FaultPlan& plan, uint64_t stream, uint64_t frame,
                                  uint64_t seq);

// Per-syscall injected-fault counters: the FaultStats() twin of SyscallStat.
struct FaultStat {
  int64_t injected_errno = 0;   // planned errno returns (number/class rules)
  int64_t injected_eintr = 0;   // planned EINTR on blocking rows
  int64_t short_transfers = 0;  // clamped read/write counts
  int64_t exhaustion = 0;       // EMFILE/ENFILE/ENOSPC regime denials
  int64_t Total() const {
    return injected_errno + injected_eintr + short_transfers + exhaustion;
  }
};

// One recorded injection, for byte-reproducibility checks.
struct FaultEvent {
  Pid pid = 0;
  int16_t number = 0;
  FaultAction action = FaultAction::kNone;
  int32_t value = 0;  // errno for errno actions, clamped length for shorts
};

// Bookkeeping wrapper the kernel (and tests) use around a plan: owns the
// counters and the bounded event trace. Thread-safe: the plan is immutable,
// and a leaf mutex guards the counters and the trace, so concurrent
// processes may consult one injector at once. Events land in
// the trace in the order their calls consulted the plan; one process's
// events keep its own call order.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan) : plan_(plan) {}

  const FaultPlan& plan() const { return plan_; }

  // DecideFault + counting + tracing in one step.
  FaultDecision Decide(uint64_t stream, uint64_t seq, int number, const FaultEnv& env);

  // Out-of-band count for injections decided inside a handler (the disk-budget
  // clamp in SysWrite happens after dispatch).
  void CountShortTransfer(Pid pid, int number, int64_t clamped_len);
  void CountExhaustion(Pid pid, int number, int errno_value);

  // A snapshot of the per-syscall counters.
  std::array<FaultStat, kMaxSyscall> stats() const;

  // Renders the trace one event per line ("pid 3 write short 17") — two runs
  // from the same seed must produce byte-identical text.
  std::string FormatTrace() const;

 private:
  // Counts and records one injection; the caller holds mu_.
  void CountLocked(Pid pid, int number, FaultAction action, int32_t value);

  const FaultPlan plan_;
  mutable std::mutex mu_;
  std::array<FaultStat, kMaxSyscall> stats_{};
  std::vector<FaultEvent> trace_;
};

}  // namespace ia

#endif  // SRC_KERNEL_FAULTPLAN_H_
