// Process objects for the simulated 4.3BSD kernel.
//
// Each live process runs as a fiber on the host thread of the root it
// descends from (fiber.h): Kernel::Spawn starts a host thread per root, and
// fork(2) places the child on its parent's thread. Cross-process kernel work
// (the process table, wait/signal delivery, pipes, blocking sleeps) is
// serialized by the kernel big lock, but the handlers of process-local calls
// (getpid, umask, sigblock, gettimeofday, ...) take no lock at all. As in
// 4.3BSD, where the u. area takes no
// lock and struct proc lives under the kernel, each field falls into one of
// three classes, annotated below:
//
//   [owner]      touched only by the owning process's fiber (plus the parent
//                before the fiber starts, and the reaper once it is a
//                zombie) — no locking needed;
//   [atomic]     single words other processes touch too (reparenting,
//                setpgrp, signal posting), kept as atomics;
//   [big-lock]   written only under the kernel big lock; other processes
//                read them only under it too.
//
// There is no fourth class: cross-process access goes through the big lock
// or a single-word atomic. An [owner] field moves between host threads only
// through a fiber switch, which the host's run-queue mutex orders (fiber.h),
// so the rule does not depend on which host thread runs the fiber. A zombie's
// [owner] fields are complete before FinalizeExit takes the big lock, and
// its reaper holds that lock.
#ifndef SRC_KERNEL_PROCESS_H_
#define SRC_KERNEL_PROCESS_H_

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/kernel/cred.h"
#include "src/kernel/emulation.h"
#include "src/kernel/fdtable.h"
#include "src/kernel/fiber.h"
#include "src/kernel/programs.h"
#include "src/kernel/ring.h"
#include "src/kernel/types.h"

namespace ia {

class ProcessContext;

enum class ProcState {
  kEmbryo,   // created, fiber not yet started
  kRunning,  // executing (or blocked in a syscall)
  kStopped,  // stopped by SIGSTOP/SIGTSTP, waiting for SIGCONT
  kZombie,   // exited, awaiting wait4() by the parent
};

// User-level signal disposition. `fn` is the "handler address" — with agents living
// in their client's address space, a host closure is the faithful analogue.
struct SignalAction {
  uintptr_t disposition = kSigDfl;  // kSigDfl, kSigIgn, or a user-handler tag (>= 2)
  std::function<void(ProcessContext&, int)> fn;
  uint32_t mask = 0;  // additionally blocked while the handler runs

  bool IsDefault() const { return disposition == kSigDfl; }
  bool IsIgnore() const { return disposition == kSigIgn; }
  bool IsHandler() const { return disposition >= 2; }
};

// Default action categories per 4.3BSD signal(3).
enum class SigDefault { kTerminate, kIgnore, kStop, kContinue };
SigDefault DefaultActionFor(int signo);

struct PendingExec {
  ProgramMain main;
  std::string image_name;
  std::string path;
  std::vector<std::string> argv;
  bool preserve_emulation = false;
  bool valid = false;
};

class Process {
 public:
  Process(Pid pid_in, Pid ppid_in) : pid(pid_in), ppid(ppid_in) {}
  ~Process();  // out of line: ProcessContext is incomplete here

  // --- identity ---------------------------------------------------------------
  const Pid pid;
  std::atomic<Pid> ppid;     // [atomic] exiting parents reparent us to 0
  std::atomic<Pid> pgrp{0};  // [atomic] setpgrp() targets other processes
  Cred cred;                 // [big-lock] for writes and cross-process reads
                             // (kill/setpgrp); the owner reads it lock-free
  std::string login = "root";  // [owner]

  // --- state ------------------------------------------------------------------
  ProcState state = ProcState::kEmbryo;  // [big-lock]
  // wait4, sigpause and the stopped state sleep on `chan`; `wchan` is the
  // channel the process last went to sleep on, or null once it resumed, for
  // signal posts. [big-lock]
  WaitChannel chan;
  WaitChannel* wchan = nullptr;
  int exit_status = 0;                   // [big-lock] wait4 encoding, valid when kZombie
  bool sigcont_pending = false;          // [big-lock]
  bool host_owned = false;               // [big-lock] spawned (and reaped) by the host harness
  bool exit_pending = false;             // [owner]
  int exit_wait_status = 0;              // [owner]

  // --- resources ----------------------------------------------------------------
  FdTable fds;             // [owner] (the OpenFiles inside are shared; see
                           // fdtable.h)
  InodeRef cwd;            // [owner]
  InodeRef root;           // [owner]
  Mode umask_bits = 022;   // [owner]
  Rusage rusage;           // [owner] signals count at delivery, not posting
  Rusage child_rusage;     // [owner] accumulated from reaped children

  // --- program image -------------------------------------------------------------
  std::string image_name;
  std::string image_path;
  std::vector<std::string> argv;
  PendingExec pending_exec;

  // fork(): the child body is carried out-of-band (a host-stack cannot be copied);
  // the interception layer may wrap it to propagate agents into the child.
  std::function<int(ProcessContext&)> pending_fork_body;

  // execve()/sigvec() side channels: argv strings and handler closures cannot cross
  // the numeric syscall ABI, so the libc stages them here before trapping.
  std::vector<std::string> exec_argv_staging;
  std::function<void(ProcessContext&, int)> staging_handler;
  // Exec preserve-emulation flag, carried out-of-band like the argv strings:
  // interposition frames set it while continuing an exec downward so the kernel
  // keeps the emulation stack across the image change. It must never ride in a
  // numeric argument — those belong to the application. ProcessContext::Execve
  // clears it before trapping; SysExecve consumes (and resets) it. [owner]
  bool exec_preserve_staging = false;

  // --- signals ----------------------------------------------------------------------
  // actions and sig_mask are [owner]: sigvec/sigblock/sigsetmask mutate them on
  // the owning process (their handlers take no lock), and every reader — delivery
  // at the owner's syscall boundary, the owner's blocking-sleep predicates —
  // runs in that same process. Signal *posting* from other processes touches
  // only sig_pending, which is atomic so the owner's boundary check and the
  // fast paths can test it without any lock (kill(2) posts it under the big
  // lock and wakes `wchan`).
  std::array<SignalAction, kNumSignals> actions;
  std::atomic<uint32_t> sig_pending{0};  // [atomic]
  uint32_t sig_mask = 0;                 // [owner]
  // sigpause(2) restores the caller's mask only after the woken signal's handler
  // has run; the boundary performs the restore. [owner]
  bool sigpause_restore = false;
  uint32_t sigpause_saved_mask = 0;

  // --- interposition (kernel primitive state) ------------------------------------------
  // The emulation stack carries its own generation counter and per-syscall
  // compiled-route cache (see emulation.h); both are [owner] like the frames,
  // except the route-stat tallies, which are relaxed atomics so FinalizeExit
  // can aggregate them into the kernel-wide counters.
  EmulationStack emulation;

  // --- batched submission ---------------------------------------------------------------
  // The submission/completion ring, created lazily by ProcessContext::Ring()
  // and dropped by a successful exec (it belongs to the image). The ring is
  // single-producer/single-consumer (ring.h): the owner drains and reaps, and
  // at most one thread submits. The pointer is [owner]: installed by the
  // owning process before a sibling submitter is handed a reference, and reset
  // only after that submitter is joined.
  std::unique_ptr<SyscallRing> ring;

  // Scratch for the fault plane's readv/writev short-transfer clamp: the
  // clamped iovec prefix must outlive the dispatch, and the caller's vector
  // is const. [owner] (only the owning process dispatches its calls).
  std::array<IoVec, kMaxIoVecs> iov_fault_scratch;

  // --- host-side execution -----------------------------------------------------------
  std::unique_ptr<ProcessContext> context;
  // The host thread this process runs on, and its fiber (valid while the
  // process is not a zombie). [big-lock]
  FiberHost* host = nullptr;
  Fiber* fiber = nullptr;

  bool HasPendingSignal(int signo) const {
    return (sig_pending.load(std::memory_order_acquire) & SigMask(signo)) != 0;
  }

  // A signal that would be acted upon if we hit a delivery point now: pending,
  // unblocked, and not effectively ignored. Called by the owning process only
  // (sig_mask/actions are [owner]); the pending word is an acquire load so a
  // cross-thread post is seen promptly.
  bool HasDeliverableSignal() const {
    const uint32_t pending = sig_pending.load(std::memory_order_acquire);
    uint32_t candidates = pending & ~sig_mask;
    // SIGKILL/SIGSTOP cannot be blocked.
    candidates |= pending & (SigMask(kSigKill) | SigMask(kSigStop));
    if (candidates == 0) {
      return false;
    }
    for (int signo = 1; signo < kNumSignals; ++signo) {
      if ((candidates & SigMask(signo)) == 0) {
        continue;
      }
      const SignalAction& action = actions[static_cast<size_t>(signo)];
      if (action.IsIgnore()) {
        continue;
      }
      if (action.IsDefault() && DefaultActionFor(signo) == SigDefault::kIgnore) {
        continue;
      }
      return true;
    }
    return false;
  }
};

using ProcessRef = std::shared_ptr<Process>;

// How Sleep treats O_NONBLOCK and signals (4.3BSD's sleep priority).
enum class SleepMode : uint8_t {
  kInterruptible,    // a syscall sleep: EINTR once a signal is deliverable
  kNonblock,         // an O_NONBLOCK descriptor: EWOULDBLOCK instead of a sleep
  kUninterruptible,  // the stopped state: only SIGCONT or SIGKILL ends it
};

inline SleepMode SleepModeOf(const OpenFile& f) {
  return (f.flags & kONonblock) != 0 ? SleepMode::kNonblock : SleepMode::kInterruptible;
}

// The one way a process blocks, 4.3BSD's sleep(chan), with `lk` holding the
// big lock that every waker of `chan` holds too. Returns -kEWouldblock or
// -kEIntr as `mode` says, or 0 after one wakeup; the caller re-tests its
// condition and holds `chan`'s owner. Asleep, the process is on `chan`'s
// list (and in p.wchan) with the big lock dropped, and its host thread runs
// its other fibers. The big lock is the only lock a caller may hold here.
SyscallStatus Sleep(Process& p, WaitChannel& chan, KernelLock& lk,
                    SleepMode mode = SleepMode::kInterruptible);

}  // namespace ia

#endif  // SRC_KERNEL_PROCESS_H_
