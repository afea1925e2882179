#include "src/kernel/context.h"

#include <algorithm>
#include <cstring>

#include "src/base/strings.h"
#include "src/kernel/direntry_codec.h"
#include "src/kernel/kernel.h"

namespace ia {

// ---------------------------------------------------------------------------
// Raw syscall path.
// ---------------------------------------------------------------------------

namespace {

// Exception-safe depth tracking: agent handlers may unwind (exit/terminate).
struct DepthGuard {
  int& depth;
  explicit DepthGuard(int& d) : depth(d) { ++depth; }
  ~DepthGuard() { --depth; }
};

// --- completion validation (the containment plane's garble detector) ---------

// The known errno vocabulary tops out well below this (kENosys == 78); a
// handler returning a "status" far outside it has corrupted the completion.
constexpr int kMaxPlausibleErrno = 255;

bool IsTransferNumber(int number) {
  return number == kSysRead || number == kSysWrite || number == kSysReadv ||
         number == kSysWritev;
}

// Bytes the application asked for, or -1 when the request itself is malformed
// (then the kernel's own validation owns the outcome and the check is waived).
int64_t RequestedTransferBytes(int number, const SyscallArgs& args) {
  if (number == kSysRead || number == kSysWrite) {
    const int64_t count = args.Long(2);
    return count >= 0 ? count : -1;
  }
  const auto* iov = args.Ptr<const IoVec>(1);
  const int iovcnt = args.Int(2);
  if (iov == nullptr || iovcnt <= 0 || iovcnt > kMaxIoVecs) {
    return -1;
  }
  int64_t total = 0;
  for (int i = 0; i < iovcnt; ++i) {
    if (iov[i].iov_len > 0) {
      total += iov[i].iov_len;
    }
  }
  return total;
}

// A completion a correct frame could legitimately produce: failures carry an
// errno in the known range, and a transfer never claims more bytes than the
// application requested. Validation sees the ORIGINAL arguments, so agents
// that only shrink a transfer (chaos shorts, retry resumes) always pass.
bool PlausibleCompletion(int number, const SyscallArgs& args, SyscallStatus status) {
  if (status < 0) {
    return status >= -kMaxPlausibleErrno;
  }
  if (IsTransferNumber(number)) {
    const int64_t want = RequestedTransferBytes(number, args);
    if (want >= 0 && status > want) {
      return false;
    }
  }
  return true;
}

}  // namespace

// Default quarantine action: a raw handler has no bookkeeping rows to keep, so
// the frame's interest is cleared outright — every number (and signal) returns
// to the remaining stack and the kernel lanes. Lives here rather than in the
// header because emulation.h cannot see ProcessContext's definition.
void SyscallHandler::OnQuarantine(ProcessContext& ctx, int frame) {
  ctx.emulation().SetInterest(frame, std::bitset<kMaxSyscall>{}, 0);
}

int ProcessContext::PushEmulation(EmulationFrame frame) {
  std::shared_ptr<FrameHealth> health = frame.health;
  if (health == nullptr) {
    health = std::make_shared<FrameHealth>();
    frame.health = health;
  }
  // Identity is finalized before registration publishes the record; snapshot
  // readers on other threads then only ever touch the atomics.
  health->pid = proc_->pid;
  const int index = proc_->emulation.Push(std::move(frame));
  health->frame = index;
  kernel_->RegisterFrameHealth(health);
  return index;
}

SyscallStatus ProcessContext::InvokeFrame(int frame, int number, const SyscallArgs& args,
                                          SyscallResult* rv) {
  // Copies outlive any stack mutation the handler performs underneath us.
  std::shared_ptr<SyscallHandler> handler = proc_->emulation.At(frame).handler;
  std::shared_ptr<FrameHealth> health = proc_->emulation.At(frame).health;
  if (health == nullptr || !health->policy.enabled) {
    // Uncontained escape hatch: frames pushed behind PushEmulation's back, or
    // with containment explicitly disabled, run bare.
    return handler->HandleSyscall(*this, frame, number, args, rv);
  }
  health->calls.fetch_add(1, std::memory_order_relaxed);
  bool failed = false;
  FrameFailureKind kind = FrameFailureKind::kTrap;
  SyscallStatus status = 0;
  {
    // The budget scope covers only the handler's own execution; it is popped
    // before failure handling so the containment re-issue is never charged to
    // the failed frame.
    ActiveFrameBudget budget{frame, health.get(), 0, proc_->host->clock().Now(), active_budget_};
    active_budget_ = &budget;
    struct BudgetScope {
      ProcessContext* ctx;
      ActiveFrameBudget* prev;
      ~BudgetScope() { ctx->active_budget_ = prev; }
    } scope{this, budget.prev};
    try {
      status = handler->HandleSyscall(*this, frame, number, args, rv);
      if (!PlausibleCompletion(number, args, status)) {
        failed = true;
        kind = FrameFailureKind::kGarbledResult;
      }
    } catch (const ExitUnwind&) {
      throw;  // process control flow, not a frame fault
    } catch (const ExecveUnwind&) {
      throw;
    } catch (const FrameBudgetExceeded& e) {
      if (e.frame != frame) {
        throw;  // belongs to an enclosing frame's trap
      }
      failed = true;
      kind = FrameFailureKind::kBudgetOverrun;
    } catch (...) {
      failed = true;
      kind = FrameFailureKind::kTrap;
    }
  }
  if (!failed) {
    NoteFrameSuccess(*health);
    return status;
  }
  NoteFrameFailure(frame, handler, health, kind, number);
  // The frame did not produce a trustworthy completion. Re-issue the call down
  // the remaining stack so the application still sees the correct result —
  // containment holds whether or not the breaker has tripped yet.
  return SyscallBelow(frame, number, args, rv);
}

void ProcessContext::ChargeFrameBudget(int frame) {
  // Innermost matching scope only: a frame's down-calls charge that frame,
  // even when the call then traverses further frames below it.
  for (ActiveFrameBudget* b = active_budget_; b != nullptr; b = b->prev) {
    if (b->frame != frame) {
      continue;
    }
    const ContainmentPolicy& policy = b->health->policy;
    b->downcalls += 1;
    if (policy.max_downcalls_per_call >= 0 && b->downcalls > policy.max_downcalls_per_call) {
      throw FrameBudgetExceeded{frame};
    }
    if (policy.max_vtime_per_call_usec >= 0 &&
        proc_->host->clock().Now() - b->vtime_start > policy.max_vtime_per_call_usec) {
      throw FrameBudgetExceeded{frame};
    }
    return;
  }
}

void ProcessContext::NoteFrameSuccess(FrameHealth& health) {
  health.streak.store(0, std::memory_order_relaxed);
  if (health.State() == BreakerState::kHalfOpen) {
    // One clean probe; when the last probe passes the breaker closes fully.
    if (health.probes_left.fetch_sub(1, std::memory_order_relaxed) <= 1) {
      health.state.store(static_cast<uint8_t>(BreakerState::kClosed),
                         std::memory_order_relaxed);
    }
  }
}

void ProcessContext::NoteFrameFailure(int frame, const std::shared_ptr<SyscallHandler>& handler,
                                      const std::shared_ptr<FrameHealth>& health,
                                      FrameFailureKind kind, int number) {
  switch (kind) {
    case FrameFailureKind::kTrap:
      health->traps.fetch_add(1, std::memory_order_relaxed);
      break;
    case FrameFailureKind::kGarbledResult:
      health->garbled.fetch_add(1, std::memory_order_relaxed);
      break;
    case FrameFailureKind::kBudgetOverrun:
      health->overruns.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  kernel_->NoteFrameFault(kind);
  const BreakerState state = health->State();
  if (state == BreakerState::kOpen) {
    // Already quarantined (a bookkeeping pass-through row failed); the call
    // was still contained and re-issued, but there is nothing left to trip.
    return;
  }
  const int streak = health->streak.fetch_add(1, std::memory_order_relaxed) + 1;
  const bool half_open_retrip = state == BreakerState::kHalfOpen;
  if (!half_open_retrip && streak < health->policy.trip_streak) {
    return;
  }
  // Trip: quarantine the frame. The handler may have mutated the stack before
  // failing, so only rewrite the slot this health record still owns.
  health->state.store(static_cast<uint8_t>(BreakerState::kOpen), std::memory_order_relaxed);
  health->trips.fetch_add(1, std::memory_order_relaxed);
  if (frame < proc_->emulation.Depth() && proc_->emulation.At(frame).health == health) {
    handler->OnQuarantine(*this, frame);
  }
  kernel_->NoteQuarantine(*health, number, half_open_retrip);
}

SyscallStatus ProcessContext::ExecuteRequest(const SyscallRequest& req, SyscallResult* rv) {
  DepthGuard guard(syscall_depth_);
  const int number = req.number;
  if (number < 0 || number >= kMaxSyscall) {
    // Out-of-table numbers have no route (or interest bit); the kernel's own
    // dispatcher produces the ENOSYS.
    return kernel_->DoSyscall(*proc_, number, req.args, rv);
  }
  // Compiled dispatch: the route holds the exact interested frames for this
  // number, so the narrowed common case is one generation compare and an
  // empty check before the kernel lane — no per-frame scan.
  const CompiledRoute& route = proc_->emulation.RouteFor(number);
  if (route.hops.empty()) {
    return kernel_->DoSyscall(*proc_, number, req.args, rv);
  }
  // Copy the hop before invoking: the handler may mutate the stack, which
  // invalidates `route`.
  const int frame = route.hops.front();
  return InvokeFrame(frame, number, req.args, rv);
}

SyscallStatus ProcessContext::Syscall(int number, const SyscallArgs& args, SyscallResult* rv) {
  SyscallResult local;
  if (rv == nullptr) {
    rv = &local;
  }
  SyscallRequest req;
  req.number = number;
  req.args = args;
  const SyscallStatus status = ExecuteRequest(req, rv);
  if (syscall_depth_ == 0) {
    ProcessBoundary();
  }
  return status;
}

// ---------------------------------------------------------------------------
// Ring path.
// ---------------------------------------------------------------------------

SyscallRing& ProcessContext::Ring(uint32_t entries) {
  if (proc_->ring == nullptr) {
    proc_->ring = std::make_unique<SyscallRing>(entries);
  }
  return *proc_->ring;
}

uint32_t ProcessContext::SubmitBatch(const SyscallRequest* reqs, uint32_t count) {
  return Ring().SubmitBatch(reqs, count);
}

int ProcessContext::DrainRing() {
  // A drain nested inside an entry (an agent's handler calling DrainRing)
  // would complete the entries queued behind that entry ahead of it; it
  // drains nothing instead.
  if (proc_->ring == nullptr || syscall_depth_ > 0) {
    return 0;
  }
  SyscallRing& ring = *proc_->ring;
  int completed = 0;
  {
    DepthGuard guard(syscall_depth_);
    // Runs of consecutive kernel-lane entries go through the kernel's
    // dispatch core as one batch each. kRunMax bounds the tree hold the
    // core keeps across a batch's entries, which a waiting writer sits
    // behind (rwlock.h: "Writers wait for the run").
    constexpr int kRunMax = 64;
    // Route amortization: with no emulation frames at all (the common
    // batch-client shape) skip the route lookup entirely; otherwise one
    // compiled-route consultation decides the lane.
    auto kernel_lane = [this](int number) {
      return number >= 0 && number < kMaxSyscall &&
             (proc_->emulation.Empty() || proc_->emulation.RouteFor(number).hops.empty());
    };
    // exit/exec end a run: its batch sees the pending state and stops the
    // drain before any later entry runs, as synchronous issue would.
    auto ends_run = [](int number) {
      return number == kSysExit || number == kSysExecve || number == kSysExecv;
    };
    // Every entry is read from its submission slot and completes into the
    // completion slot at the same position (SyscallRing::Queued), and
    // entries complete one after another, so completions keep submission
    // order.
    for (SyscallBatch queued = ring.Queued(); queued.count > 0; queued = ring.Queued()) {
      int len = 0;
      const int limit = std::min(queued.count, kRunMax);
      while (len < limit && kernel_lane(queued.req(len).number)) {
        if (ends_run(queued.req(len++).number)) {
          break;
        }
      }
      if (len > 0) {
        queued.count = len;
        kernel_->DoSyscallBatch(*proc_, queued);
      } else {
        // Agent-routed (or out-of-table) entry: executed through the
        // emulation stack exactly like a synchronous call.
        len = 1;
        const SyscallRequest& req = queued.req(0);
        SyscallCompletion& comp = queued.comp(0);
        comp = SyscallCompletion{};
        comp.user_data = req.user_data;
        try {
          comp.status = ExecuteRequest(req, &comp.result);
        } catch (const ExitUnwind&) {
          // Process control flow: complete the claimed entry (EINTR, as a
          // call cut short at the boundary) so every submission still
          // completes, then let the unwind continue to the trampoline.
          comp.status = -kEIntr;
          comp.vtime_usec = proc_->host->clock().Now();
          ring.Complete(1);
          throw;
        } catch (const ExecveUnwind&) {
          comp.status = -kEIntr;
          comp.vtime_usec = proc_->host->clock().Now();
          ring.Complete(1);
          throw;
        } catch (...) {
          // Poisoned entry: an UNCONTAINED frame (raw emulation().Push(), or
          // containment disabled by policy) threw out of the drain. Complete
          // the entry with EIO instead of leaving its ring slot in flight
          // forever; the drain itself stays usable.
          comp.status = -kEIo;
        }
        comp.vtime_usec = proc_->host->clock().Now();
      }
      ring.Complete(static_cast<uint32_t>(len));
      completed += len;
      if (proc_->exit_pending || proc_->pending_exec.valid) {
        break;  // stop claiming entries; the rest stay queued
      }
    }
  }
  ProcessBoundary();
  return completed;
}

bool ProcessContext::Reap(SyscallCompletion* out) {
  if (proc_->ring == nullptr) {
    return false;
  }
  return proc_->ring->Reap(out);
}

uint32_t ProcessContext::ReapBatch(SyscallCompletion* out, uint32_t max) {
  if (proc_->ring == nullptr) {
    return 0;
  }
  return proc_->ring->ReapBatch(out, max);
}

SyscallStatus ProcessContext::SyscallBelow(int frame, int number, const SyscallArgs& args,
                                           SyscallResult* rv) {
  SyscallResult local;
  if (rv == nullptr) {
    rv = &local;
  }
  if (active_budget_ != nullptr) {
    // Watchdog: every down-call from `frame` (including DownApi::Raw, which
    // bypasses the interpose layer entirely) charges that frame's live
    // per-call budget. Throws FrameBudgetExceeded back to the frame's trap.
    ChargeFrameBudget(frame);
  }
  if (number >= 0 && number < kMaxSyscall) {
    // The route for `number` (which need not be the intercepted call — agents
    // issue their own I/O on the lower interface) lists interested frames in
    // descending order; the next hop is the first one strictly below `frame`.
    const CompiledRoute& route = proc_->emulation.RouteFor(number);
    for (const int16_t hop : route.hops) {
      if (hop < frame) {
        return InvokeFrame(hop, number, args, rv);
      }
    }
  }
  return kernel_->DoSyscall(*proc_, number, args, rv);
}

SyscallStatus ProcessContext::TrapKernel(int number, const SyscallArgs& args, SyscallResult* rv) {
  SyscallResult local;
  if (rv == nullptr) {
    rv = &local;
  }
  return kernel_->DoSyscall(*proc_, number, args, rv);
}

void ProcessContext::ProcessBoundary() {
  if (signal_depth_ == 0) {
    CheckPendingSignals();
    if (proc_->sigpause_restore) {
      proc_->sig_mask = proc_->sigpause_saved_mask;
      proc_->sigpause_restore = false;
    }
  }
  if (proc_->exit_pending) {
    const int wait_status = proc_->exit_wait_status;
    kernel_->FinalizeExit(*proc_, wait_status);
    throw ExitUnwind{wait_status};
  }
  if (proc_->pending_exec.valid) {
    if (!proc_->pending_exec.preserve_emulation) {
      proc_->emulation.Clear();
    }
    // The ring belongs to the image: its queued entries point into the image
    // being unwound, and its completions answer that image's submissions.
    proc_->ring.reset();
    throw ExecveUnwind{};
  }
}

void ProcessContext::TerminateBySignal(int signo) {
  const int wait_status = WaitStatusSignaled(signo);
  kernel_->FinalizeExit(*proc_, wait_status);
  throw ExitUnwind{wait_status};
}

// ---------------------------------------------------------------------------
// Signal upcall path.
// ---------------------------------------------------------------------------

void ProcessContext::CheckPendingSignals() {
  ++signal_depth_;
  struct DepthGuard {
    int& depth;
    ~DepthGuard() { --depth; }
  } guard{signal_depth_};
  for (;;) {
    // Runs at every syscall boundary, so it must stay cheap on the (usual)
    // quiet path: TakeDeliverableSignal early-outs on a lock-free atomic load
    // of sig_pending and only takes the big lock when something is pending.
    const int signo = kernel_->TakeDeliverableSignal(*proc_);
    if (signo == 0) {
      return;
    }
    if (signo == kSigKill) {
      // SIGKILL is not interposable: with agents sharing the victim's address
      // space, the kernel's kill reaches them exactly as it reaches the client.
      TerminateBySignal(kSigKill);
    }
    RouteSignal(signo);
    if (proc_->exit_pending) {
      return;  // a handler requested exit; the boundary finishes the job
    }
  }
}

void ProcessContext::RouteSignal(int signo) {
  const int frame = proc_->emulation.NextSignalInterestAbove(-1, signo);
  if (frame >= 0) {
    std::shared_ptr<SyscallHandler> handler = proc_->emulation.At(frame).handler;
    handler->HandleSignal(*this, frame, signo);
    return;
  }
  DeliverToApplication(signo);
}

void ProcessContext::ForwardSignal(int frame, int signo) {
  const int next = proc_->emulation.NextSignalInterestAbove(frame, signo);
  if (next >= 0) {
    std::shared_ptr<SyscallHandler> handler = proc_->emulation.At(next).handler;
    handler->HandleSignal(*this, next, signo);
    return;
  }
  DeliverToApplication(signo);
}

void ProcessContext::DeliverToApplication(int signo) {
  const SignalAction action = proc_->actions[static_cast<size_t>(signo)];
  if (action.IsIgnore()) {
    return;
  }
  if (action.IsHandler() && action.fn != nullptr) {
    const uint32_t saved_mask = proc_->sig_mask;
    proc_->sig_mask |= action.mask | SigMask(signo);
    action.fn(*this, signo);
    proc_->sig_mask = saved_mask;
    return;
  }
  switch (DefaultActionFor(signo)) {
    case SigDefault::kTerminate:
      TerminateBySignal(signo);
    case SigDefault::kIgnore:
    case SigDefault::kContinue:
      return;
    case SigDefault::kStop:
      kernel_->StopSelf(*proc_);
      return;
  }
}

// ---------------------------------------------------------------------------
// Trampoline.
// ---------------------------------------------------------------------------

void ProcessContext::RunToCompletion() {
  for (;;) {
    if (!proc_->pending_exec.valid) {
      return;
    }
    ProgramMain main = std::move(proc_->pending_exec.main);
    proc_->argv = std::move(proc_->pending_exec.argv);
    proc_->image_name = std::move(proc_->pending_exec.image_name);
    proc_->image_path = std::move(proc_->pending_exec.path);
    proc_->pending_exec = PendingExec{};
    try {
      const int code = main != nullptr ? main(*this) : 0;
      Exit(code);
    } catch (const ExecveUnwind&) {
      continue;
    } catch (const ExitUnwind&) {
      return;  // FinalizeExit has already run
    }
  }
}

void ProcessContext::Yield() { FiberHost::Yield(); }

void ProcessContext::Exit(int code) {
  SyscallArgs args;
  args.SetInt(0, code);
  Syscall(kSysExit, args, nullptr);
  // Reached only if an agent swallowed the exit or we are nested inside a handler
  // frame: _exit(2) must not return, so force the unwind.
  if (!proc_->exit_pending) {
    proc_->exit_pending = true;
    proc_->exit_wait_status = WaitStatusExited(code & 0xff);
  }
  kernel_->FinalizeExit(*proc_, proc_->exit_wait_status);
  throw ExitUnwind{proc_->exit_wait_status};
}

// ---------------------------------------------------------------------------
// Typed wrappers.
// ---------------------------------------------------------------------------

namespace {

// Returns rv[0] on success, the (negative) status on failure.
int64_t ValueOrError(SyscallStatus status, const SyscallResult& rv) {
  return status < 0 ? status : rv.rv[0];
}

}  // namespace

int ProcessContext::Open(const std::string& path, int flags, Mode mode) {
  SyscallArgs args;
  SyscallResult rv;
  args.SetPtr(0, path.c_str());
  args.SetInt(1, flags);
  args.SetInt(2, mode);
  return static_cast<int>(ValueOrError(Syscall(kSysOpen, args, &rv), rv));
}

int ProcessContext::Close(int fd) {
  SyscallArgs args;
  args.SetInt(0, fd);
  return Syscall(kSysClose, args, nullptr);
}

int64_t ProcessContext::Read(int fd, void* buf, int64_t count) {
  SyscallArgs args;
  SyscallResult rv;
  args.SetInt(0, fd);
  args.SetPtr(1, buf);
  args.SetInt(2, count);
  return ValueOrError(Syscall(kSysRead, args, &rv), rv);
}

int64_t ProcessContext::Write(int fd, const void* buf, int64_t count) {
  SyscallArgs args;
  SyscallResult rv;
  args.SetInt(0, fd);
  args.SetPtr(1, buf);
  args.SetInt(2, count);
  return ValueOrError(Syscall(kSysWrite, args, &rv), rv);
}

int64_t ProcessContext::Readv(int fd, const IoVec* iov, int iovcnt) {
  SyscallArgs args;
  SyscallResult rv;
  args.SetInt(0, fd);
  args.SetPtr(1, iov);
  args.SetInt(2, iovcnt);
  return ValueOrError(Syscall(kSysReadv, args, &rv), rv);
}

int64_t ProcessContext::Writev(int fd, const IoVec* iov, int iovcnt) {
  SyscallArgs args;
  SyscallResult rv;
  args.SetInt(0, fd);
  args.SetPtr(1, iov);
  args.SetInt(2, iovcnt);
  return ValueOrError(Syscall(kSysWritev, args, &rv), rv);
}

int64_t ProcessContext::Lseek(int fd, Off offset, int whence) {
  SyscallArgs args;
  SyscallResult rv;
  args.SetInt(0, fd);
  args.SetInt(1, offset);
  args.SetInt(2, whence);
  return ValueOrError(Syscall(kSysLseek, args, &rv), rv);
}

int ProcessContext::Stat(const std::string& path, ia::Stat* st) {
  SyscallArgs args;
  args.SetPtr(0, path.c_str());
  args.SetPtr(1, st);
  return Syscall(kSysStat, args, nullptr);
}

int ProcessContext::Lstat(const std::string& path, ia::Stat* st) {
  SyscallArgs args;
  args.SetPtr(0, path.c_str());
  args.SetPtr(1, st);
  return Syscall(kSysLstat, args, nullptr);
}

int ProcessContext::Fstat(int fd, ia::Stat* st) {
  SyscallArgs args;
  args.SetInt(0, fd);
  args.SetPtr(1, st);
  return Syscall(kSysFstat, args, nullptr);
}

int ProcessContext::Link(const std::string& existing, const std::string& new_path) {
  SyscallArgs args;
  args.SetPtr(0, existing.c_str());
  args.SetPtr(1, new_path.c_str());
  return Syscall(kSysLink, args, nullptr);
}

int ProcessContext::Unlink(const std::string& path) {
  SyscallArgs args;
  args.SetPtr(0, path.c_str());
  return Syscall(kSysUnlink, args, nullptr);
}

int ProcessContext::Symlink(const std::string& target, const std::string& link_path) {
  SyscallArgs args;
  args.SetPtr(0, target.c_str());
  args.SetPtr(1, link_path.c_str());
  return Syscall(kSysSymlink, args, nullptr);
}

int ProcessContext::Readlink(const std::string& path, char* buf, int64_t bufsize) {
  SyscallArgs args;
  SyscallResult rv;
  args.SetPtr(0, path.c_str());
  args.SetPtr(1, buf);
  args.SetInt(2, bufsize);
  return static_cast<int>(ValueOrError(Syscall(kSysReadlink, args, &rv), rv));
}

int ProcessContext::Rename(const std::string& from, const std::string& to) {
  SyscallArgs args;
  args.SetPtr(0, from.c_str());
  args.SetPtr(1, to.c_str());
  return Syscall(kSysRename, args, nullptr);
}

int ProcessContext::Mkdir(const std::string& path, Mode mode) {
  SyscallArgs args;
  args.SetPtr(0, path.c_str());
  args.SetInt(1, mode);
  return Syscall(kSysMkdir, args, nullptr);
}

int ProcessContext::Rmdir(const std::string& path) {
  SyscallArgs args;
  args.SetPtr(0, path.c_str());
  return Syscall(kSysRmdir, args, nullptr);
}

int ProcessContext::Chdir(const std::string& path) {
  SyscallArgs args;
  args.SetPtr(0, path.c_str());
  return Syscall(kSysChdir, args, nullptr);
}

int ProcessContext::Fchdir(int fd) {
  SyscallArgs args;
  args.SetInt(0, fd);
  return Syscall(kSysFchdir, args, nullptr);
}

int ProcessContext::Chroot(const std::string& path) {
  SyscallArgs args;
  args.SetPtr(0, path.c_str());
  return Syscall(kSysChroot, args, nullptr);
}

int ProcessContext::Chmod(const std::string& path, Mode mode) {
  SyscallArgs args;
  args.SetPtr(0, path.c_str());
  args.SetInt(1, mode);
  return Syscall(kSysChmod, args, nullptr);
}

int ProcessContext::Fchmod(int fd, Mode mode) {
  SyscallArgs args;
  args.SetInt(0, fd);
  args.SetInt(1, mode);
  return Syscall(kSysFchmod, args, nullptr);
}

int ProcessContext::Chown(const std::string& path, Uid uid, Gid gid) {
  SyscallArgs args;
  args.SetPtr(0, path.c_str());
  args.SetInt(1, uid);
  args.SetInt(2, gid);
  return Syscall(kSysChown, args, nullptr);
}

int ProcessContext::Fchown(int fd, Uid uid, Gid gid) {
  SyscallArgs args;
  args.SetInt(0, fd);
  args.SetInt(1, uid);
  args.SetInt(2, gid);
  return Syscall(kSysFchown, args, nullptr);
}

int ProcessContext::Access(const std::string& path, int amode) {
  SyscallArgs args;
  args.SetPtr(0, path.c_str());
  args.SetInt(1, amode);
  return Syscall(kSysAccess, args, nullptr);
}

int ProcessContext::Utimes(const std::string& path, const TimeVal* times) {
  SyscallArgs args;
  args.SetPtr(0, path.c_str());
  args.SetPtr(1, times);
  return Syscall(kSysUtimes, args, nullptr);
}

int ProcessContext::Truncate(const std::string& path, Off length) {
  SyscallArgs args;
  args.SetPtr(0, path.c_str());
  args.SetInt(1, length);
  return Syscall(kSysTruncate, args, nullptr);
}

int ProcessContext::Ftruncate(int fd, Off length) {
  SyscallArgs args;
  args.SetInt(0, fd);
  args.SetInt(1, length);
  return Syscall(kSysFtruncate, args, nullptr);
}

Mode ProcessContext::Umask(Mode mask) {
  SyscallArgs args;
  SyscallResult rv;
  args.SetInt(0, mask);
  Syscall(kSysUmask, args, &rv);
  return static_cast<Mode>(rv.rv[0]);
}

int ProcessContext::Dup(int fd) {
  SyscallArgs args;
  SyscallResult rv;
  args.SetInt(0, fd);
  return static_cast<int>(ValueOrError(Syscall(kSysDup, args, &rv), rv));
}

int ProcessContext::Dup2(int from, int to) {
  SyscallArgs args;
  SyscallResult rv;
  args.SetInt(0, from);
  args.SetInt(1, to);
  return static_cast<int>(ValueOrError(Syscall(kSysDup2, args, &rv), rv));
}

int ProcessContext::Pipe(int fds_out[2]) {
  SyscallArgs args;
  SyscallResult rv;
  const SyscallStatus status = Syscall(kSysPipe, args, &rv);
  if (status < 0) {
    return status;
  }
  fds_out[0] = static_cast<int>(rv.rv[0]);
  fds_out[1] = static_cast<int>(rv.rv[1]);
  return 0;
}

int ProcessContext::Socket(int domain, int type, int protocol) {
  SyscallArgs args;
  SyscallResult rv;
  args.SetInt(0, domain);
  args.SetInt(1, type);
  args.SetInt(2, protocol);
  return static_cast<int>(ValueOrError(Syscall(kSysSocket, args, &rv), rv));
}

int ProcessContext::Bind(int fd, const SockAddr* addr, int addrlen) {
  SyscallArgs args;
  args.SetInt(0, fd);
  args.SetPtr(1, addr);
  args.SetInt(2, addrlen);
  return Syscall(kSysBind, args, nullptr);
}

int ProcessContext::BindUnix(int fd, const std::string& path) {
  SockAddr sa;
  const int len = MakeUnixSockAddr(path, &sa);
  return Bind(fd, &sa, len);
}

int ProcessContext::Connect(int fd, const SockAddr* addr, int addrlen) {
  SyscallArgs args;
  args.SetInt(0, fd);
  args.SetPtr(1, addr);
  args.SetInt(2, addrlen);
  return Syscall(kSysConnect, args, nullptr);
}

int ProcessContext::ConnectUnix(int fd, const std::string& path) {
  SockAddr sa;
  const int len = MakeUnixSockAddr(path, &sa);
  return Connect(fd, &sa, len);
}

int ProcessContext::Listen(int fd, int backlog) {
  SyscallArgs args;
  args.SetInt(0, fd);
  args.SetInt(1, backlog);
  return Syscall(kSysListen, args, nullptr);
}

int ProcessContext::Accept(int fd, SockAddr* addr, int* addrlen) {
  SyscallArgs args;
  SyscallResult rv;
  args.SetInt(0, fd);
  args.SetPtr(1, addr);
  args.SetPtr(2, addrlen);
  return static_cast<int>(ValueOrError(Syscall(kSysAccept, args, &rv), rv));
}

int ProcessContext::Socketpair(int domain, int type, int protocol, int sv_out[2]) {
  SyscallArgs args;
  args.SetInt(0, domain);
  args.SetInt(1, type);
  args.SetInt(2, protocol);
  args.SetPtr(3, sv_out);
  return Syscall(kSysSocketpair, args, nullptr);
}

int64_t ProcessContext::Send(int fd, const void* buf, int64_t count, int flags) {
  SyscallArgs args;
  SyscallResult rv;
  args.SetInt(0, fd);
  args.SetPtr(1, buf);
  args.SetInt(2, count);
  args.SetInt(3, flags);
  return ValueOrError(Syscall(kSysSend, args, &rv), rv);
}

int64_t ProcessContext::Recv(int fd, void* buf, int64_t count, int flags) {
  SyscallArgs args;
  SyscallResult rv;
  args.SetInt(0, fd);
  args.SetPtr(1, buf);
  args.SetInt(2, count);
  args.SetInt(3, flags);
  return ValueOrError(Syscall(kSysRecv, args, &rv), rv);
}

int64_t ProcessContext::Sendto(int fd, const void* buf, int64_t count, int flags,
                               const SockAddr* addr, int addrlen) {
  SyscallArgs args;
  SyscallResult rv;
  args.SetInt(0, fd);
  args.SetPtr(1, buf);
  args.SetInt(2, count);
  args.SetInt(3, flags);
  args.SetPtr(4, addr);
  args.SetInt(5, addrlen);
  return ValueOrError(Syscall(kSysSendto, args, &rv), rv);
}

int64_t ProcessContext::Recvfrom(int fd, void* buf, int64_t count, int flags, SockAddr* addr,
                                 int* addrlen) {
  SyscallArgs args;
  SyscallResult rv;
  args.SetInt(0, fd);
  args.SetPtr(1, buf);
  args.SetInt(2, count);
  args.SetInt(3, flags);
  args.SetPtr(4, addr);
  args.SetPtr(5, addrlen);
  return ValueOrError(Syscall(kSysRecvfrom, args, &rv), rv);
}

int ProcessContext::Getsockname(int fd, SockAddr* addr, int* addrlen) {
  SyscallArgs args;
  args.SetInt(0, fd);
  args.SetPtr(1, addr);
  args.SetPtr(2, addrlen);
  return Syscall(kSysGetsockname, args, nullptr);
}

int ProcessContext::Getpeername(int fd, SockAddr* addr, int* addrlen) {
  SyscallArgs args;
  args.SetInt(0, fd);
  args.SetPtr(1, addr);
  args.SetPtr(2, addrlen);
  return Syscall(kSysGetpeername, args, nullptr);
}

int ProcessContext::Shutdown(int fd, int how) {
  SyscallArgs args;
  args.SetInt(0, fd);
  args.SetInt(1, how);
  return Syscall(kSysShutdown, args, nullptr);
}

int ProcessContext::Fcntl(int fd, int cmd, int64_t arg) {
  SyscallArgs args;
  SyscallResult rv;
  args.SetInt(0, fd);
  args.SetInt(1, cmd);
  args.SetInt(2, arg);
  return static_cast<int>(ValueOrError(Syscall(kSysFcntl, args, &rv), rv));
}

int ProcessContext::Flock(int fd, int operation) {
  SyscallArgs args;
  args.SetInt(0, fd);
  args.SetInt(1, operation);
  return Syscall(kSysFlock, args, nullptr);
}

int ProcessContext::Fsync(int fd) {
  SyscallArgs args;
  args.SetInt(0, fd);
  return Syscall(kSysFsync, args, nullptr);
}

int ProcessContext::Sync() {
  SyscallArgs args;
  return Syscall(kSysSync, args, nullptr);
}

int ProcessContext::Ioctl(int fd, uint64_t request, void* argp) {
  SyscallArgs args;
  args.SetInt(0, fd);
  args.arg[1] = request;
  args.SetPtr(2, argp);
  return Syscall(kSysIoctl, args, nullptr);
}

int ProcessContext::Getdirentries(int fd, char* buf, int nbytes, int64_t* basep) {
  SyscallArgs args;
  SyscallResult rv;
  args.SetInt(0, fd);
  args.SetPtr(1, buf);
  args.SetInt(2, nbytes);
  args.SetPtr(3, basep);
  return static_cast<int>(ValueOrError(Syscall(kSysGetdirentries, args, &rv), rv));
}

Pid ProcessContext::Getpid() {
  SyscallArgs args;
  SyscallResult rv;
  Syscall(kSysGetpid, args, &rv);
  return static_cast<Pid>(rv.rv[0]);
}

Pid ProcessContext::Getppid() {
  SyscallArgs args;
  SyscallResult rv;
  Syscall(kSysGetppid, args, &rv);
  return static_cast<Pid>(rv.rv[0]);
}

Uid ProcessContext::Getuid() {
  SyscallArgs args;
  SyscallResult rv;
  Syscall(kSysGetuid, args, &rv);
  return static_cast<Uid>(rv.rv[0]);
}

Uid ProcessContext::Geteuid() {
  SyscallArgs args;
  SyscallResult rv;
  Syscall(kSysGeteuid, args, &rv);
  return static_cast<Uid>(rv.rv[0]);
}

Gid ProcessContext::Getgid() {
  SyscallArgs args;
  SyscallResult rv;
  Syscall(kSysGetgid, args, &rv);
  return static_cast<Gid>(rv.rv[0]);
}

Gid ProcessContext::Getegid() {
  SyscallArgs args;
  SyscallResult rv;
  Syscall(kSysGetegid, args, &rv);
  return static_cast<Gid>(rv.rv[0]);
}

int ProcessContext::Setuid(Uid uid) {
  SyscallArgs args;
  args.SetInt(0, uid);
  return Syscall(kSysSetuid, args, nullptr);
}

int ProcessContext::Getgroups(int gidsetlen, Gid* gidset) {
  SyscallArgs args;
  SyscallResult rv;
  args.SetInt(0, gidsetlen);
  args.SetPtr(1, gidset);
  return static_cast<int>(ValueOrError(Syscall(kSysGetgroups, args, &rv), rv));
}

int ProcessContext::Setgroups(int ngroups, const Gid* gidset) {
  SyscallArgs args;
  args.SetInt(0, ngroups);
  args.SetPtr(1, gidset);
  return Syscall(kSysSetgroups, args, nullptr);
}

Pid ProcessContext::Getpgrp() {
  SyscallArgs args;
  SyscallResult rv;
  Syscall(kSysGetpgrp, args, &rv);
  return static_cast<Pid>(rv.rv[0]);
}

int ProcessContext::Setpgrp(Pid pid, Pid pgrp) {
  SyscallArgs args;
  args.SetInt(0, pid);
  args.SetInt(1, pgrp);
  return Syscall(kSysSetpgrp, args, nullptr);
}

int ProcessContext::Getlogin(char* buf, int len) {
  SyscallArgs args;
  args.SetPtr(0, buf);
  args.SetInt(1, len);
  return Syscall(kSysGetlogin, args, nullptr);
}

int ProcessContext::Setlogin(const std::string& name) {
  SyscallArgs args;
  args.SetPtr(0, name.c_str());
  return Syscall(kSysSetlogin, args, nullptr);
}

int ProcessContext::Gethostname(char* buf, int len) {
  SyscallArgs args;
  args.SetPtr(0, buf);
  args.SetInt(1, len);
  return Syscall(kSysGethostname, args, nullptr);
}

int ProcessContext::Sethostname(const std::string& name) {
  SyscallArgs args;
  args.SetPtr(0, name.c_str());
  args.SetInt(1, static_cast<int64_t>(name.size()));
  return Syscall(kSysSethostname, args, nullptr);
}

int ProcessContext::Getdtablesize() {
  SyscallArgs args;
  SyscallResult rv;
  Syscall(kSysGetdtablesize, args, &rv);
  return static_cast<int>(rv.rv[0]);
}

int ProcessContext::Getpagesize() {
  SyscallArgs args;
  SyscallResult rv;
  Syscall(kSysGetpagesize, args, &rv);
  return static_cast<int>(rv.rv[0]);
}

int ProcessContext::Kill(Pid pid, int signo) {
  SyscallArgs args;
  args.SetInt(0, pid);
  args.SetInt(1, signo);
  return Syscall(kSysKill, args, nullptr);
}

int ProcessContext::Killpg(Pid pgrp, int signo) {
  SyscallArgs args;
  args.SetInt(0, pgrp);
  args.SetInt(1, signo);
  return Syscall(kSysKillpg, args, nullptr);
}

int ProcessContext::Sigvec(int signo, uintptr_t disposition,
                           std::function<void(ProcessContext&, int)> handler,
                           uint32_t handler_mask) {
  proc_->staging_handler = std::move(handler);
  SyscallArgs args;
  args.SetInt(0, signo);
  args.SetInt(1, static_cast<int64_t>(disposition));
  args.SetInt(2, handler_mask);
  return Syscall(kSysSigvec, args, nullptr);
}

uint32_t ProcessContext::Sigblock(uint32_t mask) {
  SyscallArgs args;
  SyscallResult rv;
  args.SetInt(0, mask);
  Syscall(kSysSigblock, args, &rv);
  return static_cast<uint32_t>(rv.rv[0]);
}

uint32_t ProcessContext::Sigsetmask(uint32_t mask) {
  SyscallArgs args;
  SyscallResult rv;
  args.SetInt(0, mask);
  Syscall(kSysSigsetmask, args, &rv);
  return static_cast<uint32_t>(rv.rv[0]);
}

int ProcessContext::Sigpause(uint32_t mask) {
  SyscallArgs args;
  args.SetInt(0, mask);
  return Syscall(kSysSigpause, args, nullptr);
}

int ProcessContext::Gettimeofday(TimeVal* tp, TimeZone* tzp) {
  SyscallArgs args;
  args.SetPtr(0, tp);
  args.SetPtr(1, tzp);
  return Syscall(kSysGettimeofday, args, nullptr);
}

int ProcessContext::Settimeofday(const TimeVal* tp, const TimeZone* tzp) {
  SyscallArgs args;
  args.SetPtr(0, tp);
  args.SetPtr(1, tzp);
  return Syscall(kSysSettimeofday, args, nullptr);
}

int ProcessContext::Getrusage(int who, Rusage* usage) {
  SyscallArgs args;
  args.SetInt(0, who);
  args.SetPtr(1, usage);
  return Syscall(kSysGetrusage, args, nullptr);
}

Pid ProcessContext::Fork(std::function<int(ProcessContext&)> child_body) {
  proc_->pending_fork_body = std::move(child_body);
  SyscallArgs args;
  SyscallResult rv;
  const SyscallStatus status = Syscall(kSysFork, args, &rv);
  return status < 0 ? static_cast<Pid>(status) : static_cast<Pid>(rv.rv[0]);
}

int ProcessContext::Execve(const std::string& path, const std::vector<std::string>& argv_in) {
  proc_->exec_argv_staging = argv_in;
  // Plain execve clears the emulation stack; interposed frames re-arm the
  // preserve flag out-of-band on the way down (see AgentHost::DownCall). The
  // numeric arguments stay exactly what the caller supplied.
  proc_->exec_preserve_staging = false;
  SyscallArgs args;
  args.SetPtr(0, path.c_str());
  return Syscall(kSysExecve, args, nullptr);
  // On success, the boundary throws ExecveUnwind before this returns to the caller.
}

Pid ProcessContext::Wait(int* status) { return Wait4(-1, status, 0, nullptr); }

Pid ProcessContext::Wait4(Pid pid, int* status, int options, Rusage* usage) {
  SyscallArgs args;
  SyscallResult rv;
  args.SetInt(0, pid);
  args.SetPtr(1, status);
  args.SetInt(2, options);
  args.SetPtr(3, usage);
  const SyscallStatus st = Syscall(kSysWait4, args, &rv);
  return st < 0 ? static_cast<Pid>(st) : static_cast<Pid>(rv.rv[0]);
}

void ProcessContext::Compute(int64_t micros) {
  kernel_->ConsumeCpu(*proc_, micros);
  if (syscall_depth_ == 0 && signal_depth_ == 0) {
    CheckPendingSignals();
    if (proc_->exit_pending) {
      const int wait_status = proc_->exit_wait_status;
      kernel_->FinalizeExit(*proc_, wait_status);
      throw ExitUnwind{wait_status};
    }
  }
}

// ---------------------------------------------------------------------------
// Conveniences.
// ---------------------------------------------------------------------------

int ProcessContext::WriteString(int fd, const std::string& text) {
  int64_t done = 0;
  while (done < static_cast<int64_t>(text.size())) {
    const int64_t n = Write(fd, text.data() + done, static_cast<int64_t>(text.size()) - done);
    if (n < 0) {
      return static_cast<int>(n);
    }
    if (n == 0) {
      return -kEIo;
    }
    done += n;
  }
  return 0;
}

int ProcessContext::ReadWholeFile(const std::string& path, std::string* out) {
  const int fd = Open(path, kORdonly);
  if (fd < 0) {
    return fd;
  }
  out->clear();
  char buf[4096];
  for (;;) {
    const int64_t n = Read(fd, buf, sizeof(buf));
    if (n < 0) {
      Close(fd);
      return static_cast<int>(n);
    }
    if (n == 0) {
      break;
    }
    out->append(buf, static_cast<size_t>(n));
  }
  Close(fd);
  return 0;
}

int ProcessContext::WriteWholeFile(const std::string& path, const std::string& contents,
                                   Mode mode) {
  const int fd = Open(path, kOWronly | kOCreat | kOTrunc, mode);
  if (fd < 0) {
    return fd;
  }
  const int err = WriteString(fd, contents);
  Close(fd);
  return err;
}

int ProcessContext::ListDirectory(const std::string& path, std::vector<std::string>* names) {
  names->clear();
  const int fd = Open(path, kORdonly);
  if (fd < 0) {
    return fd;
  }
  char buf[2048];
  int64_t base = 0;
  for (;;) {
    const int n = Getdirentries(fd, buf, sizeof(buf), &base);
    if (n < 0) {
      Close(fd);
      return n;
    }
    if (n == 0) {
      break;
    }
    for (const Dirent& d : DecodeDirents(buf, static_cast<size_t>(n))) {
      names->push_back(d.d_name);
    }
  }
  Close(fd);
  return 0;
}

int ProcessContext::Getwd(std::string* out) {
  // Classic getwd(3): climb toward "/" matching inode numbers in each parent.
  std::string prefix;  // grows "../", "../../", ...
  std::vector<std::string> parts;
  for (int depth = 0; depth < 64; ++depth) {
    ia::Stat cur;
    int err = Stat(prefix.empty() ? "." : prefix, &cur);
    if (err < 0) {
      return err;
    }
    ia::Stat up;
    const std::string up_path = prefix + "..";
    err = Stat(up_path, &up);
    if (err < 0) {
      return err;
    }
    if (up.st_ino == cur.st_ino && up.st_dev == cur.st_dev) {
      break;  // reached "/"
    }
    std::vector<std::string> names;
    err = ListDirectory(up_path, &names);
    if (err < 0) {
      return err;
    }
    bool found = false;
    for (const std::string& name : names) {
      if (name == "." || name == "..") {
        continue;
      }
      ia::Stat st;
      if (Lstat(up_path + "/" + name, &st) == 0 && st.st_ino == cur.st_ino) {
        parts.push_back(name);
        found = true;
        break;
      }
    }
    if (!found) {
      return -kENoent;
    }
    prefix += "../";
  }
  out->clear();
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
    *out += "/";
    *out += *it;
  }
  if (out->empty()) {
    *out = "/";
  }
  return 0;
}

int ProcessContext::Spawn(const std::string& path, const std::vector<std::string>& argv_in,
                          int* status) {
  const Pid child = Fork([path, argv_in](ProcessContext& child_ctx) -> int {
    const int err = child_ctx.Execve(path, argv_in);
    child_ctx.WriteString(2, StringPrintf("exec %s: %s\n", path.c_str(),
                                          std::string(ErrnoName(err)).c_str()));
    return 127;
  });
  if (child < 0) {
    return child;
  }
  const Pid got = Wait4(child, status, 0, nullptr);
  return got < 0 ? static_cast<int>(got) : 0;
}

}  // namespace ia
