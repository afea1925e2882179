#include "src/kernel/kernel.h"

#include <algorithm>
#include <cstring>

#include "src/base/shardslot.h"
#include "src/base/strings.h"
#include "src/kernel/direntry_codec.h"
#include "src/kernel/socket.h"

namespace ia {
namespace {

// Adds `micros` to a TimeVal, normalizing the usec field.
void AddMicros(TimeVal* tv, int64_t micros) {
  tv->tv_usec += micros;
  tv->tv_sec += tv->tv_usec / 1000000;
  tv->tv_usec %= 1000000;
}

}  // namespace

Kernel::Kernel(const KernelConfig& config) {
  compute_spin_scale_ = config.compute_spin_scale;
  floor_ = config.epoch_seconds * 1000000;
  fs_.set_now(config.epoch_seconds);
  console_.set_echo_to_host(config.console_echo_to_host);

  // Per-call virtual-time costs come from the cost column of syscalls.def
  // (approximating the no-agent column of paper Table 3-5).
  for (int i = 0; i < kMaxSyscall; ++i) {
    syscall_cost_[i] = SyscallSpecOf(i).default_cost_usec;
  }

  fs_.MkdirAll("/dev");
  fs_.MkdirAll("/tmp", 01777);
  fs_.MkdirAll("/usr/bin");
  fs_.MkdirAll("/usr/lib");
  fs_.MkdirAll("/usr/tmp", 01777);
  fs_.MkdirAll("/bin");
  fs_.MkdirAll("/etc");
  fs_.MkdirAll("/home");
  fs_.InstallDeviceNode("/dev/null", &null_dev_, 0666);
  fs_.InstallDeviceNode("/dev/zero", &zero_dev_, 0666);
  fs_.InstallDeviceNode("/dev/tty", &console_, 0666);
  fs_.InstallDeviceNode("/dev/console", &console_, 0600);
  fs_.InstallDeviceNode("/dev/random", &random_dev_, 0444);
  fs_.InstallFile("/etc/motd", "4.3 BSD UNIX (simulated) #1: Fri Jan 1 00:00:00 PST 1993\n");
  fs_.InstallFile("/etc/passwd", "root:*:0:0:Charlie &:/:/bin/csh\n");
}

Kernel::~Kernel() { Shutdown(); }

void Kernel::SetSyscallCost(int number, int32_t micros) {
  if (number >= 0 && number < kMaxSyscall) {
    syscall_cost_[number] = micros;
  }
}

int32_t Kernel::SyscallCost(int number) const {
  if (number < 0 || number >= kMaxSyscall) {
    return kDefaultSyscallCost;
  }
  return syscall_cost_[number];
}

void Kernel::InstallProgram(const std::string& path, const std::string& image, ProgramMain main,
                            Mode mode) {
  programs_.Register(image, std::move(main));
  // Tree mutation outside the syscall handlers: take the locks of an
  // exclusive namespace mutation (mu_, then the tree lock exclusively) so a
  // program installed while processes run races no walker (namecache.h).
  Lock lk(mu_);
  std::unique_lock<RwLock> tree(fs_.TreeMutex());
  InodeRef file = fs_.InstallFile(path, StringPrintf("\177IMG %s\n", image.c_str()), mode);
  if (file != nullptr) {
    file->exec_image = image;
  }
}

// ---------------------------------------------------------------------------
// Host-side process control.
// ---------------------------------------------------------------------------

Process& Kernel::CreateProcessLocked(Pid ppid) {
  const Pid pid = next_pid_++;
  auto proc = std::make_shared<Process>(pid, ppid);
  proc->context = std::make_unique<ProcessContext>(this, proc.get());
  table_[pid] = proc;
  return *proc;
}

void Kernel::StartProcessLocked(const ProcessRef& proc, FiberHost* host) {
  proc->state = ProcState::kRunning;
  proc->host = host;
  proc->fiber = host->Add([proc] { proc->context->RunToCompletion(); });
}

Pid Kernel::Spawn(const SpawnOptions& options) {
  Lock lk(mu_);
  if (shutting_down_) {
    return -kEAgain;
  }
  Process& proc = CreateProcessLocked(0);
  proc.host_owned = true;
  proc.pgrp = proc.pid;
  proc.cred.ruid = proc.cred.euid = options.uid;
  proc.cred.rgid = proc.cred.egid = options.gid;
  proc.root = fs_.root();

  NameiEnv env{fs_.root(), fs_.root(), &proc.cred};
  NameiResult nr;
  if (fs_.Namei(env, options.cwd, NameiOp::kLookup, /*follow_final=*/true, &nr) == 0 &&
      nr.inode->IsDirectory()) {
    proc.cwd = nr.inode;
  } else {
    proc.cwd = fs_.root();
  }

  if (options.open_console_stdio) {
    NameiResult tty;
    if (fs_.Namei(env, "/dev/tty", NameiOp::kLookup, true, &tty) == 0) {
      for (int fd = 0; fd <= 2; ++fd) {
        proc.fds.Set(fd, MakeVnodeFile(tty.inode, fd == 0 ? kORdonly : kOWronly));
      }
    }
  }

  if (options.body != nullptr) {
    proc.pending_exec.main = options.body;
    proc.pending_exec.argv = options.argv;
    proc.pending_exec.image_name = "<host-body>";
    proc.pending_exec.path = options.path;
    proc.pending_exec.valid = true;
  } else {
    proc.exec_argv_staging = options.argv;
    PendingExec pending;
    const int err = ResolveExecutableLocked(proc, options.path, &pending);
    if (err != 0) {
      table_.erase(proc.pid);
      return err;
    }
    proc.pending_exec = std::move(pending);
  }

  auto host = std::make_unique<FiberHost>();
  host->clock().Set(floor_);
  StartProcessLocked(table_[proc.pid], host.get());
  host->Start();
  hosts_.push_back(std::move(host));
  return proc.pid;
}

ProcessRef Kernel::FindLocked(Pid pid) {
  auto it = table_.find(pid);
  return it == table_.end() ? nullptr : it->second;
}

int Kernel::ReapLocked(Pid pid, Lock& lk, Rusage* child_usage) {
  ProcessRef proc = FindLocked(pid);
  if (proc == nullptr || proc->state != ProcState::kZombie) {
    return -kESrch;
  }
  const int status = proc->exit_status;
  if (child_usage != nullptr) {
    *child_usage = proc->rusage;  // complete before FinalizeExit took mu_
  }
  FiberHost* host = proc->host;
  table_.erase(pid);
  for (const auto& [other_pid, other] : table_) {
    if (other->host == host) {
      return status;  // the host still runs (or will reap) others
    }
  }
  // The last process of its tree: its fiber finishes without blocking, and
  // then the host thread ends. Only a host thread gets here, as a fiber
  // reaps only its own children, which share its host.
  auto it = std::find_if(hosts_.begin(), hosts_.end(),
                         [host](const std::unique_ptr<FiberHost>& h) { return h.get() == host; });
  std::unique_ptr<FiberHost> finished = std::move(*it);
  hosts_.erase(it);
  lk.unlock();
  finished->Join();
  finished.reset();
  lk.lock();
  return status;
}

void Kernel::ReapHostOrphansLocked(Lock& lk) {
  for (;;) {
    Pid victim = 0;
    for (const auto& [pid, proc] : table_) {
      if (proc->state == ProcState::kZombie && proc->ppid == 0 && !proc->host_owned) {
        victim = pid;
        break;
      }
    }
    if (victim == 0) {
      return;
    }
    ReapLocked(victim, lk, nullptr);
  }
}

int Kernel::HostWaitPid(Pid pid) {
  Lock lk(mu_);
  for (;;) {
    ReapHostOrphansLocked(lk);
    ProcessRef proc = FindLocked(pid);
    if (proc == nullptr) {
      return -kESrch;
    }
    if (proc->state == ProcState::kZombie) {
      return ReapLocked(pid, lk, nullptr);
    }
    cv_.wait(lk);
  }
}

void Kernel::Shutdown() {
  Lock lk(mu_);
  shutting_down_ = true;
  for (const auto& [pid, proc] : table_) {
    if (proc->state != ProcState::kZombie) {
      PostSignalLocked(*proc, kSigKill);  // wakes the channel it sleeps on
    }
  }
  while (!table_.empty()) {
    Pid victim = 0;
    for (const auto& [pid, proc] : table_) {
      if (proc->state == ProcState::kZombie) {
        victim = pid;
        break;
      }
    }
    if (victim != 0) {
      ReapLocked(victim, lk, nullptr);
      continue;
    }
    cv_.wait(lk);
  }
}

int Kernel::LiveProcessCount() {
  Lock lk(mu_);
  int count = 0;
  for (const auto& [pid, proc] : table_) {
    if (proc->state != ProcState::kZombie) {
      ++count;
    }
  }
  return count;
}

VirtualMicros Kernel::VirtualNow() {
  Lock lk(mu_);
  VirtualMicros now = floor_;
  for (const std::unique_ptr<FiberHost>& host : hosts_) {
    now = std::max(now, host->clock().Now());
  }
  return now;
}

int64_t Kernel::TotalSyscallCount() {
  // Fold the per-shard tallies (see the stat_shards_ member comment).
  int64_t total = 0;
  for (const StatShard& shard : stat_shards_) {
    total += shard.total_syscalls.load(std::memory_order_relaxed);
  }
  return total;
}

int64_t Kernel::BigLockDispatches() {
  int64_t total = 0;
  for (const StatShard& shard : stat_shards_) {
    total += shard.big_lock_dispatches.load(std::memory_order_relaxed);
  }
  return total;
}

NameCacheStats Kernel::CacheStats() {
  return fs_.namecache().stats();  // internally synchronized
}

std::vector<Pid> Kernel::Pids() {
  Lock lk(mu_);
  std::vector<Pid> pids;
  pids.reserve(table_.size());
  for (const auto& [pid, proc] : table_) {
    pids.push_back(pid);
  }
  return pids;
}

// ---------------------------------------------------------------------------
// Signal support.
// ---------------------------------------------------------------------------

void Kernel::PostSignalLocked(Process& target, int signo) {
  if (target.state == ProcState::kZombie) {
    return;
  }
  if (signo == kSigCont) {
    target.sig_pending &=
        ~(SigMask(kSigStop) | SigMask(kSigTstp) | SigMask(kSigTtin) | SigMask(kSigTtou));
    target.sigcont_pending = true;
  }
  if (signo == kSigStop || signo == kSigTstp || signo == kSigTtin || signo == kSigTtou) {
    target.sig_pending &= ~SigMask(kSigCont);
  }
  target.sig_pending |= SigMask(signo);
  if (target.wchan != nullptr) {
    target.wchan->Wake(target.fiber);  // the target alone, not its co-sleepers
  }
}

int Kernel::KillOneLocked(Process& sender, Process& target, int signo) {
  // target's cred is [big-lock]: its writers dispatch under mu_, held here.
  if (!sender.cred.IsSuperuser() && sender.cred.ruid != target.cred.ruid &&
      sender.cred.euid != target.cred.ruid) {
    return -kEPerm;
  }
  if (signo == 0) {
    return 0;
  }
  PostSignalLocked(target, signo);
  return 0;
}

int Kernel::TakeDeliverableSignal(Process& proc) {
  // Called by proc itself at every syscall boundary: the lock-free
  // early-out keeps the fast paths from queueing on mu_ when (as almost
  // always) nothing is pending. A signal counts in ru_nsignals here, once
  // per delivery (4.3BSD's psig), on the owner's fiber.
  if (proc.sig_pending.load(std::memory_order_acquire) == 0) {
    return 0;
  }
  Lock lk(mu_);
  uint32_t candidates = proc.sig_pending & ~proc.sig_mask;
  candidates |= proc.sig_pending & (SigMask(kSigKill) | SigMask(kSigStop));
  if (candidates == 0) {
    return 0;
  }
  if ((candidates & SigMask(kSigKill)) != 0) {
    proc.sig_pending &= ~SigMask(kSigKill);
    proc.rusage.ru_nsignals += 1;
    return kSigKill;
  }
  for (int signo = 1; signo < kNumSignals; ++signo) {
    if ((candidates & SigMask(signo)) == 0) {
      continue;
    }
    const SignalAction& action = proc.actions[static_cast<size_t>(signo)];
    if (action.IsIgnore() ||
        (action.IsDefault() && DefaultActionFor(signo) == SigDefault::kIgnore)) {
      proc.sig_pending &= ~SigMask(signo);  // discard, as delivery would do nothing
      continue;
    }
    proc.sig_pending &= ~SigMask(signo);
    proc.rusage.ru_nsignals += 1;
    return signo;
  }
  return 0;
}

void Kernel::FinalizeExit(Process& proc, int wait_status) {
  Lock lk(mu_);
  if (proc.state == ProcState::kZombie) {
    return;
  }
  proc.fds.CloseAll();
  proc.cwd.reset();
  proc.root.reset();
  // Fold the process's route-cache tallies into the kernel-wide counters
  // before the stack (and its routes) are torn down.
  route_lookups_.fetch_add(proc.emulation.route_lookups(), std::memory_order_relaxed);
  route_builds_.fetch_add(proc.emulation.route_builds(), std::memory_order_relaxed);
  proc.emulation.Clear();
  // Host threads reap only host children: this exit wakes them if it makes
  // a zombie with the host as its parent, or once Shutdown waits for all.
  bool host_reaps = proc.ppid == 0 || shutting_down_;
  for (const auto& [pid, other] : table_) {
    if (other->ppid == proc.pid) {
      other->ppid = 0;  // orphans re-parent to the host ("init")
      host_reaps = host_reaps || other->state == ProcState::kZombie;
    }
  }
  proc.exit_status = wait_status;
  proc.state = ProcState::kZombie;
  // The exit raises the floor a later spawn starts from.
  if (proc.host->clock().Now() > floor_) {
    floor_ = proc.host->clock().Now();
    fs_.set_now(floor_ / 1000000);
  }
  // The SIGCHLD post is also the parent's wait4 wakeup.
  ProcessRef parent = FindLocked(proc.ppid);
  if (parent != nullptr) {
    PostSignalLocked(*parent, kSigChld);
  }
  if (host_reaps) {
    cv_.notify_all();
  }
}

void Kernel::StopSelf(Process& proc) {
  Lock lk(mu_);
  proc.state = ProcState::kStopped;
  proc.sigcont_pending = false;
  ProcessRef parent = FindLocked(proc.ppid);
  if (parent != nullptr) {
    PostSignalLocked(*parent, kSigChld);
  }
  while (!proc.sigcont_pending && (proc.sig_pending & SigMask(kSigKill)) == 0) {
    Sleep(proc, proc.chan, lk, SleepMode::kUninterruptible);
  }
  proc.sigcont_pending = false;
  proc.state = ProcState::kRunning;
}

void Kernel::ConsumeCpu(Process& proc, int64_t micros) {
  // No big lock: the host clock and rusage belong to the caller's thread.
  proc.host->clock().Advance(micros);
  AddMicros(&proc.rusage.ru_utime, micros);
  if (compute_spin_scale_ > 0.0) {
    // Burn real CPU outside the big lock so wall-clock benchmarks see genuine
    // application work between system calls.
    const auto spin_us = static_cast<int64_t>(static_cast<double>(micros) * compute_spin_scale_);
    const int64_t deadline = MonotonicMicros() + spin_us;
    while (MonotonicMicros() < deadline) {
      // spin
    }
  }
}

// ---------------------------------------------------------------------------
// The trap and dispatcher.
// ---------------------------------------------------------------------------

namespace {

// A descriptor whose data plane is a regular file's bytes.
bool IsRegularVnode(const OpenFile& file) {
  return file.backing->kind() == BackingKind::kVnode && file.inode != nullptr &&
         file.inode->IsRegular();
}

// The readv/writev segment loop: runs `segment` on each nonempty segment in
// order and stops after a short one. Returns the bytes moved, or the first
// segment's error when none moved (a later error ends a partial transfer).
template <typename Segment>
SyscallStatus TransferSegments(const IoVec* iov, int iovcnt, SyscallResult* rv,
                               Segment&& segment) {
  int64_t total = 0;
  for (int i = 0; i < iovcnt; ++i) {
    if (iov[i].iov_len == 0) {
      continue;
    }
    SyscallResult seg_rv;
    const SyscallStatus st = segment(iov[i], &seg_rv);
    if (st < 0) {
      if (total == 0) {
        return st;
      }
      break;
    }
    total += seg_rv.rv[0];
    if (seg_rv.rv[0] < iov[i].iov_len) {
      break;
    }
  }
  rv->rv[0] = total;
  return static_cast<SyscallStatus>(total);
}

// One readv/writev segment as the scalar call's arguments.
SyscallArgs SegmentArgs(int fd, const IoVec& seg) {
  SyscallArgs args;
  args.SetInt(0, fd);
  args.SetPtr(1, seg.iov_base);
  args.SetInt(2, seg.iov_len);
  return args;
}

}  // namespace

SyscallStatus Kernel::DoSyscall(Process& proc, int number, const SyscallArgs& args,
                                SyscallResult* rv) {
  SyscallRequest req;
  req.number = number;
  req.args = args;
  SyscallCompletion comp;
  DoSyscallBatch(proc, SyscallBatch{&req, &comp, 0, 0, 1});
  *rv = comp.result;
  return comp.status;
}

void Kernel::DoSyscallBatch(Process& proc, const SyscallBatch& batch) {
  const int count = batch.count;
  // Tallies go to this thread's stat shard — a single shared counter here
  // was a cache-line serializer at high client counts.
  StatShard& shard = stat_shards_[StatShardSlot(kStatShards)];

  // Prologue, once for the whole batch: one advance of the host's clock for
  // the entries' summed virtual cost, one rusage update, one shard add. The
  // clock and rusage belong to this host thread: no lock, and no
  // read-modify-write on a line another host writes.
  VirtualClock& clock = proc.host->clock();
  int64_t cost = 0;
  for (int i = 0; i < count; ++i) {
    cost += SyscallCost(batch.req(i).number);
  }
  clock.Advance(cost);
  int64_t last = clock.Now();
  AddMicros(&proc.rusage.ru_stime, cost);
  const int64_t seq = proc.rusage.ru_nsyscalls;  // entry i is call number seq + i + 1
  proc.rusage.ru_nsyscalls += count;
  shard.total_syscalls.fetch_add(count, std::memory_order_relaxed);

  // Per-number tallies collect in a compact distinct-number table (batches
  // repeat a handful of numbers) and reach the shard once per batch.
  constexpr int kAccSlots = 24;
  struct StatAcc {
    int number;
    int64_t calls;
    int64_t errors;
    int64_t vtime;
  };
  StatAcc acc[kAccSlots];
  int acc_n = 0;
  auto flush_stats = [&] {
    for (int k = 0; k < acc_n; ++k) {
      AtomicSyscallStat& stat = shard.syscall_stats[acc[k].number];
      stat.calls.fetch_add(acc[k].calls, std::memory_order_relaxed);
      if (acc[k].errors != 0) {
        stat.errors.fetch_add(acc[k].errors, std::memory_order_relaxed);
      }
      stat.vtime_usec.fetch_add(acc[k].vtime, std::memory_order_relaxed);
    }
    acc_n = 0;
  };
  // Completes an entry. Its virtual time is its charged cost plus whatever the
  // clock advanced since the previous entry finished (blocking sleeps), which
  // is what a synchronous call would have tallied. Its ktrace record is
  // stamped with the time synchronous issue would give: the clock minus the
  // pre-charged cost of the entries after it.
  int64_t later_cost = cost;
  auto finish = [&](const SyscallRequest& req, SyscallCompletion& comp, SyscallStatus status) {
    const int number = req.number;
    const int64_t now = clock.Now();
    comp.status = status;
    comp.vtime_usec = now;
    const int64_t vtime = SyscallCost(number) + (now - last);
    last = now;
    later_cost -= SyscallCost(number);
    if (ktrace_active_.load(std::memory_order_acquire)) {
      const SyscallSpec& spec = SyscallSpecOf(number);
      KtraceRecord record;
      record.pid = proc.pid;
      record.syscall = number;
      record.result = status;
      record.vtime_usec = now - later_cost;
      if ((spec.flags & kTakesPath) != 0 && spec.path_arg >= 0) {
        const char* path = req.args.Ptr<const char>(spec.path_arg);
        record.path = path != nullptr ? path : "";
      } else if ((spec.flags & kTakesFd) != 0) {
        record.fd = req.args.Int(0);
      }
      DeliverKtrace(spec.flags, record);
    }
    if (number < 0 || number >= kMaxSyscall) {
      return;
    }
    int k = 0;
    while (k < acc_n && acc[k].number != number) {
      ++k;
    }
    if (k == acc_n) {
      if (acc_n == kAccSlots) {
        flush_stats();  // a pathologically diverse batch
        k = 0;
      }
      acc[k] = StatAcc{number, 0, 0, 0};
      acc_n = k + 1;
    }
    acc[k].calls += 1;
    acc[k].errors += status < 0 ? 1 : 0;
    acc[k].vtime += vtime;
  };

  for (int i = 0; i < count; ++i) {
    batch.comp(i).user_data = batch.req(i).user_data;
    batch.comp(i).result = SyscallResult{};
  }
  // The fault plane, read once per batch. Each entry consults the plan once,
  // in submission order, before its handler: an injected status completes
  // it, and a short transfer runs `clamped`, the request's rewritten copy.
  FaultInjector* const injector = fault_.load(std::memory_order_acquire);
  SyscallRequest clamped;
  // The batch keeps the tree lock (rwlock.h): the shared hold an entry's
  // handler takes is kept for the entries after it, so a run of stat,
  // fstat, lseek, read and write entries pays one acquire. BigLock ends the
  // keeping before it takes mu_, which is ordered before the tree lock and
  // under which a handler may sleep; the next entry starts it again.
  struct Keeping {
    RwLock& tree;
    ~Keeping() { tree.StopKeeping(); }
  } keeping{fs_.TreeMutex()};
  for (int i = 0; i < count; ++i) {
    const SyscallRequest& entry = batch.req(i);
    SyscallCompletion& comp = batch.comp(i);
    SyscallStatus status = 0;
    FaultOutcome outcome = FaultOutcome::kNone;
    if (injector != nullptr) {
      clamped = entry;
      outcome = InjectFault(*injector, proc, static_cast<uint64_t>(seq + i + 1), &clamped, &status);
    }
    const SyscallRequest& req = outcome == FaultOutcome::kClamped ? clamped : entry;
    if (outcome == FaultOutcome::kInjected) {
      // `status` is the plan's answer.
    } else if (ImplementsSyscall(req.number)) {
      keeping.tree.Keep();
      Lock lk;  // empty: a handler that needs mu_ takes it here (BigLock)
      status = (this->*DispatchTable()[req.number])(proc, req.args, &comp.result, lk);
    } else {
      status = -kENosys;
    }
    finish(entry, comp, status);
  }
  keeping.tree.StopKeeping();
  flush_stats();
  // With no lock held, the batch's end is where the name cache's deferred
  // garbage is freed once it passes the cache's capacity. The cache's
  // readers walk under the tree lock held shared or under mu_ (Spawn), so
  // the reclaim holds both, in lock order (namecache.h). It is not a call's
  // acquisition, so it is not counted in BigLockDispatches.
  if (fs_.namecache().ReclaimDue()) {
    Lock big(mu_);
    std::unique_lock<RwLock> tree(fs_.TreeMutex());
    fs_.namecache().Reclaim();
  }
}

void Kernel::BigLock(Lock& lk) {
  if (lk.owns_lock()) {
    return;
  }
  fs_.TreeMutex().StopKeeping();  // the dispatch core's kept hold: lock order
  lk = Lock(mu_);
  stat_shards_[StatShardSlot(kStatShards)].big_lock_dispatches.fetch_add(
      1, std::memory_order_relaxed);
}

std::unique_lock<RwLock> Kernel::BigLockAndTree(Lock& lk) {
  BigLock(lk);
  return std::unique_lock<RwLock>(fs_.TreeMutex());
}

void Kernel::DeliverKtrace(uint32_t flags, const KtraceRecord& record) {
  std::lock_guard<std::mutex> lk(ktrace_mu_);
  for (KtraceSlot& slot : ktrace_slots_) {
    KtraceSink* sink = slot.sink.load(std::memory_order_acquire);
    if (sink != nullptr && (flags & slot.filter.load(std::memory_order_relaxed)) != 0) {
      sink->Record(record);
    }
  }
}

void Kernel::SetKtraceSlot(int slot, KtraceSink* sink, uint32_t flag_filter) {
  if (slot < 0 || slot >= kKtraceSlots) {
    return;
  }
  // Under ktrace_mu_, so a detached sink receives nothing once this returns.
  // The filter is stored before the sink is published, so a delivery that
  // sees the new sink also sees its filter.
  std::lock_guard<std::mutex> lk(ktrace_mu_);
  ktrace_slots_[slot].filter.store(flag_filter, std::memory_order_relaxed);
  ktrace_slots_[slot].sink.store(sink, std::memory_order_release);
  bool active = false;
  for (const KtraceSlot& each : ktrace_slots_) {
    active = active || each.sink.load(std::memory_order_relaxed) != nullptr;
  }
  ktrace_active_.store(active, std::memory_order_release);
}

const std::array<Kernel::SyscallHandler, kMaxSyscall>& Kernel::DispatchTable() {
  static const std::array<SyscallHandler, kMaxSyscall> table = [] {
    std::array<SyscallHandler, kMaxSyscall> t{};
#define IA_SYSCALL(num, name, handler, flags, cost, nargs) t[num] = &Kernel::handler;
#define IA_SYSCALL_UNIMPL(num, name, flags)
#include "src/kernel/syscalls.def"
    return t;
  }();
  return table;
}

bool Kernel::ImplementsSyscall(int number) {
  return number >= 0 && number < kMaxSyscall && DispatchTable()[number] != nullptr;
}

std::array<SyscallStat, kMaxSyscall> Kernel::SyscallStats() {
  // Lock-free snapshot folded across the stat shards (see the member comment
  // for the relaxed-ordering / quiesced-exactness story).
  std::array<SyscallStat, kMaxSyscall> out{};
  for (const StatShard& shard : stat_shards_) {
    for (int i = 0; i < kMaxSyscall; ++i) {
      SyscallStat& dst = out[static_cast<size_t>(i)];
      dst.calls += shard.syscall_stats[i].calls.load(std::memory_order_relaxed);
      dst.errors += shard.syscall_stats[i].errors.load(std::memory_order_relaxed);
      dst.vtime_usec += shard.syscall_stats[i].vtime_usec.load(std::memory_order_relaxed);
    }
  }
  return out;
}

SyscallStatus Kernel::ReadRegular(Process& proc, OpenFile& file, char* buf, int64_t count,
                                  SyscallResult* rv) {
  const InodeRef& inode = file.inode;
  if (inode->IsDirectory()) {
    return -kEIsdir;
  }
  const InodeBytesLock bytes_lock(fs_, *inode);
  const Off off = file.offset.load(std::memory_order_relaxed);
  const int64_t size = static_cast<int64_t>(inode->data.size());
  const int64_t avail = size - off;
  const int64_t n = avail <= 0 ? 0 : std::min(count, avail);
  if (n > 0) {
    std::memcpy(buf, inode->data.data() + off, static_cast<size_t>(n));
    file.offset.store(off + n, std::memory_order_relaxed);
    Inode::Touch(inode->atime, fs_.now());
    proc.rusage.ru_inblock += (n + 4095) / 4096;
  }
  rv->rv[0] = n;
  return static_cast<SyscallStatus>(n);
}

namespace {

// Calls whose success allocates a descriptor slot — the EMFILE/ENFILE
// pressure-regime targets.
bool AllocatesDescriptor(int number, const SyscallArgs& a) {
  switch (number) {
    case kSysOpen:
    case kSysCreat:
    case kSysDup:
    case kSysPipe:
    case kSysSocket:
    case kSysAccept:
    case kSysSocketpair:
      return true;
    case kSysFcntl:
      return a.Int(1) == kFDupfd;
    default:
      return false;
  }
}

// Calls whose success allocates an inode — the ENOSPC disk-budget targets
// (write grows existing files and is clamped inside SysWrite instead).
bool AllocatesNode(int number, const SyscallArgs& a) {
  switch (number) {
    case kSysCreat:
    case kSysMkdir:
    case kSysSymlink:
    case kSysMknod:
    case kSysBind:  // binds mint a socket node at the given pathname
      return true;
    case kSysOpen:
      return (a.Int(1) & kOCreat) != 0;
    default:
      return false;
  }
}

}  // namespace

Kernel::FaultOutcome Kernel::InjectFault(FaultInjector& injector, Process& p, uint64_t seq,
                                         SyscallRequest* req, SyscallStatus* status) {
  const int number = req->number;
  const SyscallArgs& a = req->args;
  FaultEnv env;
  env.fd_allocating = AllocatesDescriptor(number, a);
  env.creates_node = AllocatesNode(number, a);
  if (env.fd_allocating) {
    env.open_fds = p.fds.OpenCount();
  }
  env.fs_bytes = fs_.total_bytes();
  env.transfer_count = TransferCount(number, a);
  // `seq` is the call's 1-based per-process sequence number, so the decision
  // stream is per-pid and immune to cross-process interleaving.
  const FaultDecision decision = injector.Decide(static_cast<uint64_t>(p.pid), seq, number, env);
  switch (decision.action) {
    case FaultAction::kErrnoReturn:
    case FaultAction::kExhaustion:
    case FaultAction::kEintrReturn:
      *status = -decision.errno_value;
      return FaultOutcome::kInjected;
    case FaultAction::kShortTransfer:
      // The per-process scratch outlives the dispatch: only the owning
      // thread dispatches, and the clamped request runs before the next
      // entry consults the plan.
      ClampTransfer(number, decision.clamp_len, &req->args, p.iov_fault_scratch.data());
      return FaultOutcome::kClamped;
    case FaultAction::kNone:
      break;
  }
  return FaultOutcome::kNone;
}

void Kernel::SetFaultPlan(const FaultPlan& plan) {
  Lock lk(mu_);
  injectors_.push_back(std::make_unique<FaultInjector>(plan));
  // Release-publish after the injector exists. A batch reads the pointer
  // once, so calls already past that read complete uninjected — install
  // plans before the workload starts (as every bench and test does) for
  // full coverage from the first call.
  fault_.store(injectors_.back().get(), std::memory_order_release);
}

void Kernel::ClearFaultPlan() { fault_.store(nullptr, std::memory_order_release); }

std::array<FaultStat, kMaxSyscall> Kernel::FaultStats() {
  FaultInjector* injector = fault_.load(std::memory_order_acquire);
  return injector == nullptr ? std::array<FaultStat, kMaxSyscall>{} : injector->stats();
}

std::string Kernel::FaultTraceText() {
  FaultInjector* injector = fault_.load(std::memory_order_acquire);
  return injector == nullptr ? std::string() : injector->FormatTrace();
}

// ---------------------------------------------------------------------------
// Agent fault containment (containment.h, DESIGN.md §12).
// ---------------------------------------------------------------------------

AgentContainmentStats Kernel::ContainmentStats() {
  AgentContainmentStats stats;
  stats.traps = containment_traps_.load(std::memory_order_relaxed);
  stats.garbled = containment_garbled_.load(std::memory_order_relaxed);
  stats.overruns = containment_overruns_.load(std::memory_order_relaxed);
  stats.quarantines = containment_quarantines_.load(std::memory_order_relaxed);
  stats.half_open_retrips = containment_retrips_.load(std::memory_order_relaxed);
  stats.reinstates = containment_reinstates_.load(std::memory_order_relaxed);
  return stats;
}

std::vector<FrameHealthSnapshot> Kernel::FrameHealthSnapshots() {
  std::vector<FrameHealthSnapshot> out;
  Lock lk(health_mu_);
  for (const std::weak_ptr<FrameHealth>& weak : frame_health_) {
    const std::shared_ptr<FrameHealth> health = weak.lock();
    if (health == nullptr) {
      continue;
    }
    FrameHealthSnapshot snap;
    snap.pid = health->pid;
    snap.frame = health->frame;
    snap.agent = health->agent;
    snap.calls = health->calls.load(std::memory_order_relaxed);
    snap.traps = health->traps.load(std::memory_order_relaxed);
    snap.garbled = health->garbled.load(std::memory_order_relaxed);
    snap.overruns = health->overruns.load(std::memory_order_relaxed);
    snap.trips = health->trips.load(std::memory_order_relaxed);
    snap.streak = health->streak.load(std::memory_order_relaxed);
    snap.state = health->State();
    out.push_back(std::move(snap));
  }
  return out;
}

void Kernel::RegisterFrameHealth(const std::shared_ptr<FrameHealth>& health) {
  Lock lk(health_mu_);
  if (frame_health_.size() >= 64) {
    // Amortized pruning: drop records whose frames are gone so a long-lived
    // kernel spawning many agented processes doesn't accumulate tombstones.
    frame_health_.erase(
        std::remove_if(frame_health_.begin(), frame_health_.end(),
                       [](const std::weak_ptr<FrameHealth>& w) { return w.expired(); }),
        frame_health_.end());
  }
  frame_health_.push_back(health);
}

void Kernel::NoteFrameFault(FrameFailureKind kind) {
  switch (kind) {
    case FrameFailureKind::kTrap:
      containment_traps_.fetch_add(1, std::memory_order_relaxed);
      break;
    case FrameFailureKind::kGarbledResult:
      containment_garbled_.fetch_add(1, std::memory_order_relaxed);
      break;
    case FrameFailureKind::kBudgetOverrun:
      containment_overruns_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
}

void Kernel::NoteQuarantine(const FrameHealth& health, int number, bool half_open_retrip) {
  containment_quarantines_.fetch_add(1, std::memory_order_relaxed);
  if (half_open_retrip) {
    containment_retrips_.fetch_add(1, std::memory_order_relaxed);
  }
  EmitContainmentRecord(health, KtraceEventKind::kAgentQuarantined, number);
}

void Kernel::NoteReinstate(const FrameHealth& health) {
  containment_reinstates_.fetch_add(1, std::memory_order_relaxed);
  EmitContainmentRecord(health, KtraceEventKind::kAgentReinstated, -1);
}

void Kernel::EmitContainmentRecord(const FrameHealth& health, KtraceEventKind kind, int number) {
  if (!ktrace_active_.load(std::memory_order_acquire)) {
    return;
  }
  KtraceRecord record;
  record.kind = kind;
  record.pid = health.pid;
  record.syscall = number;
  record.fd = health.frame;    // frame index (documented in ktrace.h)
  record.path = health.agent;  // agent name
  const VirtualClock* clock = ThreadClock();
  record.vtime_usec = clock != nullptr ? clock->Now() : VirtualNow();
  DeliverKtrace(kProcess, record);  // agent lifecycle events ride the process slice
}

// ---------------------------------------------------------------------------
// Descriptor and file syscalls.
// ---------------------------------------------------------------------------

SyscallStatus Kernel::SysOpen(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk) {
  const char* path = a.Ptr<const char>(0);
  if (path == nullptr) {
    return -kEFault;
  }
  const int flags = a.Int(1);
  const Mode mode = static_cast<Mode>(a.Int(2)) & ~p.umask_bits;

  // Every open walks under the tree lock held shared, creating and
  // truncating ones too: Filesystem::Open locks the inodes it changes (vfs.h).
  InodeRef inode;
  Off offset = 0;
  {
    std::shared_lock<RwLock> tree(fs_.TreeMutex());
    const int err = fs_.Open(EnvOf(p), path, flags, mode, &inode);
    if (err != 0) {
      return err;
    }
    if ((flags & kOAppend) != 0 && inode->IsRegular()) {
      std::lock_guard<WordMutex> data_lock(inode->data_mu);
      offset = static_cast<Off>(inode->data.size());
    }
  }

  const int fd = p.fds.AllocateSlot();
  if (fd < 0) {
    return fd;
  }

  OpenFileRef file;
  if (inode->IsFifo()) {
    BigLock(lk);  // pipe ends are big-lock state
    if (inode->fifo_pipe == nullptr) {
      inode->fifo_pipe = std::make_shared<Pipe>();
    }
    const int accmode = flags & kOAccmode;
    file = MakePipeEnd(inode->fifo_pipe, /*write_end=*/accmode != kORdonly);
    file->inode = inode;
    file->flags = flags;
  } else {
    file = MakeVnodeFile(inode, flags);
    file->offset = offset;
  }
  p.fds.Set(fd, std::move(file));
  rv->rv[0] = fd;
  return fd;
}

SyscallStatus Kernel::SysCreat(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk) {
  SyscallArgs open_args = a;
  open_args.SetInt(1, kOWronly | kOCreat | kOTrunc);
  open_args.SetInt(2, a.Int(1));
  return SysOpen(p, open_args, rv, lk);
}

SyscallStatus Kernel::SysClose(Process& p, const SyscallArgs& a, SyscallResult* /*rv*/, Lock& lk) {
  const OpenFileRef file = p.fds.Get(a.Int(0));
  if (file == nullptr) {
    return -kEBadf;
  }
  if (file->backing->kind() != BackingKind::kVnode ||
      file->flock_mode.load(std::memory_order_acquire) != 0) {
    // Dropping the last reference would detach a pipe end or close a socket
    // endpoint (which wakes the object's channel), or release an flock:
    // big-lock state. `file` dies after the table's reference, under mu_.
    BigLock(lk);
  }
  return p.fds.Close(a.Int(0));
}

SyscallStatus Kernel::SysRead(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk) {
  const int fd = a.Int(0);
  char* buf = a.Ptr<char>(1);
  const int64_t count = a.Long(2);
  OpenFileRef file = p.fds.Get(fd);
  if (file == nullptr) {
    return -kEBadf;
  }
  if (!file->CanRead()) {
    return -kEBadf;
  }
  if (buf == nullptr) {
    return -kEFault;
  }
  if (count < 0) {
    return -kEInval;
  }
  if (count == 0) {
    rv->rv[0] = 0;
    return 0;
  }
  return file->backing->Read(*this, p, *file, buf, count, rv, lk);
}

SyscallStatus Kernel::SysWrite(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk) {
  const int fd = a.Int(0);
  const char* buf = a.Ptr<const char>(1);
  const int64_t count = a.Long(2);
  OpenFileRef file = p.fds.Get(fd);
  if (file == nullptr || !file->CanWrite()) {
    return -kEBadf;
  }
  if (buf == nullptr) {
    return -kEFault;
  }
  if (count < 0) {
    return -kEInval;
  }
  if (count == 0) {
    rv->rv[0] = 0;
    return 0;
  }
  return file->backing->Write(*this, p, *file, buf, count, rv, lk);
}

SyscallStatus Kernel::WriteRegularLocked(Process& p, OpenFile& file, const char* buf,
                                         int64_t count, SyscallResult* rv) {
  const InodeRef& inode = file.inode;
  std::string& data = inode->data;
  // A write that hits a limit mid-buffer — the per-file size ceiling or an
  // installed fault plan's disk budget — writes the prefix that fits and
  // reports bytes-written-so-far (4.3BSD short-write semantics); only a write
  // that cannot make progress at all fails (EFBIG / ENOSPC).
  const int64_t size = static_cast<int64_t>(data.size());
  Off off = file.offset.load(std::memory_order_relaxed);
  if ((file.flags & kOAppend) != 0) {
    off = size;
  }
  if (off >= kMaxFileBytes) {
    return -kEFbig;
  }
  int64_t wcount = std::min<int64_t>(count, kMaxFileBytes - off);
  const int64_t grow = off + wcount - size;
  if (grow > 0) {
    // The budget check and the growth's accounting are one atomic step, so
    // writers growing different files under a shared hold never overshoot
    // the budget. A write past EOF must fit its hole plus one byte.
    FaultInjector* const injector = fault_.load(std::memory_order_acquire);
    const int64_t budget = injector != nullptr ? injector->plan().disk_budget_bytes : -1;
    const int64_t reserved =
        fs_.ReserveBytes(grow, std::max<int64_t>(off - size + 1, 0), budget);
    if (reserved < grow) {
      wcount -= grow - reserved;
      if (wcount <= 0) {
        injector->CountExhaustion(p.pid, kSysWrite, kENospc);
        return -kENospc;
      }
      injector->CountShortTransfer(p.pid, kSysWrite, wcount);
    }
    data.resize(static_cast<size_t>(size + reserved), '\0');
  }
  const int64_t end = off + wcount;
  std::memcpy(data.data() + off, buf, static_cast<size_t>(wcount));
  file.offset.store(end, std::memory_order_relaxed);
  Inode::Touch(inode->mtime, fs_.now());
  p.rusage.ru_oublock += (wcount + 4095) / 4096;
  rv->rv[0] = wcount;
  return static_cast<SyscallStatus>(wcount);
}

SyscallStatus Kernel::SysReadv(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk) {
  BigLock(lk);
  const auto* iov = a.Ptr<const IoVec>(1);
  const int iovcnt = a.Int(2);
  if (iov == nullptr) {
    return -kEFault;
  }
  if (iovcnt <= 0 || iovcnt > kMaxIoVecs) {
    return -kEInval;
  }
  return TransferSegments(iov, iovcnt, rv, [&](const IoVec& seg, SyscallResult* seg_rv) {
    return SysRead(p, SegmentArgs(a.Int(0), seg), seg_rv, lk);
  });
}

SyscallStatus Kernel::SysWritev(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk) {
  const auto* iov = a.Ptr<const IoVec>(1);
  const int iovcnt = a.Int(2);
  if (iov == nullptr) {
    return -kEFault;
  }
  if (iovcnt <= 0 || iovcnt > kMaxIoVecs) {
    return -kEInval;
  }
  const OpenFileRef file = p.fds.Get(a.Int(0));
  if (file != nullptr && file->CanWrite() && IsRegularVnode(*file)) {
    // One data_mu hold across every segment, so an O_APPEND writev lands as
    // one contiguous record.
    const InodeBytesLock bytes_lock(fs_, *file->inode);
    return TransferSegments(iov, iovcnt, rv, [&](const IoVec& seg, SyscallResult* seg_rv) -> SyscallStatus {
      const auto* buf = static_cast<const char*>(seg.iov_base);
      if (buf == nullptr) {
        return -kEFault;
      }
      if (seg.iov_len < 0) {
        return -kEInval;
      }
      return WriteRegularLocked(p, *file, buf, seg.iov_len, seg_rv);
    });
  }
  // Pipes, sockets and devices: one big-lock hold across the segments, each
  // a write(2) with its own answers (the bad-descriptor ones too).
  BigLock(lk);
  return TransferSegments(iov, iovcnt, rv, [&](const IoVec& seg, SyscallResult* seg_rv) {
    return SysWrite(p, SegmentArgs(a.Int(0), seg), seg_rv, lk);
  });
}

SyscallStatus Kernel::SysLseek(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& /*lk*/) {
  OpenFileRef file = p.fds.Get(a.Int(0));
  if (file == nullptr) {
    return -kEBadf;
  }
  return file->backing->Lseek(*this, *file, a.Long(1), a.Int(2), rv);
}

SyscallStatus Kernel::SysStatCommon(Process& p, const SyscallArgs& a, bool follow) {
  const char* path = a.Ptr<const char>(0);
  auto* st = a.Ptr<ia::Stat>(1);
  if (path == nullptr || st == nullptr) {
    return -kEFault;
  }
  std::shared_lock<RwLock> tree(fs_.TreeMutex());
  return fs_.Stat(EnvOf(p), path, follow, st);
}

SyscallStatus Kernel::SysStat(Process& p, const SyscallArgs& a, SyscallResult* /*rv*/, Lock& /*lk*/) {
  return SysStatCommon(p, a, /*follow=*/true);
}

SyscallStatus Kernel::SysLstat(Process& p, const SyscallArgs& a, SyscallResult* /*rv*/,
                               Lock& /*lk*/) {
  return SysStatCommon(p, a, /*follow=*/false);
}

SyscallStatus Kernel::SysFstat(Process& p, const SyscallArgs& a, SyscallResult* /*rv*/, Lock& /*lk*/) {
  OpenFileRef file = p.fds.Get(a.Int(0));
  auto* st = a.Ptr<ia::Stat>(1);
  if (file == nullptr) {
    return -kEBadf;
  }
  if (st == nullptr) {
    return -kEFault;
  }
  return file->backing->Fstat(*this, *file, st);
}

SyscallStatus Kernel::SysLink(Process& p, const SyscallArgs& a, SyscallResult* /*rv*/, Lock& lk) {
  const auto tree = BigLockAndTree(lk);
  const char* existing = a.Ptr<const char>(0);
  const char* new_path = a.Ptr<const char>(1);
  if (existing == nullptr || new_path == nullptr) {
    return -kEFault;
  }
  return fs_.Link(EnvOf(p), existing, new_path);
}

SyscallStatus Kernel::SysUnlink(Process& p, const SyscallArgs& a, SyscallResult* /*rv*/, Lock& lk) {
  const auto tree = BigLockAndTree(lk);
  const char* path = a.Ptr<const char>(0);
  if (path == nullptr) {
    return -kEFault;
  }
  return fs_.Unlink(EnvOf(p), path);
}

SyscallStatus Kernel::SysSymlink(Process& p, const SyscallArgs& a, SyscallResult* /*rv*/, Lock& lk) {
  const auto tree = BigLockAndTree(lk);
  const char* target = a.Ptr<const char>(0);
  const char* link_path = a.Ptr<const char>(1);
  if (target == nullptr || link_path == nullptr) {
    return -kEFault;
  }
  return fs_.Symlink(EnvOf(p), target, link_path);
}

SyscallStatus Kernel::SysReadlink(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& /*lk*/) {
  const char* path = a.Ptr<const char>(0);
  char* buf = a.Ptr<char>(1);
  const int64_t bufsize = a.Long(2);
  if (path == nullptr || buf == nullptr) {
    return -kEFault;
  }
  if (bufsize < 0) {
    return -kEInval;
  }
  std::string target;
  std::shared_lock<RwLock> tree(fs_.TreeMutex());
  const int err = fs_.Readlink(EnvOf(p), path, &target);
  if (err != 0) {
    return err;
  }
  const int64_t n = std::min<int64_t>(bufsize, static_cast<int64_t>(target.size()));
  std::memcpy(buf, target.data(), static_cast<size_t>(n));
  rv->rv[0] = n;
  return static_cast<SyscallStatus>(n);
}

SyscallStatus Kernel::SysRename(Process& p, const SyscallArgs& a, SyscallResult* /*rv*/, Lock& lk) {
  const auto tree = BigLockAndTree(lk);
  const char* from = a.Ptr<const char>(0);
  const char* to = a.Ptr<const char>(1);
  if (from == nullptr || to == nullptr) {
    return -kEFault;
  }
  return fs_.Rename(EnvOf(p), from, to);
}

SyscallStatus Kernel::SysMkdir(Process& p, const SyscallArgs& a, SyscallResult* /*rv*/, Lock& lk) {
  const auto tree = BigLockAndTree(lk);
  const char* path = a.Ptr<const char>(0);
  if (path == nullptr) {
    return -kEFault;
  }
  const Mode mode = static_cast<Mode>(a.Int(1)) & ~p.umask_bits;
  return fs_.Mkdir(EnvOf(p), path, mode);
}

SyscallStatus Kernel::SysRmdir(Process& p, const SyscallArgs& a, SyscallResult* /*rv*/, Lock& lk) {
  const auto tree = BigLockAndTree(lk);
  const char* path = a.Ptr<const char>(0);
  if (path == nullptr) {
    return -kEFault;
  }
  return fs_.Rmdir(EnvOf(p), path);
}

SyscallStatus Kernel::SysChdir(Process& p, const SyscallArgs& a, SyscallResult* /*rv*/, Lock& lk) {
  const auto tree = BigLockAndTree(lk);
  const char* path = a.Ptr<const char>(0);
  if (path == nullptr) {
    return -kEFault;
  }
  NameiResult nr;
  const int err = fs_.Namei(EnvOf(p), path, NameiOp::kLookup, true, &nr);
  if (err != 0) {
    return err;
  }
  if (!nr.inode->IsDirectory()) {
    return -kENotdir;
  }
  if (!CredPermits(p.cred, nr.inode->uid, nr.inode->gid, nr.inode->mode_bits, kXOk)) {
    return -kEAcces;
  }
  p.cwd = nr.inode;
  return 0;
}

SyscallStatus Kernel::SysFchdir(Process& p, const SyscallArgs& a, SyscallResult* /*rv*/, Lock& lk) {
  const auto tree = BigLockAndTree(lk);
  OpenFileRef file = p.fds.Get(a.Int(0));
  if (file == nullptr || file->inode == nullptr) {
    return -kEBadf;
  }
  if (!file->inode->IsDirectory()) {
    return -kENotdir;
  }
  p.cwd = file->inode;
  return 0;
}

SyscallStatus Kernel::SysChroot(Process& p, const SyscallArgs& a, SyscallResult* /*rv*/, Lock& lk) {
  const auto tree = BigLockAndTree(lk);
  if (!p.cred.IsSuperuser()) {
    return -kEPerm;
  }
  const char* path = a.Ptr<const char>(0);
  if (path == nullptr) {
    return -kEFault;
  }
  NameiResult nr;
  const int err = fs_.Namei(EnvOf(p), path, NameiOp::kLookup, true, &nr);
  if (err != 0) {
    return err;
  }
  if (!nr.inode->IsDirectory()) {
    return -kENotdir;
  }
  p.root = nr.inode;
  p.cwd = nr.inode;
  return 0;
}

SyscallStatus Kernel::SysChmod(Process& p, const SyscallArgs& a, SyscallResult* /*rv*/, Lock& lk) {
  const auto tree = BigLockAndTree(lk);
  const char* path = a.Ptr<const char>(0);
  if (path == nullptr) {
    return -kEFault;
  }
  return fs_.Chmod(EnvOf(p), path, static_cast<Mode>(a.Int(1)));
}

SyscallStatus Kernel::SysFchmod(Process& p, const SyscallArgs& a, SyscallResult* /*rv*/, Lock& lk) {
  const auto tree = BigLockAndTree(lk);
  OpenFileRef file = p.fds.Get(a.Int(0));
  if (file == nullptr || file->inode == nullptr) {
    return -kEBadf;
  }
  if (!p.cred.IsSuperuser() && p.cred.euid != file->inode->uid) {
    return -kEPerm;
  }
  file->inode->mode_bits = static_cast<Mode>(a.Int(1)) & 07777;
  file->inode->ctime = fs_.now();
  if (file->inode->IsDirectory()) {
    fs_.namecache().InvalidateDir(*file->inode);
  }
  return 0;
}

SyscallStatus Kernel::SysChown(Process& p, const SyscallArgs& a, SyscallResult* /*rv*/, Lock& lk) {
  const auto tree = BigLockAndTree(lk);
  const char* path = a.Ptr<const char>(0);
  if (path == nullptr) {
    return -kEFault;
  }
  return fs_.Chown(EnvOf(p), path, a.Int(1), a.Int(2));
}

SyscallStatus Kernel::SysFchown(Process& p, const SyscallArgs& a, SyscallResult* /*rv*/, Lock& lk) {
  const auto tree = BigLockAndTree(lk);
  OpenFileRef file = p.fds.Get(a.Int(0));
  if (file == nullptr || file->inode == nullptr) {
    return -kEBadf;
  }
  if (!p.cred.IsSuperuser()) {
    return -kEPerm;
  }
  if (a.Int(1) != -1) {
    file->inode->uid = a.Int(1);
  }
  if (a.Int(2) != -1) {
    file->inode->gid = a.Int(2);
  }
  file->inode->ctime = fs_.now();
  if (file->inode->IsDirectory()) {
    fs_.namecache().InvalidateDir(*file->inode);
  }
  return 0;
}

SyscallStatus Kernel::SysAccess(Process& p, const SyscallArgs& a, SyscallResult* /*rv*/, Lock& /*lk*/) {
  const char* path = a.Ptr<const char>(0);
  if (path == nullptr) {
    return -kEFault;
  }
  std::shared_lock<RwLock> tree(fs_.TreeMutex());
  return fs_.Access(EnvOf(p), path, a.Int(1));
}

SyscallStatus Kernel::SysUtimes(Process& p, const SyscallArgs& a, SyscallResult* /*rv*/, Lock& lk) {
  const auto tree = BigLockAndTree(lk);
  const char* path = a.Ptr<const char>(0);
  if (path == nullptr) {
    return -kEFault;
  }
  return fs_.Utimes(EnvOf(p), path, a.Ptr<const TimeVal>(1));
}

SyscallStatus Kernel::SysTruncate(Process& p, const SyscallArgs& a, SyscallResult* /*rv*/, Lock& lk) {
  const auto tree = BigLockAndTree(lk);
  const char* path = a.Ptr<const char>(0);
  if (path == nullptr) {
    return -kEFault;
  }
  return fs_.Truncate(EnvOf(p), path, a.Long(1));
}

SyscallStatus Kernel::SysFtruncate(Process& p, const SyscallArgs& a, SyscallResult* /*rv*/, Lock& lk) {
  const auto tree = BigLockAndTree(lk);
  OpenFileRef file = p.fds.Get(a.Int(0));
  if (file == nullptr || file->inode == nullptr) {
    return -kEBadf;
  }
  if (!file->CanWrite()) {
    return -kEInval;
  }
  const Off length = a.Long(1);
  if (length < 0 || !file->inode->IsRegular()) {
    return -kEInval;
  }
  const int resize_err = fs_.ResizeFile(file->inode, length);
  if (resize_err != 0) {
    return resize_err;
  }
  file->inode->mtime = file->inode->ctime = fs_.now();
  return 0;
}

SyscallStatus Kernel::SysUmask(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& /*lk*/) {
  rv->rv[0] = p.umask_bits;
  p.umask_bits = static_cast<Mode>(a.Int(0)) & 0777;
  return 0;
}

SyscallStatus Kernel::SysDup(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk) {
  const auto tree = BigLockAndTree(lk);
  const int fd = a.Int(0);
  if (!p.fds.Valid(fd)) {
    return -kEBadf;
  }
  const int new_fd = p.fds.AllocateSlot();
  if (new_fd < 0) {
    return new_fd;
  }
  p.fds.Set(new_fd, p.fds.Get(fd));
  rv->rv[0] = new_fd;
  return new_fd;
}

SyscallStatus Kernel::SysDup2(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk) {
  const auto tree = BigLockAndTree(lk);
  const int result = p.fds.Dup2(a.Int(0), a.Int(1));
  if (result >= 0) {
    rv->rv[0] = result;
  }
  return result;
}

SyscallStatus Kernel::SysPipe(Process& p, const SyscallArgs& /*a*/, SyscallResult* rv, Lock& lk) {
  const auto tree = BigLockAndTree(lk);
  const int read_fd = p.fds.AllocateSlot();
  if (read_fd < 0) {
    return read_fd;
  }
  auto pipe = std::make_shared<Pipe>();
  p.fds.Set(read_fd, MakePipeEnd(pipe, /*write_end=*/false));
  const int write_fd = p.fds.AllocateSlot();
  if (write_fd < 0) {
    p.fds.Close(read_fd);
    return write_fd;
  }
  p.fds.Set(write_fd, MakePipeEnd(pipe, /*write_end=*/true));
  rv->rv[0] = read_fd;
  rv->rv[1] = write_fd;
  return read_fd;
}

SyscallStatus Kernel::SysFcntl(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk) {
  const auto tree = BigLockAndTree(lk);
  const int fd = a.Int(0);
  const int cmd = a.Int(1);
  const int64_t arg = a.Long(2);
  FdEntry* entry = p.fds.Entry(fd);
  if (entry == nullptr || !entry->InUse()) {
    return -kEBadf;
  }
  switch (cmd) {
    case kFDupfd: {
      const int new_fd = p.fds.AllocateSlot(static_cast<int>(arg));
      if (new_fd < 0) {
        return new_fd;
      }
      p.fds.Set(new_fd, entry->file);
      rv->rv[0] = new_fd;
      return new_fd;
    }
    case kFGetfd:
      rv->rv[0] = entry->close_on_exec ? 1 : 0;
      return 0;
    case kFSetfd:
      entry->close_on_exec = (arg & 1) != 0;
      return 0;
    case kFGetfl:
      rv->rv[0] = entry->file->flags;
      return 0;
    case kFSetfl: {
      const int settable = kOAppend | kONonblock;
      entry->file->flags = (entry->file->flags & ~settable) | (static_cast<int>(arg) & settable);
      return 0;
    }
    default:
      return -kEInval;
  }
}

SyscallStatus Kernel::SysSync(Process& /*p*/, const SyscallArgs& /*a*/, SyscallResult* /*rv*/,
                              Lock& lk) {
  const auto tree = BigLockAndTree(lk);
  return 0;  // all "disk" writes are already durable in memory
}

SyscallStatus Kernel::SysFsync(Process& p, const SyscallArgs& a, SyscallResult* /*rv*/,
                               Lock& lk) {
  const auto tree = BigLockAndTree(lk);
  return p.fds.Valid(a.Int(0)) ? 0 : -kEBadf;
}

SyscallStatus Kernel::SysFlock(Process& p, const SyscallArgs& a, SyscallResult* /*rv*/, Lock& lk) {
  const auto tree = BigLockAndTree(lk);
  OpenFileRef file = p.fds.Get(a.Int(0));
  if (file == nullptr || file->inode == nullptr) {
    return -kEBadf;
  }
  const int op = a.Int(1);
  InodeRef inode = file->inode;
  const auto release = [&] {
    if (file->flock_mode == kLockEx) {
      inode->flock_exclusive = false;
    } else if (file->flock_mode == kLockSh) {
      inode->flock_shared -= 1;
    }
    file->flock_mode = 0;
  };
  if ((op & kLockUn) != 0) {
    release();
    return 0;
  }
  const bool exclusive = (op & kLockEx) != 0;
  if (!exclusive && (op & kLockSh) == 0) {
    return -kEInval;
  }
  release();  // re-locking changes mode, as flock(2) allows
  const bool conflict =
      inode->flock_exclusive || (exclusive && inode->flock_shared > 0);
  if (conflict) {
    return -kEWouldblock;  // non-queued advisory locks; callers retry
  }
  if (exclusive) {
    inode->flock_exclusive = true;
    file->flock_mode = kLockEx;
  } else {
    inode->flock_shared += 1;
    file->flock_mode = kLockSh;
  }
  return 0;
}

SyscallStatus Kernel::SysIoctl(Process& p, const SyscallArgs& a, SyscallResult* /*rv*/, Lock& lk) {
  const auto tree = BigLockAndTree(lk);
  OpenFileRef file = p.fds.Get(a.Int(0));
  if (file == nullptr) {
    return -kEBadf;
  }
  if (file->inode == nullptr || !file->inode->IsDevice()) {
    return -kENotty;
  }
  return file->inode->device->Ioctl(a.U64(1), a.Ptr<void>(2));
}

SyscallStatus Kernel::SysGetdirentries(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& /*lk*/) {
  OpenFileRef file = p.fds.Get(a.Int(0));
  char* buf = a.Ptr<char>(1);
  const int nbytes = a.Int(2);
  auto* basep = a.Ptr<int64_t>(3);
  if (file == nullptr || file->inode == nullptr) {
    return -kEBadf;
  }
  if (!file->inode->IsDirectory()) {
    return -kENotdir;
  }
  if (buf == nullptr || nbytes <= 0) {
    return -kEFault;
  }

  // Build the logical listing: ".", "..", then entries in map order. The file
  // offset is an entry index. The tree lock held shared keeps the directory
  // linked, and its data_mu keeps the entries still and orders the offset
  // against other readers of this open file and lseeks.
  const InodeRef dir = file->inode;
  std::shared_lock<RwLock> tree(fs_.TreeMutex());
  InodeRef parent = dir->parent.lock();
  if (parent == nullptr) {
    parent = dir;
  }
  std::lock_guard<WordMutex> data_lock(dir->data_mu);
  const int64_t total = 2 + static_cast<int64_t>(dir->entries.size());
  int64_t index = file->offset.load(std::memory_order_relaxed);
  if (basep != nullptr) {
    *basep = index;
  }
  size_t used = 0;
  // One walk to the first entry this call lists, then one step per record.
  auto it = dir->entries.begin();
  std::advance(it, std::clamp<int64_t>(index - 2, 0, total - 2));
  while (index < total) {
    Ino ino;
    std::string name;
    if (index == 0) {
      ino = dir->ino();
      name = ".";
    } else if (index == 1) {
      ino = parent->ino();
      name = "..";
    } else {
      ino = it->second->ino();
      name = it->first;
    }
    if (!EncodeDirent(ino, name, buf, static_cast<size_t>(nbytes), &used)) {
      break;
    }
    if (index >= 2) {
      ++it;
    }
    ++index;
  }
  if (used == 0 && index < total) {
    return -kEInval;  // buffer too small for even one record
  }
  file->offset.store(index, std::memory_order_relaxed);
  Inode::Touch(dir->atime, fs_.now());
  rv->rv[0] = static_cast<int64_t>(used);
  return static_cast<SyscallStatus>(used);
}

SyscallStatus Kernel::SysMknod(Process& p, const SyscallArgs& a, SyscallResult* /*rv*/, Lock& lk) {
  const auto tree = BigLockAndTree(lk);
  const char* path = a.Ptr<const char>(0);
  if (path == nullptr) {
    return -kEFault;
  }
  const Mode mode = static_cast<Mode>(a.Int(1));
  if ((mode & kSIfmt) == kSIfifo) {
    return fs_.MknodFifo(EnvOf(p), path, mode & ~p.umask_bits);
  }
  if (!p.cred.IsSuperuser()) {
    return -kEPerm;
  }
  return -kEInval;  // only FIFOs are supported
}

// ---------------------------------------------------------------------------
// Process syscalls.
// ---------------------------------------------------------------------------

SyscallStatus Kernel::SysFork(Process& p, const SyscallArgs& /*a*/, SyscallResult* rv, Lock& lk) {
  const auto tree = BigLockAndTree(lk);
  std::function<int(ProcessContext&)> body = std::move(p.pending_fork_body);
  p.pending_fork_body = nullptr;
  if (shutting_down_) {
    return -kEAgain;  // Shutdown's SIGKILLs went out already; a child would miss them
  }

  Process& child = CreateProcessLocked(p.pid);
  child.pgrp = p.pgrp.load();
  child.cred = p.cred;
  child.login = p.login;
  child.fds = p.fds.Clone();
  child.cwd = p.cwd;
  child.root = p.root;
  child.umask_bits = p.umask_bits;
  child.actions = p.actions;
  child.sig_mask = p.sig_mask;
  child.image_name = p.image_name;
  child.image_path = p.image_path;

  child.pending_exec.main =
      body != nullptr ? std::move(body) : [](ProcessContext&) -> int { return 0; };
  child.pending_exec.argv = p.argv;
  child.pending_exec.image_name = p.image_name;
  child.pending_exec.path = p.image_path;
  child.pending_exec.valid = true;

  StartProcessLocked(table_[child.pid], p.host);  // runs once the parent sleeps or yields

  rv->rv[0] = child.pid;
  rv->rv[1] = 0;  // parent side; 4.3BSD sets rv[1]=1 in the child
  return static_cast<SyscallStatus>(child.pid);
}

int Kernel::ResolveExecutableLocked(Process& p, const std::string& path, PendingExec* out) {
  NameiResult nr;
  int err = fs_.Namei(EnvOf(p), path, NameiOp::kLookup, /*follow_final=*/true, &nr);
  if (err != 0) {
    return err;
  }
  InodeRef file = nr.inode;
  if (file->IsDirectory()) {
    return -kEIsdir;
  }
  if (!file->IsRegular()) {
    return -kEAcces;
  }
  if (!CredPermits(p.cred, file->uid, file->gid, file->mode_bits, kXOk)) {
    return -kEAcces;
  }

  std::vector<std::string> argv = std::move(p.exec_argv_staging);
  p.exec_argv_staging.clear();
  std::string resolved_path = path;

  if (file->exec_image.empty()) {
    // "#!" interpreter scripts: one level of indirection.
    if (file->data.size() >= 2 && file->data[0] == '#' && file->data[1] == '!') {
      const size_t eol = file->data.find('\n');
      std::string interp_line =
          file->data.substr(2, eol == std::string::npos ? std::string::npos : eol - 2);
      std::vector<std::string> interp_words = Split(interp_line, ' ');
      if (interp_words.empty()) {
        return -kENoexec;
      }
      NameiResult interp_nr;
      err = fs_.Namei(EnvOf(p), interp_words[0], NameiOp::kLookup, true, &interp_nr);
      if (err != 0) {
        return err;
      }
      if (interp_nr.inode->exec_image.empty()) {
        return -kENoexec;
      }
      const ProgramMain* main = programs_.Find(interp_nr.inode->exec_image);
      if (main == nullptr) {
        return -kENoexec;
      }
      std::vector<std::string> new_argv = interp_words;
      new_argv.push_back(path);
      for (size_t i = 1; i < argv.size(); ++i) {
        new_argv.push_back(argv[i]);
      }
      out->main = *main;
      out->image_name = interp_nr.inode->exec_image;
      out->path = interp_words[0];
      out->argv = std::move(new_argv);
      out->valid = true;
      return 0;
    }
    return -kENoexec;
  }

  const ProgramMain* main = programs_.Find(file->exec_image);
  if (main == nullptr) {
    return -kENoexec;
  }
  if (argv.empty()) {
    argv.push_back(path::Basename(path));
  }
  out->main = *main;
  out->image_name = file->exec_image;
  out->path = resolved_path;
  out->argv = std::move(argv);
  out->valid = true;

  // setuid/setgid execution (cred is [big-lock]; exec runs under mu_).
  if ((file->mode_bits & kSIsuid) != 0) {
    p.cred.euid = file->uid;
  }
  if ((file->mode_bits & kSIsgid) != 0) {
    p.cred.egid = file->gid;
  }
  return 0;
}

SyscallStatus Kernel::SysExecve(Process& p, const SyscallArgs& a, SyscallResult* /*rv*/, Lock& lk) {
  const auto tree = BigLockAndTree(lk);
  const char* path = a.Ptr<const char>(0);
  if (path == nullptr) {
    return -kEFault;
  }
  // The preserve-emulation flag travels out-of-band (like the argv strings):
  // interposition frames arm it on the way down, and it is consumed exactly
  // once here so a stale value can never leak into a later exec. The numeric
  // arguments are the application's alone.
  const bool preserve_emulation = p.exec_preserve_staging;
  p.exec_preserve_staging = false;
  PendingExec pending;
  const int err = ResolveExecutableLocked(p, path, &pending);
  if (err != 0) {
    return err;
  }
  pending.preserve_emulation = preserve_emulation;

  // Point of no return: reset signal dispositions (caught -> default) and
  // close-on-exec descriptors. The image jump happens at the return-to-user
  // boundary in ProcessContext.
  for (SignalAction& action : p.actions) {
    if (action.IsHandler()) {
      action = SignalAction{};
    }
  }
  p.fds.CloseOnExec();
  p.pending_exec = std::move(pending);
  return 0;
}

SyscallStatus Kernel::SysExit(Process& p, const SyscallArgs& a, SyscallResult* /*rv*/, Lock& lk) {
  const auto tree = BigLockAndTree(lk);
  p.exit_pending = true;
  p.exit_wait_status = WaitStatusExited(a.Int(0) & 0xff);
  return 0;
}

SyscallStatus Kernel::SysWait4(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk) {
  BigLock(lk);
  const Pid selector = a.Int(0);
  auto* status_out = a.Ptr<int>(1);
  const int options = a.Int(2);
  auto* usage_out = a.Ptr<Rusage>(3);

  const auto matches = [&](const Process& child) {
    if (child.ppid != p.pid) {
      return false;
    }
    if (selector > 0) {
      return child.pid == selector;
    }
    if (selector == 0) {
      return child.pgrp == p.pgrp;
    }
    if (selector == -1) {
      return true;
    }
    return child.pgrp == -selector;
  };

  for (;;) {
    bool have_children = false;
    Pid zombie = 0;
    for (const auto& [pid, child] : table_) {
      if (!matches(*child)) {
        continue;
      }
      have_children = true;
      if (child->state == ProcState::kZombie) {
        zombie = pid;
        break;
      }
    }
    if (zombie != 0) {
      Rusage child_usage;
      const int status = ReapLocked(zombie, lk, &child_usage);
      AddMicros(&p.child_rusage.ru_utime,
                child_usage.ru_utime.tv_sec * 1000000 + child_usage.ru_utime.tv_usec);
      AddMicros(&p.child_rusage.ru_stime,
                child_usage.ru_stime.tv_sec * 1000000 + child_usage.ru_stime.tv_usec);
      p.child_rusage.ru_nsyscalls += child_usage.ru_nsyscalls;
      p.child_rusage.ru_inblock += child_usage.ru_inblock;
      p.child_rusage.ru_oublock += child_usage.ru_oublock;
      p.child_rusage.ru_nsignals += child_usage.ru_nsignals;
      if (status_out != nullptr) {
        *status_out = status;
      }
      if (usage_out != nullptr) {
        *usage_out = child_usage;
      }
      rv->rv[0] = zombie;
      return static_cast<SyscallStatus>(zombie);
    }
    if (!have_children) {
      return -kEChild;
    }
    if ((options & kWNoHang) != 0) {
      rv->rv[0] = 0;
      return 0;
    }
    const SyscallStatus slept = Sleep(p, p.chan, lk);
    if (slept != 0) {
      return slept;
    }
  }
}

SyscallStatus Kernel::SysKill(Process& p, const SyscallArgs& a, SyscallResult* /*rv*/, Lock& lk) {
  const auto tree = BigLockAndTree(lk);
  const Pid target_pid = a.Int(0);
  const int signo = a.Int(1);
  if (signo < 0 || signo >= kNumSignals) {
    return -kEInval;
  }
  if (target_pid > 0) {
    ProcessRef target = FindLocked(target_pid);
    if (target == nullptr || target->state == ProcState::kZombie) {
      return -kESrch;
    }
    return KillOneLocked(p, *target, signo);
  }
  // pid == 0: own process group; pid < -1: group |pid|; pid == -1: broadcast.
  // Negate in 64 bits: pid may be INT_MIN, whose int negation is undefined.
  const int64_t group = target_pid == 0 ? p.pgrp.load() : -static_cast<int64_t>(target_pid);
  int hits = 0;
  int err = -kESrch;
  for (const auto& [pid, target] : table_) {
    if (target->state == ProcState::kZombie) {
      continue;
    }
    if (target_pid == -1) {
      if (pid == p.pid || !p.cred.IsSuperuser()) {
        continue;
      }
    } else if (target->pgrp != group) {
      continue;
    }
    const int one = KillOneLocked(p, *target, signo);
    if (one == 0) {
      ++hits;
    } else {
      err = one;
    }
  }
  return hits > 0 ? 0 : err;
}

SyscallStatus Kernel::SysKillpg(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk) {
  const int64_t pgrp = a.Int(0);
  if (pgrp < 0) {  // also dodges the unrepresentable -INT_MIN negation
    return -kEInval;
  }
  SyscallArgs kill_args;
  kill_args.SetInt(0, pgrp == 0 ? 0 : -pgrp);
  kill_args.SetInt(1, a.Int(1));
  return SysKill(p, kill_args, rv, lk);
}

SyscallStatus Kernel::SysGetpid(Process& p, const SyscallArgs& /*a*/, SyscallResult* rv,
                                Lock& /*lk*/) {
  rv->rv[0] = p.pid;
  return 0;
}

SyscallStatus Kernel::SysGetppid(Process& p, const SyscallArgs& /*a*/, SyscallResult* rv,
                                 Lock& /*lk*/) {
  rv->rv[0] = p.ppid;
  return 0;
}

SyscallStatus Kernel::SysGetpgrp(Process& p, const SyscallArgs& /*a*/, SyscallResult* rv,
                                 Lock& /*lk*/) {
  rv->rv[0] = p.pgrp;
  return 0;
}

SyscallStatus Kernel::SysGetuid(Process& p, const SyscallArgs& /*a*/, SyscallResult* rv,
                                Lock& /*lk*/) {
  rv->rv[0] = p.cred.ruid;
  rv->rv[1] = p.cred.euid;
  return 0;
}

SyscallStatus Kernel::SysGeteuid(Process& p, const SyscallArgs& /*a*/, SyscallResult* rv,
                                 Lock& /*lk*/) {
  rv->rv[0] = p.cred.euid;
  return 0;
}

SyscallStatus Kernel::SysGetgid(Process& p, const SyscallArgs& /*a*/, SyscallResult* rv,
                                Lock& /*lk*/) {
  rv->rv[0] = p.cred.rgid;
  rv->rv[1] = p.cred.egid;
  return 0;
}

SyscallStatus Kernel::SysGetegid(Process& p, const SyscallArgs& /*a*/, SyscallResult* rv,
                                 Lock& /*lk*/) {
  rv->rv[0] = p.cred.egid;
  return 0;
}

SyscallStatus Kernel::SysGetpagesize(Process& /*p*/, const SyscallArgs& /*a*/, SyscallResult* rv,
                                     Lock& /*lk*/) {
  rv->rv[0] = 4096;
  return 0;
}

SyscallStatus Kernel::SysGetdtablesize(Process& /*p*/, const SyscallArgs& /*a*/, SyscallResult* rv,
                                       Lock& /*lk*/) {
  rv->rv[0] = kMaxFilesPerProcess;
  return 0;
}

SyscallStatus Kernel::SysSetpgrp(Process& p, const SyscallArgs& a, SyscallResult* /*rv*/, Lock& lk) {
  const auto tree = BigLockAndTree(lk);
  Pid target_pid = a.Int(0);
  Pid pgrp = a.Int(1);
  if (target_pid == 0) {
    target_pid = p.pid;
  }
  if (pgrp == 0) {
    pgrp = target_pid;
  }
  if (pgrp < 0) {
    return -kEInval;
  }
  ProcessRef target = FindLocked(target_pid);
  if (target == nullptr) {
    return -kESrch;
  }
  if (!p.cred.IsSuperuser() && target->cred.ruid != p.cred.ruid) {
    return -kEPerm;
  }
  target->pgrp = pgrp;
  return 0;
}

SyscallStatus Kernel::SysSetuid(Process& p, const SyscallArgs& a, SyscallResult* /*rv*/, Lock& lk) {
  const auto tree = BigLockAndTree(lk);
  const Uid uid = a.Int(0);
  if (!p.cred.IsSuperuser() && uid != p.cred.ruid) {
    return -kEPerm;
  }
  p.cred.ruid = p.cred.euid = uid;
  return 0;
}

SyscallStatus Kernel::SysGetgroups(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& /*lk*/) {
  const int setlen = a.Int(0);
  Gid* gidset = a.Ptr<Gid>(1);
  const int count = static_cast<int>(p.cred.groups.size());
  if (setlen == 0) {
    rv->rv[0] = count;
    return count;
  }
  if (gidset == nullptr) {
    return -kEFault;
  }
  if (setlen < count) {
    return -kEInval;
  }
  for (int i = 0; i < count; ++i) {
    gidset[i] = p.cred.groups[static_cast<size_t>(i)];
  }
  rv->rv[0] = count;
  return count;
}

SyscallStatus Kernel::SysSetgroups(Process& p, const SyscallArgs& a, SyscallResult* /*rv*/, Lock& lk) {
  const auto tree = BigLockAndTree(lk);
  if (!p.cred.IsSuperuser()) {
    return -kEPerm;
  }
  const int ngroups = a.Int(0);
  const Gid* gidset = a.Ptr<const Gid>(1);
  if (ngroups < 0 || ngroups > 16) {
    return -kEInval;
  }
  if (ngroups > 0 && gidset == nullptr) {
    return -kEFault;
  }
  p.cred.groups.assign(gidset, gidset + ngroups);
  return 0;
}

SyscallStatus Kernel::SysGetlogin(Process& p, const SyscallArgs& a, SyscallResult* /*rv*/, Lock& /*lk*/) {
  char* buf = a.Ptr<char>(0);
  const int len = a.Int(1);
  if (buf == nullptr || len <= 0) {
    return -kEFault;
  }
  const int n = std::min<int>(len - 1, static_cast<int>(p.login.size()));
  std::memcpy(buf, p.login.data(), static_cast<size_t>(n));
  buf[n] = '\0';
  return 0;
}

SyscallStatus Kernel::SysSetlogin(Process& p, const SyscallArgs& a, SyscallResult* /*rv*/, Lock& /*lk*/) {
  if (!p.cred.IsSuperuser()) {
    return -kEPerm;
  }
  const char* name = a.Ptr<const char>(0);
  if (name == nullptr) {
    return -kEFault;
  }
  p.login = name;
  return 0;
}

SyscallStatus Kernel::SysGethostname(Process& /*p*/, const SyscallArgs& a, SyscallResult* /*rv*/, Lock& lk) {
  const auto tree = BigLockAndTree(lk);
  char* buf = a.Ptr<char>(0);
  const int len = a.Int(1);
  if (buf == nullptr || len <= 0) {
    return -kEFault;
  }
  const int n = std::min<int>(len - 1, static_cast<int>(hostname_.size()));
  std::memcpy(buf, hostname_.data(), static_cast<size_t>(n));
  buf[n] = '\0';
  return 0;
}

SyscallStatus Kernel::SysSethostname(Process& p, const SyscallArgs& a, SyscallResult* /*rv*/, Lock& lk) {
  const auto tree = BigLockAndTree(lk);
  if (!p.cred.IsSuperuser()) {
    return -kEPerm;
  }
  const char* name = a.Ptr<const char>(0);
  if (name == nullptr) {
    return -kEFault;
  }
  const int64_t len = a.Long(1);
  if (len < 0 || len > kMaxNameLen) {
    return -kEInval;
  }
  // Str arguments are NUL-terminated in this simulation, so a `len` larger
  // than the actual string must clamp at the terminator rather than read past
  // the caller's buffer.
  hostname_.assign(name, strnlen(name, static_cast<size_t>(len)));
  return 0;
}

// ---------------------------------------------------------------------------
// Signal syscalls.
// ---------------------------------------------------------------------------

SyscallStatus Kernel::SysSigvec(Process& p, const SyscallArgs& a, SyscallResult* /*rv*/, Lock& /*lk*/) {
  const int signo = a.Int(0);
  const auto disposition = static_cast<uintptr_t>(a.U64(1));
  const auto handler_mask = static_cast<uint32_t>(a.U64(2));
  if (signo <= 0 || signo >= kNumSignals) {
    return -kEInval;
  }
  if ((signo == kSigKill || signo == kSigStop) && disposition != kSigDfl) {
    return -kEInval;
  }
  SignalAction& action = p.actions[static_cast<size_t>(signo)];
  action.disposition = disposition;
  action.mask = handler_mask;
  if (disposition >= 2) {
    action.fn = std::move(p.staging_handler);
  } else {
    action.fn = nullptr;
  }
  p.staging_handler = nullptr;
  return 0;
}

SyscallStatus Kernel::SysSigblock(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& /*lk*/) {
  const auto mask = static_cast<uint32_t>(a.U64(0));
  rv->rv[0] = p.sig_mask;
  p.sig_mask |= mask & ~(SigMask(kSigKill) | SigMask(kSigStop));
  return 0;
}

SyscallStatus Kernel::SysSigsetmask(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& /*lk*/) {
  const auto mask = static_cast<uint32_t>(a.U64(0));
  rv->rv[0] = p.sig_mask;
  p.sig_mask = mask & ~(SigMask(kSigKill) | SigMask(kSigStop));
  // No wakeup: only the owner sleeps on its own mask, and the owner is here.
  // (That is also what lets this handler run with no lock.)
  return 0;
}

SyscallStatus Kernel::SysSigpause(Process& p, const SyscallArgs& a, SyscallResult* /*rv*/, Lock& lk) {
  BigLock(lk);
  const auto mask = static_cast<uint32_t>(a.U64(0));
  p.sigpause_saved_mask = p.sig_mask;
  p.sigpause_restore = true;
  p.sig_mask = mask & ~(SigMask(kSigKill) | SigMask(kSigStop));
  while (Sleep(p, p.chan, lk) == 0) {
    // until a signal is deliverable
  }
  // The temporary mask stays in force until the woken signal's handler has run;
  // ProcessContext's boundary restores the saved mask afterwards.
  return -kEIntr;  // sigpause always returns EINTR after a signal
}

// ---------------------------------------------------------------------------
// Time and accounting syscalls.
// ---------------------------------------------------------------------------

SyscallStatus Kernel::SysGettimeofday(Process& p, const SyscallArgs& a, SyscallResult* /*rv*/,
                                      Lock& /*lk*/) {
  auto* tp = a.Ptr<TimeVal>(0);
  auto* tzp = a.Ptr<TimeZone>(1);
  if (tp != nullptr) {
    const int64_t now = p.host->clock().Now();
    tp->tv_sec = now / 1000000;
    tp->tv_usec = now % 1000000;
  }
  if (tzp != nullptr) {
    *tzp = TimeZone{};
  }
  return 0;
}

SyscallStatus Kernel::SysSettimeofday(Process& p, const SyscallArgs& a, SyscallResult* /*rv*/, Lock& lk) {
  const auto tree = BigLockAndTree(lk);
  if (!p.cred.IsSuperuser()) {
    return -kEPerm;
  }
  const auto* tp = a.Ptr<const TimeVal>(0);
  if (tp == nullptr) {
    return -kEFault;
  }
  // The caller's host takes the new time now; other live hosts keep theirs,
  // and every root spawned later starts from it.
  const VirtualMicros now = tp->tv_sec * 1000000 + tp->tv_usec;
  p.host->clock().Set(now);
  floor_ = now;
  fs_.set_now(tp->tv_sec);
  return 0;
}

SyscallStatus Kernel::SysGetrusage(Process& p, const SyscallArgs& a, SyscallResult* /*rv*/, Lock& /*lk*/) {
  const int who = a.Int(0);
  auto* usage = a.Ptr<Rusage>(1);
  if (usage == nullptr) {
    return -kEFault;
  }
  if (who == kRusageSelf) {
    *usage = p.rusage;
    return 0;
  }
  if (who == kRusageChildren) {
    *usage = p.child_rusage;
    return 0;
  }
  return -kEInval;
}

}  // namespace ia
