// The simulated 4.3BSD kernel.
//
// Each simulated process runs as a fiber on its root's host thread (fiber.h)
// and enters the kernel through one dispatch core, DoSyscallBatch();
// DoSyscall() is its count-1 case. The core pays the prologue once per batch
// (an advance of the caller's host clock, rusage, stat shard), consults the
// fault plan per entry, calls the entry's handler, and per completed entry
// delivers the ktrace record and tallies the stats epilogue. Every word the
// prologue and epilogue write belongs to the caller's host thread: its
// FiberHost's virtual clock (one per root's host, shared by the processes
// forked under it, written by that thread alone), the caller's [owner]
// rusage, and this thread's stat shard. Hosts exchange virtual time only at
// causal edges, under mu_ (DESIGN.md §7): a cross-host wakeup or signal
// post, a pipe or socket transfer, and a spawn, which starts at floor_.
//
// The core holds no lock when it calls a handler; each handler, or the
// FileBacking op it reaches, takes the locks it needs, as a 4.3BSD handler
// does (namei locks the parent, rwuio the file):
//
//   handler                                   locks
//   getpid, umask, sigblock, gettimeofday,    none: the caller's [owner]
//     getrusage, ... (process-local)            fields, atomics, host clock
//   stat, lstat, access, readlink,            tree shared
//     open (a fifo: then mu_), creat
//   read, write, writev, lseek, fstat,        tree shared + Inode::data_mu
//     getdirentries on a vnode                  (a device: mu_)
//   close                                     none (a pipe, a socket or an
//                                               flocked file: mu_)
//   a pipe's or socket's read/write/fstat     mu_
//   wait4, sigpause, readv, accept, send,     mu_ (kBlocking rows: they
//     recv, sendto, recvfrom                    sleep on a wait channel)
//   every other handler                       mu_ + tree exclusive
//
// Every mu_ taken on behalf of a call goes through BigLock, which counts it
// (BigLockDispatches). The core keeps the tree lock across a batch's entries
// (RwLock::Keep): the first shared hold a handler takes stays held for the
// entries after it, so a run of tree-shared entries pays one acquire.
// BigLock ends the keeping before it takes mu_, and the core starts it
// again for the next entry. A regular file's bytes, a directory's entries and the
// offsets of open files belong to the inode's data_mu (4.3BSD's ilock): a
// writev holds it across all its segments, a creating open (O_CREAT,
// O_TRUNC, O_EXCL) links its new file under the parent directory's data_mu
// and truncates under the file's, and a walk's cache miss searches a
// directory under its data_mu. A shared hold writes only the caller's
// reader slot of the tree lock (rwlock.h), and unbudgeted file growth only
// the caller's byte shard (vfs.h). A blocking handler sleeps on the wait
// channel of the object it waits for and honors signals with EINTR (Sleep
// in process.h).
//
// Calls arrive either synchronously through ProcessContext::Syscall, or as
// SyscallRequest batches drained from a per-process submission/completion
// ring (see ring.h). A batch pays the prologue once for all its entries.
//
// Lock order (outer to inner): mu_ -> tree lock (either mode) ->
// Inode::data_mu -> a name-cache shard's mutex (leaf; a walk's miss caches
// its answer inside the directory's data_mu, and no one holds two shards'),
// and tree lock (either mode) -> Inode::data_mu ->
// the FaultInjector's mutex (the disk-budget clamp runs inside a write's
// data_mu hold). No one holds two inodes' data_mu at once, and the tree
// lock is not recursive: a handler takes it once, in one mode. A process's
// own state (its descriptor table, rusage) takes no lock: it has one owner,
// its fiber (process.h). ktrace_mu_ and the FaultInjector's mutex are also
// taken between handlers, where the core holds at most the kept shared
// tree hold (it finishes entries and consults the plan there). Nothing
// acquires mu_ or the tree lock while holding data_mu, and nothing
// acquires mu_ while holding any of the others. A FiberHost's own mutex
// (its run queue) is a leaf, taken under mu_ by wakeups, which leave the
// waker's clock stamp on the fiber under it. Fibers of one host share its
// thread, so mu_ is the only lock held across a sleep (Sleep drops it
// before switching; the kept tree hold ended in BigLock), and no lock is
// held across a Yield. The tree lock's writer mutex is internal to it and
// held only by an exclusive holder; clock reads and merges take no lock
// beyond the ones listed (floor_ is guarded by mu_).
//
// Observing a path does not change it: a fault plan or a ktrace sink changes
// no lock and no prologue. Fault decisions are keyed on (pid, per-process
// call sequence), so they are identical to synchronous issue, and each
// ktrace record is stamped with the virtual time synchronous issue would
// give.
#ifndef SRC_KERNEL_KERNEL_H_
#define SRC_KERNEL_KERNEL_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "src/base/clock.h"
#include "src/kernel/context.h"
#include "src/kernel/devices.h"
#include "src/kernel/faultplan.h"
#include "src/kernel/ktrace.h"
#include "src/kernel/process.h"
#include "src/kernel/programs.h"
#include "src/kernel/ring.h"
#include "src/kernel/syscall_table.h"
#include "src/kernel/vfs.h"

namespace ia {

struct KernelConfig {
  int64_t epoch_seconds = 725846400;  // 1993-01-01T00:00:00Z, in the paper's era
  bool console_echo_to_host = false;
  // ProcessContext::Compute(us) always advances the virtual clock; when this is
  // nonzero it also busy-waits us*scale host-microseconds, so wall-clock
  // benchmarks see applications that do "real work" between system calls (the
  // paper's Scribe run is compute-dominated).
  double compute_spin_scale = 0.0;
};

// Per-syscall observability counters, indexed by syscall number.
struct SyscallStat {
  int64_t calls = 0;
  int64_t errors = 0;      // dispatches that returned a negative errno
  int64_t vtime_usec = 0;  // virtual-clock time spent in the call (incl. blocking)
};

struct SpawnOptions {
  // Either an executable path in the VFS...
  std::string path;
  // ...or a direct body (used by agent loaders and tests).
  std::function<int(ProcessContext&)> body;
  std::vector<std::string> argv;
  Uid uid = 0;
  Gid gid = 0;
  std::string cwd = "/";
  bool open_console_stdio = true;  // fds 0,1,2 on /dev/tty
};

class Kernel {
 public:
  explicit Kernel(const KernelConfig& config = KernelConfig{});
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // --- world construction ------------------------------------------------------
  Filesystem& fs() { return fs_; }
  ProgramRegistry& programs() { return programs_; }
  ConsoleDevice& console() { return console_; }

  // Virtual time seen from outside the processes. Each host thread keeps
  // its own clock (fiber.h); this is the latest of the floor (the epoch,
  // settimeofday, and the clocks of exited processes) and every live host's
  // clock. It takes mu_. A process reads its own host's clock instead.
  VirtualMicros VirtualNow();

  // Registers `main` as image `image` and installs an executable file at `path`.
  void InstallProgram(const std::string& path, const std::string& image, ProgramMain main,
                      Mode mode = 0755);

  // --- host-side process control -----------------------------------------------
  // Starts a root process on a new host thread; every process it forks runs
  // as a fiber on that same thread (fiber.h).
  Pid Spawn(const SpawnOptions& options);

  // Blocks the *host* until `pid` (a host-spawned process) exits; reaps it.
  // Returns the wait-status or negative errno. Called from a process body,
  // it would block that process's whole host thread.
  int HostWaitPid(Pid pid);

  // Kills everything and joins every host thread. Idempotent; called by the
  // destructor.
  void Shutdown();

  // --- the trap ------------------------------------------------------------------
  SyscallStatus DoSyscall(Process& proc, int number, const SyscallArgs& args, SyscallResult* rv);

  // The dispatch core: runs `batch.count` kernel-lane requests and fills
  // each one's completion, in submission order (see the lock table at the
  // top of this file). A ring drain passes a run of entries in place, read
  // from their submission slots and completed into the completion slots at
  // the same positions, wrapping at the slot array's end (SyscallBatch);
  // DoSyscall is the count-1 case, one entry on its stack.
  void DoSyscallBatch(Process& proc, const SyscallBatch& batch);

  // --- support used by ProcessContext ---------------------------------------------
  // Picks, clears, and returns the next deliverable pending signal, or 0.
  int TakeDeliverableSignal(Process& proc);
  // Finishes a process: close fds, reparent children, zombie + SIGCHLD. Thread-safe.
  void FinalizeExit(Process& proc, int wait_status);
  // Blocks the calling process in the stopped state until SIGCONT/SIGKILL.
  void StopSelf(Process& proc);
  // Virtual "user work": advances the clock and utime. A signal-delivery point.
  void ConsumeCpu(Process& proc, int64_t micros);

  // --- introspection ----------------------------------------------------------------
  int LiveProcessCount();
  int64_t TotalSyscallCount();
  // Big-lock acquisitions on behalf of system calls (BigLock), folded like
  // SyscallStats(): which calls take mu_, as a count.
  int64_t BigLockDispatches();
  std::vector<Pid> Pids();

  // Snapshot of the per-syscall count / error / virtual-time counters.
  std::array<SyscallStat, kMaxSyscall> SyscallStats();

  // True when `number` has a kernel dispatch handler (a non-ENOSYS row in
  // syscalls.def).
  static bool ImplementsSyscall(int number);

  // Snapshot of the namei directory name-lookup cache counters.
  NameCacheStats CacheStats();

  // Aggregated compiled-dispatch-route counters, accumulated from each
  // process's emulation stack as it exits (FinalizeExit). `lookups` counts
  // route consultations, `builds` counts lazy (re)compilations; the hit rate
  // is 1 - builds/lookups. Exact once the world has quiesced.
  struct RouteCacheStats {
    int64_t lookups = 0;
    int64_t builds = 0;
  };
  RouteCacheStats RouteStats() {
    RouteCacheStats stats;
    stats.lookups = route_lookups_.load(std::memory_order_relaxed);
    stats.builds = route_builds_.load(std::memory_order_relaxed);
    return stats;
  }

  // In-kernel tracing (the monolithic DFSTrace stand-in). Not owned. Every
  // call's record is delivered one at a time under ktrace_mu_, so sinks need no
  // internal synchronization; once SetKtraceSlot detaches a sink it receives
  // no further records. Each slot carries its own abstraction-class filter:
  // a record is delivered when the row's flags intersect the slot's mask.
  // Slot 0 with kFileRef is the classic DFSTrace file-reference slice;
  // SetKtrace() keeps that historical shape. A second slot filtered on
  // kProcess yields the fork/exec/exit lifecycle slice.
  static constexpr int kKtraceSlots = 2;
  void SetKtrace(KtraceSink* sink) { SetKtraceSlot(0, sink, kFileRef); }
  void SetKtraceSlot(int slot, KtraceSink* sink, uint32_t flag_filter);

  // Per-syscall virtual-time costs (µsec); defaults approximate paper Table 3-5.
  void SetSyscallCost(int number, int32_t micros);
  int32_t SyscallCost(int number) const;

  // --- fault injection ---------------------------------------------------------
  // Installs `plan` (replacing any previous one and resetting its counters);
  // every subsequent batch consults it, for every call. With no plan installed
  // the fault path is a single null-pointer test per batch.
  void SetFaultPlan(const FaultPlan& plan);
  void ClearFaultPlan();

  // Snapshot of the per-syscall injected-fault counters (all zero when no plan
  // is or was installed).
  std::array<FaultStat, kMaxSyscall> FaultStats();

  // The recorded fault trace, one line per injection (empty unless the plan
  // set record_trace). Reproducibility means two runs from the same seed
  // produce byte-identical text here.
  std::string FaultTraceText();

  // --- agent fault containment (containment.h, DESIGN.md §12) -------------------
  // Kernel-wide containment counters: contained traps/garbles/overruns,
  // quarantines (breaker trips), half-open re-trips, and reinstates.
  AgentContainmentStats ContainmentStats();

  // Point-in-time copies of every live frame-health record, registration
  // order. Expired frames (process exited, stack cleared) are skipped.
  std::vector<FrameHealthSnapshot> FrameHealthSnapshots();

  // Called by ProcessContext::PushEmulation: publishes `health` to the
  // registry. The registry mutex is the happens-before edge that makes the
  // record's identity fields safe to read from snapshot threads.
  void RegisterFrameHealth(const std::shared_ptr<FrameHealth>& health);

  // Per-kind containment tallies (called on every contained frame failure).
  void NoteFrameFault(FrameFailureKind kind);

  // A frame's breaker tripped (quarantine) / was reopened by Reinstate.
  // Both emit a kProcess-filtered ktrace record alongside the counters.
  void NoteQuarantine(const FrameHealth& health, int number, bool half_open_retrip);
  void NoteReinstate(const FrameHealth& health);

 private:
  friend class FileBacking;  // the narrow backing API in file_backing.cc
  friend class ProcessContext;

  using Lock = std::unique_lock<std::mutex>;

  // Borrows the process's root and cwd: no reference is taken per call.
  NameiEnv EnvOf(Process& proc) const { return NameiEnv{proc.root, proc.cwd, &proc.cred}; }

  // Takes the big lock into `lk` on behalf of the calling system call: the
  // one place a call acquires mu_, counted in BigLockDispatches(). A no-op
  // when `lk` already holds it (readv's and writev's segments, a socket
  // call's transfer). Ends the dispatch core's keeping of the tree lock
  // first: the caller must hold no shared tree hold of its own.
  void BigLock(Lock& lk);
  // BigLock, then the tree lock held exclusively for the returned guard's
  // life: the prologue of every non-blocking handler that runs under mu_.
  [[nodiscard]] std::unique_lock<RwLock> BigLockAndTree(Lock& lk);

  // The regular-file read body of VnodeBacking. Preconditions: `file` is a
  // readable vnode-backed regular/symlink/directory descriptor, buf !=
  // nullptr and count > 0. Takes the inode's InodeBytesLock (vfs.h).
  SyscallStatus ReadRegular(Process& proc, OpenFile& file, char* buf, int64_t count,
                            SyscallResult* rv);
  // The regular-file write body (append positioning, kEFbig ceiling, disk
  // budget and short-transfer accounting, resize+copy). Preconditions:
  // `file` is a writable vnode-backed regular file, buf != nullptr, count >
  // 0, and the caller holds the inode's InodeBytesLock (vfs.h), so a writev
  // can hold it across its segments.
  SyscallStatus WriteRegularLocked(Process& proc, OpenFile& file, const char* buf, int64_t count,
                                   SyscallResult* rv);

  // Consults `injector` for `*req`, the process's `seq`-th call. kInjected:
  // the plan consumed the call and *status holds its result. kClamped: a
  // short transfer rewrote *req (the caller's copy) to the clamped count,
  // and the real handler runs it.
  enum class FaultOutcome : uint8_t { kNone, kInjected, kClamped };
  FaultOutcome InjectFault(FaultInjector& injector, Process& proc, uint64_t seq,
                           SyscallRequest* req, SyscallStatus* status);

  // The one ktrace delivery loop: under ktrace_mu_, hands `record` to every
  // attached slot whose filter intersects `flags`. Callers test
  // ktrace_active_ first.
  void DeliverKtrace(uint32_t flags, const KtraceRecord& record);

  // Uniform handler signature: the dense dispatch array built from
  // syscalls.def holds one of these per implemented syscall number.
  using SyscallHandler = SyscallStatus (Kernel::*)(Process&, const SyscallArgs&, SyscallResult*,
                                                   Lock&);
  static const std::array<SyscallHandler, kMaxSyscall>& DispatchTable();

  // One method per implemented system call. The core calls each with no lock
  // held and `lk` empty; a handler takes what it needs (the table at the top
  // of this file), and the core releases `lk` after it returns. Handlers
  // that neither write results nor take the big lock ignore rv/lk.
  SyscallStatus SysOpen(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysCreat(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysClose(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysRead(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysWrite(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysReadv(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysWritev(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysLseek(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysStatCommon(Process& p, const SyscallArgs& a, bool follow);
  SyscallStatus SysStat(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysLstat(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysFstat(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysLink(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysUnlink(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysSymlink(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysReadlink(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysRename(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysMkdir(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysRmdir(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysChdir(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysFchdir(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysChroot(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysChmod(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysFchmod(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysChown(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysFchown(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysAccess(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysUtimes(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysTruncate(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysFtruncate(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysUmask(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysDup(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysDup2(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysPipe(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysFcntl(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysFlock(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysFsync(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysSync(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysIoctl(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysGetdirentries(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysMknod(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);

  // AF_UNIX sockets (src/kernel/socket.cc). Blocking rows: accept, send,
  // recv, sendto, recvfrom.
  SyscallStatus SysSocket(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysBind(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysConnect(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysListen(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysAccept(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysSocketpair(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysSend(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysRecv(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysSendto(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysRecvfrom(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysGetsockname(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysGetpeername(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysShutdown(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);

  SyscallStatus SysFork(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysExecve(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysExit(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysWait4(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysKill(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysKillpg(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysGetpid(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysGetppid(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysGetpgrp(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);

  SyscallStatus SysSigvec(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysSigblock(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysSigsetmask(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysSigpause(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);

  SyscallStatus SysGettimeofday(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysSettimeofday(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysGetrusage(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);

  SyscallStatus SysSetpgrp(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysSetuid(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysGetuid(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysGeteuid(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysGetgid(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysGetegid(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysGetpagesize(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysGetdtablesize(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysGetgroups(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysSetgroups(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysGetlogin(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysSetlogin(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysGethostname(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);
  SyscallStatus SysSethostname(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk);

  // Posts `signo` to `target` (lock held).
  void PostSignalLocked(Process& target, int signo);
  int KillOneLocked(Process& sender, Process& target, int signo);

  // Reaps `pid` (zombie). When it was the last table entry on its host
  // thread, joins that thread with the lock dropped. Returns status.
  int ReapLocked(Pid pid, Lock& lk, Rusage* child_usage);
  void ReapHostOrphansLocked(Lock& lk);

  ProcessRef FindLocked(Pid pid);

  Process& CreateProcessLocked(Pid ppid);
  // Starts `proc` as a fiber on `host`: a new root's host, or the forking
  // parent's.
  void StartProcessLocked(const ProcessRef& proc, FiberHost* host);

  int ResolveExecutableLocked(Process& p, const std::string& path, PendingExec* out);

  std::mutex mu_;
  std::condition_variable cv_;  // host threads wait here for exits they reap
  std::map<Pid, ProcessRef> table_;
  // One host thread per host-spawned root, running that root's process tree
  // as fibers. A host leaves here, and is joined, when the last table entry
  // placed on it is reaped.
  std::vector<std::unique_ptr<FiberHost>> hosts_;
  Pid next_pid_ = 1;
  bool shutting_down_ = false;

  Filesystem fs_;
  ProgramRegistry programs_;
  // Where a new host's clock starts: the epoch, then the latest of every
  // exited process's host clock, reset by settimeofday. Live hosts do not
  // move it, so roots spawned together start together. Guarded by mu_.
  VirtualMicros floor_ = 0;
  std::string hostname_ = "vax6250";

  NullDevice null_dev_;
  ZeroDevice zero_dev_;
  ConsoleDevice console_;
  RandomDevice random_dev_;

  double compute_spin_scale_ = 0.0;
  // ktrace: slots are written under ktrace_mu_ (filter first, then the sink
  // with release) and read under it by the delivery loop. ktrace_active_
  // says whether any sink is attached, so a call with nothing attached pays
  // one load and no lock.
  struct KtraceSlot {
    std::atomic<KtraceSink*> sink{nullptr};
    std::atomic<uint32_t> filter{0};
  };
  KtraceSlot ktrace_slots_[kKtraceSlots];
  std::atomic<bool> ktrace_active_{false};
  std::mutex ktrace_mu_;  // leaf; serializes delivery and slot changes
  // The installed injector (null = fault plane off), read once per batch.
  // Every injector ever installed stays in injectors_ (guarded by mu_) until
  // ~Kernel, so a batch still holding a replaced one never dangles.
  std::atomic<FaultInjector*> fault_{nullptr};
  std::vector<std::unique_ptr<FaultInjector>> injectors_;
  int32_t syscall_cost_[kMaxSyscall] = {};

  // Observability counters, updated by concurrent lock-free dispatches.
  // Relaxed ordering throughout: each counter is an independent monotonic
  // tally — nothing is ordered by them, and snapshots (SyscallStats(),
  // TotalSyscallCount()) are documented as instantaneous reads that may split
  // a racing call's calls/vtime update. Quiescing the kernel (as the benches
  // and tests do) makes snapshots exact, because thread join/condvar edges
  // then order every prior relaxed store before the read.
  //
  // The tallies are SHARDED (DESIGN.md §11): a single shared fetch_add per
  // call was a hidden serializer — every client bounced the same cache line,
  // flat-lining the multi-client curve. Each dispatching thread tallies into
  // the shard its StatShardSlot selects; readers fold all shards, so the sum
  // semantics (and the quiesced-exactness story above) are unchanged.
  static constexpr int kStatShards = 8;  // power of two
  struct AtomicSyscallStat {
    std::atomic<int64_t> calls{0};
    std::atomic<int64_t> errors{0};
    std::atomic<int64_t> vtime_usec{0};
  };
  struct alignas(64) StatShard {
    std::atomic<int64_t> total_syscalls{0};
    std::atomic<int64_t> big_lock_dispatches{0};
    AtomicSyscallStat syscall_stats[kMaxSyscall] = {};
  };
  StatShard stat_shards_[kStatShards];
  // Compiled-route counters, folded in from exiting processes (FinalizeExit):
  // exit-rate, not call-rate, so they stay unsharded.
  std::atomic<int64_t> route_lookups_{0};
  std::atomic<int64_t> route_builds_{0};

  // --- containment plane state -------------------------------------------------
  // Emits a kAgentQuarantined/kAgentReinstated record to every kProcess-
  // filtered ktrace slot (no-op when no sink is attached).
  void EmitContainmentRecord(const FrameHealth& health, KtraceEventKind kind, int number);

  // Event counters: rare (failures only), so contention is irrelevant.
  std::atomic<int64_t> containment_traps_{0};
  std::atomic<int64_t> containment_garbled_{0};
  std::atomic<int64_t> containment_overruns_{0};
  std::atomic<int64_t> containment_quarantines_{0};
  std::atomic<int64_t> containment_retrips_{0};
  std::atomic<int64_t> containment_reinstates_{0};

  // Frame-health registry: weak so a process exiting (or popping frames)
  // naturally retires its records. Guarded by health_mu_ (leaf lock; nothing
  // is acquired while holding it).
  std::mutex health_mu_;
  std::vector<std::weak_ptr<FrameHealth>> frame_health_;
};

}  // namespace ia

#endif  // SRC_KERNEL_KERNEL_H_
