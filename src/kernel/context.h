// ProcessContext — the user-mode runtime of a simulated process.
//
// It is simultaneously:
//   * the trap path: Syscall() routes a call through the process's emulation stack
//     (interposition agents) and finally into the kernel;
//   * the "libc": typed convenience wrappers over the raw system-call interface;
//   * the upcall path: incoming signals are routed through interested agents and
//     then to the application's registered handler or default action.
//
// Application programs receive a ProcessContext& as their only capability, exactly
// as a 4.3BSD binary's only capability is the system-call interface.
#ifndef SRC_KERNEL_CONTEXT_H_
#define SRC_KERNEL_CONTEXT_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/kernel/process.h"

namespace ia {

class Kernel;

// Thrown to unwind a process back to its image trampoline.
struct ExecveUnwind {};
struct ExitUnwind {
  int wait_status = 0;
};

class ProcessContext {
 public:
  ProcessContext(Kernel* kernel, Process* proc) : kernel_(kernel), proc_(proc) {}

  ProcessContext(const ProcessContext&) = delete;
  ProcessContext& operator=(const ProcessContext&) = delete;

  Kernel& kernel() { return *kernel_; }
  Process& process() { return *proc_; }
  const std::vector<std::string>& argv() const { return proc_->argv; }

  // ---------------------------------------------------------------------------
  // Raw system-call path.
  // ---------------------------------------------------------------------------

  // Application-level system call: a thin synchronous wrapper that builds a
  // SyscallRequest and executes it immediately through the emulation stack.
  // At the outermost nesting level, pending execs and signals are processed on
  // return (the "return to user mode" boundary). Dispatch consults the stack's
  // compiled route for `number` (see EmulationStack::RouteFor) instead of
  // scanning frames.
  SyscallStatus Syscall(int number, const SyscallArgs& args, SyscallResult* rv);

  // ---------------------------------------------------------------------------
  // Batched submission: the per-process submission/completion ring (ring.h).
  // ---------------------------------------------------------------------------

  // The process's ring, created on first use with `entries` capacity
  // (subsequent calls return the existing ring regardless of `entries`).
  // A successful exec drops it; the new image starts with no ring.
  SyscallRing& Ring(uint32_t entries = SyscallRing::kDefaultEntries);
  bool HasRing() const { return proc_->ring != nullptr; }

  // Enqueues up to `count` requests; returns how many were accepted (the ring
  // refuses entries once capacity() requests are in flight).
  uint32_t SubmitBatch(const SyscallRequest* reqs, uint32_t count);

  // Runs queued submissions in order; each reads its submission slot and
  // completes into the completion slot at the same position. Runs of up to
  // 64 consecutive kernel-lane entries (no interested emulation frame) go to
  // the kernel's dispatch core, Kernel::DoSyscallBatch, as one batch that
  // pays the prologue once, even where a run crosses the slot array's end;
  // entries an agent wants are executed one at a time through the compiled
  // route, exactly like a synchronous call. An exit or exec entry ends its
  // run, and the drain stops issuing once exit/exec is pending (remaining
  // submissions stay queued, as synchronous issue never reaches them);
  // signals and the return-to-user-mode boundary run once when the drain
  // finishes. A drain called inside a system call (an agent's handler, say)
  // drains nothing and returns 0. Returns completions produced.
  int DrainRing();

  // Pops completions (in submission order). Reap returns false when empty.
  bool Reap(SyscallCompletion* out);
  uint32_t ReapBatch(SyscallCompletion* out, uint32_t max);

  // Continues an intercepted call below `frame` (htg_unix_syscall() equivalent).
  SyscallStatus SyscallBelow(int frame, int number, const SyscallArgs& args, SyscallResult* rv);

  // Calls directly into the kernel, bypassing all emulation frames.
  SyscallStatus TrapKernel(int number, const SyscallArgs& args, SyscallResult* rv);

  // ---------------------------------------------------------------------------
  // Interception primitives (task_set_emulation() equivalents).
  // ---------------------------------------------------------------------------

  // Pushes an emulation frame; returns its index. The topmost frame is closest to
  // the application. Pushing (like popping) bumps the stack generation, which
  // invalidates every compiled dispatch route in O(1). Attaches a FrameHealth
  // record (creating a default one when the frame carries none) and registers
  // it with the kernel, so the frame participates in the containment plane
  // (containment.h); push via emulation().Push() directly to opt out.
  int PushEmulation(EmulationFrame frame);

  // Removes the topmost emulation frame (task_set_emulation teardown).
  void PopEmulation() { proc_->emulation.Pop(); }

  EmulationStack& emulation() { return proc_->emulation; }

  // ---------------------------------------------------------------------------
  // Signal upcall path.
  // ---------------------------------------------------------------------------

  // Routes `signo` starting at the lowest interested frame; called by the kernel's
  // delivery point. Agents continue routing with ForwardSignal().
  void RouteSignal(int signo);

  // Forwards a signal from `frame` toward the application.
  void ForwardSignal(int frame, int signo);

  // Runs the application's own disposition for `signo` (handler/default).
  void DeliverToApplication(int signo);

  // Processes all deliverable pending signals now (a delivery point).
  void CheckPendingSignals();

  // ---------------------------------------------------------------------------
  // Typed system-call wrappers (the "libc"). All return >= 0 or negative errno.
  // ---------------------------------------------------------------------------
  int Open(const std::string& path, int flags, Mode mode = 0644);
  int Close(int fd);
  int64_t Read(int fd, void* buf, int64_t count);
  int64_t Write(int fd, const void* buf, int64_t count);
  int64_t Readv(int fd, const IoVec* iov, int iovcnt);
  int64_t Writev(int fd, const IoVec* iov, int iovcnt);
  int64_t Lseek(int fd, Off offset, int whence);
  int Stat(const std::string& path, ia::Stat* st);
  int Lstat(const std::string& path, ia::Stat* st);
  int Fstat(int fd, ia::Stat* st);
  int Link(const std::string& existing, const std::string& new_path);
  int Unlink(const std::string& path);
  int Symlink(const std::string& target, const std::string& link_path);
  int Readlink(const std::string& path, char* buf, int64_t bufsize);
  int Rename(const std::string& from, const std::string& to);
  int Mkdir(const std::string& path, Mode mode = 0755);
  int Rmdir(const std::string& path);
  int Chdir(const std::string& path);
  int Fchdir(int fd);
  int Chroot(const std::string& path);
  int Chmod(const std::string& path, Mode mode);
  int Fchmod(int fd, Mode mode);
  int Chown(const std::string& path, Uid uid, Gid gid);
  int Fchown(int fd, Uid uid, Gid gid);
  int Access(const std::string& path, int amode);
  int Utimes(const std::string& path, const TimeVal* times);
  int Truncate(const std::string& path, Off length);
  int Ftruncate(int fd, Off length);
  Mode Umask(Mode mask);
  int Dup(int fd);
  int Dup2(int from, int to);
  int Pipe(int fds_out[2]);
  int Fcntl(int fd, int cmd, int64_t arg);
  int Flock(int fd, int operation);
  int Fsync(int fd);
  int Sync();
  int Ioctl(int fd, uint64_t request, void* argp);
  int Getdirentries(int fd, char* buf, int nbytes, int64_t* basep);

  // AF_UNIX sockets. The *Unix variants build the SockAddr from a pathname.
  int Socket(int domain, int type, int protocol);
  int Bind(int fd, const SockAddr* addr, int addrlen);
  int BindUnix(int fd, const std::string& path);
  int Connect(int fd, const SockAddr* addr, int addrlen);
  int ConnectUnix(int fd, const std::string& path);
  int Listen(int fd, int backlog);
  int Accept(int fd, SockAddr* addr = nullptr, int* addrlen = nullptr);
  int Socketpair(int domain, int type, int protocol, int sv_out[2]);
  int64_t Send(int fd, const void* buf, int64_t count, int flags = 0);
  int64_t Recv(int fd, void* buf, int64_t count, int flags = 0);
  int64_t Sendto(int fd, const void* buf, int64_t count, int flags, const SockAddr* addr,
                 int addrlen);
  int64_t Recvfrom(int fd, void* buf, int64_t count, int flags, SockAddr* addr, int* addrlen);
  int Getsockname(int fd, SockAddr* addr, int* addrlen);
  int Getpeername(int fd, SockAddr* addr, int* addrlen);
  int Shutdown(int fd, int how);

  Pid Getpid();
  Pid Getppid();
  Uid Getuid();
  Uid Geteuid();
  Gid Getgid();
  Gid Getegid();
  int Setuid(Uid uid);
  int Getgroups(int gidsetlen, Gid* gidset);
  int Setgroups(int ngroups, const Gid* gidset);
  Pid Getpgrp();
  int Setpgrp(Pid pid, Pid pgrp);
  int Getlogin(char* buf, int len);
  int Setlogin(const std::string& name);
  int Gethostname(char* buf, int len);
  int Sethostname(const std::string& name);
  int Getdtablesize();
  int Getpagesize();

  int Kill(Pid pid, int signo);
  int Killpg(Pid pgrp, int signo);
  // Registers a handler closure; disposition kSigDfl/kSigIgn use no closure.
  int Sigvec(int signo, uintptr_t disposition, std::function<void(ProcessContext&, int)> handler,
             uint32_t handler_mask = 0);
  uint32_t Sigblock(uint32_t mask);
  uint32_t Sigsetmask(uint32_t mask);
  int Sigpause(uint32_t mask);

  int Gettimeofday(TimeVal* tp, TimeZone* tzp);
  int Settimeofday(const TimeVal* tp, const TimeZone* tzp);
  int Getrusage(int who, Rusage* usage);

  // fork(): performs 4.3BSD bookkeeping; `child_body` is the child's continuation
  // ("the code after fork() returned 0"). Returns child pid (in the parent).
  Pid Fork(std::function<int(ProcessContext&)> child_body);
  int Execve(const std::string& path, const std::vector<std::string>& argv_in);
  Pid Wait(int* status);
  Pid Wait4(Pid pid, int* status, int options, Rusage* usage);
  [[noreturn]] void Exit(int code);

  // Consumes virtual CPU time (models application "real work" deterministically).
  void Compute(int64_t micros);

  // Lets the other runnable processes on this host thread run, then returns
  // (fiber.h). A process that waits for another without a blocking call must
  // call this in its wait loop: the processes of one tree share a host
  // thread, and a sibling runs only while this one sleeps or yields. Hold no
  // lock across it.
  void Yield();

  // ---------------------------------------------------------------------------
  // Higher-level conveniences built purely on the syscalls above.
  // ---------------------------------------------------------------------------
  int WriteString(int fd, const std::string& text);
  // Reads the whole file; returns errno<0 on failure.
  int ReadWholeFile(const std::string& path, std::string* out);
  int WriteWholeFile(const std::string& path, const std::string& contents, Mode mode = 0644);
  // Classic getwd(3): walks ".." entries using only stat/getdirentries syscalls.
  int Getwd(std::string* out);
  // Reads all directory entry names via getdirentries.
  int ListDirectory(const std::string& path, std::vector<std::string>* names);
  // fork + execve + wait4 (the system(3) shape used by make-style workloads).
  int Spawn(const std::string& path, const std::vector<std::string>& argv_in, int* status);

  // Runs the process's image trampoline; it is the body of the process's fiber.
  void RunToCompletion();

  // --- internals shared with the kernel ----------------------------------------
  int syscall_depth() const { return syscall_depth_; }

 private:
  // The shared dispatch core: routes one request through the emulation
  // stack's compiled route (or straight to the kernel) under the syscall
  // depth guard. Does NOT run the return-to-user-mode boundary; callers
  // (Syscall per call, DrainRing per drain) do that at depth 0.
  SyscallStatus ExecuteRequest(const SyscallRequest& req, SyscallResult* rv);

  // --- containment plane (containment.h, DESIGN.md §12) -----------------------
  // One live per-call budget scope, stack-allocated in InvokeFrame and chained
  // through `prev` so nested frame invocations each charge their own frame.
  struct ActiveFrameBudget {
    int frame = -1;
    FrameHealth* health = nullptr;
    int64_t downcalls = 0;
    int64_t vtime_start = 0;
    ActiveFrameBudget* prev = nullptr;
  };

  // The per-frame trap: invokes At(frame)'s handler inside the containment
  // trap (exception catch, completion validation, budget scope, breaker
  // bookkeeping). On a contained failure the call is re-issued below `frame`
  // so the application still sees a correct result. Frames without a health
  // record (or with containment disabled) run bare.
  SyscallStatus InvokeFrame(int frame, int number, const SyscallArgs& args, SyscallResult* rv);

  // Charges one down-call against `frame`'s live budget scope (if any);
  // throws FrameBudgetExceeded when a cap is exhausted.
  void ChargeFrameBudget(int frame);

  void NoteFrameSuccess(FrameHealth& health);
  void NoteFrameFailure(int frame, const std::shared_ptr<SyscallHandler>& handler,
                        const std::shared_ptr<FrameHealth>& health, FrameFailureKind kind,
                        int number);

  void ProcessBoundary();  // return-to-user-mode work: pending exec, signals
  [[noreturn]] void TerminateBySignal(int signo);

  Kernel* kernel_;
  Process* proc_;
  int syscall_depth_ = 0;
  int signal_depth_ = 0;
  ActiveFrameBudget* active_budget_ = nullptr;
};

}  // namespace ia

#endif  // SRC_KERNEL_CONTEXT_H_
