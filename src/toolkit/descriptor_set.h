// Toolkit layer 2 — descriptors and the descriptor name space (paper §2.3).
//
// DescriptorSet maintains, per client process, the mapping from descriptor
// numbers to reference-counted OpenObjects. All descriptor-using system calls
// are routed through the referenced object's method, so agents change
// descriptor behaviour by substituting derived OpenObjects rather than by
// reimplementing the calls. dup()'d and fork-inherited descriptors share one
// OpenObject, so state such as union-directory iteration is shared exactly as
// file offsets are shared in 4.3BSD.
#ifndef SRC_TOOLKIT_DESCRIPTOR_SET_H_
#define SRC_TOOLKIT_DESCRIPTOR_SET_H_

#include <map>
#include <mutex>
#include <string_view>
#include <vector>

#include "src/toolkit/directory.h"
#include "src/toolkit/symbolic_syscall.h"

namespace ia {

class DescriptorSet : public SymbolicSyscall {
 public:
  // Installs `object` as descriptor `fd` of the calling process.
  void InstallDescriptor(ProcessContext& ctx, int fd, OpenObjectRef object);

  // The object behind `fd`, materializing a default object lazily for
  // descriptors the agent has not seen (e.g. inherited stdio).
  OpenObjectRef LookupObject(AgentCall& call, int fd);

  void DropDescriptor(ProcessContext& ctx, int fd);

  // Wraps a successful open of `path` that produced `fd`: makes the default
  // object and installs the descriptor. Derived pathname objects use this after
  // opening a redirected target.
  virtual SyscallStatus RegisterOpened(AgentCall& call, int fd, std::string_view path);

  // Number of descriptors currently tracked for `pid` (tests/statistics).
  int TrackedCount(Pid pid);
  // Number of processes that have a descriptor table (tests/statistics).
  size_t TrackedProcesses();

 protected:
  void init(ProcessContext& ctx) override;
  void InitChild(ProcessContext& ctx) override;

  // This layer's abstraction is the descriptor name space: every row whose
  // argument 0 is a descriptor (kTakesFd covers close/dup/dup2/fcntl too),
  // plus the rows that create descriptors (open/creat/pipe) and the lifecycle
  // rows that retire whole tables (exec/fork/exit bookkeeping). Everything
  // else — per-process calls, signals, pure pathname metadata — skips the
  // frame.
  Footprint default_footprint() const override {
    return Footprint::Classes(kTakesFd).Merge(
        Footprint::Numbers({kSysOpen, kSysCreat, kSysPipe, kSysExecve, kSysExecv,
                            kSysFork, kSysVfork, kSysExit}));
  }

  // Creates the default object for an already-open lower-level descriptor:
  // a Directory for directories, a plain OpenObject otherwise. `path` is the
  // name it was opened by (empty if unknown), valid only for this call.
  virtual OpenObjectRef MakeDefaultObject(AgentCall& call, int fd, std::string_view path);

  // --- descriptor system calls, routed through the object --------------------
  SyscallStatus sys_read(AgentCall& call, int fd, void* buf, int64_t cnt) override;
  SyscallStatus sys_write(AgentCall& call, int fd, const void* buf, int64_t cnt) override;
  SyscallStatus sys_lseek(AgentCall& call, int fd, Off offset, int whence) override;
  SyscallStatus sys_fstat(AgentCall& call, int fd, Stat* st) override;
  SyscallStatus sys_ftruncate(AgentCall& call, int fd, Off length) override;
  SyscallStatus sys_fchmod(AgentCall& call, int fd, Mode mode) override;
  SyscallStatus sys_fchown(AgentCall& call, int fd, Uid uid, Gid gid) override;
  SyscallStatus sys_flock(AgentCall& call, int fd, int operation) override;
  SyscallStatus sys_fsync(AgentCall& call, int fd) override;
  SyscallStatus sys_ioctl(AgentCall& call, int fd, uint64_t request, void* argp) override;
  SyscallStatus sys_fchdir(AgentCall& call, int fd) override;
  SyscallStatus sys_getdirentries(AgentCall& call, int fd, char* buf, int nbytes,
                                  int64_t* basep) override;
  SyscallStatus sys_close(AgentCall& call, int fd) override;

  // --- descriptor name-space maintenance --------------------------------------
  SyscallStatus sys_open(AgentCall& call, const char* path, int flags, Mode mode) override;
  SyscallStatus sys_creat(AgentCall& call, const char* path, Mode mode) override;
  SyscallStatus sys_dup(AgentCall& call, int fd) override;
  SyscallStatus sys_dup2(AgentCall& call, int from, int to) override;
  SyscallStatus sys_fcntl(AgentCall& call, int fd, int cmd, int64_t arg) override;
  SyscallStatus sys_pipe(AgentCall& call) override;
  SyscallStatus sys_execve(AgentCall& call, const char* path) override;
  SyscallStatus sys_exit(AgentCall& call, int status) override;

  // Drops every tracked descriptor of the calling process (successful execve).
  void DropAllForExec(AgentCall& call);

 private:
  // One process's descriptors, indexed by number; a null slot is untracked.
  using Table = std::vector<OpenObjectRef>;

  OpenObjectRef Find(Pid pid, int fd);

  std::mutex mu_;
  std::map<Pid, Table> tables_;
};

}  // namespace ia

#endif  // SRC_TOOLKIT_DESCRIPTOR_SET_H_
