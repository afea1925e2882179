#include "src/toolkit/descriptor_set.h"

namespace ia {

void DescriptorSet::init(ProcessContext& ctx) {
  SymbolicSyscall::init(ctx);
  std::lock_guard<std::mutex> lock(mu_);
  tables_.try_emplace(ctx.process().pid);
}

void DescriptorSet::InitChild(ProcessContext& ctx) {
  // fork(): the child's descriptor table is a copy of the parent's; the entries
  // share OpenObjects exactly as struct files are shared in 4.3BSD.
  std::lock_guard<std::mutex> lock(mu_);
  const Pid pid = ctx.process().pid;
  const Pid ppid = ctx.process().ppid;
  auto parent_it = tables_.find(ppid);
  if (parent_it != tables_.end()) {
    tables_[pid] = parent_it->second;
  } else {
    tables_.try_emplace(pid);
  }
}

void DescriptorSet::InstallDescriptor(ProcessContext& ctx, int fd, OpenObjectRef object) {
  if (fd < 0 || fd >= kMaxFilesPerProcess) {
    return;  // no lower-level descriptor has this number: nothing to track
  }
  std::lock_guard<std::mutex> lock(mu_);
  Table& table = tables_[ctx.process().pid];
  if (static_cast<size_t>(fd) >= table.size()) {
    table.resize(static_cast<size_t>(fd) + 1);
  }
  // The replaced object, if any, is released after the lock: its destructor
  // is agent code.
  table[static_cast<size_t>(fd)].swap(object);
}

void DescriptorSet::DropDescriptor(ProcessContext& ctx, int fd) {
  OpenObjectRef dropped;  // released after the lock: its destructor is agent code
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(ctx.process().pid);
  if (it != tables_.end() && fd >= 0 && static_cast<size_t>(fd) < it->second.size()) {
    dropped = std::move(it->second[static_cast<size_t>(fd)]);
  }
}

OpenObjectRef DescriptorSet::Find(Pid pid, int fd) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(pid);
  if (it == tables_.end() || fd < 0 || static_cast<size_t>(fd) >= it->second.size()) {
    return nullptr;
  }
  return it->second[static_cast<size_t>(fd)];
}

int DescriptorSet::TrackedCount(Pid pid) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(pid);
  if (it == tables_.end()) {
    return 0;
  }
  int count = 0;
  for (const OpenObjectRef& object : it->second) {
    count += object != nullptr ? 1 : 0;
  }
  return count;
}

size_t DescriptorSet::TrackedProcesses() {
  std::lock_guard<std::mutex> lock(mu_);
  return tables_.size();
}

OpenObjectRef DescriptorSet::MakeDefaultObject(AgentCall& call, int fd,
                                               std::string_view /*path*/) {
  DownApi api(call);
  Stat st;
  if (api.Fstat(fd, &st) == 0 && SIsDir(st.st_mode)) {
    return std::make_shared<Directory>(fd);
  }
  return std::make_shared<OpenObject>(fd);
}

OpenObjectRef DescriptorSet::LookupObject(AgentCall& call, int fd) {
  OpenObjectRef object = Find(call.ctx().process().pid, fd);
  if (object != nullptr) {
    return object;
  }
  // Unseen descriptor (inherited stdio, opened before the agent attached):
  // materialize the default object lazily so the name space stays uniform.
  object = MakeDefaultObject(call, fd, "");
  InstallDescriptor(call.ctx(), fd, object);
  return object;
}

// ---------------------------------------------------------------------------
// Calls routed through the object.
// ---------------------------------------------------------------------------

SyscallStatus DescriptorSet::sys_read(AgentCall& call, int fd, void* buf, int64_t cnt) {
  return LookupObject(call, fd)->read(call, buf, cnt);
}

SyscallStatus DescriptorSet::sys_write(AgentCall& call, int fd, const void* buf, int64_t cnt) {
  return LookupObject(call, fd)->write(call, buf, cnt);
}

SyscallStatus DescriptorSet::sys_lseek(AgentCall& call, int fd, Off offset, int whence) {
  return LookupObject(call, fd)->lseek(call, offset, whence);
}

SyscallStatus DescriptorSet::sys_fstat(AgentCall& call, int fd, Stat* st) {
  return LookupObject(call, fd)->fstat(call, st);
}

SyscallStatus DescriptorSet::sys_ftruncate(AgentCall& call, int fd, Off length) {
  return LookupObject(call, fd)->ftruncate(call, length);
}

SyscallStatus DescriptorSet::sys_fchmod(AgentCall& call, int fd, Mode mode) {
  return LookupObject(call, fd)->fchmod(call, mode);
}

SyscallStatus DescriptorSet::sys_fchown(AgentCall& call, int fd, Uid uid, Gid gid) {
  return LookupObject(call, fd)->fchown(call, uid, gid);
}

SyscallStatus DescriptorSet::sys_flock(AgentCall& call, int fd, int operation) {
  return LookupObject(call, fd)->flock(call, operation);
}

SyscallStatus DescriptorSet::sys_fsync(AgentCall& call, int fd) {
  return LookupObject(call, fd)->fsync(call);
}

SyscallStatus DescriptorSet::sys_ioctl(AgentCall& call, int fd, uint64_t request, void* argp) {
  return LookupObject(call, fd)->ioctl(call, request, argp);
}

SyscallStatus DescriptorSet::sys_fchdir(AgentCall& call, int fd) {
  return LookupObject(call, fd)->fchdir(call);
}

SyscallStatus DescriptorSet::sys_getdirentries(AgentCall& call, int fd, char* buf, int nbytes,
                                               int64_t* basep) {
  return LookupObject(call, fd)->getdirentries(call, buf, nbytes, basep);
}

SyscallStatus DescriptorSet::sys_close(AgentCall& call, int fd) {
  const OpenObjectRef object = Find(call.ctx().process().pid, fd);
  const SyscallStatus status = object != nullptr ? object->close(call) : call.CallDown();
  DropDescriptor(call.ctx(), fd);
  return status;
}

// ---------------------------------------------------------------------------
// Name-space maintenance.
// ---------------------------------------------------------------------------

SyscallStatus DescriptorSet::RegisterOpened(AgentCall& call, int fd, std::string_view path) {
  InstallDescriptor(call.ctx(), fd, MakeDefaultObject(call, fd, path));
  return fd;
}

SyscallStatus DescriptorSet::sys_open(AgentCall& call, const char* path, int /*flags*/,
                                      Mode /*mode*/) {
  const SyscallStatus status = call.CallDown();
  if (status >= 0) {
    RegisterOpened(call, static_cast<int>(call.rv()->rv[0]), path != nullptr ? path : "");
  }
  return status;
}

SyscallStatus DescriptorSet::sys_creat(AgentCall& call, const char* path, Mode /*mode*/) {
  const SyscallStatus status = call.CallDown();
  if (status >= 0) {
    RegisterOpened(call, static_cast<int>(call.rv()->rv[0]), path != nullptr ? path : "");
  }
  return status;
}

SyscallStatus DescriptorSet::sys_dup(AgentCall& call, int fd) {
  OpenObjectRef object = Find(call.ctx().process().pid, fd);
  const SyscallStatus status = call.CallDown();
  if (status >= 0 && object != nullptr) {
    // The duplicate shares the object (reference counting via shared_ptr).
    InstallDescriptor(call.ctx(), static_cast<int>(call.rv()->rv[0]), std::move(object));
  }
  return status;
}

SyscallStatus DescriptorSet::sys_dup2(AgentCall& call, int from, int to) {
  OpenObjectRef object = Find(call.ctx().process().pid, from);
  const SyscallStatus status = call.CallDown();
  if (status >= 0) {
    if (object != nullptr) {
      InstallDescriptor(call.ctx(), to, std::move(object));
    } else {
      DropDescriptor(call.ctx(), to);
    }
  }
  return status;
}

SyscallStatus DescriptorSet::sys_fcntl(AgentCall& call, int fd, int cmd, int64_t /*arg*/) {
  OpenObjectRef object = Find(call.ctx().process().pid, fd);
  const SyscallStatus status = call.CallDown();
  if (status >= 0 && cmd == kFDupfd && object != nullptr) {
    InstallDescriptor(call.ctx(), static_cast<int>(call.rv()->rv[0]), std::move(object));
  }
  return status;
}

SyscallStatus DescriptorSet::sys_pipe(AgentCall& call) {
  const SyscallStatus status = call.CallDown();
  if (status >= 0) {
    const int read_fd = static_cast<int>(call.rv()->rv[0]);
    const int write_fd = static_cast<int>(call.rv()->rv[1]);
    InstallDescriptor(call.ctx(), read_fd, std::make_shared<OpenObject>(read_fd));
    InstallDescriptor(call.ctx(), write_fd, std::make_shared<OpenObject>(write_fd));
  }
  return status;
}

void DescriptorSet::DropAllForExec(AgentCall& call) {
  // execve(2) preserves descriptors that are not close-on-exec — and with them
  // their open objects (a custom object on fd 1 keeps interposing in the new
  // image). Drop exactly the descriptors the lower level is about to drop.
  const Pid pid = call.ctx().process().pid;
  std::vector<int> tracked;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tables_.find(pid);
    if (it == tables_.end()) {
      return;
    }
    for (size_t fd = 0; fd < it->second.size(); ++fd) {
      if (it->second[fd] != nullptr) {
        tracked.push_back(static_cast<int>(fd));
      }
    }
  }
  DownApi api(call);
  std::vector<int> doomed;
  for (const int fd : tracked) {
    const int cloexec = api.Fcntl(fd, kFGetfd, 0);
    if (cloexec != 0) {  // close-on-exec set, or the descriptor is already gone
      doomed.push_back(fd);
    }
  }
  for (const int fd : doomed) {
    DropDescriptor(call.ctx(), fd);
  }
}

SyscallStatus DescriptorSet::sys_execve(AgentCall& call, const char* /*path*/) {
  const SyscallStatus status = call.CallDown();
  if (status >= 0) {
    DropAllForExec(call);
  }
  return status;
}

SyscallStatus DescriptorSet::sys_exit(AgentCall& call, int /*status*/) {
  // _exit(2) closes every descriptor and does not return, so the table goes
  // first. Its objects are released after the lock: their destructors are
  // agent code.
  Table dropped;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tables_.find(call.ctx().process().pid);
    if (it != tables_.end()) {
      dropped = std::move(it->second);
      tables_.erase(it);
    }
  }
  dropped.clear();
  return call.CallDown();
}

}  // namespace ia
