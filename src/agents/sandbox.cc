#include "src/agents/sandbox.h"

#include "src/base/strings.h"

namespace ia {
namespace {

bool PrefixCovers(const std::string& prefix, const std::string& path) {
  if (prefix == "/") {
    return true;
  }
  return path == prefix ||
         (StartsWith(path, prefix) && path.size() > prefix.size() &&
          path[prefix.size()] == '/');
}

bool AnyPrefixCovers(const std::vector<std::string>& prefixes, std::string_view path) {
  const std::string clean = path::LexicallyClean(path);
  for (const std::string& prefix : prefixes) {
    if (PrefixCovers(prefix, clean)) {
      return true;
    }
  }
  return false;
}

}  // namespace

bool SandboxAgent::PathReadable(std::string_view path) const {
  return AnyPrefixCovers(policy_.read_prefixes, path) ||
         AnyPrefixCovers(policy_.write_prefixes, path);
}

bool SandboxAgent::PathWritable(std::string_view path) const {
  return AnyPrefixCovers(policy_.write_prefixes, path);
}

SyscallStatus SandboxAgent::Deny(AgentCall& /*call*/) {
  violations_.fetch_add(1, std::memory_order_relaxed);
  return -kEPerm;
}

bool SandboxAgent::DropSyscallBudget(ProcessContext& ctx) {
  budget_limit_.store(-1, std::memory_order_relaxed);
  // Re-narrow the live frame (and, via the recorded footprint, every future
  // fork-child install) to the policy rows alone.
  return use_footprint(ctx, PolicyFootprint());
}

SyscallStatus SandboxAgent::syscall(AgentCall& call) {
  const int64_t seen = calls_seen_.fetch_add(1, std::memory_order_relaxed) + 1;
  const int64_t budget = budget_limit_.load(std::memory_order_relaxed);
  if (budget >= 0 && seen > budget && call.number() != kSysExit) {
    // Resource restriction exceeded: terminate the client. The kill goes down
    // directly so it cannot itself be budgeted away.
    violations_.fetch_add(1, std::memory_order_relaxed);
    DownApi api(call);
    api.Kill(call.ctx().process().pid, kSigKill);
    return -kEPerm;
  }
  return PathnameSet::syscall(call);
}

PathnameRef SandboxAgent::getpn(AgentCall& call, const char* path) {
  return std::make_unique<SandboxPathname>(this, AbsoluteClientPath(call, path));
}

SyscallStatus SandboxAgent::sys_fork(AgentCall& call) {
  if (!policy_.allow_fork) {
    return Deny(call);
  }
  return PathnameSet::sys_fork(call);
}

SyscallStatus SandboxAgent::sys_kill(AgentCall& call, Pid pid, int signo) {
  if (!policy_.allow_kill_others && pid != call.ctx().process().pid) {
    return Deny(call);
  }
  return PathnameSet::sys_kill(call, pid, signo);
}

SyscallStatus SandboxAgent::sys_killpg(AgentCall& call, Pid pgrp, int signo) {
  if (!policy_.allow_kill_others) {
    return Deny(call);
  }
  return PathnameSet::sys_killpg(call, pgrp, signo);
}

SyscallStatus SandboxAgent::sys_setuid(AgentCall& call, Uid uid) {
  if (!policy_.allow_set_identity) {
    return Deny(call);
  }
  return PathnameSet::sys_setuid(call, uid);
}

SyscallStatus SandboxAgent::sys_setgroups(AgentCall& call, int ngroups, const Gid* gidset) {
  if (!policy_.allow_set_identity) {
    return Deny(call);
  }
  return PathnameSet::sys_setgroups(call, ngroups, gidset);
}

SyscallStatus SandboxAgent::sys_setlogin(AgentCall& call, const char* name) {
  if (!policy_.allow_set_identity) {
    return Deny(call);
  }
  return PathnameSet::sys_setlogin(call, name);
}

SyscallStatus SandboxAgent::sys_settimeofday(AgentCall& call, const TimeVal* /*tp*/,
                                             const TimeZone* /*tzp*/) {
  return Deny(call);  // global machine state is never the client's to change
}

SyscallStatus SandboxAgent::sys_sethostname(AgentCall& call, const char* /*name*/,
                                            int64_t /*len*/) {
  return Deny(call);
}

SyscallStatus SandboxAgent::sys_write(AgentCall& call, int fd, const void* buf, int64_t cnt) {
  if (policy_.max_write_bytes >= 0) {
    const int64_t total = bytes_written_.fetch_add(cnt, std::memory_order_relaxed) + cnt;
    if (total > policy_.max_write_bytes) {
      violations_.fetch_add(1, std::memory_order_relaxed);
      return -kENospc;  // the restriction masquerades as a full disk
    }
  }
  return PathnameSet::sys_write(call, fd, buf, cnt);
}

// ---------------------------------------------------------------------------
// SandboxPathname.
// ---------------------------------------------------------------------------

SyscallStatus SandboxPathname::GuardRead(AgentCall& call) {
  if (!sandbox_->PathReadable(path_)) {
    return sandbox_->Deny(call);
  }
  return DownWithPath(call);
}

SyscallStatus SandboxPathname::GuardWrite(AgentCall& call) {
  if (!sandbox_->PathWritable(path_)) {
    return sandbox_->Deny(call);
  }
  return DownWithPath(call);
}

SyscallStatus SandboxPathname::open(AgentCall& call, int flags, Mode mode) {
  const int accmode = flags & kOAccmode;
  const bool wants_write = accmode != kORdonly || (flags & (kOCreat | kOTrunc)) != 0;
  if (!wants_write && !sandbox_->PathReadable(path_)) {
    return sandbox_->Deny(call);
  }
  if (wants_write && !sandbox_->PathWritable(path_)) {
    if (!sandbox_->policy().emulate_denied_writes) {
      return sandbox_->Deny(call);
    }
    // Emulate: the client gets a descriptor whose writes disappear. It observes
    // success; nothing persistent happens (paper: "possibly without actually
    // performing them").
    sandbox_->violations_.fetch_add(1, std::memory_order_relaxed);
    DownApi api(call);
    const int fd = api.Open("/dev/null", kOWronly);
    if (fd < 0) {
      return fd;
    }
    sandbox_->InstallDescriptor(call.ctx(), fd, std::make_shared<OpenObject>(fd));
    if (call.rv() != nullptr) {
      call.rv()->rv[0] = fd;
    }
    return fd;
  }
  return Pathname::open(call, flags, mode);
}

SyscallStatus SandboxPathname::stat(AgentCall& call, Stat* /*st*/) { return GuardRead(call); }
SyscallStatus SandboxPathname::lstat(AgentCall& call, Stat* /*st*/) { return GuardRead(call); }
SyscallStatus SandboxPathname::access(AgentCall& call, int /*amode*/) {
  return GuardRead(call);
}
SyscallStatus SandboxPathname::readlink(AgentCall& call, char* /*buf*/, int64_t /*bufsize*/) {
  return GuardRead(call);
}
SyscallStatus SandboxPathname::chdir(AgentCall& call) { return GuardRead(call); }

SyscallStatus SandboxPathname::execve(AgentCall& call) {
  if (!sandbox_->policy().allow_exec) {
    return sandbox_->Deny(call);
  }
  if (!sandbox_->PathReadable(path_)) {
    return sandbox_->Deny(call);
  }
  return Pathname::execve(call);
}

SyscallStatus SandboxPathname::unlink(AgentCall& call) { return GuardWrite(call); }

SyscallStatus SandboxPathname::link_to(AgentCall& call, Pathname& new_path) {
  if (!sandbox_->PathReadable(path_) || !sandbox_->PathWritable(new_path.path())) {
    return sandbox_->Deny(call);
  }
  return Pathname::link_to(call, new_path);
}

SyscallStatus SandboxPathname::symlink_at(AgentCall& call, const char* target) {
  if (!sandbox_->PathWritable(path_)) {
    return sandbox_->Deny(call);
  }
  return Pathname::symlink_at(call, target);
}

SyscallStatus SandboxPathname::rename_to(AgentCall& call, Pathname& to) {
  if (!sandbox_->PathWritable(path_) || !sandbox_->PathWritable(to.path())) {
    return sandbox_->Deny(call);
  }
  return Pathname::rename_to(call, to);
}

SyscallStatus SandboxPathname::mkdir(AgentCall& call, Mode /*mode*/) {
  return GuardWrite(call);
}
SyscallStatus SandboxPathname::rmdir(AgentCall& call) { return GuardWrite(call); }
SyscallStatus SandboxPathname::truncate(AgentCall& call, Off /*length*/) {
  return GuardWrite(call);
}
SyscallStatus SandboxPathname::chmod(AgentCall& call, Mode /*mode*/) {
  return GuardWrite(call);
}
SyscallStatus SandboxPathname::chown(AgentCall& call, Uid /*uid*/, Gid /*gid*/) {
  return GuardWrite(call);
}
SyscallStatus SandboxPathname::utimes(AgentCall& call, const TimeVal* /*times*/) {
  return GuardWrite(call);
}

SyscallStatus SandboxPathname::chroot(AgentCall& call) {
  if (!sandbox_->policy().allow_chroot) {
    return sandbox_->Deny(call);
  }
  return GuardRead(call);
}

SyscallStatus SandboxPathname::mknod(AgentCall& call, Mode /*mode*/, Dev /*dev*/) {
  return GuardWrite(call);
}

}  // namespace ia
