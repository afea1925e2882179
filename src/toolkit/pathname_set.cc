#include "src/toolkit/pathname_set.h"

#include "src/base/strings.h"
#include "src/kernel/kernel.h"

namespace ia {

std::string PathnameSet::AbsoluteClientPath(AgentCall& call, const char* raw_path) {
  const std::string text = raw_path != nullptr ? raw_path : "";
  if (path::IsAbsolute(text)) {
    return path::LexicallyClean(text);
  }
  Process& proc = call.ctx().process();
  const std::string cwd = call.ctx().kernel().fs().AbsolutePathOf(proc.cwd);
  return path::LexicallyClean(path::JoinPath(cwd.empty() ? "/" : cwd, text));
}

SyscallStatus Pathname::DownWithPath(AgentCall& call, int slot) {
  SyscallArgs args = call.args();
  args.SetPtr(slot, c_str());
  return call.CallDown(args);
}

SyscallStatus Pathname::open(AgentCall& call, int /*flags*/, Mode /*mode*/) {
  const SyscallStatus status = DownWithPath(call);
  if (status >= 0) {
    owner_->RegisterOpened(call, static_cast<int>(call.rv()->rv[0]), path());
  }
  return status;
}

SyscallStatus Pathname::stat(AgentCall& call, Stat* /*st*/) { return DownWithPath(call); }
SyscallStatus Pathname::lstat(AgentCall& call, Stat* /*st*/) { return DownWithPath(call); }
SyscallStatus Pathname::access(AgentCall& call, int /*amode*/) { return DownWithPath(call); }
SyscallStatus Pathname::chmod(AgentCall& call, Mode /*mode*/) { return DownWithPath(call); }
SyscallStatus Pathname::chown(AgentCall& call, Uid /*uid*/, Gid /*gid*/) {
  return DownWithPath(call);
}
SyscallStatus Pathname::unlink(AgentCall& call) { return DownWithPath(call); }

SyscallStatus Pathname::link_to(AgentCall& call, Pathname& new_path) {
  SyscallArgs args = call.args();
  args.SetPtr(0, c_str());
  args.SetPtr(1, new_path.c_str());
  return call.CallDown(args);
}

SyscallStatus Pathname::symlink_at(AgentCall& call, const char* target) {
  SyscallArgs args = call.args();
  args.SetPtr(0, target);
  args.SetPtr(1, c_str());
  return call.CallDown(args);
}

SyscallStatus Pathname::readlink(AgentCall& call, char* /*buf*/, int64_t /*bufsize*/) {
  return DownWithPath(call);
}

SyscallStatus Pathname::rename_to(AgentCall& call, Pathname& to) {
  SyscallArgs args = call.args();
  args.SetPtr(0, c_str());
  args.SetPtr(1, to.c_str());
  return call.CallDown(args);
}

SyscallStatus Pathname::mkdir(AgentCall& call, Mode /*mode*/) { return DownWithPath(call); }
SyscallStatus Pathname::rmdir(AgentCall& call) { return DownWithPath(call); }
SyscallStatus Pathname::truncate(AgentCall& call, Off /*length*/) { return DownWithPath(call); }
SyscallStatus Pathname::utimes(AgentCall& call, const TimeVal* /*times*/) {
  return DownWithPath(call);
}
SyscallStatus Pathname::chdir(AgentCall& call) { return DownWithPath(call); }
SyscallStatus Pathname::chroot(AgentCall& call) { return DownWithPath(call); }

SyscallStatus Pathname::execve(AgentCall& call) {
  // Route through DescriptorSet::sys_execve semantics: substitute the path, then
  // let the descriptor layer reset its table on success.
  SyscallArgs args = call.args();
  args.SetPtr(0, c_str());
  return call.CallDown(args);
}

SyscallStatus Pathname::mknod(AgentCall& call, Mode /*mode*/, Dev /*dev*/) {
  return DownWithPath(call);
}

// ---------------------------------------------------------------------------
// PathnameSet: every pathname call resolves with getpn() then dispatches.
// ---------------------------------------------------------------------------

SyscallStatus PathnameSet::sys_open(AgentCall& call, const char* path, int flags, Mode mode) {
  if (path == nullptr) {
    return call.CallDown();
  }
  return getpn(call, path)->open(call, flags, mode);
}

SyscallStatus PathnameSet::sys_creat(AgentCall& call, const char* path, Mode mode) {
  if (path == nullptr) {
    return call.CallDown();
  }
  return getpn(call, path)->open(call, kOWronly | kOCreat | kOTrunc, mode);
}

SyscallStatus PathnameSet::sys_stat(AgentCall& call, const char* path, Stat* st) {
  if (path == nullptr) {
    return call.CallDown();
  }
  return getpn(call, path)->stat(call, st);
}

SyscallStatus PathnameSet::sys_lstat(AgentCall& call, const char* path, Stat* st) {
  if (path == nullptr) {
    return call.CallDown();
  }
  return getpn(call, path)->lstat(call, st);
}

SyscallStatus PathnameSet::sys_access(AgentCall& call, const char* path, int amode) {
  if (path == nullptr) {
    return call.CallDown();
  }
  return getpn(call, path)->access(call, amode);
}

SyscallStatus PathnameSet::sys_chmod(AgentCall& call, const char* path, Mode mode) {
  if (path == nullptr) {
    return call.CallDown();
  }
  return getpn(call, path)->chmod(call, mode);
}

SyscallStatus PathnameSet::sys_chown(AgentCall& call, const char* path, Uid uid, Gid gid) {
  if (path == nullptr) {
    return call.CallDown();
  }
  return getpn(call, path)->chown(call, uid, gid);
}

SyscallStatus PathnameSet::sys_unlink(AgentCall& call, const char* path) {
  if (path == nullptr) {
    return call.CallDown();
  }
  return getpn(call, path)->unlink(call);
}

SyscallStatus PathnameSet::sys_link(AgentCall& call, const char* path, const char* new_path) {
  if (path == nullptr || new_path == nullptr) {
    return call.CallDown();
  }
  PathnameRef target = getpn(call, new_path);
  return getpn(call, path)->link_to(call, *target);
}

SyscallStatus PathnameSet::sys_symlink(AgentCall& call, const char* target,
                                       const char* link_path) {
  if (target == nullptr || link_path == nullptr) {
    return call.CallDown();
  }
  return getpn(call, link_path)->symlink_at(call, target);
}

SyscallStatus PathnameSet::sys_readlink(AgentCall& call, const char* path, char* buf,
                                        int64_t bufsize) {
  if (path == nullptr) {
    return call.CallDown();
  }
  return getpn(call, path)->readlink(call, buf, bufsize);
}

SyscallStatus PathnameSet::sys_rename(AgentCall& call, const char* from, const char* to) {
  if (from == nullptr || to == nullptr) {
    return call.CallDown();
  }
  PathnameRef to_pn = getpn(call, to);
  return getpn(call, from)->rename_to(call, *to_pn);
}

SyscallStatus PathnameSet::sys_mkdir(AgentCall& call, const char* path, Mode mode) {
  if (path == nullptr) {
    return call.CallDown();
  }
  return getpn(call, path)->mkdir(call, mode);
}

SyscallStatus PathnameSet::sys_rmdir(AgentCall& call, const char* path) {
  if (path == nullptr) {
    return call.CallDown();
  }
  return getpn(call, path)->rmdir(call);
}

SyscallStatus PathnameSet::sys_truncate(AgentCall& call, const char* path, Off length) {
  if (path == nullptr) {
    return call.CallDown();
  }
  return getpn(call, path)->truncate(call, length);
}

SyscallStatus PathnameSet::sys_utimes(AgentCall& call, const char* path, const TimeVal* times) {
  if (path == nullptr) {
    return call.CallDown();
  }
  return getpn(call, path)->utimes(call, times);
}

SyscallStatus PathnameSet::sys_chdir(AgentCall& call, const char* path) {
  if (path == nullptr) {
    return call.CallDown();
  }
  return getpn(call, path)->chdir(call);
}

SyscallStatus PathnameSet::sys_chroot(AgentCall& call, const char* path) {
  if (path == nullptr) {
    return call.CallDown();
  }
  return getpn(call, path)->chroot(call);
}

SyscallStatus PathnameSet::sys_execve(AgentCall& call, const char* path) {
  if (path == nullptr) {
    return DescriptorSet::sys_execve(call, path);
  }
  PathnameRef pn = getpn(call, path);
  const SyscallStatus status = pn->execve(call);
  if (status >= 0) {
    // Keep DescriptorSet's table reset behaviour on a successful image change.
    DropAllForExec(call);
  }
  return status;
}

SyscallStatus PathnameSet::sys_mknod(AgentCall& call, const char* path, Mode mode, Dev dev) {
  if (path == nullptr) {
    return call.CallDown();
  }
  return getpn(call, path)->mknod(call, mode, dev);
}

}  // namespace ia
