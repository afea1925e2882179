// The sandbox agent: a protected environment for running untrusted binaries
// (paper §1.4): "a wrapper environment ... that monitors and emulates the actions
// they take, possibly without actually performing them, and limits the resources
// they can use in such a way that the untrusted binaries are unaware of the
// restrictions."
#ifndef SRC_AGENTS_SANDBOX_H_
#define SRC_AGENTS_SANDBOX_H_

#include <atomic>
#include <vector>

#include "src/toolkit/toolkit.h"

namespace ia {

struct SandboxPolicy {
  // Pathname prefixes the client may read from / write to. Empty write list
  // means read-only. A path matches a prefix if equal or below it.
  std::vector<std::string> read_prefixes{"/"};
  std::vector<std::string> write_prefixes;

  // When true, denied writes are *emulated*: creations are transparently routed
  // to /dev/null so the client observes success without any persistent effect.
  bool emulate_denied_writes = false;

  bool allow_fork = true;
  bool allow_exec = true;
  bool allow_kill_others = false;  // kill(2) aimed outside the client itself
  bool allow_chroot = false;
  bool allow_set_identity = false;  // setuid/setgroups/setlogin

  // Resource restriction: after this many system calls the client is terminated
  // (negative = unlimited).
  int64_t max_syscalls = -1;
  // Cap on bytes written through write(2) (negative = unlimited).
  int64_t max_write_bytes = -1;
};

class SandboxAgent final : public PathnameSet {
 public:
  explicit SandboxAgent(SandboxPolicy policy)
      : policy_(std::move(policy)), budget_limit_(policy_.max_syscalls) {}

  std::string name() const override { return "sandbox"; }

  const SandboxPolicy& policy() const { return policy_; }
  int64_t violations() const { return violations_.load(); }
  int64_t calls_seen() const { return calls_seen_.load(); }

  bool PathReadable(std::string_view path) const;
  bool PathWritable(std::string_view path) const;

  // Post-setup narrowing: permanently lifts the syscall budget and re-narrows
  // this agent's live frame in `ctx` from the whole interface down to the
  // policy rows. A budgeted sandbox must see every call, which keeps even
  // getpid-style traffic climbing the agent stack; an embedder that trusts
  // the client after its setup phase calls this to shed that cost while every
  // pathname/policy guard stays armed. Returns false if not installed in ctx.
  bool DropSyscallBudget(ProcessContext& ctx);

 protected:
  // Whole-interface pre-hook: syscall budget enforcement.
  SyscallStatus syscall(AgentCall& call) override;

  // Pathname footprint plus the specific rows the policy guards. A syscall
  // budget is the one policy that genuinely needs the whole interface (every
  // call must tick the counter), so an armed budget keeps the full footprint;
  // all other policies are enforceable from the narrowed slice and let
  // getpid-style traffic go straight to its lock-free kernel handlers.
  Footprint default_footprint() const override {
    if (budget_limit_.load(std::memory_order_relaxed) >= 0) {
      return Footprint::All();
    }
    return PolicyFootprint();
  }

  PathnameRef getpn(AgentCall& call, const char* path) override;

  SyscallStatus sys_fork(AgentCall& call) override;
  SyscallStatus sys_kill(AgentCall& call, Pid pid, int signo) override;
  SyscallStatus sys_killpg(AgentCall& call, Pid pgrp, int signo) override;
  SyscallStatus sys_setuid(AgentCall& call, Uid uid) override;
  SyscallStatus sys_setgroups(AgentCall& call, int ngroups, const Gid* gidset) override;
  SyscallStatus sys_setlogin(AgentCall& call, const char* name) override;
  SyscallStatus sys_settimeofday(AgentCall& call, const TimeVal* tp,
                                 const TimeZone* tzp) override;
  SyscallStatus sys_sethostname(AgentCall& call, const char* name, int64_t len) override;
  SyscallStatus sys_write(AgentCall& call, int fd, const void* buf, int64_t cnt) override;

 private:
  friend class SandboxPathname;

  SyscallStatus Deny(AgentCall& call);

  // The budget-free interface slice: pathname rows plus the policy guards.
  Footprint PolicyFootprint() const {
    return PathnameSet::default_footprint().Merge(Footprint::Numbers(
        {kSysKill, kSysKillpg, kSysSetuid, kSysSetgroups, kSysSetlogin,
         kSysSettimeofday, kSysSethostname, kSysWrite}));
  }

  SandboxPolicy policy_;
  // Live budget limit: initialized from policy_.max_syscalls, cleared (-1) by
  // DropSyscallBudget(). Atomic because one instance serves many processes.
  std::atomic<int64_t> budget_limit_;
  std::atomic<int64_t> violations_{0};
  std::atomic<int64_t> calls_seen_{0};
  std::atomic<int64_t> bytes_written_{0};
};

// Applies the pathname policy at the getpn() chokepoint.
class SandboxPathname final : public Pathname {
 public:
  SandboxPathname(SandboxAgent* owner, std::string path)
      : Pathname(owner, std::move(path)), sandbox_(owner) {}

  SyscallStatus open(AgentCall& call, int flags, Mode mode) override;
  SyscallStatus stat(AgentCall& call, Stat* st) override;
  SyscallStatus lstat(AgentCall& call, Stat* st) override;
  SyscallStatus access(AgentCall& call, int amode) override;
  SyscallStatus readlink(AgentCall& call, char* buf, int64_t bufsize) override;
  SyscallStatus chdir(AgentCall& call) override;
  SyscallStatus execve(AgentCall& call) override;

  SyscallStatus unlink(AgentCall& call) override;
  SyscallStatus link_to(AgentCall& call, Pathname& new_path) override;
  SyscallStatus symlink_at(AgentCall& call, const char* target) override;
  SyscallStatus rename_to(AgentCall& call, Pathname& to) override;
  SyscallStatus mkdir(AgentCall& call, Mode mode) override;
  SyscallStatus rmdir(AgentCall& call) override;
  SyscallStatus truncate(AgentCall& call, Off length) override;
  SyscallStatus chmod(AgentCall& call, Mode mode) override;
  SyscallStatus chown(AgentCall& call, Uid uid, Gid gid) override;
  SyscallStatus utimes(AgentCall& call, const TimeVal* times) override;
  SyscallStatus chroot(AgentCall& call) override;
  SyscallStatus mknod(AgentCall& call, Mode mode, Dev dev) override;

 private:
  SyscallStatus GuardRead(AgentCall& call);
  SyscallStatus GuardWrite(AgentCall& call);

  SandboxAgent* sandbox_;
};

}  // namespace ia

#endif  // SRC_AGENTS_SANDBOX_H_
