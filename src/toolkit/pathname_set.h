// Toolkit layer 2 — pathnames and the filesystem name space (paper §2.3).
//
// "The key to both of these interrelated classes is the getpn() operation, which
// looks up a pathname string and resolves it to a reference to a pathname object.
// The default implementation of all the pathname_set system call methods simply
// resolves their pathname strings to pathname objects using getpn() and then
// invokes the corresponding pathname method on the resulting object."
//
// Agents transform the name space by overriding getpn() (union directories,
// sandbox jails, transactional redirection); they change per-object behaviour by
// returning derived Pathname objects.
#ifndef SRC_TOOLKIT_PATHNAME_SET_H_
#define SRC_TOOLKIT_PATHNAME_SET_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "src/toolkit/descriptor_set.h"

namespace ia {

class PathnameSet;

// A resolved pathname. Operations default to continuing the intercepted call
// downward with this object's path substituted for the path argument — so a
// Pathname whose text differs from what the application passed transparently
// redirects the operation.
//
// A derived object owns its text (path_). The default object that
// PathnameSet::getpn() builds borrows the caller's argument instead, which
// outlives it: a PathnameRef lives only inside the call that resolved it.
class Pathname {
 public:
  Pathname(PathnameSet* owner, std::string path)
      : owner_(owner), path_(std::move(path)), text_(path_) {}
  virtual ~Pathname() = default;

  Pathname(const Pathname&) = delete;
  Pathname& operator=(const Pathname&) = delete;

  // The resolved name; c_str() is the same text, NUL-terminated.
  std::string_view path() const { return text_; }
  const char* c_str() const { return text_.data(); }
  PathnameSet* owner() const { return owner_; }

  // open(2) on this pathname. The default opens below and registers the default
  // open object; overrides may install custom objects (e.g. union directories).
  virtual SyscallStatus open(AgentCall& call, int flags, Mode mode);

  virtual SyscallStatus stat(AgentCall& call, Stat* st);
  virtual SyscallStatus lstat(AgentCall& call, Stat* st);
  virtual SyscallStatus access(AgentCall& call, int amode);
  virtual SyscallStatus chmod(AgentCall& call, Mode mode);
  virtual SyscallStatus chown(AgentCall& call, Uid uid, Gid gid);
  virtual SyscallStatus unlink(AgentCall& call);
  virtual SyscallStatus link_to(AgentCall& call, Pathname& new_path);
  virtual SyscallStatus symlink_at(AgentCall& call, const char* target);
  virtual SyscallStatus readlink(AgentCall& call, char* buf, int64_t bufsize);
  virtual SyscallStatus rename_to(AgentCall& call, Pathname& to);
  virtual SyscallStatus mkdir(AgentCall& call, Mode mode);
  virtual SyscallStatus rmdir(AgentCall& call);
  virtual SyscallStatus truncate(AgentCall& call, Off length);
  virtual SyscallStatus utimes(AgentCall& call, const TimeVal* times);
  virtual SyscallStatus chdir(AgentCall& call);
  virtual SyscallStatus chroot(AgentCall& call);
  virtual SyscallStatus execve(AgentCall& call);
  virtual SyscallStatus mknod(AgentCall& call, Mode mode, Dev dev);

 protected:
  // Continues the intercepted call with this object's path substituted at
  // argument `slot`.
  SyscallStatus DownWithPath(AgentCall& call, int slot = 0);

  PathnameSet* const owner_;
  // The text a derived object owns; empty in the default object.
  const std::string path_;

 private:
  // Only PathnameRef can name the tag, so only it builds a borrowing object.
  friend class PathnameRef;
  struct Borrowed {};

 public:
  Pathname(Borrowed, PathnameSet* owner, const char* path) : owner_(owner), text_(path) {}

 private:
  std::string_view text_;
};

// What getpn() returns: the default Pathname, built inside the handle over the
// caller's string, or a derived one on the heap. Overrides return
// std::make_unique<Derived>(...), which converts.
class PathnameRef {
 public:
  template <typename T, typename = std::enable_if_t<std::is_base_of_v<Pathname, T>>>
  PathnameRef(std::unique_ptr<T> object)
      : heap_(std::move(object)), object_(heap_.get()) {}

  PathnameRef(const PathnameRef&) = delete;
  PathnameRef& operator=(const PathnameRef&) = delete;

  Pathname* operator->() const { return object_; }
  Pathname& operator*() const { return *object_; }

 private:
  friend class PathnameSet;
  PathnameRef(PathnameSet* owner, const char* path)
      : inline_(std::in_place, Pathname::Borrowed{}, owner, path), object_(&*inline_) {}

  // At most one is set; object_ points at it (null for an empty unique_ptr).
  std::unique_ptr<Pathname> heap_;
  std::optional<Pathname> inline_;
  Pathname* object_;
};

class PathnameSet : public DescriptorSet {
 public:
  // Expands `path` against the client's working directory into a lexically clean
  // absolute pathname. Name-space-transforming agents (union, sandbox, txn, ...)
  // match on this, so relative names cannot slip past a prefix policy. This is
  // the agent-maintained cwd knowledge the paper's pathname_set kept by watching
  // chdir(); with the agent in the client's address space the query is direct.
  static std::string AbsoluteClientPath(AgentCall& call, const char* path);

 protected:
  // The name-space choke point: resolves a pathname string to a Pathname object.
  // `path` is never null. Agents override this to transform the name space.
  // The default object borrows `path` and allocates nothing.
  virtual PathnameRef getpn(AgentCall& /*call*/, const char* path) {
    return PathnameRef(this, path);
  }

  // The pathname layer's abstraction is the filesystem name space: every
  // path-taking row (so getpn() sees each name exactly once), narrowed from
  // DescriptorSet's fd class down to the fd-lifecycle rows the open-object
  // bookkeeping needs (close retires descriptors; dup/dup2/fcntl alias them;
  // pipe creates them; fork/exit bound table lifetimes). Data-plane fd rows
  // (read/write/lseek/...) pass through untouched by default — agents whose
  // open objects change data behaviour (Directory iteration, codec objects)
  // merge those rows back in their own default_footprint().
  Footprint default_footprint() const override {
    return Footprint::Classes(kTakesPath).Merge(
        Footprint::Numbers({kSysClose, kSysDup, kSysDup2, kSysFcntl, kSysPipe,
                            kSysFork, kSysVfork, kSysExit}));
  }

  // --- pathname system calls, routed through Pathname objects ------------------
  SyscallStatus sys_open(AgentCall& call, const char* path, int flags, Mode mode) override;
  SyscallStatus sys_creat(AgentCall& call, const char* path, Mode mode) override;
  SyscallStatus sys_stat(AgentCall& call, const char* path, Stat* st) override;
  SyscallStatus sys_lstat(AgentCall& call, const char* path, Stat* st) override;
  SyscallStatus sys_access(AgentCall& call, const char* path, int amode) override;
  SyscallStatus sys_chmod(AgentCall& call, const char* path, Mode mode) override;
  SyscallStatus sys_chown(AgentCall& call, const char* path, Uid uid, Gid gid) override;
  SyscallStatus sys_unlink(AgentCall& call, const char* path) override;
  SyscallStatus sys_link(AgentCall& call, const char* path, const char* new_path) override;
  SyscallStatus sys_symlink(AgentCall& call, const char* target,
                            const char* link_path) override;
  SyscallStatus sys_readlink(AgentCall& call, const char* path, char* buf,
                             int64_t bufsize) override;
  SyscallStatus sys_rename(AgentCall& call, const char* from, const char* to) override;
  SyscallStatus sys_mkdir(AgentCall& call, const char* path, Mode mode) override;
  SyscallStatus sys_rmdir(AgentCall& call, const char* path) override;
  SyscallStatus sys_truncate(AgentCall& call, const char* path, Off length) override;
  SyscallStatus sys_utimes(AgentCall& call, const char* path, const TimeVal* times) override;
  SyscallStatus sys_chdir(AgentCall& call, const char* path) override;
  SyscallStatus sys_chroot(AgentCall& call, const char* path) override;
  SyscallStatus sys_execve(AgentCall& call, const char* path) override;
  SyscallStatus sys_mknod(AgentCall& call, const char* path, Mode mode, Dev dev) override;

  friend class Pathname;
};

}  // namespace ia

#endif  // SRC_TOOLKIT_PATHNAME_SET_H_
