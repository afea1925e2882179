// The union agent (paper §3.3.3): union directories.
//
// "The union agent implements union directories, which provide the ability to
// view the contents of lists of actual directories as if their contents were
// merged into single union directories. It is built using toolkit objects for
// pathnames, directories, and descriptors, as well as the symbolic system call
// and lower levels of the toolkit."
//
// The agent-specific code is exactly the paper's three pieces: a derived
// Pathname mapping union names onto underlying objects, a derived Directory
// whose next_direntry() iterates the members' contents, and configuration.
#ifndef SRC_AGENTS_UNION_FS_H_
#define SRC_AGENTS_UNION_FS_H_

#include <vector>

#include "src/toolkit/toolkit.h"

namespace ia {

// One union directory: `mount_point` presents the merged contents of `members`.
// Earlier members shadow later ones; creation targets the first member.
struct UnionMount {
  std::string mount_point;
  std::vector<std::string> members;
};

class UnionAgent final : public PathnameSet {
 public:
  explicit UnionAgent(std::vector<UnionMount> mounts) : mounts_(std::move(mounts)) {}

  std::string name() const override { return "union"; }

  // Returns the mount covering `path` (longest prefix), or null.
  const UnionMount* FindMount(const std::string& path) const;

  // Candidate underlying paths for `path` under `mount`, in member order.
  static std::vector<std::string> Candidates(const UnionMount& mount, const std::string& path);

 protected:
  PathnameRef getpn(AgentCall& call, const char* path) override;

  // Pathname footprint plus the direntry rows: UnionDirectory's merged
  // iteration lives behind getdirentries/lseek, so those two fd rows must
  // still reach the frame. Plain file I/O on union-opened descriptors passes
  // through (the redirect happened at open time).
  Footprint default_footprint() const override {
    return PathnameSet::default_footprint().Merge(Footprint::Direntry());
  }

 private:
  std::vector<UnionMount> mounts_;
};

// Maps operations on union names onto the underlying member objects.
class UnionPathname final : public Pathname {
 public:
  UnionPathname(UnionAgent* owner, std::string path, const UnionMount* mount);

  SyscallStatus open(AgentCall& call, int flags, Mode mode) override;
  SyscallStatus stat(AgentCall& call, Stat* st) override;
  SyscallStatus lstat(AgentCall& call, Stat* st) override;
  SyscallStatus access(AgentCall& call, int amode) override;
  SyscallStatus chmod(AgentCall& call, Mode mode) override;
  SyscallStatus chown(AgentCall& call, Uid uid, Gid gid) override;
  SyscallStatus unlink(AgentCall& call) override;
  SyscallStatus readlink(AgentCall& call, char* buf, int64_t bufsize) override;
  SyscallStatus mkdir(AgentCall& call, Mode mode) override;
  SyscallStatus rmdir(AgentCall& call) override;
  SyscallStatus truncate(AgentCall& call, Off length) override;
  SyscallStatus utimes(AgentCall& call, const TimeVal* times) override;
  SyscallStatus chdir(AgentCall& call) override;
  SyscallStatus execve(AgentCall& call) override;

 private:
  // First candidate that exists below (lstat), else the creation target.
  std::string ResolveExisting(AgentCall& call, bool* found) const;
  std::string CreationTarget() const;
  // Redirects the call with the resolved path in slot 0.
  SyscallStatus DownResolved(AgentCall& call);

  const UnionMount* mount_;
  std::vector<std::string> candidates_;
};

// Presents the merged contents of the member directories.
class UnionDirectory final : public Directory {
 public:
  // `real_fd` is an open descriptor on the first existing member (reserves the
  // application-visible slot and serves fstat); `member_dirs` are the existing
  // member paths in precedence order.
  UnionDirectory(int real_fd, std::vector<std::string> member_dirs)
      : Directory(real_fd), member_dirs_(std::move(member_dirs)) {}

  int next_direntry(AgentCall& call, Dirent* out) override;
  int rewind(AgentCall& call) override;

 private:
  int FillMerged(AgentCall& call);

  std::vector<std::string> member_dirs_;
  std::vector<Dirent> merged_;
  size_t next_index_ = 0;
  bool filled_ = false;
};

}  // namespace ia

#endif  // SRC_AGENTS_UNION_FS_H_
