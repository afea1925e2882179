// The txn agent: transactional software environments (paper §1.4).
//
// "Applications can be constructed that provide an environment in which changes
// to persistent state made by unmodified programs can be emulated and performed
// transactionally. ... all persistent execution side effects (e.g., filesystem
// writes) are remembered and appear within the transactional environment to have
// been performed normally, but where in actuality the user is presented with a
// commit or abort choice at the end of such a session. Indeed, one such
// transactional program invocation could occur within another, transparently
// providing nested transactions."
//
// Mechanism: a copy-on-write overlay. Mutating pathname operations are redirected
// into an overlay tree; deletions are remembered as whiteouts; reads prefer the
// overlay; directory listings merge overlay and base minus whiteouts. Commit
// replays the overlay onto the base *through the next-lower interface*, so
// stacking two txn agents nests transactions naturally.
#ifndef SRC_AGENTS_TXN_H_
#define SRC_AGENTS_TXN_H_

#include <map>
#include <mutex>
#include <set>

#include "src/base/strings.h"
#include "src/toolkit/toolkit.h"

namespace ia {

class TxnAgent final : public PathnameSet {
 public:
  // Paths under `scope_prefix` are transactional; the overlay lives at
  // `overlay_root` (always excluded from the scope).
  TxnAgent(std::string scope_prefix, std::string overlay_root)
      : scope_(path::LexicallyClean(scope_prefix)),
        overlay_root_(path::LexicallyClean(overlay_root)) {}

  std::string name() const override { return "txn"; }

  // Applies all remembered changes to the base through the next-lower interface,
  // then clears the transaction. Call from a process this agent is installed in.
  int Commit(ProcessContext& ctx);

  // Discards all remembered changes.
  int Abort(ProcessContext& ctx);

  // True if `path` was deleted within the transaction.
  bool IsWhiteout(const std::string& path);

  // Number of paths with overlay copies / whiteouts (tests, reporting).
  int OverlayCount();
  int WhiteoutCount();

  // Where `path` materializes inside the overlay.
  std::string OverlayPath(const std::string& path) const;

  // True if `path` is inside this agent's transactional scope.
  bool InScope(const std::string& path) const;

  void OnInstalled(ProcessContext& ctx, int frame) override;

 protected:
  PathnameRef getpn(AgentCall& call, const char* path) override;

  // Pathname footprint plus the direntry rows: TxnDirectory merges overlay and
  // base listings behind getdirentries/lseek, so those must reach the frame.
  Footprint default_footprint() const override {
    return PathnameSet::default_footprint().Merge(Footprint::Direntry());
  }

 private:
  friend class TxnPathname;
  friend class TxnDirectory;

  enum class Presence { kWhiteout, kOverlay, kBase, kMissing };
  Presence Resolve(DownApi api, const std::string& path, std::string* effective);

  // Copies base contents (if any) to the overlay so the caller may mutate it.
  int EnsureCopyUp(DownApi api, const std::string& path);
  int EnsureOverlayParents(DownApi api, const std::string& overlay_path);

  void AddWhiteout(const std::string& path);
  void ClearWhiteout(const std::string& path);
  void NoteOverlay(const std::string& path);

  // The frame this agent occupies in `ctx`'s process (for commit-time I/O).
  DownApi LowerApi(ProcessContext& ctx);

  int CommitTree(DownApi api, const std::string& overlay_dir, const std::string& base_dir);
  int RemoveTree(DownApi api, const std::string& dir);

  std::string scope_;
  std::string overlay_root_;

  std::mutex mu_;
  std::set<std::string> whiteouts_;
  std::set<std::string> overlaid_;
  std::map<Pid, int> frames_;
};

class TxnPathname final : public Pathname {
 public:
  TxnPathname(TxnAgent* owner, std::string path)
      : Pathname(owner, std::move(path)), txn_(owner) {}

  SyscallStatus open(AgentCall& call, int flags, Mode mode) override;
  SyscallStatus stat(AgentCall& call, Stat* st) override;
  SyscallStatus lstat(AgentCall& call, Stat* st) override;
  SyscallStatus access(AgentCall& call, int amode) override;
  SyscallStatus readlink(AgentCall& call, char* buf, int64_t bufsize) override;
  SyscallStatus chdir(AgentCall& call) override;
  SyscallStatus execve(AgentCall& call) override;

  SyscallStatus unlink(AgentCall& call) override;
  SyscallStatus mkdir(AgentCall& call, Mode mode) override;
  SyscallStatus rmdir(AgentCall& call) override;
  SyscallStatus truncate(AgentCall& call, Off length) override;
  SyscallStatus chmod(AgentCall& call, Mode mode) override;
  SyscallStatus utimes(AgentCall& call, const TimeVal* times) override;
  SyscallStatus rename_to(AgentCall& call, Pathname& to) override;
  SyscallStatus symlink_at(AgentCall& call, const char* target) override;

 private:
  // Redirects the call to the effective (overlay-or-base) location.
  SyscallStatus DownEffective(AgentCall& call);

  TxnAgent* txn_;
};

// Merged view of overlay and base directories, minus whiteouts.
class TxnDirectory final : public Directory {
 public:
  TxnDirectory(TxnAgent* txn, int real_fd, std::string logical_path,
               std::string overlay_dir, std::string base_dir, bool overlay_exists,
               bool base_exists)
      : Directory(real_fd),
        txn_(txn),
        logical_path_(std::move(logical_path)),
        overlay_dir_(std::move(overlay_dir)),
        base_dir_(std::move(base_dir)),
        overlay_exists_(overlay_exists),
        base_exists_(base_exists) {}

  int next_direntry(AgentCall& call, Dirent* out) override;
  int rewind(AgentCall& call) override;

 private:
  int FillMerged(AgentCall& call);

  TxnAgent* txn_;
  std::string logical_path_;
  std::string overlay_dir_;
  std::string base_dir_;
  bool overlay_exists_;
  bool base_exists_;
  std::vector<Dirent> merged_;
  size_t next_index_ = 0;
  bool filled_ = false;
};

}  // namespace ia

#endif  // SRC_AGENTS_TXN_H_
