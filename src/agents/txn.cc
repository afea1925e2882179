#include "src/agents/txn.h"

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

}  // namespace

bool TxnAgent::InScope(const std::string& path) const {
  const std::string clean = path::LexicallyClean(path);
  if (PrefixCovers(overlay_root_, clean)) {
    return false;  // the overlay itself is never transactional
  }
  return PrefixCovers(scope_, clean);
}

std::string TxnAgent::OverlayPath(const std::string& path) const {
  return path::JoinPath(overlay_root_, path::LexicallyClean(path));
}

void TxnAgent::OnInstalled(ProcessContext& ctx, int frame) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    frames_[ctx.process().pid] = frame;
  }
  DownApi api(ctx, frame);
  // Build the overlay root below this agent (mkdir -p).
  std::string built = "/";
  for (const std::string& comp : path::Components(overlay_root_)) {
    built = path::JoinPath(built, comp);
    api.Mkdir(built, 0755);
  }
}

DownApi TxnAgent::LowerApi(ProcessContext& ctx) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = frames_.find(ctx.process().pid);
  return DownApi(ctx, it == frames_.end() ? -1 : it->second);
}

PathnameRef TxnAgent::getpn(AgentCall& call, const char* path) {
  const std::string absolute = AbsoluteClientPath(call, path);
  if (!InScope(absolute)) {
    return PathnameSet::getpn(call, path);
  }
  return std::make_unique<TxnPathname>(this, absolute);
}

bool TxnAgent::IsWhiteout(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  return whiteouts_.count(path::LexicallyClean(path)) != 0;
}

int TxnAgent::OverlayCount() {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(overlaid_.size());
}

int TxnAgent::WhiteoutCount() {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(whiteouts_.size());
}

void TxnAgent::AddWhiteout(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  whiteouts_.insert(path::LexicallyClean(path));
  overlaid_.erase(path::LexicallyClean(path));
}

void TxnAgent::ClearWhiteout(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  whiteouts_.erase(path::LexicallyClean(path));
}

void TxnAgent::NoteOverlay(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  overlaid_.insert(path::LexicallyClean(path));
}

TxnAgent::Presence TxnAgent::Resolve(DownApi api, const std::string& path,
                                     std::string* effective) {
  const std::string clean = path::LexicallyClean(path);
  if (IsWhiteout(clean)) {
    *effective = clean;
    return Presence::kWhiteout;
  }
  const std::string overlay = OverlayPath(clean);
  Stat st;
  if (api.Lstat(overlay, &st) == 0) {
    *effective = overlay;
    return Presence::kOverlay;
  }
  if (api.Lstat(clean, &st) == 0) {
    *effective = clean;
    return Presence::kBase;
  }
  *effective = clean;
  return Presence::kMissing;
}

int TxnAgent::EnsureOverlayParents(DownApi api, const std::string& overlay_path) {
  const std::string dir = path::Dirname(overlay_path);
  std::string built = "/";
  for (const std::string& comp : path::Components(dir)) {
    built = path::JoinPath(built, comp);
    const int err = api.Mkdir(built, 0755);
    if (err != 0 && err != -kEExist) {
      return err;
    }
  }
  return 0;
}

int TxnAgent::EnsureCopyUp(DownApi api, const std::string& path) {
  const std::string clean = path::LexicallyClean(path);
  const std::string overlay = OverlayPath(clean);
  Stat st;
  if (api.Lstat(overlay, &st) == 0) {
    return 0;  // already copied up
  }
  int err = EnsureOverlayParents(api, overlay);
  if (err != 0) {
    return err;
  }
  if (IsWhiteout(clean)) {
    return 0;  // deleted in this transaction; a creation starts fresh
  }
  if (api.Lstat(clean, &st) != 0) {
    return 0;  // base does not exist; nothing to copy
  }
  if (SIsDir(st.st_mode)) {
    err = api.Mkdir(overlay, st.st_mode & 07777);
    if (err == 0 || err == -kEExist) {
      NoteOverlay(clean);
      return 0;
    }
    return err;
  }
  std::string contents;
  err = api.ReadWholeFile(clean, &contents);
  if (err != 0) {
    return err;
  }
  err = api.WriteWholeFile(overlay, contents, st.st_mode & 07777);
  if (err != 0) {
    return err;
  }
  NoteOverlay(clean);
  return 0;
}

// ---------------------------------------------------------------------------
// Commit / abort.
// ---------------------------------------------------------------------------

int TxnAgent::CommitTree(DownApi api, const std::string& overlay_dir,
                         const std::string& base_dir) {
  std::vector<Dirent> entries;
  const int err = api.ListDirectory(overlay_dir, &entries);
  if (err != 0) {
    return err;
  }
  for (const Dirent& entry : entries) {
    if (entry.d_name == "." || entry.d_name == "..") {
      continue;
    }
    const std::string overlay_child = path::JoinPath(overlay_dir, entry.d_name);
    const std::string base_child = path::JoinPath(base_dir, entry.d_name);
    Stat st;
    if (api.Lstat(overlay_child, &st) != 0) {
      continue;
    }
    if (SIsDir(st.st_mode)) {
      const int mk = api.Mkdir(base_child, st.st_mode & 07777);
      if (mk != 0 && mk != -kEExist) {
        return mk;
      }
      const int sub = CommitTree(api, overlay_child, base_child);
      if (sub != 0) {
        return sub;
      }
    } else if (SIsLnk(st.st_mode)) {
      char target[kMaxPathLen + 1] = {};
      const int n = api.Readlink(overlay_child, target, kMaxPathLen);
      if (n >= 0) {
        api.Unlink(base_child);
        api.Symlink(std::string(target, static_cast<size_t>(n)), base_child);
      }
    } else {
      std::string contents;
      if (api.ReadWholeFile(overlay_child, &contents) == 0) {
        const int werr = api.WriteWholeFile(base_child, contents, st.st_mode & 07777);
        if (werr != 0) {
          return werr;
        }
      }
    }
  }
  return 0;
}

int TxnAgent::RemoveTree(DownApi api, const std::string& dir) {
  std::vector<Dirent> entries;
  if (api.ListDirectory(dir, &entries) != 0) {
    return 0;
  }
  for (const Dirent& entry : entries) {
    if (entry.d_name == "." || entry.d_name == "..") {
      continue;
    }
    const std::string child = path::JoinPath(dir, entry.d_name);
    Stat st;
    if (api.Lstat(child, &st) != 0) {
      continue;
    }
    if (SIsDir(st.st_mode)) {
      RemoveTree(api, child);
      api.Rmdir(child);
    } else {
      api.Unlink(child);
    }
  }
  return 0;
}

int TxnAgent::Commit(ProcessContext& ctx) {
  DownApi api = LowerApi(ctx);
  // Deletions first so a rename (whiteout + overlay copy) lands correctly.
  std::set<std::string> whiteouts_snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    whiteouts_snapshot = whiteouts_;
  }
  for (const std::string& path : whiteouts_snapshot) {
    Stat st;
    if (api.Lstat(path, &st) != 0) {
      continue;
    }
    if (SIsDir(st.st_mode)) {
      api.Rmdir(path);
    } else {
      api.Unlink(path);
    }
  }
  const int err = CommitTree(api, overlay_root_, "/");
  if (err != 0) {
    return err;
  }
  return Abort(ctx);  // clears overlay and bookkeeping
}

int TxnAgent::Abort(ProcessContext& ctx) {
  DownApi api = LowerApi(ctx);
  RemoveTree(api, overlay_root_);
  std::lock_guard<std::mutex> lock(mu_);
  whiteouts_.clear();
  overlaid_.clear();
  return 0;
}

// ---------------------------------------------------------------------------
// TxnPathname.
// ---------------------------------------------------------------------------

SyscallStatus TxnPathname::DownEffective(AgentCall& call) {
  DownApi api(call);
  std::string effective;
  const TxnAgent::Presence presence = txn_->Resolve(api, path_, &effective);
  if (presence == TxnAgent::Presence::kWhiteout) {
    return -kENoent;
  }
  SyscallArgs args = call.args();
  args.SetPtr(0, effective.c_str());
  return call.CallDown(args);
}

SyscallStatus TxnPathname::stat(AgentCall& call, Stat* /*st*/) { return DownEffective(call); }
SyscallStatus TxnPathname::lstat(AgentCall& call, Stat* /*st*/) { return DownEffective(call); }
SyscallStatus TxnPathname::access(AgentCall& call, int /*amode*/) {
  return DownEffective(call);
}
SyscallStatus TxnPathname::readlink(AgentCall& call, char* /*buf*/, int64_t /*bufsize*/) {
  return DownEffective(call);
}
SyscallStatus TxnPathname::chdir(AgentCall& call) { return DownEffective(call); }
SyscallStatus TxnPathname::execve(AgentCall& call) {
  DownApi api(call);
  std::string effective;
  if (txn_->Resolve(api, path_, &effective) == TxnAgent::Presence::kWhiteout) {
    return -kENoent;
  }
  SyscallArgs args = call.args();
  args.SetPtr(0, effective.c_str());
  return call.CallDown(args);
}

SyscallStatus TxnPathname::open(AgentCall& call, int flags, Mode mode) {
  DownApi api(call);
  std::string effective;
  const TxnAgent::Presence presence = txn_->Resolve(api, path_, &effective);
  const int accmode = flags & kOAccmode;
  const bool mutating = accmode != kORdonly || (flags & (kOCreat | kOTrunc)) != 0;

  if (!mutating) {
    if (presence == TxnAgent::Presence::kWhiteout ||
        presence == TxnAgent::Presence::kMissing) {
      if (presence == TxnAgent::Presence::kWhiteout) {
        return -kENoent;
      }
      // Missing everywhere: let the lower level produce the right errno.
      return Pathname::open(call, flags, mode);
    }
    Stat st;
    if (api.Stat(effective, &st) == 0 && SIsDir(st.st_mode)) {
      // Directory read: merged view.
      const std::string overlay_dir = txn_->OverlayPath(path_);
      Stat ost;
      const bool overlay_exists = api.Stat(overlay_dir, &ost) == 0 && SIsDir(ost.st_mode);
      Stat bst;
      const bool base_exists = api.Stat(path_, &bst) == 0 && SIsDir(bst.st_mode);
      const int fd = api.Open(effective, kORdonly);
      if (fd < 0) {
        return fd;
      }
      auto dir = std::make_shared<TxnDirectory>(txn_, fd, path_, overlay_dir, path_,
                                                overlay_exists, base_exists);
      txn_->InstallDescriptor(call.ctx(), fd, dir);
      if (call.rv() != nullptr) {
        call.rv()->rv[0] = fd;
      }
      return fd;
    }
    SyscallArgs args = call.args();
    args.SetPtr(0, effective.c_str());
    const SyscallStatus status = call.CallDown(args);
    if (status >= 0) {
      txn_->RegisterOpened(call, static_cast<int>(call.rv()->rv[0]), effective);
    }
    return status;
  }

  // Mutating open: route to the overlay.
  if ((flags & kOCreat) == 0 && presence == TxnAgent::Presence::kWhiteout) {
    return -kENoent;
  }
  if ((flags & kOCreat) == 0 && presence == TxnAgent::Presence::kMissing) {
    return -kENoent;
  }
  int err = txn_->EnsureCopyUp(api, path_);
  if (err != 0) {
    return err;
  }
  const std::string overlay = txn_->OverlayPath(path_);
  err = txn_->EnsureOverlayParents(api, overlay);
  if (err != 0) {
    return err;
  }
  SyscallArgs args = call.args();
  args.SetPtr(0, overlay.c_str());
  const SyscallStatus status = call.CallDown(args);
  if (status >= 0) {
    txn_->ClearWhiteout(path_);
    txn_->NoteOverlay(path_);
    txn_->RegisterOpened(call, static_cast<int>(call.rv()->rv[0]), overlay);
  }
  return status;
}

SyscallStatus TxnPathname::unlink(AgentCall& call) {
  DownApi api(call);
  std::string effective;
  const TxnAgent::Presence presence = txn_->Resolve(api, path_, &effective);
  switch (presence) {
    case TxnAgent::Presence::kWhiteout:
    case TxnAgent::Presence::kMissing:
      return -kENoent;
    case TxnAgent::Presence::kOverlay: {
      const int err = api.Unlink(effective);
      if (err != 0) {
        return err;
      }
      // The base copy (if any) must stay hidden.
      Stat st;
      if (api.Lstat(path_, &st) == 0) {
        txn_->AddWhiteout(path_);
      } else {
        std::lock_guard<std::mutex> lock(txn_->mu_);
        txn_->overlaid_.erase(path::LexicallyClean(path_));
      }
      return 0;
    }
    case TxnAgent::Presence::kBase:
      txn_->AddWhiteout(path_);
      return 0;
  }
  return -kEInval;
}

SyscallStatus TxnPathname::mkdir(AgentCall& call, Mode /*mode*/) {
  DownApi api(call);
  std::string effective;
  const TxnAgent::Presence presence = txn_->Resolve(api, path_, &effective);
  if (presence == TxnAgent::Presence::kOverlay || presence == TxnAgent::Presence::kBase) {
    return -kEExist;
  }
  const std::string overlay = txn_->OverlayPath(path_);
  int err = txn_->EnsureOverlayParents(api, overlay);
  if (err != 0) {
    return err;
  }
  SyscallArgs args = call.args();
  args.SetPtr(0, overlay.c_str());
  const SyscallStatus status = call.CallDown(args);
  if (status >= 0) {
    txn_->ClearWhiteout(path_);
    txn_->NoteOverlay(path_);
  }
  return status;
}

SyscallStatus TxnPathname::rmdir(AgentCall& call) {
  DownApi api(call);
  std::string effective;
  const TxnAgent::Presence presence = txn_->Resolve(api, path_, &effective);
  switch (presence) {
    case TxnAgent::Presence::kWhiteout:
    case TxnAgent::Presence::kMissing:
      return -kENoent;
    case TxnAgent::Presence::kOverlay: {
      const int err = api.Rmdir(effective);
      if (err != 0) {
        return err;
      }
      Stat st;
      if (api.Lstat(path_, &st) == 0) {
        txn_->AddWhiteout(path_);
      }
      return 0;
    }
    case TxnAgent::Presence::kBase: {
      // Only an empty base directory may be removed.
      std::vector<Dirent> entries;
      const int err = api.ListDirectory(path_, &entries);
      if (err != 0) {
        return err;
      }
      for (const Dirent& entry : entries) {
        if (entry.d_name != "." && entry.d_name != "..") {
          return -kENotempty;
        }
      }
      txn_->AddWhiteout(path_);
      return 0;
    }
  }
  return -kEInval;
}

SyscallStatus TxnPathname::truncate(AgentCall& call, Off /*length*/) {
  DownApi api(call);
  const int err = txn_->EnsureCopyUp(api, path_);
  if (err != 0) {
    return err;
  }
  const std::string overlay = txn_->OverlayPath(path_);
  txn_->NoteOverlay(path_);
  SyscallArgs args = call.args();
  args.SetPtr(0, overlay.c_str());
  return call.CallDown(args);
}

SyscallStatus TxnPathname::chmod(AgentCall& call, Mode /*mode*/) {
  DownApi api(call);
  const int err = txn_->EnsureCopyUp(api, path_);
  if (err != 0) {
    return err;
  }
  const std::string overlay = txn_->OverlayPath(path_);
  txn_->NoteOverlay(path_);
  SyscallArgs args = call.args();
  args.SetPtr(0, overlay.c_str());
  return call.CallDown(args);
}

SyscallStatus TxnPathname::utimes(AgentCall& call, const TimeVal* /*times*/) {
  DownApi api(call);
  const int err = txn_->EnsureCopyUp(api, path_);
  if (err != 0) {
    return err;
  }
  const std::string overlay = txn_->OverlayPath(path_);
  SyscallArgs args = call.args();
  args.SetPtr(0, overlay.c_str());
  return call.CallDown(args);
}

SyscallStatus TxnPathname::rename_to(AgentCall& call, Pathname& to) {
  DownApi api(call);
  std::string effective;
  const TxnAgent::Presence presence = txn_->Resolve(api, path_, &effective);
  if (presence == TxnAgent::Presence::kWhiteout ||
      presence == TxnAgent::Presence::kMissing) {
    return -kENoent;
  }
  Stat st;
  if (api.Lstat(effective, &st) == 0 && SIsDir(st.st_mode)) {
    return -kENosys;  // directory renames are not supported transactionally
  }
  std::string contents;
  int err = api.ReadWholeFile(effective, &contents);
  if (err != 0) {
    return err;
  }
  // Write the destination inside the transaction (overlay), then delete source.
  const std::string dest = path::LexicallyClean(to.path());
  if (!txn_->InScope(dest)) {
    return -kEXdev;  // a rename out of the transactional scope cannot be undone
  }
  const std::string overlay_dest = txn_->OverlayPath(dest);
  err = txn_->EnsureOverlayParents(api, overlay_dest);
  if (err != 0) {
    return err;
  }
  err = api.WriteWholeFile(overlay_dest, contents, st.st_mode & 07777);
  if (err != 0) {
    return err;
  }
  txn_->ClearWhiteout(dest);
  txn_->NoteOverlay(dest);
  // Remove the source within the transaction.
  if (presence == TxnAgent::Presence::kOverlay) {
    api.Unlink(effective);
  }
  Stat base_st;
  if (api.Lstat(path_, &base_st) == 0) {
    txn_->AddWhiteout(path_);
  }
  return 0;
}

SyscallStatus TxnPathname::symlink_at(AgentCall& call, const char* target) {
  DownApi api(call);
  const std::string overlay = txn_->OverlayPath(path_);
  int err = txn_->EnsureOverlayParents(api, overlay);
  if (err != 0) {
    return err;
  }
  SyscallArgs args = call.args();
  args.SetPtr(0, target);
  args.SetPtr(1, overlay.c_str());
  const SyscallStatus status = call.CallDown(args);
  if (status >= 0) {
    txn_->ClearWhiteout(path_);
    txn_->NoteOverlay(path_);
  }
  return status;
}

// ---------------------------------------------------------------------------
// TxnDirectory.
// ---------------------------------------------------------------------------

int TxnDirectory::FillMerged(AgentCall& call) {
  DownApi api(call);
  std::set<std::string> seen;
  merged_.clear();
  bool emitted_dots = false;
  const auto add_from = [&](const std::string& dir, const std::string& logical_prefix) -> int {
    std::vector<Dirent> entries;
    const int err = api.ListDirectory(dir, &entries);
    if (err != 0) {
      return err;
    }
    for (Dirent& entry : entries) {
      const bool is_dot = entry.d_name == "." || entry.d_name == "..";
      if (is_dot) {
        if (emitted_dots) {
          continue;
        }
      } else {
        const std::string logical = path::JoinPath(logical_prefix, entry.d_name);
        if (txn_->IsWhiteout(logical)) {
          continue;
        }
      }
      if (seen.insert(entry.d_name).second) {
        merged_.push_back(std::move(entry));
      }
    }
    emitted_dots = true;
    return 0;
  };
  if (overlay_exists_) {
    const int err = add_from(overlay_dir_, logical_path_);
    if (err != 0 && !base_exists_) {
      return err;
    }
  }
  if (base_exists_) {
    const int err = add_from(base_dir_, logical_path_);
    if (err != 0 && merged_.empty()) {
      return err;
    }
  }
  filled_ = true;
  return 0;
}

int TxnDirectory::next_direntry(AgentCall& call, Dirent* out) {
  if (!filled_) {
    const int err = FillMerged(call);
    if (err < 0) {
      return err;
    }
  }
  if (next_index_ >= merged_.size()) {
    return 0;
  }
  *out = merged_[next_index_++];
  return 1;
}

int TxnDirectory::rewind(AgentCall& call) {
  next_index_ = 0;
  filled_ = false;
  merged_.clear();
  return Directory::rewind(call);
}

}  // namespace ia
