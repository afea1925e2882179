#include "src/agents/union_fs.h"

#include <algorithm>
#include <set>

#include "src/base/strings.h"

namespace ia {

const UnionMount* UnionAgent::FindMount(const std::string& path) const {
  const std::string clean = path::LexicallyClean(path);
  const UnionMount* best = nullptr;
  size_t best_len = 0;
  for (const UnionMount& mount : mounts_) {
    const std::string& mp = mount.mount_point;
    const bool covers =
        clean == mp || (StartsWith(clean, mp) && clean.size() > mp.size() &&
                        clean[mp.size()] == '/');
    if (covers && mp.size() >= best_len) {
      best = &mount;
      best_len = mp.size();
    }
  }
  return best;
}

std::vector<std::string> UnionAgent::Candidates(const UnionMount& mount,
                                                const std::string& path) {
  const std::string clean = path::LexicallyClean(path);
  std::string relative;
  if (clean.size() > mount.mount_point.size()) {
    relative = clean.substr(mount.mount_point.size() + 1);
  }
  std::vector<std::string> candidates;
  candidates.reserve(mount.members.size());
  for (const std::string& member : mount.members) {
    candidates.push_back(relative.empty() ? member : path::JoinPath(member, relative));
  }
  return candidates;
}

PathnameRef UnionAgent::getpn(AgentCall& call, const char* path) {
  const std::string absolute = AbsoluteClientPath(call, path);
  const UnionMount* mount = FindMount(absolute);
  if (mount == nullptr) {
    return PathnameSet::getpn(call, path);
  }
  return std::make_unique<UnionPathname>(this, absolute, mount);
}

UnionPathname::UnionPathname(UnionAgent* owner, std::string path, const UnionMount* mount)
    : Pathname(owner, std::move(path)), mount_(mount) {
  candidates_ = UnionAgent::Candidates(*mount_, path_);
}

std::string UnionPathname::ResolveExisting(AgentCall& call, bool* found) const {
  DownApi api(call);
  for (const std::string& candidate : candidates_) {
    Stat st;
    if (api.Lstat(candidate, &st) == 0) {
      *found = true;
      return candidate;
    }
  }
  *found = false;
  return CreationTarget();
}

std::string UnionPathname::CreationTarget() const {
  return candidates_.empty() ? path_ : candidates_.front();
}

SyscallStatus UnionPathname::DownResolved(AgentCall& call) {
  bool found = false;
  const std::string resolved = ResolveExisting(call, &found);
  SyscallArgs args = call.args();
  args.SetPtr(0, resolved.c_str());
  return call.CallDown(args);
}

SyscallStatus UnionPathname::open(AgentCall& call, int flags, Mode mode) {
  DownApi api(call);
  bool found = false;
  const std::string resolved = ResolveExisting(call, &found);

  // A union directory opened for reading presents merged contents.
  if (found) {
    Stat st;
    if (api.Stat(resolved, &st) == 0 && SIsDir(st.st_mode) &&
        (flags & kOAccmode) == kORdonly) {
      std::vector<std::string> existing;
      for (const std::string& candidate : candidates_) {
        Stat member_st;
        if (api.Stat(candidate, &member_st) == 0 && SIsDir(member_st.st_mode)) {
          existing.push_back(candidate);
        }
      }
      const int fd = api.Open(resolved, kORdonly);
      if (fd < 0) {
        return fd;
      }
      auto dir = std::make_shared<UnionDirectory>(fd, std::move(existing));
      static_cast<UnionAgent*>(owner_)->InstallDescriptor(call.ctx(), fd, dir);
      if (call.rv() != nullptr) {
        call.rv()->rv[0] = fd;
      }
      return fd;
    }
  }

  const std::string target =
      !found && (flags & kOCreat) != 0 ? CreationTarget() : resolved;
  SyscallArgs args = call.args();
  args.SetPtr(0, target.c_str());
  args.SetInt(1, flags);
  args.SetInt(2, mode);
  const SyscallStatus status = call.CallDown(args);
  if (status >= 0) {
    static_cast<UnionAgent*>(owner_)->RegisterOpened(
        call, static_cast<int>(call.rv()->rv[0]), target);
  }
  return status;
}

SyscallStatus UnionPathname::stat(AgentCall& call, Stat* /*st*/) { return DownResolved(call); }
SyscallStatus UnionPathname::lstat(AgentCall& call, Stat* /*st*/) { return DownResolved(call); }
SyscallStatus UnionPathname::access(AgentCall& call, int /*amode*/) {
  return DownResolved(call);
}
SyscallStatus UnionPathname::chmod(AgentCall& call, Mode /*mode*/) { return DownResolved(call); }
SyscallStatus UnionPathname::chown(AgentCall& call, Uid /*uid*/, Gid /*gid*/) {
  return DownResolved(call);
}
SyscallStatus UnionPathname::unlink(AgentCall& call) { return DownResolved(call); }
SyscallStatus UnionPathname::readlink(AgentCall& call, char* /*buf*/, int64_t /*bufsize*/) {
  return DownResolved(call);
}

SyscallStatus UnionPathname::mkdir(AgentCall& call, Mode /*mode*/) {
  const std::string target = CreationTarget();
  SyscallArgs args = call.args();
  args.SetPtr(0, target.c_str());
  return call.CallDown(args);
}

SyscallStatus UnionPathname::rmdir(AgentCall& call) { return DownResolved(call); }
SyscallStatus UnionPathname::truncate(AgentCall& call, Off /*length*/) {
  return DownResolved(call);
}
SyscallStatus UnionPathname::utimes(AgentCall& call, const TimeVal* /*times*/) {
  return DownResolved(call);
}
SyscallStatus UnionPathname::chdir(AgentCall& call) { return DownResolved(call); }
SyscallStatus UnionPathname::execve(AgentCall& call) {
  bool found = false;
  const std::string resolved = ResolveExisting(call, &found);
  SyscallArgs args = call.args();
  args.SetPtr(0, resolved.c_str());
  return call.CallDown(args);
}

// ---------------------------------------------------------------------------
// UnionDirectory: "the full contents of a set of directories is actually present
// in a single directory", via a new next_direntry() whose iteration is itself
// accomplished through the underlying implementations.
// ---------------------------------------------------------------------------

int UnionDirectory::FillMerged(AgentCall& call) {
  DownApi api(call);
  std::set<std::string> seen;
  merged_.clear();
  bool first_member = true;
  for (const std::string& member : member_dirs_) {
    std::vector<Dirent> entries;
    const int err = api.ListDirectory(member, &entries);
    if (err < 0) {
      if (first_member) {
        return err;
      }
      continue;  // a vanished later member only thins the view
    }
    for (Dirent& entry : entries) {
      if (!first_member && (entry.d_name == "." || entry.d_name == "..")) {
        continue;  // only the first member contributes the dot entries
      }
      if (seen.insert(entry.d_name).second) {
        merged_.push_back(std::move(entry));
      }
    }
    first_member = false;
  }
  filled_ = true;
  return 0;
}

int UnionDirectory::next_direntry(AgentCall& call, Dirent* out) {
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

int UnionDirectory::rewind(AgentCall& call) {
  next_index_ = 0;
  filled_ = false;
  merged_.clear();
  return Directory::rewind(call);
}

}  // namespace ia
