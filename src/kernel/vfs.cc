#include "src/kernel/vfs.h"

#include <algorithm>
#include <deque>
#include <mutex>
#include <shared_mutex>

#include "src/base/shardslot.h"
#include "src/base/strings.h"

namespace ia {

namespace {

// Splits `p` on '/' and appends its components to `out` in REVERSE order
// (so out->back() is the first component to walk), dropping empty and "."
// pieces. Components are views into `p`; the caller owns the backing storage.
void PushComponentsReversed(std::string_view p, std::vector<std::string_view>* out) {
  size_t end = p.size();
  while (end > 0) {
    const size_t slash = p.find_last_of('/', end - 1);
    const size_t start = slash == std::string_view::npos ? 0 : slash + 1;
    const std::string_view comp = p.substr(start, end - start);
    if (!comp.empty() && comp != ".") {
      out->push_back(comp);
    }
    if (slash == std::string_view::npos) {
      break;
    }
    end = slash;
  }
}

}  // namespace

int Device::Ioctl(uint64_t /*request*/, void* /*argp*/) { return -kENotty; }

Inode::Inode(Ino number, InodeType type, Mode bits, Uid owner, Gid group)
    : mode_bits(bits & 07777), uid(owner), gid(group), ino_(number), type_(type) {}

Mode Inode::FullMode() const {
  Mode type_bits = 0;
  switch (type_) {
    case InodeType::kRegular:
      type_bits = kSIfreg;
      break;
    case InodeType::kDirectory:
      type_bits = kSIfdir;
      break;
    case InodeType::kSymlink:
      type_bits = kSIflnk;
      break;
    case InodeType::kCharDevice:
      type_bits = kSIfchr;
      break;
    case InodeType::kFifo:
      type_bits = kSIfifo;
      break;
    case InodeType::kSocket:
      type_bits = kSIfsock;
      break;
  }
  return type_bits | mode_bits;
}

void Inode::FillStat(Stat* st) const {
  *st = Stat{};
  st->st_dev = 1;
  st->st_ino = ino_;
  st->st_mode = FullMode();
  st->st_nlink = nlink;
  st->st_uid = uid;
  st->st_gid = gid;
  st->st_rdev = device != nullptr ? device->rdev() : 0;
  switch (type_) {
    case InodeType::kRegular: {
      std::lock_guard<WordMutex> data_lock(data_mu);
      st->st_size = static_cast<Off>(data.size());
      break;
    }
    case InodeType::kSymlink:
      st->st_size = static_cast<Off>(symlink_target.size());
      break;
    case InodeType::kDirectory: {
      std::lock_guard<WordMutex> data_lock(data_mu);
      st->st_size = static_cast<Off>(entries.size() + 2) * 16;  // synthetic dir size
      break;
    }
    default:
      st->st_size = 0;
      break;
  }
  st->st_atime_sec = atime;
  st->st_mtime_sec = mtime;
  st->st_ctime_sec = ctime;
  st->st_blocks = (st->st_size + 511) / 512;
}

Filesystem::Filesystem() {
  root_ = std::make_shared<Inode>(2, InodeType::kDirectory, 0755, 0, 0);
  root_->nlink = 2;
  root_->parent = root_;
}

InodeRef Filesystem::AllocInode(InodeType type, Mode mode_bits, const Cred& cred) {
  const Ino ino = next_ino_.fetch_add(1, std::memory_order_relaxed) + 1;
  auto inode = std::make_shared<Inode>(ino, type, mode_bits, cred.euid, cred.egid);
  inode->atime = inode->mtime = inode->ctime = now();
  return inode;
}

Inode* Filesystem::LookupComponent(Inode* dir, std::string_view name, bool cache_missing) const {
  if (name == ".") {
    return dir;
  }
  NameCache::Hint hint;
  Inode* child = nullptr;
  switch (namecache_.Lookup(*dir, name, &child, &hint)) {
    case NameCache::Outcome::kHit:
    case NameCache::Outcome::kNegativeHit:
      return child;
    case NameCache::Outcome::kMiss:
      break;
  }
  // A shared-hold creator may be linking a name into `dir`: search and cache
  // under its data_mu, so a cached answer carries the generation it was
  // read at.
  std::lock_guard<WordMutex> dir_lock(dir->data_mu);
  auto it = dir->entries.find(name);
  if (it == dir->entries.end()) {
    if (cache_missing) {
      namecache_.InsertNegative(*dir, name, &hint);
    }
    return nullptr;
  }
  namecache_.InsertPositive(*dir, name, it->second, &hint);
  return it->second.get();
}

int Filesystem::Namei(const NameiEnv& env, std::string_view path, NameiOp op, bool follow_final,
                      NameiResult* out) {
  *out = NameiResult{};
  if (path.empty()) {
    return -kENoent;
  }
  if (path.size() > static_cast<size_t>(kMaxPathLen)) {
    return -kENametoolong;
  }
  const bool trailing_slash = path.back() == '/';
  out->trailing_slash = trailing_slash;
  // The walk holds raw pointers. The caller's tree-lock hold keeps every
  // linked inode alive, and env's owner keeps root and cwd alive. ".." out
  // of an unlinked directory is the one step that can reach an inode no
  // entry holds; `pin` keeps that one.
  Inode* cur = path::IsAbsolute(path) ? env.root : env.cwd;
  InodeRef pin;
  if (cur == nullptr) {
    return -kENoent;
  }
  const Cred& cred = *env.cred;

  // Component stack (back = next to walk), reused across calls so resolution
  // does not allocate. Views alias `path` and expanded symlink targets; both
  // stay alive for the whole walk — the caller owns `path`, and symlink
  // inodes stay linked into the tree, which only an exclusive holder can
  // unlink (the walker holds the tree lock at least shared for the whole
  // call).
  // thread_local because walks run concurrently on many host threads; a walk
  // never sleeps, so fibers sharing a thread never interleave inside one.
  thread_local std::vector<std::string_view> namei_comps;
  std::vector<std::string_view>& comps = namei_comps;
  comps.clear();
  PushComponentsReversed(path, &comps);

  if (comps.empty()) {
    // Path was "/" (or "." relative): resolve to the starting directory itself.
    if (!cur->IsDirectory()) {
      return -kENotdir;
    }
    out->inode = cur->shared_from_this();
    out->parent = cur->parent.lock();
    if (out->parent == nullptr) {
      out->parent = out->inode;
    }
    out->final_name.clear();
    if (op == NameiOp::kCreate) {
      return -kEExist;
    }
    return 0;
  }

  int symlink_depth = 0;
  while (!comps.empty()) {
    if (!cur->IsDirectory()) {
      return -kENotdir;
    }
    if (!CredPermits(cred, cur->uid, cur->gid, cur->mode_bits, kXOk)) {
      return -kEAcces;
    }
    const std::string_view name = comps.back();
    comps.pop_back();
    if (name.size() > static_cast<size_t>(kMaxNameLen)) {
      return -kENametoolong;
    }
    const bool is_final = comps.empty();

    Inode* next = nullptr;
    if (name != "..") {
      next = LookupComponent(cur, name, /*cache_missing=*/!is_final || op != NameiOp::kCreate);
    } else if (cur == env.root) {
      next = cur;  // ".." at the (possibly chroot'ed) root stays put
    } else {
      InodeRef up = cur->parent.lock();
      if (up != nullptr) {
        next = up.get();
        pin = std::move(up);
      } else {
        next = cur;
      }
    }

    if (next != nullptr && next->IsSymlink() && (!is_final || follow_final || trailing_slash)) {
      if (++symlink_depth > kMaxSymlinkDepth) {
        return -kELoop;
      }
      const std::string& target = next->symlink_target;
      if (target.empty()) {
        return -kENoent;
      }
      PushComponentsReversed(target, &comps);  // lands on top, in walk order
      if (path::IsAbsolute(target)) {
        cur = env.root;
      }
      continue;
    }

    if (is_final) {
      out->parent = cur->shared_from_this();
      out->final_name = name;
      if (next == nullptr) {
        if (op == NameiOp::kCreate) {
          out->inode = nullptr;
          return 0;
        }
        return -kENoent;
      }
      if (trailing_slash && !next->IsDirectory()) {
        return -kENotdir;
      }
      out->inode = next->shared_from_this();
      return 0;
    }

    if (next == nullptr) {
      return -kENoent;
    }
    cur = next;
  }

  // Components drained through symlink expansion that ended on a directory.
  out->inode = cur->shared_from_this();
  out->parent = cur->parent.lock();
  if (out->parent == nullptr) {
    out->parent = out->inode;
  }
  out->final_name.clear();
  if (op == NameiOp::kCreate) {
    return -kEExist;
  }
  return 0;
}

int Filesystem::AttachEntry(const InodeRef& dir, const std::string& name, const InodeRef& child) {
  if (!dir->IsDirectory()) {
    return -kENotdir;
  }
  if (dir->entries.count(name) != 0) {
    return -kEExist;
  }
  namecache_.InvalidateDir(*dir);
  dir->entries.emplace(name, child);
  child->nlink += 1;
  child->ctime = now();
  if (child->IsDirectory()) {
    child->parent = dir;
    child->nlink += 1;  // its own "."
    dir->nlink += 1;    // its ".." back-reference
  }
  dir->mtime = now();
  return 0;
}

int Filesystem::DetachEntry(const InodeRef& dir, const std::string& name) {
  auto it = dir->entries.find(name);
  if (it == dir->entries.end()) {
    return -kENoent;
  }
  InodeRef child = it->second;
  namecache_.InvalidateDir(*dir);
  dir->entries.erase(it);
  child->nlink -= 1;
  child->ctime = now();
  if (child->IsDirectory()) {
    child->nlink -= 1;
    dir->nlink -= 1;
  }
  // Byte accounting happens at true deletion sites (Unlink, rename-replace):
  // a detach may be half of a rename, which re-attaches the same inode.
  dir->mtime = now();
  return 0;
}

void Filesystem::AccountIfDeleted(const InodeRef& inode) {
  if (inode != nullptr && inode->IsRegular() && inode->nlink <= 0) {
    total_bytes_ -= static_cast<int64_t>(inode->data.size());
  }
}

int Filesystem::Open(const NameiEnv& env, std::string_view path, int flags, Mode mode,
                     InodeRef* out) {
  const bool want_create = (flags & kOCreat) != 0;
  NameiResult nr;
  int err = Namei(env, path, want_create ? NameiOp::kCreate : NameiOp::kLookup,
                  /*follow_final=*/true, &nr);
  if (err == -kEExist && want_create) {
    // Opening "/" with kOCreat: fall through to the exclusive check below.
    err = Namei(env, path, NameiOp::kLookup, /*follow_final=*/true, &nr);
  }
  if (err != 0) {
    return err;
  }

  if (nr.inode == nullptr) {
    // Creating a new regular file. A trailing slash names a would-be
    // directory: open("f/", O_CREAT) must not create a regular file there.
    if (nr.trailing_slash) {
      return -kEIsdir;
    }
    if (!CredPermits(*env.cred, nr.parent->uid, nr.parent->gid, nr.parent->mode_bits, kWOk)) {
      return -kEAcces;
    }
    bool created = false;
    InodeRef inode = CreateRegular(*nr.parent, nr.final_name, mode, *env.cred, &created);
    if (created) {
      *out = std::move(inode);
      return 0;
    }
    // Another creator linked the name since the walk: open its file.
    nr.inode = std::move(inode);
  }

  if (want_create && (flags & kOExcl) != 0) {
    return -kEExist;
  }

  const int accmode = flags & kOAccmode;
  if (nr.inode->IsDirectory() && accmode != kORdonly) {
    return -kEIsdir;
  }
  int want = 0;
  if (accmode == kORdonly || accmode == kORdwr) {
    want |= kROk;
  }
  if (accmode == kOWronly || accmode == kORdwr) {
    want |= kWOk;
  }
  if (!CredPermits(*env.cred, nr.inode->uid, nr.inode->gid, nr.inode->mode_bits, want)) {
    return -kEAcces;
  }
  if ((flags & kOTrunc) != 0 && nr.inode->IsRegular()) {
    ResizeFile(nr.inode, 0);
    nr.inode->mtime = now();
  }
  *out = nr.inode;
  return 0;
}

InodeRef Filesystem::CreateRegular(Inode& dir, std::string_view name, Mode mode,
                                   const Cred& cred, bool* created) {
  std::lock_guard<WordMutex> dir_lock(dir.data_mu);
  auto it = dir.entries.find(name);
  if (it != dir.entries.end()) {
    *created = false;
    return it->second;
  }
  InodeRef inode = AllocInode(InodeType::kRegular, mode & 07777, cred);
  inode->nlink = 1;  // before the link publishes it to other walkers
  dir.entries.emplace(std::string(name), inode);
  // No reclaim here: a shared hold is no grace period (namecache.h).
  namecache_.InvalidateDirShared(dir);
  dir.mtime = now();
  *created = true;
  return inode;
}

int Filesystem::Mkdir(const NameiEnv& env, std::string_view path, Mode mode, InodeRef* out) {
  NameiResult nr;
  int err = Namei(env, path, NameiOp::kCreate, /*follow_final=*/false, &nr);
  if (err != 0) {
    return err;
  }
  if (nr.inode != nullptr) {
    return -kEExist;
  }
  if (!CredPermits(*env.cred, nr.parent->uid, nr.parent->gid, nr.parent->mode_bits, kWOk)) {
    return -kEAcces;
  }
  InodeRef dir = AllocInode(InodeType::kDirectory, mode & 07777, *env.cred);
  err = AttachEntry(nr.parent, nr.final_name, dir);
  if (err != 0) {
    return err;
  }
  if (out != nullptr) {
    *out = dir;
  }
  return 0;
}

int Filesystem::Rmdir(const NameiEnv& env, std::string_view path) {
  NameiResult nr;
  int err = Namei(env, path, NameiOp::kDelete, /*follow_final=*/false, &nr);
  if (err != 0) {
    return err;
  }
  if (nr.final_name.empty() || nr.final_name == "..") {
    return -kEInval;
  }
  if (!nr.inode->IsDirectory()) {
    return -kENotdir;
  }
  if (nr.inode.get() == env.root || nr.inode == root_) {
    return -kEBusy;
  }
  if (!nr.inode->entries.empty()) {
    return -kENotempty;
  }
  if (!CredPermits(*env.cred, nr.parent->uid, nr.parent->gid, nr.parent->mode_bits, kWOk)) {
    return -kEAcces;
  }
  return DetachEntry(nr.parent, nr.final_name);
}

int Filesystem::Link(const NameiEnv& env, std::string_view existing, std::string_view new_path) {
  NameiResult from;
  int err = Namei(env, existing, NameiOp::kLookup, /*follow_final=*/true, &from);
  if (err != 0) {
    return err;
  }
  if (from.inode->IsDirectory()) {
    return -kEPerm;  // 4.3BSD: only the superuser may link directories; we forbid it
  }
  NameiResult to;
  err = Namei(env, new_path, NameiOp::kCreate, /*follow_final=*/false, &to);
  if (err != 0) {
    return err;
  }
  if (to.inode != nullptr) {
    return -kEExist;
  }
  if (to.trailing_slash) {
    return -kENoent;  // link(2) target "n/" can only name a (missing) directory
  }
  if (!CredPermits(*env.cred, to.parent->uid, to.parent->gid, to.parent->mode_bits, kWOk)) {
    return -kEAcces;
  }
  return AttachEntry(to.parent, to.final_name, from.inode);
}

int Filesystem::Unlink(const NameiEnv& env, std::string_view path) {
  NameiResult nr;
  int err = Namei(env, path, NameiOp::kDelete, /*follow_final=*/false, &nr);
  if (err != 0) {
    return err;
  }
  if (nr.final_name.empty() || nr.final_name == "..") {
    return -kEInval;
  }
  if (nr.inode->IsDirectory()) {
    return -kEPerm;
  }
  if (!CredPermits(*env.cred, nr.parent->uid, nr.parent->gid, nr.parent->mode_bits, kWOk)) {
    return -kEAcces;
  }
  const int detach_err = DetachEntry(nr.parent, nr.final_name);
  if (detach_err == 0) {
    AccountIfDeleted(nr.inode);
  }
  return detach_err;
}

int Filesystem::Symlink(const NameiEnv& env, std::string_view target, std::string_view link_path) {
  if (target.empty() || target.size() > static_cast<size_t>(kMaxPathLen)) {
    return -kEInval;
  }
  NameiResult nr;
  int err = Namei(env, link_path, NameiOp::kCreate, /*follow_final=*/false, &nr);
  if (err != 0) {
    return err;
  }
  if (nr.inode != nullptr) {
    return -kEExist;
  }
  if (nr.trailing_slash) {
    return -kENoent;  // symlink(2) at "l/" can only name a (missing) directory
  }
  if (!CredPermits(*env.cred, nr.parent->uid, nr.parent->gid, nr.parent->mode_bits, kWOk)) {
    return -kEAcces;
  }
  InodeRef link = AllocInode(InodeType::kSymlink, 0777, *env.cred);
  link->symlink_target = std::string(target);
  return AttachEntry(nr.parent, nr.final_name, link);
}

int Filesystem::Readlink(const NameiEnv& env, std::string_view path, std::string* target) {
  NameiResult nr;
  int err = Namei(env, path, NameiOp::kLookup, /*follow_final=*/false, &nr);
  if (err != 0) {
    return err;
  }
  if (!nr.inode->IsSymlink()) {
    return -kEInval;
  }
  *target = nr.inode->symlink_target;
  return 0;
}

int Filesystem::Rename(const NameiEnv& env, std::string_view from, std::string_view to) {
  NameiResult src;
  int err = Namei(env, from, NameiOp::kDelete, /*follow_final=*/false, &src);
  if (err != 0) {
    return err;
  }
  if (src.final_name.empty() || src.final_name == "..") {
    return -kEInval;
  }
  NameiResult dst;
  err = Namei(env, to, NameiOp::kCreate, /*follow_final=*/false, &dst);
  if (err != 0) {
    return err;
  }
  if (dst.final_name.empty() || dst.final_name == "..") {
    return -kEInval;
  }
  if (dst.inode == nullptr && dst.trailing_slash && !src.inode->IsDirectory()) {
    return -kENotdir;  // rename("f", "x/") would create a file at a dir-shaped path
  }
  if (!CredPermits(*env.cred, src.parent->uid, src.parent->gid, src.parent->mode_bits, kWOk) ||
      !CredPermits(*env.cred, dst.parent->uid, dst.parent->gid, dst.parent->mode_bits, kWOk)) {
    return -kEAcces;
  }
  if (src.inode == dst.inode) {
    return 0;  // renaming a file onto itself is a no-op
  }
  // A directory cannot be moved into its own subtree.
  if (src.inode->IsDirectory()) {
    for (InodeRef walk = dst.parent; walk != nullptr;) {
      if (walk == src.inode) {
        return -kEInval;
      }
      InodeRef up = walk->parent.lock();
      if (up == walk) {
        break;
      }
      walk = up;
    }
  }
  if (dst.inode != nullptr) {
    if (dst.inode->IsDirectory() != src.inode->IsDirectory()) {
      return dst.inode->IsDirectory() ? -kEIsdir : -kENotdir;
    }
    if (dst.inode->IsDirectory() && !dst.inode->entries.empty()) {
      return -kENotempty;
    }
    err = DetachEntry(dst.parent, dst.final_name);
    if (err != 0) {
      return err;
    }
    AccountIfDeleted(dst.inode);  // the replaced file is truly gone
  }
  err = DetachEntry(src.parent, src.final_name);
  if (err != 0) {
    return err;
  }
  return AttachEntry(dst.parent, dst.final_name, src.inode);
}

int Filesystem::Stat(const NameiEnv& env, std::string_view path, bool follow, ia::Stat* st) {
  NameiResult nr;
  int err = Namei(env, path, NameiOp::kLookup, follow, &nr);
  if (err != 0) {
    return err;
  }
  nr.inode->FillStat(st);
  return 0;
}

int Filesystem::Access(const NameiEnv& env, std::string_view path, int amode) {
  NameiResult nr;
  int err = Namei(env, path, NameiOp::kLookup, /*follow_final=*/true, &nr);
  if (err != 0) {
    return err;
  }
  // access(2) checks with *real* ids.
  Cred real = *env.cred;
  real.euid = real.ruid;
  real.egid = real.rgid;
  if (amode != kFOk &&
      !CredPermits(real, nr.inode->uid, nr.inode->gid, nr.inode->mode_bits, amode)) {
    return -kEAcces;
  }
  return 0;
}

int Filesystem::Chmod(const NameiEnv& env, std::string_view path, Mode mode) {
  NameiResult nr;
  int err = Namei(env, path, NameiOp::kLookup, /*follow_final=*/true, &nr);
  if (err != 0) {
    return err;
  }
  if (!env.cred->IsSuperuser() && env.cred->euid != nr.inode->uid) {
    return -kEPerm;
  }
  nr.inode->mode_bits = mode & 07777;
  nr.inode->ctime = now();
  if (nr.inode->IsDirectory()) {
    // New execute bits change who may look names up through this directory.
    namecache_.InvalidateDir(*nr.inode);
  }
  return 0;
}

int Filesystem::Chown(const NameiEnv& env, std::string_view path, Uid uid, Gid gid) {
  NameiResult nr;
  int err = Namei(env, path, NameiOp::kLookup, /*follow_final=*/true, &nr);
  if (err != 0) {
    return err;
  }
  if (!env.cred->IsSuperuser()) {
    return -kEPerm;  // 4.3BSD quota-era rule: only root may chown
  }
  if (uid != -1) {
    nr.inode->uid = uid;
  }
  if (gid != -1) {
    nr.inode->gid = gid;
  }
  nr.inode->ctime = now();
  if (nr.inode->IsDirectory()) {
    namecache_.InvalidateDir(*nr.inode);
  }
  return 0;
}

int Filesystem::Utimes(const NameiEnv& env, std::string_view path, const TimeVal* times) {
  NameiResult nr;
  int err = Namei(env, path, NameiOp::kLookup, /*follow_final=*/true, &nr);
  if (err != 0) {
    return err;
  }
  if (!env.cred->IsSuperuser() && env.cred->euid != nr.inode->uid) {
    return -kEPerm;
  }
  if (times == nullptr) {
    nr.inode->atime = nr.inode->mtime = now();
  } else {
    nr.inode->atime = times[0].tv_sec;
    nr.inode->mtime = times[1].tv_sec;
  }
  nr.inode->ctime = now();
  return 0;
}

int Filesystem::Truncate(const NameiEnv& env, std::string_view path, Off length) {
  if (length < 0) {
    return -kEInval;
  }
  NameiResult nr;
  int err = Namei(env, path, NameiOp::kLookup, /*follow_final=*/true, &nr);
  if (err != 0) {
    return err;
  }
  if (nr.inode->IsDirectory()) {
    return -kEIsdir;
  }
  if (!nr.inode->IsRegular()) {
    return -kEInval;
  }
  if (!CredPermits(*env.cred, nr.inode->uid, nr.inode->gid, nr.inode->mode_bits, kWOk)) {
    return -kEAcces;
  }
  const int resize_err = ResizeFile(nr.inode, length);
  if (resize_err != 0) {
    return resize_err;
  }
  nr.inode->mtime = nr.inode->ctime = now();
  return 0;
}

int Filesystem::MknodFifo(const NameiEnv& env, std::string_view path, Mode mode) {
  NameiResult nr;
  int err = Namei(env, path, NameiOp::kCreate, /*follow_final=*/false, &nr);
  if (err != 0) {
    return err;
  }
  if (nr.inode != nullptr) {
    return -kEExist;
  }
  if (nr.trailing_slash) {
    return -kENoent;  // a fifo cannot satisfy a directory-shaped pathname
  }
  if (!CredPermits(*env.cred, nr.parent->uid, nr.parent->gid, nr.parent->mode_bits, kWOk)) {
    return -kEAcces;
  }
  InodeRef fifo = AllocInode(InodeType::kFifo, mode & 07777, *env.cred);
  return AttachEntry(nr.parent, nr.final_name, fifo);
}

int Filesystem::MknodSocket(const NameiEnv& env, std::string_view path, Mode mode,
                            InodeRef* out) {
  NameiResult nr;
  int err = Namei(env, path, NameiOp::kCreate, /*follow_final=*/false, &nr);
  if (err != 0) {
    return err;
  }
  if (nr.inode != nullptr) {
    return -kEExist;  // 4.3BSD: even a stale socket node must be unlinked first
  }
  if (nr.trailing_slash) {
    return -kENoent;
  }
  if (!CredPermits(*env.cred, nr.parent->uid, nr.parent->gid, nr.parent->mode_bits, kWOk)) {
    return -kEAcces;
  }
  InodeRef node = AllocInode(InodeType::kSocket, mode & 07777, *env.cred);
  err = AttachEntry(nr.parent, nr.final_name, node);
  if (err != 0) {
    return err;
  }
  *out = std::move(node);
  return 0;
}

int Filesystem::ResizeFile(const InodeRef& inode, Off length) {
  if (!inode->IsRegular()) {
    return -kEInval;
  }
  if (length < 0 || length > kMaxFileBytes) {
    return -kEFbig;
  }
  std::lock_guard<WordMutex> data_lock(inode->data_mu);
  total_bytes_.fetch_add(length - static_cast<int64_t>(inode->data.size()),
                         std::memory_order_relaxed);
  inode->data.resize(static_cast<size_t>(length), '\0');
  return 0;
}

int64_t Filesystem::total_bytes() const {
  int64_t total = total_bytes_.load(std::memory_order_relaxed);
  for (const ByteShard& shard : byte_shards_) {
    total += shard.bytes.load(std::memory_order_relaxed);
  }
  return total;
}

int64_t Filesystem::ReserveBytes(int64_t want, int64_t least, int64_t budget) {
  if (budget < 0) {
    byte_shards_[StatShardSlot(kByteShards)].bytes.fetch_add(want, std::memory_order_relaxed);
    return want;
  }
  // Budgeted writers all reserve through the CAS on total_bytes_, so the
  // shards stay still while a budget is installed and the fold is exact.
  int64_t sharded = 0;
  for (const ByteShard& shard : byte_shards_) {
    sharded += shard.bytes.load(std::memory_order_relaxed);
  }
  int64_t base = total_bytes_.load(std::memory_order_relaxed);
  for (;;) {
    const int64_t reserved = std::min(want, std::max<int64_t>(budget - base - sharded, 0));
    if (reserved < least || reserved == 0) {
      return 0;
    }
    if (total_bytes_.compare_exchange_weak(base, base + reserved, std::memory_order_relaxed)) {
      return reserved;
    }
  }
}

InodeRef Filesystem::InstallDeviceNode(std::string_view path, Device* device, Mode mode_bits) {
  MkdirAll(path::Dirname(path));
  Cred root_cred;
  NameiEnv env{root_, root_, &root_cred};
  NameiResult nr;
  if (Namei(env, path, NameiOp::kCreate, /*follow_final=*/false, &nr) != 0) {
    return nullptr;
  }
  if (nr.inode != nullptr) {
    nr.inode->device = device;
    return nr.inode;
  }
  InodeRef node = AllocInode(InodeType::kCharDevice, mode_bits, root_cred);
  node->device = device;
  if (AttachEntry(nr.parent, nr.final_name, node) != 0) {
    return nullptr;
  }
  return node;
}

InodeRef Filesystem::MkdirAll(std::string_view path, Mode mode_bits) {
  Cred root_cred;
  NameiEnv env{root_, root_, &root_cred};
  InodeRef cur = root_;
  for (const std::string& comp : path::Components(path)) {
    auto it = cur->entries.find(comp);
    if (it != cur->entries.end()) {
      if (!it->second->IsDirectory()) {
        return nullptr;
      }
      cur = it->second;
      continue;
    }
    InodeRef dir = AllocInode(InodeType::kDirectory, mode_bits, root_cred);
    if (AttachEntry(cur, comp, dir) != 0) {
      return nullptr;
    }
    cur = dir;
  }
  return cur;
}

InodeRef Filesystem::InstallFile(std::string_view path, std::string_view contents,
                                 Mode mode_bits) {
  InodeRef dir = MkdirAll(path::Dirname(path));
  if (dir == nullptr) {
    return nullptr;
  }
  const std::string name = path::Basename(path);
  Cred root_cred;
  InodeRef file;
  auto it = dir->entries.find(name);
  if (it != dir->entries.end()) {
    file = it->second;
    if (!file->IsRegular()) {
      return nullptr;
    }
    total_bytes_ -= static_cast<int64_t>(file->data.size());
  } else {
    file = AllocInode(InodeType::kRegular, mode_bits, root_cred);
    if (AttachEntry(dir, name, file) != 0) {
      return nullptr;
    }
  }
  file->data.assign(contents);
  file->mode_bits = mode_bits & 07777;
  file->mtime = file->ctime = now();
  total_bytes_ += static_cast<int64_t>(contents.size());
  return file;
}

std::string Filesystem::AbsolutePathOf(const InodeRef& inode) const {
  if (inode == root_) {
    return "/";
  }
  // Agents call this outside any system call, while creators may be linking
  // names into the directories it scans.
  std::shared_lock<RwLock> tree(tree_mu_);
  std::vector<std::string> parts;
  InodeRef cur = inode;
  while (cur != root_) {
    InodeRef parent = cur->IsDirectory() ? cur->parent.lock() : nullptr;
    if (parent == nullptr) {
      // Non-directories have no up-link; find them via their parent from callers.
      return "";
    }
    std::lock_guard<WordMutex> dir_lock(parent->data_mu);
    bool found = false;
    for (const auto& [name, child] : parent->entries) {
      if (child == cur) {
        parts.push_back(name);
        found = true;
        break;
      }
    }
    if (!found) {
      return "";
    }
    cur = parent;
  }
  std::string out;
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
    out += "/";
    out += *it;
  }
  return out.empty() ? "/" : out;
}

size_t Filesystem::CountReachableInodes() const {
  size_t count = 0;
  std::deque<InodeRef> work{root_};
  std::vector<const Inode*> seen;
  while (!work.empty()) {
    InodeRef cur = work.front();
    work.pop_front();
    if (std::find(seen.begin(), seen.end(), cur.get()) != seen.end()) {
      continue;
    }
    seen.push_back(cur.get());
    ++count;
    if (cur->IsDirectory()) {
      for (const auto& [name, child] : cur->entries) {
        work.push_back(child);
      }
    }
  }
  return count;
}

}  // namespace ia
