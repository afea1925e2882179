// In-memory UFS-like filesystem: inodes, directories, symlinks, devices, pipes,
// hard links, permissions, and 4.3BSD namei() semantics.
//
// All VFS entry points report errors as negative BSD errno values.
//
// Synchronization is provided by the caller through TreeMutex(), one
// reader/writer lock over the whole inode graph (entries, metadata), as in
// 4.3BSD, where one lock guards the name space: walks, directory listings,
// the regular-file data plane (stat/access/readlink/open/getdirentries, and
// read/write/writev/lseek/fstat on regular files) and the creating opens of
// regular files hold it shared and proceed concurrently; every other
// mutation of the name space or of attributes (mkdir/link/unlink/rename/
// chmod/ftruncate/...) holds it exclusively.
//
// Under a shared hold, an inode's own leaf lock, Inode::data_mu (4.3BSD's
// per-inode ilock), guards what shared holders may change: a regular file's
// bytes, and a directory's entries. The data plane locks the file it
// touches, and a creating open links its new file under the parent
// directory's data_mu, so not every name-space mutation is exclusive: a
// shared holder that reads a directory's entries (a walk's cache miss, a
// directory's stat, getdirentries, AbsolutePathOf) takes that directory's
// data_mu. An exclusive holder excludes every shared holder, so it touches
// data and entries without data_mu.
//
// The kernel's handlers take the tree lock themselves, shared around walks
// and the regular-file data plane and exclusive around the big-lock
// mutations, so VFS method bodies take no tree lock (AbsolutePathOf, called
// from agents, is the exception). Inode timestamps are atomics
// because shared-mode paths update atime and mtime; they read the caller's
// host clock (now()), and the shared paths store a stamp only when its
// second changes, so readers of one hot inode do not write its line. The
// name cache carries its own writer-shard mutexes, and its grace-period
// reclaim keys off the exclusive mode plus the kernel's mu_: a holder of both
// implies no lock-free cache reader is in flight (see namecache.h).
// Lock order: kernel mu_ -> tree lock (either mode) -> Inode::data_mu ->
// a name-cache shard's mutex (leaf). No one holds two inodes' data_mu at once.
#ifndef SRC_KERNEL_VFS_H_
#define SRC_KERNEL_VFS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/clock.h"
#include "src/base/errno_codes.h"
#include "src/base/rwlock.h"
#include "src/base/word_mutex.h"
#include "src/kernel/cred.h"
#include "src/kernel/namecache.h"
#include "src/kernel/types.h"

namespace ia {

class Inode;
class Pipe;
class Socket;
using InodeRef = std::shared_ptr<Inode>;

// Character-device operations; instances are registered with the Filesystem and
// referenced by device inodes. Not owned by inodes.
class Device {
 public:
  virtual ~Device() = default;

  // Reads up to `count` bytes into `buf` at `offset`; returns bytes read or -errno.
  virtual int64_t Read(char* buf, int64_t count, Off offset) = 0;

  // Writes `count` bytes from `buf` at `offset`; returns bytes written or -errno.
  virtual int64_t Write(const char* buf, int64_t count, Off offset) = 0;

  virtual int Ioctl(uint64_t request, void* argp);

  virtual Dev rdev() const = 0;
};

enum class InodeType {
  kRegular,
  kDirectory,
  kSymlink,
  kCharDevice,
  kFifo,
  kSocket,
};

// A UFS-style inode. Directories hold name->inode maps (std::map for deterministic
// iteration order); regular files hold their bytes inline. Always owned by an
// InodeRef (make_shared): a path walk carries raw pointers and takes one
// reference, through shared_from_this, only for each NameiResult field.
class Inode : public std::enable_shared_from_this<Inode> {
 public:
  Inode(Ino number, InodeType type, Mode mode_bits, Uid uid, Gid gid);

  Ino ino() const { return ino_; }
  InodeType type() const { return type_; }
  bool IsDirectory() const { return type_ == InodeType::kDirectory; }
  bool IsRegular() const { return type_ == InodeType::kRegular; }
  bool IsSymlink() const { return type_ == InodeType::kSymlink; }
  bool IsDevice() const { return type_ == InodeType::kCharDevice; }
  bool IsFifo() const { return type_ == InodeType::kFifo; }
  bool IsSocket() const { return type_ == InodeType::kSocket; }

  // Full mode including the type bits, as stat(2) reports it.
  Mode FullMode() const;

  // Fills a Stat from this inode. Takes data_mu to read a regular file's
  // size or a directory's entry count.
  void FillStat(Stat* st) const;

  // --- metadata (checked/updated by Filesystem ops) -------------------------
  Mode mode_bits = 0644;  // permission + setuid bits only
  Uid uid = 0;
  Gid gid = 0;
  int32_t nlink = 0;
  // Timestamps are relaxed atomics, not tree-lock-guarded fields: the read
  // fast paths (stat under the shared tree lock, regular-file reads and
  // getdirentries marking atime, writes marking mtime) update them while
  // other shared holders read them concurrently, and store only a changed
  // second. Each stamp is an independent whole value; no cross-field
  // ordering is promised, which is all stat(2) ever offered.
  std::atomic<int64_t> atime{0};
  std::atomic<int64_t> mtime{0};
  std::atomic<int64_t> ctime{0};
  // A shared-mode path's stamp: stores `seconds` only when it differs.
  static void Touch(std::atomic<int64_t>& stamp, int64_t seconds) {
    if (stamp.load(std::memory_order_relaxed) != seconds) {
      stamp.store(seconds, std::memory_order_relaxed);
    }
  }

  // --- regular file payload --------------------------------------------------
  // The bytes. A tree-lock holder in exclusive mode touches them freely;
  // under a shared hold (reads, writes, stats, lseeks and O_APPEND opens)
  // every access holds data_mu.
  std::string data;

  // Executable image binding: non-empty for files created via RegisterProgram-backed
  // InstallProgramFile(); execve() resolves this to a program entry point.
  std::string exec_image;

  // --- directory payload ------------------------------------------------------
  // std::less<> so Namei can search with string_view components, allocation-free.
  // A shared-hold creating open inserts under data_mu; removal is exclusive.
  std::map<std::string, InodeRef, std::less<>> entries;
  std::weak_ptr<Inode> parent;  // ".." link; weak to break ref cycles
  // Name-cache generation: bumped on every entry mutation (and on lookup-
  // affecting permission changes) to stale out cached lookups in O(1).
  // Atomic: a shared-hold creator bumps it under data_mu while lock-free
  // cache hits read it.
  std::atomic<uint64_t> namecache_gen{0};

  // --- advisory flock(2) state --------------------------------------------------
  // Acquisition and conflict checks run under the big lock, but an OpenFile
  // that turns out to hold the *last* reference can release its lock from the
  // close fast path's unlocked destructor, so the fields are atomic. A release
  // racing a conflict check at worst yields one spurious EWOULDBLOCK, which
  // flock(2)'s retry contract already allows.
  std::atomic<int> flock_shared{0};  // count of shared holders
  std::atomic<bool> flock_exclusive{false};

  // --- the inode lock ----------------------------------------------------------
  // Guards `data`, a directory's `entries` (and its namecache_gen bumps),
  // and the offsets of the files open on this inode (for a directory,
  // getdirentries' entry index), while the tree lock is held shared. So
  // under a shared hold, a directory's entries can change: a creating open
  // links its file under the parent's data_mu, and every shared reader of
  // the entries takes it. A writer holds it from its append-offset pick to
  // its copy (a writev across all its segments, so an O_APPEND writev lands
  // as one record); a truncating open holds it across the resize. A leaf
  // under the tree lock: nothing is acquired while holding it but a name-cache
  // shard's mutex and the FaultInjector's mutex. One word: it grows an
  // Inode by 8 bytes where a std::mutex grew it by 40.
  mutable WordMutex data_mu;

  // --- symlink payload ---------------------------------------------------------
  std::string symlink_target;

  // --- device payload ----------------------------------------------------------
  Device* device = nullptr;  // registered with Filesystem; not owned

  // --- fifo payload ------------------------------------------------------------
  std::shared_ptr<Pipe> fifo_pipe;

  // --- socket payload ----------------------------------------------------------
  // The listening (or bound) socket behind a bind(2)-created node; connect(2)
  // rendezvouses through it. Big-lock-guarded like all socket state.
  std::shared_ptr<Socket> bound_socket;

 private:
  Ino ino_;
  InodeType type_;
};

// Result of a pathname resolution.
struct NameiResult {
  InodeRef inode;          // resolved inode (null if kParent and final missing)
  InodeRef parent;         // directory containing the final component
  std::string final_name;  // final pathname component (empty when path is "/")
  // The original path ended in '/'. A missing final component under kCreate
  // then names a would-be directory; creators of non-directories must refuse.
  bool trailing_slash = false;
};

// namei() lookup modes.
enum class NameiOp {
  kLookup,  // final component must exist
  kCreate,  // parent must exist; final may be missing (inode null then)
  kDelete,  // final must exist; parent write permission checked by caller
};

// Per-lookup environment: where "/" and "." are, and as whom we resolve.
// Raw pointers: the caller keeps both inodes alive for the walk (a process's
// root and cwd are its own fields), so building an env takes no reference.
struct NameiEnv {
  NameiEnv(const InodeRef& root_dir, const InodeRef& cwd_dir, const Cred* as)
      : root(root_dir.get()), cwd(cwd_dir.get()), cred(as) {}

  Inode* root = nullptr;
  Inode* cwd = nullptr;
  const Cred* cred = nullptr;
};

// The in-memory filesystem. One instance per simulated kernel.
class Filesystem {
 public:
  Filesystem();

  InodeRef root() const { return root_; }

  // The reader/writer lock over the inode graph. The kernel dispatcher holds
  // it exclusively around mutating syscall handlers and shared around the
  // fast paths; VFS method bodies assume the caller holds it in the
  // appropriate mode: shared is enough for the lookups and for Open, which
  // links a new file under the parent's data_mu; every other method that
  // mutates the tree needs it exclusively.
  RwLock& TreeMutex() const { return tree_mu_; }

  // Current file time, in seconds: the calling host thread's virtual clock
  // (clock.h's ThreadClock), so a call stamps its inodes with its own time
  // and nothing every client shares is written per call. Off a host thread
  // (world building) it is the host-side time the kernel sets with
  // set_now: the epoch, exits and settimeofday (Kernel::floor_).
  void set_now(int64_t seconds) { now_.store(seconds, std::memory_order_relaxed); }
  int64_t now() const {
    const VirtualClock* clock = ThreadClock();
    return clock != nullptr ? clock->Now() / 1000000 : now_.load(std::memory_order_relaxed);
  }

  // Allocates a fresh unattached inode.
  InodeRef AllocInode(InodeType type, Mode mode_bits, const Cred& cred);

  // Resolves `path` per 4.3BSD namei: per-component execute checks, symlink
  // expansion with kMaxSymlinkDepth, "" is ENOENT, trailing slashes require a
  // directory. `follow_final` controls whether a final-component symlink is
  // followed (false for lstat/readlink/unlink...). The walk takes no inode
  // reference per component; only the result's fields hold one each. As in
  // 4.3BSD, a kCreate walk does not cache a missing final name: its caller
  // is about to create it.
  int Namei(const NameiEnv& env, std::string_view path, NameiOp op, bool follow_final,
            NameiResult* out);

  // --- whole operations (all apply permission checks + update times) ----------
  // Safe under a shared hold: a new regular file is linked under the parent
  // directory's data_mu, a creator that loses the race for the name opens
  // the winner's inode (EEXIST under O_EXCL), and O_TRUNC resizes under the
  // file's data_mu.
  int Open(const NameiEnv& env, std::string_view path, int flags, Mode mode, InodeRef* out);
  int Mkdir(const NameiEnv& env, std::string_view path, Mode mode, InodeRef* out = nullptr);
  int Rmdir(const NameiEnv& env, std::string_view path);
  int Link(const NameiEnv& env, std::string_view existing, std::string_view new_path);
  int Unlink(const NameiEnv& env, std::string_view path);
  int Symlink(const NameiEnv& env, std::string_view target, std::string_view link_path);
  int Readlink(const NameiEnv& env, std::string_view path, std::string* target);
  int Rename(const NameiEnv& env, std::string_view from, std::string_view to);
  int Stat(const NameiEnv& env, std::string_view path, bool follow, ia::Stat* st);
  int Access(const NameiEnv& env, std::string_view path, int amode);
  int Chmod(const NameiEnv& env, std::string_view path, Mode mode);
  int Chown(const NameiEnv& env, std::string_view path, Uid uid, Gid gid);
  int Utimes(const NameiEnv& env, std::string_view path, const TimeVal* times);
  int Truncate(const NameiEnv& env, std::string_view path, Off length);
  int MknodFifo(const NameiEnv& env, std::string_view path, Mode mode);

  // bind(2)'s node creation: a socket inode at `path`. Same shape as
  // MknodFifo (EEXIST on any existing node, even a stale socket).
  int MknodSocket(const NameiEnv& env, std::string_view path, Mode mode, InodeRef* out);

  // Attaches a directory entry; updates nlink/ctime. Fails with kEExist.
  int AttachEntry(const InodeRef& dir, const std::string& name, const InodeRef& child);

  // Detaches an entry; updates nlink/ctime. Does not check emptiness and does
  // not account bytes (a detach may be half of a rename).
  int DetachEntry(const InodeRef& dir, const std::string& name);

  // Subtracts a regular file's bytes from the total when its last link is gone.
  void AccountIfDeleted(const InodeRef& inode);

  // Registers a device node at `path` (creating parents as needed, superuser context).
  InodeRef InstallDeviceNode(std::string_view path, Device* device, Mode mode_bits);

  // Creates directories along `path` as root (bootstrap/setup helper).
  InodeRef MkdirAll(std::string_view path, Mode mode_bits = 0755);

  // Creates (or replaces) a regular file at `path` with `contents` as root.
  InodeRef InstallFile(std::string_view path, std::string_view contents, Mode mode_bits = 0644);

  // Resolves the absolute pathname of `inode` by walking ".." links ("/a/b/c"),
  // for getwd()-style queries. Returns empty if unlinked from the tree. Takes
  // the tree lock shared and each scanned directory's data_mu, so the caller
  // must hold neither.
  std::string AbsolutePathOf(const InodeRef& inode) const;

  // Counts inodes reachable from the root (statistics/tests).
  size_t CountReachableInodes() const;

  // Bytes held by regular files: the exact total once writers quiesce. Read
  // by the fault plane's exhaustion regime without the tree lock, as a
  // fold of the byte shards.
  int64_t total_bytes() const;

  // Truncate/extend a regular file's data under its data_mu, accounting
  // the change in one atomic add. Callers hold the tree lock (shared is
  // enough) and not the file's data_mu.
  int ResizeFile(const InodeRef& inode, Off length);

  // Accounts a write's growth of a file in one atomic step against
  // `budget` bytes in total (negative: no budget), so concurrent writers
  // on different files never overshoot it. Reserves min(want, room) bytes
  // when that is at least `least`, else nothing, and returns what it
  // reserved; the writer then grows the data by exactly that much. With no
  // budget the growth goes to the calling thread's byte shard; a budget
  // reserves with a CAS on total_bytes_ against the folded total.
  int64_t ReserveBytes(int64_t want, int64_t least, int64_t budget);

  // The directory name-lookup cache consulted by Namei (enabled by default).
  NameCache& namecache() { return namecache_; }
  const NameCache& namecache() const { return namecache_; }

 private:
  // One walk step: the child named `name` in `dir`, or null. A cache hit
  // returns the cached raw pointer; a miss searches `dir` under its data_mu
  // and caches the answer, a missing name only when `cache_missing`.
  Inode* LookupComponent(Inode* dir, std::string_view name, bool cache_missing) const;

  // Open's create step, under dir's data_mu: links a new regular file at
  // `name` unless a racing creator linked one first. Returns the inode now
  // at `name`; *created says whose it is.
  InodeRef CreateRegular(Inode& dir, std::string_view name, Mode mode, const Cred& cred,
                         bool* created);

  // Writer-preferring (rwlock.h): with regular-file writes shared, nearly
  // all traffic holds it shared, and a reader-preferring lock let an
  // exclusive acquirer (holding mu_) wait behind a stream of readers.
  mutable RwLock tree_mu_;
  InodeRef root_;
  // Atomic: shared-hold creators allocate concurrently.
  std::atomic<Ino> next_ino_{2};  // ino 2 is the root, per UFS convention
  // The host-side file time (set_now). Its own line: no call writes it.
  alignas(64) std::atomic<int64_t> now_{0};
  // Byte accounting. total_bytes_ takes exclusive holders' resizes and
  // deletions and budgeted reservations; unbudgeted growth under a shared
  // hold goes to the writing thread's shard (StatShardSlot), which no other
  // host thread writes while slots stay distinct. total_bytes() is their sum.
  alignas(64) std::atomic<int64_t> total_bytes_{0};
  static constexpr int kByteShards = 8;  // power of two
  struct alignas(64) ByteShard {
    std::atomic<int64_t> bytes{0};
  };
  ByteShard byte_shards_[kByteShards];
  // Mutable: lookups through the const Namei path update LRU order and stats.
  // Internally synchronized (see namecache.h).
  mutable NameCache namecache_;
  // Namei's per-call component stack lives in a thread_local in vfs.cc,
  // reused across calls so pathname resolution does not allocate per lookup
  // even with walks running concurrently on many threads.
};

// The locks over a vnode's bytes, taken in lock order and held for the
// guard's life: the tree lock shared, then the inode's data_mu. A read, a
// write and every segment of a writev on a regular file run under them.
class InodeBytesLock {
 public:
  InodeBytesLock(const Filesystem& fs, const Inode& inode)
      : tree_(fs.TreeMutex()), data_(inode.data_mu) {}

 private:
  std::shared_lock<RwLock> tree_;
  std::lock_guard<WordMutex> data_;
};

}  // namespace ia

#endif  // SRC_KERNEL_VFS_H_
