// Open-file objects and per-process descriptor tables.
//
// Matches 4.3BSD structure: a descriptor slot points at a shared "struct file"
// (OpenFile here) carrying the offset, flags, and a polymorphic FileBacking
// (vnode / pipe end / socket endpoint); dup() and fork() share OpenFiles, so
// offsets move together. Pipe-end and socket-endpoint lifetimes are tracked at
// OpenFile granularity by the backing's constructor/destructor.
#ifndef SRC_KERNEL_FDTABLE_H_
#define SRC_KERNEL_FDTABLE_H_

#include <array>
#include <atomic>
#include <memory>

#include "src/kernel/file_backing.h"
#include "src/kernel/pipe.h"
#include "src/kernel/vfs.h"

namespace ia {

// An open-file object may be shared across processes (fork/dup), and the
// kernel's read fast paths advance offsets while holding no lock that other
// sharers respect, so the mutable scalar fields are atomics. Like real
// kernels, concurrent read()/lseek() through a shared descriptor get
// tear-free but otherwise unordered offsets (each RMW is atomic; interleaved
// calls may observe each other in either order). `inode`/`backing` are set
// once at creation, before the object is published; every kernel-created
// OpenFile carries a backing (the factory helpers below guarantee it).
class OpenFile {
 public:
  OpenFile() = default;
  ~OpenFile();

  OpenFile(const OpenFile&) = delete;
  OpenFile& operator=(const OpenFile&) = delete;

  // The named node behind this file, when there is one: regular files and
  // devices always, fifos and bound sockets for identity/attributes (flock,
  // fchdir, fstat, getdirentries). Null for anonymous pipe ends and unbound
  // sockets.
  InodeRef inode;
  // The data-plane object this descriptor drives; see file_backing.h.
  std::shared_ptr<FileBacking> backing;
  std::atomic<int> flags{0};  // accmode | kOAppend | kONonblock
  std::atomic<Off> offset{0};
  // kLockSh or kLockEx while held via this file. Mutated only under the
  // kernel big lock; read atomically by the close fast path to decide
  // whether dropping this reference needs the big lock.
  std::atomic<int> flock_mode{0};

  bool CanRead() const { return (flags.load(std::memory_order_relaxed) & kOAccmode) != kOWronly; }
  bool CanWrite() const { return (flags.load(std::memory_order_relaxed) & kOAccmode) != kORdonly; }
};

using OpenFileRef = std::shared_ptr<OpenFile>;

// Creates an OpenFile over the shared vnode backing.
OpenFileRef MakeVnodeFile(InodeRef inode, int flags);

// Creates an OpenFile for a pipe end, registering it with the pipe (via the
// PipeBacking constructor).
OpenFileRef MakePipeEnd(std::shared_ptr<Pipe> pipe, bool write_end);

struct FdEntry {
  OpenFileRef file;
  bool close_on_exec = false;

  bool InUse() const { return file != nullptr; }
};

// A process's descriptor table. It is [owner] state (process.h): only the
// owning process's fiber touches it, and its parent while forking it, so it
// takes no lock. Dropping a slot's reference can run ~OpenFile, which
// releases flock and pipe state; the callers that can drop a last such
// reference hold the big lock (see ~OpenFile).
class FdTable {
 public:
  // Returns the lowest free descriptor >= `from`, or -kEMfile.
  int AllocateSlot(int from = 0);

  bool Valid(int fd) const {
    return fd >= 0 && fd < kMaxFilesPerProcess && slots_[fd].InUse();
  }

  OpenFileRef Get(int fd) const {
    if (fd < 0 || fd >= kMaxFilesPerProcess) {
      return nullptr;
    }
    return slots_[fd].file;
  }

  // Raw slot access, for fcntl's FD_CLOEXEC.
  FdEntry* Entry(int fd) {
    if (fd < 0 || fd >= kMaxFilesPerProcess) {
      return nullptr;
    }
    return &slots_[fd];
  }

  void Set(int fd, OpenFileRef file, bool close_on_exec = false) {
    slots_[fd] = FdEntry{std::move(file), close_on_exec};
  }

  // Closes `fd`; returns 0 or -kEBadf.
  int Close(int fd);

  // dup2 semantics: closes `to` if open, then points it at `from`'s file.
  int Dup2(int from, int to);

  // Drops every close-on-exec descriptor (execve path).
  void CloseOnExec();

  void CloseAll();

  // fork(): child shares OpenFiles.
  FdTable Clone() const { return *this; }

  int OpenCount() const;

 private:
  std::array<FdEntry, kMaxFilesPerProcess> slots_;
};

}  // namespace ia

#endif  // SRC_KERNEL_FDTABLE_H_
