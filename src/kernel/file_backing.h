// The polymorphic open-file object layer — 4.3BSD's `struct fileops` shape.
//
// An OpenFile no longer discriminates between an inode and a pipe end by
// hand; it holds exactly one FileBacking, and the kernel's data-plane
// handlers (read/write/fstat/lseek and the vector forms) dispatch through
// it. Each backing op takes the locks its object needs: a vnode's the tree
// lock shared plus the inode's data_mu (a device's the big lock), a pipe's
// or a socket's the big lock. Three implementations:
//
//   VnodeBacking   - regular files, directories, devices (everything the VFS
//                    tree names); stateless, shared as a singleton
//   PipeBacking    - one end of a bounded Pipe (anonymous pipes and fifos);
//                    registers/deregisters the end count in ctor/dtor, so
//                    end-of-life accounting is exact at OpenFile granularity
//   SocketBacking  - one endpoint of an AF_UNIX socket (src/kernel/socket.h)
//
// A backing that must block sleeps on its object's wait channel (Sleep in
// process.h); its state changes, close included, wake that channel.
// FileBacking is a friend of Kernel; derived classes reach kernel internals
// only through the protected hooks below. Vector transfers (readv/writev)
// decompose onto the scalar Read/Write hooks in the kernel's segment loop, as
// 4.3BSD's fo_rw did. The close hook is the destructor: dup() and fork()
// share the OpenFile (and therefore the backing), so the last reference
// dropping is exactly the descriptor-object close event.
#ifndef SRC_KERNEL_FILE_BACKING_H_
#define SRC_KERNEL_FILE_BACKING_H_

#include <memory>
#include <mutex>

#include "src/kernel/types.h"

namespace ia {

class Kernel;
class OpenFile;
class Pipe;
class Process;

// A system call's big-lock slot (Kernel::Lock): empty until the call takes
// mu_ through Kernel::BigLock.
using KernelLock = std::unique_lock<std::mutex>;

enum class BackingKind : uint8_t {
  kVnode,
  kPipe,
  kSocket,
};

class FileBacking {
 public:
  virtual ~FileBacking() = default;

  // Identity for the handlers that pick a lock by object: closing anything
  // but a kVnode file takes the big lock, which guards a pipe's or a
  // socket's state and its wait channel.
  virtual BackingKind kind() const = 0;

  // Scalar transfer hooks. The caller has already validated fd/buf/count
  // and rejected count <= 0. `lk` is the call's big-lock slot: empty, or
  // holding mu_ when a handler took it first (readv, writev, send). A
  // backing that needs mu_ takes it into `lk` (BigLock); pipe/socket
  // backings may sleep on it.
  virtual SyscallStatus Read(Kernel& k, Process& p, OpenFile& f, char* buf, int64_t count,
                             SyscallResult* rv, KernelLock& lk) = 0;
  virtual SyscallStatus Write(Kernel& k, Process& p, OpenFile& f, const char* buf, int64_t count,
                              SyscallResult* rv, KernelLock& lk) = 0;

  // fstat(2): fills `st` (never null). Files that reach a backing through a
  // named node (regular files, fifos, bound sockets) report the inode's
  // attributes; anonymous objects synthesize one.
  virtual SyscallStatus Fstat(Kernel& k, OpenFile& f, Stat* st) = 0;

  // lseek(2): pipe-like objects refuse with ESPIPE before whence validation
  // (4.3BSD order); vnodes do the offset arithmetic.
  virtual SyscallStatus Lseek(Kernel& k, OpenFile& f, Off offset, int whence,
                              SyscallResult* rv) = 0;

 protected:
  // The narrow kernel services a backing may use (signal posting, the
  // counted big lock, and the vnode data plane). FileBacking is a friend of
  // Kernel; these are the only doors it opens to subclasses.
  static void PostSignal(Kernel& k, Process& p, int signo);
  static void BigLock(Kernel& k, KernelLock& lk);
  // Regular-file transfers under the tree lock held shared, then the
  // inode's data_mu.
  static SyscallStatus ReadRegular(Kernel& k, Process& p, OpenFile& f, char* buf, int64_t count,
                                   SyscallResult* rv);
  static SyscallStatus WriteRegular(Kernel& k, Process& p, OpenFile& f, const char* buf,
                                    int64_t count, SyscallResult* rv);
};

// Regular files, directories, and devices. Stateless (all state lives on
// OpenFile::inode), so every vnode-backed OpenFile shares one instance.
class VnodeBacking final : public FileBacking {
 public:
  static const std::shared_ptr<FileBacking>& Instance();

  BackingKind kind() const override { return BackingKind::kVnode; }
  SyscallStatus Read(Kernel& k, Process& p, OpenFile& f, char* buf, int64_t count,
                     SyscallResult* rv, KernelLock& lk) override;
  SyscallStatus Write(Kernel& k, Process& p, OpenFile& f, const char* buf, int64_t count,
                      SyscallResult* rv, KernelLock& lk) override;
  SyscallStatus Fstat(Kernel& k, OpenFile& f, Stat* st) override;
  SyscallStatus Lseek(Kernel& k, OpenFile& f, Off offset, int whence, SyscallResult* rv) override;
};

// One end of a bounded Pipe (anonymous pipe or fifo). Construction registers
// the end with the pipe; destruction — always under the big lock, which
// close(2) takes for every non-vnode file — deregisters it and wakes the
// pipe, so the last write-end close is EOF and the last read-end close EPIPE.
class PipeBacking final : public FileBacking {
 public:
  PipeBacking(std::shared_ptr<Pipe> pipe, bool write_end);
  ~PipeBacking() override;

  BackingKind kind() const override { return BackingKind::kPipe; }
  SyscallStatus Read(Kernel& k, Process& p, OpenFile& f, char* buf, int64_t count,
                     SyscallResult* rv, KernelLock& lk) override;
  SyscallStatus Write(Kernel& k, Process& p, OpenFile& f, const char* buf, int64_t count,
                      SyscallResult* rv, KernelLock& lk) override;
  SyscallStatus Fstat(Kernel& k, OpenFile& f, Stat* st) override;
  SyscallStatus Lseek(Kernel& k, OpenFile& f, Off offset, int whence, SyscallResult* rv) override;

  const std::shared_ptr<Pipe>& pipe() const { return pipe_; }
  bool write_end() const { return write_end_; }

 private:
  std::shared_ptr<Pipe> pipe_;
  bool write_end_;
};

}  // namespace ia

#endif  // SRC_KERNEL_FILE_BACKING_H_
