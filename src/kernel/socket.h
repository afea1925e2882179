// AF_UNIX stream sockets (4.3BSD's unpcb/socket pair, collapsed to one
// object). Like Pipe, a Socket is big-lock-guarded data plus a wait channel
// that accept, send and recv sleep on and every change they wait for wakes.
//
// Topology: every connected endpoint holds a shared_ptr to its peer. The
// reference cycle this creates is broken deterministically at close time —
// SocketBacking's destructor (descriptor-object close, exact at OpenFile
// granularity thanks to dup/fork sharing the OpenFile) calls EndClosed(),
// which detaches both directions and orphans any unaccepted pending
// connections. Bound sockets additionally hang off their VFS node
// (Inode::bound_socket), which is how connect(2) rendezvouses by pathname.
#ifndef SRC_KERNEL_SOCKET_H_
#define SRC_KERNEL_SOCKET_H_

#include <deque>
#include <memory>
#include <string>

#include "src/kernel/fdtable.h"
#include "src/kernel/fiber.h"
#include "src/kernel/file_backing.h"
#include "src/kernel/pipe.h"
#include "src/kernel/types.h"
#include "src/kernel/vfs.h"

namespace ia {

class Socket {
 public:
  enum class State : uint8_t {
    kUnbound,    // fresh from socket(2)/the embryo side of connect
    kBound,      // bind(2) attached a VFS node
    kListening,  // listen(2); connect(2) targets rendezvous here
    kConnected,  // stream established (connect/accept/socketpair)
    kClosed,     // endpoint closed; kept only for a surviving peer's view
  };

  int type = kSockStream;
  State state = State::kUnbound;

  // Bytes queued toward THIS endpoint (the peer's sends land here).
  ByteRing recv;

  // Connected-peer linkage. `peer_closed` outlives the pointer: once the peer
  // end closes, the pointer drops (cycle break) but readers must still drain
  // buffered bytes and then see EOF, and writers must take EPIPE.
  std::shared_ptr<Socket> peer;
  bool peer_closed = false;

  // shutdown(2) state, per direction.
  bool shut_rd = false;
  bool shut_wr = false;

  // Listener state: established-but-unaccepted server endpoints.
  int backlog = 0;
  std::deque<std::shared_ptr<Socket>> pending;

  // bind(2) identity. `bound_path` doubles as the address getsockname and a
  // peer's getpeername report; accepted endpoints inherit the listener's path
  // but leave `bound_inode` null (closing them must not unhook the node).
  std::string bound_path;
  InodeRef bound_inode;

  // recv, send and accept on this endpoint sleep here (DESIGN.md §13).
  WaitChannel chan;

  // The descriptor-object close event (big lock held): detaches the peer in
  // both directions, orphans pending connections, and unhooks the bound VFS
  // node so later connect(2)s refuse cleanly. Wakes each detached peer.
  void EndClosed();
};

// The FileBacking over one socket endpoint; read()/write() on a socket fd get
// recv/send semantics, matching 4.3BSD's soo_rw.
class SocketBacking final : public FileBacking {
 public:
  explicit SocketBacking(std::shared_ptr<Socket> socket) : socket_(std::move(socket)) {}
  ~SocketBacking() override { socket_->EndClosed(); }

  BackingKind kind() const override { return BackingKind::kSocket; }
  SyscallStatus Read(Kernel& k, Process& p, OpenFile& f, char* buf, int64_t count,
                     SyscallResult* rv, KernelLock& lk) override;
  SyscallStatus Write(Kernel& k, Process& p, OpenFile& f, const char* buf, int64_t count,
                      SyscallResult* rv, KernelLock& lk) override;
  SyscallStatus Fstat(Kernel& k, OpenFile& f, Stat* st) override;
  SyscallStatus Lseek(Kernel& k, OpenFile& f, Off offset, int whence, SyscallResult* rv) override;

  const std::shared_ptr<Socket>& socket() const { return socket_; }

 private:
  std::shared_ptr<Socket> socket_;
};

// Creates an OpenFile over a socket endpoint (always O_RDWR).
OpenFileRef MakeSocketFile(std::shared_ptr<Socket> socket);

}  // namespace ia

#endif  // SRC_KERNEL_SOCKET_H_
