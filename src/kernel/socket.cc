// AF_UNIX socket endpoints and the kernel handlers for the socket rows.
//
// All socket state is big-lock-guarded; every handler here takes the big
// lock first. The blocking rows (accept/send/recv and friends, kBlocking in
// syscalls.def) take it without the tree lock and sleep on the endpoint's
// wait channel. The non-blocking rows (socket/bind/connect/listen/...) also
// hold the tree lock exclusively, which covers bind's node creation and
// connect's pathname walk. The backing's read/write takes the big lock
// itself when read(2)/write(2) reach a socket.
#include "src/kernel/socket.h"

#include <algorithm>
#include <cstring>

#include "src/kernel/fdtable.h"
#include "src/kernel/kernel.h"
#include "src/kernel/process.h"

namespace ia {

namespace {

// Decodes a client-supplied sockaddr into its AF_UNIX pathname. `addrlen`
// bounds how much of sun_path is meaningful; the path need not be
// NUL-terminated at the full field width (4.3BSD tolerated both).
int ExtractSockPath(const SockAddr* addr, int addrlen, std::string* out) {
  if (addr == nullptr) {
    return -kEFault;
  }
  if (addrlen < static_cast<int>(sizeof(int16_t))) {
    return -kEInval;
  }
  if (addr->sun_family != kAfUnix) {
    return -kEAfnosupport;
  }
  const int path_cap =
      std::clamp(addrlen - static_cast<int>(sizeof(int16_t)), 0, kMaxSunPath);
  const size_t len = strnlen(addr->sun_path, static_cast<size_t>(path_cap));
  if (len == 0) {
    return -kEInval;  // the empty address names nothing bindable
  }
  out->assign(addr->sun_path, len);
  return 0;
}

// Fills an out-parameter sockaddr pair with `path` (getsockname, getpeername,
// accept, recvfrom). A null addr or addrlen means the caller declined the
// address, which is never an error.
void FillSockAddr(const std::string& path, SockAddr* addr, int* addrlen) {
  if (addr == nullptr || addrlen == nullptr) {
    return;
  }
  SockAddr out{};
  out.sun_family = kAfUnix;
  const size_t n = std::min(path.size(), sizeof(out.sun_path) - 1);
  std::memcpy(out.sun_path, path.data(), n);
  *addr = out;
  *addrlen = static_cast<int>(sizeof(int16_t) + n + 1);
}

// Detaches one side of a connection from its peer (close and orphaning) and
// wakes the peer, whose recv now sees EOF and whose send takes EPIPE.
void DetachPeer(Socket& s) {
  if (s.peer != nullptr) {
    s.peer->peer_closed = true;
    s.peer->chan.Wakeup();
    s.peer->peer.reset();
    s.peer.reset();
  }
}

}  // namespace

void Socket::EndClosed() {
  state = State::kClosed;
  DetachPeer(*this);
  // A dying listener orphans everything it never accepted: each pending
  // server endpoint detaches from its client, whose next recv sees EOF and
  // next send takes EPIPE.
  for (const std::shared_ptr<Socket>& s : pending) {
    DetachPeer(*s);
    s->state = State::kClosed;
  }
  pending.clear();
  // Unhook the VFS node so a later connect(2) to the (still-linked) pathname
  // refuses instead of reaching a dead socket.
  if (bound_inode != nullptr && bound_inode->bound_socket.get() == this) {
    bound_inode->bound_socket.reset();
  }
  bound_inode.reset();
}

OpenFileRef MakeSocketFile(std::shared_ptr<Socket> socket) {
  auto file = std::make_shared<OpenFile>();
  if (socket->bound_inode != nullptr) {
    file->inode = socket->bound_inode;
  }
  file->backing = std::make_shared<SocketBacking>(std::move(socket));
  file->flags = kORdwr;
  return file;
}

// ---------------------------------------------------------------------------
// SocketBacking: the data plane (read()/write() and recv()/send() share it).
// ---------------------------------------------------------------------------

SyscallStatus SocketBacking::Read(Kernel& k, Process& p, OpenFile& f, char* buf, int64_t count,
                                  SyscallResult* rv, KernelLock& lk) {
  BigLock(k, lk);
  Socket& s = *socket_;
  if (s.state != Socket::State::kConnected) {
    return -kENotconn;
  }
  for (;;) {
    if (s.recv.size() > 0) {
      const int64_t n = s.recv.ReadSome(buf, count);
      p.host->clock().Merge(s.recv.stamp());
      rv->rv[0] = n;
      if (s.peer != nullptr) {
        s.peer->chan.Wakeup();  // the peer's send may be waiting for room
      }
      return static_cast<SyscallStatus>(n);
    }
    if (s.shut_rd) {
      rv->rv[0] = 0;
      return 0;  // reads after SHUT_RD drain then return EOF
    }
    if (s.peer_closed || s.peer == nullptr || s.peer->shut_wr) {
      rv->rv[0] = 0;
      return 0;  // EOF: the writing side is gone for good
    }
    const SyscallStatus slept = Sleep(p, s.chan, lk, SleepModeOf(f));
    if (slept != 0) {
      return slept;
    }
  }
}

SyscallStatus SocketBacking::Write(Kernel& k, Process& p, OpenFile& f, const char* buf,
                                   int64_t count, SyscallResult* rv, KernelLock& lk) {
  BigLock(k, lk);
  Socket& s = *socket_;
  if (s.state != Socket::State::kConnected) {
    return -kENotconn;
  }
  int64_t total = 0;
  for (;;) {
    if (s.shut_wr || s.peer_closed || s.peer == nullptr || s.peer->shut_rd) {
      PostSignal(k, p, kSigPipe);
      if (total > 0) {
        rv->rv[0] = total;
        return static_cast<SyscallStatus>(total);
      }
      return -kEPipe;
    }
    const int64_t n = s.peer->recv.WriteSome(buf + total, count - total);
    if (n > 0) {
      total += n;
      s.peer->recv.Stamp(p.host->clock().Now());
      s.peer->chan.Wakeup();
    }
    if (total == count) {
      rv->rv[0] = total;
      return static_cast<SyscallStatus>(total);
    }
    const SyscallStatus slept = Sleep(p, s.chan, lk, SleepModeOf(f));
    if (slept != 0) {
      if (total > 0) {
        rv->rv[0] = total;
        return static_cast<SyscallStatus>(total);
      }
      return slept;
    }
  }
}

SyscallStatus SocketBacking::Fstat(Kernel& k, OpenFile& f, Stat* st) {
  {
    // bind(2) sets f.inode under the tree lock held exclusively.
    std::shared_lock<RwLock> tree(k.fs().TreeMutex());
    if (f.inode != nullptr) {
      f.inode->FillStat(st);  // bound socket: the node carries the attributes
      return 0;
    }
  }
  KernelLock lk;  // an unbound endpoint's queue is big-lock state
  BigLock(k, lk);
  *st = Stat{};
  st->st_mode = kSIfsock | 0600;
  st->st_size = static_cast<Off>(socket_->recv.size());
  st->st_nlink = 1;
  return 0;
}

SyscallStatus SocketBacking::Lseek(Kernel& /*k*/, OpenFile& /*f*/, Off /*offset*/, int /*whence*/,
                                   SyscallResult* /*rv*/) {
  return -kESpipe;
}

// ---------------------------------------------------------------------------
// Kernel handlers.
// ---------------------------------------------------------------------------

namespace {

// Resolves a descriptor to its socket endpoint, or the BSD errno for why not.
SyscallStatus SocketOf(Process& p, int fd, OpenFileRef* file_out,
                       std::shared_ptr<Socket>* sock_out) {
  OpenFileRef file = p.fds.Get(fd);
  if (file == nullptr) {
    return -kEBadf;
  }
  if (file->backing->kind() != BackingKind::kSocket) {
    return -kENotsock;
  }
  *sock_out = static_cast<SocketBacking*>(file->backing.get())->socket();
  *file_out = std::move(file);
  return 0;
}

SyscallStatus CheckSocketArgs(int domain, int type, int protocol) {
  if (domain != kAfUnix) {
    return -kEAfnosupport;
  }
  if (type != kSockStream) {
    return -kEOpnotsupp;  // this subset implements the stream flavour only
  }
  if (protocol != 0) {
    return -kEOpnotsupp;
  }
  return 0;
}

}  // namespace

SyscallStatus Kernel::SysSocket(Process& p, const SyscallArgs& a, SyscallResult* rv,
                                Lock& lk) {
  const auto tree = BigLockAndTree(lk);
  const SyscallStatus check = CheckSocketArgs(a.Int(0), a.Int(1), a.Int(2));
  if (check != 0) {
    return check;
  }
  const int fd = p.fds.AllocateSlot();
  if (fd < 0) {
    return fd;
  }
  auto sock = std::make_shared<Socket>();
  sock->type = a.Int(1);
  p.fds.Set(fd, MakeSocketFile(std::move(sock)));
  rv->rv[0] = fd;
  return fd;
}

SyscallStatus Kernel::SysBind(Process& p, const SyscallArgs& a, SyscallResult* /*rv*/,
                              Lock& lk) {
  const auto tree = BigLockAndTree(lk);
  OpenFileRef file;
  std::shared_ptr<Socket> sock;
  const SyscallStatus resolve = SocketOf(p, a.Int(0), &file, &sock);
  if (resolve != 0) {
    return resolve;
  }
  std::string path;
  const SyscallStatus decode = ExtractSockPath(a.Ptr<const SockAddr>(1), a.Int(2), &path);
  if (decode != 0) {
    return decode;
  }
  if (sock->state != Socket::State::kUnbound) {
    return -kEInval;  // one address per socket lifetime (4.3BSD)
  }
  InodeRef node;
  const int err = fs_.MknodSocket(EnvOf(p), path, 0777 & ~p.umask_bits, &node);
  if (err == -kEExist) {
    return -kEAddrinuse;  // even a stale socket node blocks the name
  }
  if (err != 0) {
    return err;
  }
  node->bound_socket = sock;
  sock->bound_inode = node;
  sock->bound_path = path;
  sock->state = Socket::State::kBound;
  // The descriptor now has a named node behind it (fstat/flock identity).
  file->inode = node;
  return 0;
}

SyscallStatus Kernel::SysConnect(Process& p, const SyscallArgs& a, SyscallResult* /*rv*/,
                                 Lock& lk) {
  const auto tree = BigLockAndTree(lk);
  OpenFileRef file;
  std::shared_ptr<Socket> sock;
  const SyscallStatus resolve = SocketOf(p, a.Int(0), &file, &sock);
  if (resolve != 0) {
    return resolve;
  }
  std::string path;
  const SyscallStatus decode = ExtractSockPath(a.Ptr<const SockAddr>(1), a.Int(2), &path);
  if (decode != 0) {
    return decode;
  }
  if (sock->state == Socket::State::kConnected) {
    return -kEIsconn;
  }
  if (sock->state == Socket::State::kListening) {
    return -kEOpnotsupp;  // a listener cannot also be a client
  }
  NameiResult nr;
  const int err = fs_.Namei(EnvOf(p), path, NameiOp::kLookup, /*follow_final=*/true, &nr);
  if (err != 0) {
    return err;
  }
  if (!nr.inode->IsSocket()) {
    return -kENotsock;
  }
  if (!CredPermits(p.cred, nr.inode->uid, nr.inode->gid, nr.inode->mode_bits, kWOk)) {
    return -kEAcces;  // connecting writes into the server's queue
  }
  const std::shared_ptr<Socket> listener = nr.inode->bound_socket;
  if (listener == nullptr || listener->state != Socket::State::kListening) {
    return -kEConnrefused;  // node exists but nobody is (still) listening
  }
  if (static_cast<int>(listener->pending.size()) >= listener->backlog) {
    return -kEConnrefused;  // 4.3BSD refuses on a full backlog, no SYN retry
  }
  // Establish: mint the server-side endpoint and cross-link the pair. The
  // endpoint inherits the listener's name so the client's getpeername answers
  // the address it dialed.
  auto server_end = std::make_shared<Socket>();
  server_end->type = listener->type;
  server_end->state = Socket::State::kConnected;
  server_end->bound_path = listener->bound_path;
  server_end->peer = sock;
  sock->peer = server_end;
  sock->state = Socket::State::kConnected;
  listener->pending.push_back(std::move(server_end));
  listener->chan.Wakeup();
  return 0;
}

SyscallStatus Kernel::SysListen(Process& p, const SyscallArgs& a, SyscallResult* /*rv*/,
                                Lock& lk) {
  const auto tree = BigLockAndTree(lk);
  OpenFileRef file;
  std::shared_ptr<Socket> sock;
  const SyscallStatus resolve = SocketOf(p, a.Int(0), &file, &sock);
  if (resolve != 0) {
    return resolve;
  }
  if (sock->state != Socket::State::kBound && sock->state != Socket::State::kListening) {
    return -kEInval;  // must bind first; connected sockets cannot listen
  }
  sock->backlog = std::clamp(a.Int(1), 1, kSoMaxConn);
  sock->state = Socket::State::kListening;
  return 0;
}

SyscallStatus Kernel::SysAccept(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk) {
  BigLock(lk);
  OpenFileRef file;
  std::shared_ptr<Socket> sock;
  const SyscallStatus resolve = SocketOf(p, a.Int(0), &file, &sock);
  if (resolve != 0) {
    return resolve;
  }
  if (sock->state != Socket::State::kListening) {
    return -kEInval;
  }
  for (;;) {
    if (!sock->pending.empty()) {
      const int fd = p.fds.AllocateSlot();
      if (fd < 0) {
        return fd;  // connection stays queued; the caller may retry
      }
      std::shared_ptr<Socket> accepted = std::move(sock->pending.front());
      sock->pending.pop_front();
      // The peer (client) is usually anonymous; report whatever it bound.
      FillSockAddr(accepted->peer != nullptr ? accepted->peer->bound_path : std::string(),
                   a.Ptr<SockAddr>(1), a.Ptr<int>(2));
      p.fds.Set(fd, MakeSocketFile(std::move(accepted)));
      rv->rv[0] = fd;
      return fd;
    }
    const SyscallStatus slept = Sleep(p, sock->chan, lk, SleepModeOf(*file));
    if (slept != 0) {
      return slept;
    }
  }
}

SyscallStatus Kernel::SysSocketpair(Process& p, const SyscallArgs& a, SyscallResult* /*rv*/,
                                    Lock& lk) {
  const auto tree = BigLockAndTree(lk);
  const SyscallStatus check = CheckSocketArgs(a.Int(0), a.Int(1), a.Int(2));
  if (check != 0) {
    return check;
  }
  int* sv = a.Ptr<int>(3);
  if (sv == nullptr) {
    return -kEFault;
  }
  const int fd0 = p.fds.AllocateSlot();
  if (fd0 < 0) {
    return fd0;
  }
  const int fd1 = p.fds.AllocateSlot(fd0 + 1);
  if (fd1 < 0) {
    return fd1;
  }
  auto end0 = std::make_shared<Socket>();
  auto end1 = std::make_shared<Socket>();
  end0->type = end1->type = a.Int(1);
  end0->state = end1->state = Socket::State::kConnected;
  end0->peer = end1;
  end1->peer = end0;
  p.fds.Set(fd0, MakeSocketFile(std::move(end0)));
  p.fds.Set(fd1, MakeSocketFile(std::move(end1)));
  sv[0] = fd0;
  sv[1] = fd1;
  return 0;
}

// send/recv and their address-taking variants share the SocketBacking data
// plane with read/write; the wrappers add the socket-specific prologue
// (ENOTSOCK, flag validation, address handling).
namespace {

SyscallStatus TransferPrologue(Process& p, const SyscallArgs& a, OpenFileRef* file,
                               std::shared_ptr<Socket>* sock) {
  const SyscallStatus resolve = SocketOf(p, a.Int(0), file, sock);
  if (resolve != 0) {
    return resolve;
  }
  if (a.Int(3) != 0) {
    return -kEOpnotsupp;  // no MSG_* flags in this subset
  }
  if (a.Ptr<const void>(1) == nullptr) {
    return -kEFault;
  }
  if (a.Long(2) < 0) {
    return -kEInval;
  }
  return 0;
}

}  // namespace

SyscallStatus Kernel::SysSend(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk) {
  BigLock(lk);
  OpenFileRef file;
  std::shared_ptr<Socket> sock;
  const SyscallStatus pre = TransferPrologue(p, a, &file, &sock);
  if (pre != 0) {
    return pre;
  }
  if (a.Long(2) == 0) {
    rv->rv[0] = 0;
    return 0;
  }
  return file->backing->Write(*this, p, *file, a.Ptr<const char>(1), a.Long(2), rv, lk);
}

SyscallStatus Kernel::SysRecv(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk) {
  BigLock(lk);
  OpenFileRef file;
  std::shared_ptr<Socket> sock;
  const SyscallStatus pre = TransferPrologue(p, a, &file, &sock);
  if (pre != 0) {
    return pre;
  }
  if (a.Long(2) == 0) {
    rv->rv[0] = 0;
    return 0;
  }
  return file->backing->Read(*this, p, *file, a.Ptr<char>(1), a.Long(2), rv, lk);
}

SyscallStatus Kernel::SysSendto(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk) {
  BigLock(lk);
  OpenFileRef file;
  std::shared_ptr<Socket> sock;
  const SyscallStatus pre = TransferPrologue(p, a, &file, &sock);
  if (pre != 0) {
    return pre;
  }
  if (a.Ptr<const SockAddr>(4) != nullptr) {
    // Stream sockets carry their destination in the connection.
    return sock->state == Socket::State::kConnected ? -kEIsconn : -kENotconn;
  }
  if (a.Long(2) == 0) {
    rv->rv[0] = 0;
    return 0;
  }
  return file->backing->Write(*this, p, *file, a.Ptr<const char>(1), a.Long(2), rv, lk);
}

SyscallStatus Kernel::SysRecvfrom(Process& p, const SyscallArgs& a, SyscallResult* rv, Lock& lk) {
  BigLock(lk);
  OpenFileRef file;
  std::shared_ptr<Socket> sock;
  const SyscallStatus pre = TransferPrologue(p, a, &file, &sock);
  if (pre != 0) {
    return pre;
  }
  SyscallStatus status = 0;
  if (a.Long(2) == 0) {
    rv->rv[0] = 0;
  } else {
    status = file->backing->Read(*this, p, *file, a.Ptr<char>(1), a.Long(2), rv, lk);
  }
  if (status >= 0) {
    FillSockAddr(sock->peer != nullptr ? sock->peer->bound_path : std::string(),
                 a.Ptr<SockAddr>(4), a.Ptr<int>(5));
  }
  return status;
}

SyscallStatus Kernel::SysGetsockname(Process& p, const SyscallArgs& a, SyscallResult* /*rv*/,
                                     Lock& lk) {
  const auto tree = BigLockAndTree(lk);
  OpenFileRef file;
  std::shared_ptr<Socket> sock;
  const SyscallStatus resolve = SocketOf(p, a.Int(0), &file, &sock);
  if (resolve != 0) {
    return resolve;
  }
  if (a.Ptr<SockAddr>(1) == nullptr || a.Ptr<int>(2) == nullptr) {
    return -kEFault;
  }
  FillSockAddr(sock->bound_path, a.Ptr<SockAddr>(1), a.Ptr<int>(2));
  return 0;
}

SyscallStatus Kernel::SysGetpeername(Process& p, const SyscallArgs& a, SyscallResult* /*rv*/,
                                     Lock& lk) {
  const auto tree = BigLockAndTree(lk);
  OpenFileRef file;
  std::shared_ptr<Socket> sock;
  const SyscallStatus resolve = SocketOf(p, a.Int(0), &file, &sock);
  if (resolve != 0) {
    return resolve;
  }
  if (sock->state != Socket::State::kConnected || sock->peer == nullptr) {
    return -kENotconn;
  }
  if (a.Ptr<SockAddr>(1) == nullptr || a.Ptr<int>(2) == nullptr) {
    return -kEFault;
  }
  FillSockAddr(sock->peer->bound_path, a.Ptr<SockAddr>(1), a.Ptr<int>(2));
  return 0;
}

SyscallStatus Kernel::SysShutdown(Process& p, const SyscallArgs& a, SyscallResult* /*rv*/,
                                  Lock& lk) {
  const auto tree = BigLockAndTree(lk);
  OpenFileRef file;
  std::shared_ptr<Socket> sock;
  const SyscallStatus resolve = SocketOf(p, a.Int(0), &file, &sock);
  if (resolve != 0) {
    return resolve;
  }
  const int how = a.Int(1);
  if (how != kShutRd && how != kShutWr && how != kShutRdWr) {
    return -kEInval;
  }
  if (sock->state != Socket::State::kConnected) {
    return -kENotconn;
  }
  if (how == kShutRd || how == kShutRdWr) {
    sock->shut_rd = true;
  }
  if (how == kShutWr || how == kShutRdWr) {
    sock->shut_wr = true;
  }
  sock->chan.Wakeup();  // either bit ends sleeps on both ends
  if (sock->peer != nullptr) {
    sock->peer->chan.Wakeup();
  }
  return 0;
}

}  // namespace ia
