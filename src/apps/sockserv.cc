// The client/server scenario pair over AF_UNIX sockets: a request/reply echo
// server and a client that dials it. Both speak only through their
// ProcessContext, so socket-layer agents (proxy/firewall, retry, chaos) see
// exactly the call streams a 4.3BSD client/server pair generated.
//
//   sockserv <path> <nclients>   bind+listen at <path>, serve nclients
//                                connections sequentially, then exit
//   sockclient <path> <message>  connect (retrying until the listener is up),
//                                send <message>, print the reply to stdout
//
// Protocol: the client sends its request and half-closes (shutdown SHUT_WR);
// the server reads to EOF, replies with "ok:" + request, and closes.
#include <algorithm>
#include <cstdlib>

#include "src/apps/apps.h"
#include "src/base/strings.h"

namespace ia {
namespace {

int SockFail(ProcessContext& ctx, const std::string& who, const std::string& what, int err) {
  ctx.WriteString(2, StringPrintf("%s: %s: %s\n", who.c_str(), what.c_str(),
                                  std::string(ErrnoName(-err)).c_str()));
  return 1;
}

// Reads from `fd` until EOF or error; appends into `out`. Returns 0 or errno.
int ReadAll(ProcessContext& ctx, int fd, std::string* out) {
  char buf[512];
  for (;;) {
    const int64_t n = ctx.Recv(fd, buf, sizeof(buf));
    if (n < 0) {
      return static_cast<int>(n);
    }
    if (n == 0) {
      return 0;
    }
    out->append(buf, static_cast<size_t>(n));
  }
}

// Writes all of `data` to `fd`, resuming short sends. Returns 0 or errno.
int SendAll(ProcessContext& ctx, int fd, const std::string& data) {
  int64_t done = 0;
  while (done < static_cast<int64_t>(data.size())) {
    const int64_t n = ctx.Send(fd, data.data() + done, static_cast<int64_t>(data.size()) - done);
    if (n < 0) {
      return static_cast<int>(n);
    }
    done += n;
  }
  return 0;
}

}  // namespace

int SockServMain(ProcessContext& ctx) {
  if (ctx.argv().size() < 3) {
    ctx.WriteString(2, "usage: sockserv <path> <nclients>\n");
    return 2;
  }
  const std::string& path = ctx.argv()[1];
  const int nclients = std::max(1, std::atoi(ctx.argv()[2].c_str()));

  const int lfd = ctx.Socket(kAfUnix, kSockStream, 0);
  if (lfd < 0) {
    return SockFail(ctx, "sockserv", "socket", lfd);
  }
  int err = ctx.BindUnix(lfd, path);
  if (err < 0) {
    return SockFail(ctx, "sockserv", path, err);
  }
  err = ctx.Listen(lfd, kSoMaxConn);
  if (err < 0) {
    return SockFail(ctx, "sockserv", "listen", err);
  }
  for (int served = 0; served < nclients; ++served) {
    const int cfd = ctx.Accept(lfd);
    if (cfd == -kEIntr) {
      --served;  // a signal is not a connection
      continue;
    }
    if (cfd < 0) {
      return SockFail(ctx, "sockserv", "accept", cfd);
    }
    std::string request;
    err = ReadAll(ctx, cfd, &request);
    if (err == 0) {
      err = SendAll(ctx, cfd, "ok:" + request);
    }
    ctx.Close(cfd);
    if (err != 0 && err != -kEPipe) {
      return SockFail(ctx, "sockserv", "serve", err);
    }
  }
  ctx.Close(lfd);
  // Leave the bound node for the owner to unlink, as 4.3BSD servers did.
  return 0;
}

int SockClientMain(ProcessContext& ctx) {
  if (ctx.argv().size() < 3) {
    ctx.WriteString(2, "usage: sockclient <path> <message>\n");
    return 2;
  }
  const std::string& path = ctx.argv()[1];
  const std::string& message = ctx.argv()[2];

  // Dial until the listener exists: the server may not have bound yet
  // (ENOENT), or may be bound but mid-setup or backlogged (ECONNREFUSED).
  int fd = -1;
  for (int attempt = 0; attempt < 20000; ++attempt) {
    fd = ctx.Socket(kAfUnix, kSockStream, 0);
    if (fd < 0) {
      return SockFail(ctx, "sockclient", "socket", fd);
    }
    const int err = ctx.ConnectUnix(fd, path);
    if (err == 0) {
      break;
    }
    ctx.Close(fd);
    fd = -1;
    if (err != -kENoent && err != -kEConnrefused && err != -kEIntr) {
      return SockFail(ctx, "sockclient", path, err);
    }
    // Compute charges virtual time only; the yield keeps a spinning dialer
    // from starving the listener, which may share its host thread.
    ctx.Compute(500);
    ctx.Yield();
  }
  if (fd < 0) {
    return SockFail(ctx, "sockclient", path, -kEConnrefused);
  }

  int err = SendAll(ctx, fd, message);
  if (err != 0) {
    return SockFail(ctx, "sockclient", "send", err);
  }
  err = ctx.Shutdown(fd, kShutWr);  // half-close: our request is complete
  if (err < 0) {
    return SockFail(ctx, "sockclient", "shutdown", err);
  }
  std::string reply;
  err = ReadAll(ctx, fd, &reply);
  if (err != 0) {
    return SockFail(ctx, "sockclient", "recv", err);
  }
  ctx.Close(fd);
  if (reply != "ok:" + message) {
    ctx.WriteString(2, StringPrintf("sockclient: bad reply \"%s\"\n", reply.c_str()));
    return 1;
  }
  ctx.WriteString(1, reply + "\n");
  return 0;
}

}  // namespace ia
