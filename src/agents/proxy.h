// The socket proxy/firewall agent: transparently mediates AF_UNIX rendezvous.
//
// The paper's agents interpose on the pathname abstraction; this one applies
// the same idea to the socket address space. Installed between a client and
// the kernel it rewrites socket addresses (so an unmodified client dialing
// /srv/db reaches the interposed endpoint the embedder actually runs) and
// refuses addresses matching a deny list (a descriptor-granularity firewall).
// The footprint is exactly the kSocketClass interest class, so file traffic never
// enters the agent.
#ifndef SRC_AGENTS_PROXY_H_
#define SRC_AGENTS_PROXY_H_

#include <atomic>
#include <string>
#include <utility>
#include <vector>

#include "src/toolkit/toolkit.h"

namespace ia {

struct ProxyPolicy {
  // Longest-matching prefix rewrite applied to connect/bind/sendto addresses:
  // an address equal to `first` or below it re-roots onto `second`.
  std::vector<std::pair<std::string, std::string>> rewrites;

  // Addresses (after rewrite) the client may not dial; matching connects and
  // sendtos fail ECONNREFUSED, matching binds fail EACCES — indistinguishable
  // from a dead peer / a protected directory.
  std::vector<std::string> deny_prefixes;
};

class ProxyAgent final : public SymbolicSyscall {
 public:
  explicit ProxyAgent(ProxyPolicy policy) : policy_(std::move(policy)) {}

  std::string name() const override { return "proxy"; }

  int64_t rewrites() const { return rewrites_.load(std::memory_order_relaxed); }
  int64_t denials() const { return denials_.load(std::memory_order_relaxed); }

 protected:
  Footprint default_footprint() const override { return Footprint::Sockets(); }

  SyscallStatus sys_bind(AgentCall& call, int fd, const SockAddr* addr, int addrlen) override;
  SyscallStatus sys_connect(AgentCall& call, int fd, const SockAddr* addr, int addrlen) override;
  SyscallStatus sys_sendto(AgentCall& call, int fd, const void* buf, int64_t cnt, int flags,
                           const SockAddr* addr, int addrlen) override;

 private:
  // Applies the rewrite map to the pathname in `addr`. Returns true and fills
  // `out`/`out_len` when the call must proceed with a substituted address;
  // false means pass the original through. Sets `*denied` when the (possibly
  // rewritten) address matches the deny list.
  bool MapAddress(const SockAddr* addr, int addrlen, SockAddr* out, int* out_len,
                  bool* denied);

  // Rewrites the sockaddr argument at `arg_index` and forwards the call.
  SyscallStatus ForwardMapped(AgentCall& call, int arg_index, const SockAddr* addr, int addrlen,
                              SyscallStatus deny_status);

  ProxyPolicy policy_;
  std::atomic<int64_t> rewrites_{0};
  std::atomic<int64_t> denials_{0};
};

}  // namespace ia

#endif  // SRC_AGENTS_PROXY_H_
