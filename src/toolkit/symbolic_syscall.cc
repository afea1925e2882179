// Toolkit layer 1 — generated from the syscall specification table.
//
// Both halves of this file (the number->method decode and the default method
// stubs) are expanded from src/kernel/syscalls.def, so adding a row there is
// all it takes to surface a new call at the symbolic layer: the kind tokens in
// the row pick the SyscallArgs extractor (IA_ARG_GET_*) and the C++ parameter
// type (IA_ARG_TYPE_*) below. Only the handwritten declarations in
// symbolic_syscall.h (which name the parameters for documentation) are kept by
// hand, and the table-completeness test pins the two in sync.
#include "src/toolkit/symbolic_syscall.h"

namespace ia {

// Kind tokens -> SyscallArgs extractors (how a raw 64-bit slot becomes a typed
// argument).
#define IA_ARG_GET_Fd(a, i) (a).Int(i)
#define IA_ARG_GET_Int(a, i) (a).Int(i)
#define IA_ARG_GET_Long(a, i) (a).Long(i)
#define IA_ARG_GET_U64(a, i) (a).U64(i)
#define IA_ARG_GET_Flags(a, i) (a).Int(i)
#define IA_ARG_GET_Mode(a, i) static_cast<Mode>((a).Int(i))
#define IA_ARG_GET_Uid(a, i) (a).Int(i)
#define IA_ARG_GET_Gid(a, i) (a).Int(i)
#define IA_ARG_GET_Off(a, i) (a).Long(i)
#define IA_ARG_GET_Pid(a, i) (a).Int(i)
#define IA_ARG_GET_Dev(a, i) (a).Int(i)
#define IA_ARG_GET_Sig(a, i) (a).Int(i)
#define IA_ARG_GET_Mask(a, i) static_cast<uint32_t>((a).U64(i))
#define IA_ARG_GET_UPtr(a, i) static_cast<uintptr_t>((a).U64(i))
#define IA_ARG_GET_Path(a, i) (a).Ptr<const char>(i)
#define IA_ARG_GET_Str(a, i) (a).Ptr<const char>(i)
#define IA_ARG_GET_BufIn(a, i) (a).Ptr<const void>(i)
#define IA_ARG_GET_BufOut(a, i) (a).Ptr<void>(i)
#define IA_ARG_GET_CharBuf(a, i) (a).Ptr<char>(i)
#define IA_ARG_GET_VoidPtr(a, i) (a).Ptr<void>(i)
#define IA_ARG_GET_StatPtr(a, i) (a).Ptr<Stat>(i)
#define IA_ARG_GET_RusagePtr(a, i) (a).Ptr<Rusage>(i)
#define IA_ARG_GET_IntPtr(a, i) (a).Ptr<int>(i)
#define IA_ARG_GET_LongPtr(a, i) (a).Ptr<int64_t>(i)
#define IA_ARG_GET_TvPtr(a, i) (a).Ptr<TimeVal>(i)
#define IA_ARG_GET_CTvPtr(a, i) (a).Ptr<const TimeVal>(i)
#define IA_ARG_GET_TzPtr(a, i) (a).Ptr<TimeZone>(i)
#define IA_ARG_GET_CTzPtr(a, i) (a).Ptr<const TimeZone>(i)
#define IA_ARG_GET_GidPtr(a, i) (a).Ptr<Gid>(i)
#define IA_ARG_GET_CGidPtr(a, i) (a).Ptr<const Gid>(i)
#define IA_ARG_GET_IoVecPtr(a, i) (a).Ptr<const IoVec>(i)
#define IA_ARG_GET_SockAddrPtr(a, i) (a).Ptr<SockAddr>(i)
#define IA_ARG_GET_CSockAddrPtr(a, i) (a).Ptr<const SockAddr>(i)

// Kind tokens -> C++ parameter types (must match the handwritten declarations
// in symbolic_syscall.h).
#define IA_ARG_TYPE_Fd int
#define IA_ARG_TYPE_Int int
#define IA_ARG_TYPE_Long int64_t
#define IA_ARG_TYPE_U64 uint64_t
#define IA_ARG_TYPE_Flags int
#define IA_ARG_TYPE_Mode Mode
#define IA_ARG_TYPE_Uid Uid
#define IA_ARG_TYPE_Gid Gid
#define IA_ARG_TYPE_Off Off
#define IA_ARG_TYPE_Pid Pid
#define IA_ARG_TYPE_Dev Dev
#define IA_ARG_TYPE_Sig int
#define IA_ARG_TYPE_Mask uint32_t
#define IA_ARG_TYPE_UPtr uintptr_t
#define IA_ARG_TYPE_Path const char*
#define IA_ARG_TYPE_Str const char*
#define IA_ARG_TYPE_BufIn const void*
#define IA_ARG_TYPE_BufOut void*
#define IA_ARG_TYPE_CharBuf char*
#define IA_ARG_TYPE_VoidPtr void*
#define IA_ARG_TYPE_StatPtr Stat*
#define IA_ARG_TYPE_RusagePtr Rusage*
#define IA_ARG_TYPE_IntPtr int*
#define IA_ARG_TYPE_LongPtr int64_t*
#define IA_ARG_TYPE_TvPtr TimeVal*
#define IA_ARG_TYPE_CTvPtr const TimeVal*
#define IA_ARG_TYPE_TzPtr TimeZone*
#define IA_ARG_TYPE_CTzPtr const TimeZone*
#define IA_ARG_TYPE_GidPtr Gid*
#define IA_ARG_TYPE_CGidPtr const Gid*
#define IA_ARG_TYPE_IoVecPtr const IoVec*
#define IA_ARG_TYPE_SockAddrPtr SockAddr*
#define IA_ARG_TYPE_CSockAddrPtr const SockAddr*

void SymbolicSyscall::use_footprint(const Footprint& fp) {
  std::lock_guard<std::mutex> lock(footprint_mu_);
  footprint_ = fp;
  has_footprint_ = true;
}

bool SymbolicSyscall::use_footprint(ProcessContext& ctx, const Footprint& fp) {
  // Record for future installs (fork children inherit the new shape), then
  // rewrite the live frame: AgentHost::Refootprint swaps the interest sets in
  // place and bumps the stack generation, so the very next call dispatches on
  // a freshly compiled route.
  use_footprint(fp);
  return AgentHost::Refootprint(ctx, this, fp.numbers(), fp.signals());
}

void SymbolicSyscall::init(ProcessContext& /*ctx*/) {
  // Resolve the declared footprint against the table into concrete interest.
  // The layer default is the whole interface; narrowed layers and agents pay
  // only for the rows they declared — everything else skips this frame and
  // goes straight to its kernel handler.
  Footprint fp;
  {
    std::lock_guard<std::mutex> lock(footprint_mu_);
    fp = has_footprint_ ? footprint_ : default_footprint();
  }
  if (fp.numbers().all()) {
    register_interest_all();
  } else {
    for (int n = 0; n < kMaxSyscall; ++n) {
      if (fp.Contains(n)) {
        register_interest(n);
      }
    }
  }
  for (int signo = 1; signo < kNumSignals; ++signo) {
    if ((fp.signals() & SigMask(signo)) != 0) {
      register_signal_interest(signo);
    }
  }
}

SyscallStatus SymbolicSyscall::syscall(AgentCall& call) {
  const SyscallArgs& a = call.args();
  switch (call.number()) {
#define IA_GET(k, i) IA_ARG_GET_##k(a, i)
#define IA_SYSCALL0(num, name, handler, flags, cost) \
  case num:                                          \
    return sys_##name(call);
#define IA_SYSCALL1(num, name, handler, flags, cost, k0) \
  case num:                                              \
    return sys_##name(call, IA_GET(k0, 0));
#define IA_SYSCALL2(num, name, handler, flags, cost, k0, k1) \
  case num:                                                  \
    return sys_##name(call, IA_GET(k0, 0), IA_GET(k1, 1));
#define IA_SYSCALL3(num, name, handler, flags, cost, k0, k1, k2) \
  case num:                                                      \
    return sys_##name(call, IA_GET(k0, 0), IA_GET(k1, 1), IA_GET(k2, 2));
#define IA_SYSCALL4(num, name, handler, flags, cost, k0, k1, k2, k3) \
  case num:                                                          \
    return sys_##name(call, IA_GET(k0, 0), IA_GET(k1, 1), IA_GET(k2, 2), IA_GET(k3, 3));
#define IA_SYSCALL5(num, name, handler, flags, cost, k0, k1, k2, k3, k4)                    \
  case num:                                                                                 \
    return sys_##name(call, IA_GET(k0, 0), IA_GET(k1, 1), IA_GET(k2, 2), IA_GET(k3, 3),     \
                      IA_GET(k4, 4));
#define IA_SYSCALL6(num, name, handler, flags, cost, k0, k1, k2, k3, k4, k5)                \
  case num:                                                                                 \
    return sys_##name(call, IA_GET(k0, 0), IA_GET(k1, 1), IA_GET(k2, 2), IA_GET(k3, 3),     \
                      IA_GET(k4, 4), IA_GET(k5, 5));
#define IA_SYSCALL_ALIAS0(num, name, target, handler, flags, cost) \
  case num:                                                        \
    return sys_##target(call);
#define IA_SYSCALL_ALIAS1(num, name, target, handler, flags, cost, k0) \
  case num:                                                            \
    return sys_##target(call, IA_GET(k0, 0));
#define IA_SYSCALL_ALIAS3(num, name, target, handler, flags, cost, k0, k1, k2) \
  case num:                                                                    \
    return sys_##target(call, IA_GET(k0, 0), IA_GET(k1, 1), IA_GET(k2, 2));
#define IA_SYSCALL_ALIAS4(num, name, target, handler, flags, cost, k0, k1, k2, k3) \
  case num:                                                                        \
    return sys_##target(call, IA_GET(k0, 0), IA_GET(k1, 1), IA_GET(k2, 2), IA_GET(k3, 3));
#define IA_SYSCALL_UNIMPL(num, name, flags)
#include "src/kernel/syscalls.def"
#undef IA_GET
    default:
      return unknown_syscall(call);
  }
}

// Default method stubs: every decoded method funnels into sys_generic(), whose
// default is transparent pass-through. An agent that wants a per-call hook for
// calls it does not otherwise treat specially overrides sys_generic(). Alias
// rows share their target's method, so they expand to nothing here.
#define IA_T(k) IA_ARG_TYPE_##k
#define IA_SYSCALL0(num, name, handler, flags, cost) \
  SyscallStatus SymbolicSyscall::sys_##name(AgentCall& call) { return sys_generic(call); }
#define IA_SYSCALL1(num, name, handler, flags, cost, k0)             \
  SyscallStatus SymbolicSyscall::sys_##name(AgentCall& call, IA_T(k0)) { \
    return sys_generic(call);                                        \
  }
#define IA_SYSCALL2(num, name, handler, flags, cost, k0, k1)                   \
  SyscallStatus SymbolicSyscall::sys_##name(AgentCall& call, IA_T(k0), IA_T(k1)) { \
    return sys_generic(call);                                                  \
  }
#define IA_SYSCALL3(num, name, handler, flags, cost, k0, k1, k2)                         \
  SyscallStatus SymbolicSyscall::sys_##name(AgentCall& call, IA_T(k0), IA_T(k1), IA_T(k2)) { \
    return sys_generic(call);                                                            \
  }
#define IA_SYSCALL4(num, name, handler, flags, cost, k0, k1, k2, k3)                  \
  SyscallStatus SymbolicSyscall::sys_##name(AgentCall& call, IA_T(k0), IA_T(k1), IA_T(k2), \
                                            IA_T(k3)) {                               \
    return sys_generic(call);                                                         \
  }
#define IA_SYSCALL5(num, name, handler, flags, cost, k0, k1, k2, k3, k4)                   \
  SyscallStatus SymbolicSyscall::sys_##name(AgentCall& call, IA_T(k0), IA_T(k1), IA_T(k2), \
                                            IA_T(k3), IA_T(k4)) {                          \
    return sys_generic(call);                                                              \
  }
#define IA_SYSCALL6(num, name, handler, flags, cost, k0, k1, k2, k3, k4, k5)               \
  SyscallStatus SymbolicSyscall::sys_##name(AgentCall& call, IA_T(k0), IA_T(k1), IA_T(k2), \
                                            IA_T(k3), IA_T(k4), IA_T(k5)) {                \
    return sys_generic(call);                                                              \
  }
#define IA_SYSCALL_ALIAS0(num, name, target, handler, flags, cost)
#define IA_SYSCALL_ALIAS1(num, name, target, handler, flags, cost, k0)
#define IA_SYSCALL_ALIAS3(num, name, target, handler, flags, cost, k0, k1, k2)
#define IA_SYSCALL_ALIAS4(num, name, target, handler, flags, cost, k0, k1, k2, k3)
#define IA_SYSCALL_UNIMPL(num, name, flags)
#include "src/kernel/syscalls.def"
#undef IA_T

}  // namespace ia
