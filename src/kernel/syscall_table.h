// The runtime view of src/kernel/syscalls.def — one SyscallSpec per syscall
// number, carrying the name, argument kinds, abstraction-class flags, and the
// default virtual-clock cost. Every layer that needs to enumerate or classify
// the system interface (kernel dispatch, ktrace's file-reference filter, the
// layer-1 decoder, trace formatting, the monitor agent) consumes this table
// instead of keeping its own switch.
#ifndef SRC_KERNEL_SYSCALL_TABLE_H_
#define SRC_KERNEL_SYSCALL_TABLE_H_

#include <array>
#include <string>
#include <string_view>

#include "src/kernel/types.h"

namespace ia {

// Abstraction-class flags (paper Section 2.3: the interface collapses into a
// few classes — pathname calls, descriptor calls, process management, signal
// management). A call may belong to several classes.
inline constexpr uint32_t kTakesPath = 1u << 0;      // first Path/Str argument names a file
inline constexpr uint32_t kTakesFd = 1u << 1;        // argument 0 is a descriptor
inline constexpr uint32_t kProcess = 1u << 2;        // process management
inline constexpr uint32_t kSignalRelated = 1u << 3;  // signal management
inline constexpr uint32_t kBlocking = 1u << 4;       // may sleep in the kernel
inline constexpr uint32_t kFileRef = 1u << 5;        // in DFSTrace's file-reference set
inline constexpr uint32_t kImplemented = 1u << 6;    // has a kernel handler + decode arm
inline constexpr uint32_t kAlias = 1u << 7;          // shares another row's method/handler
// The socket interface class (paper Section 2.3's descriptor calls, restricted
// to the AF_UNIX rows): socket-layer agents build their footprint from this
// flag.
inline constexpr uint32_t kSocketClass = 1u << 8;

// Default virtual-clock cost for calls the paper's Table 3-5 did not measure.
inline constexpr int32_t kDefaultSyscallCost = 150;

// Argument kinds, mirroring the kind tokens in syscalls.def one-for-one.
enum class ArgKind : uint8_t {
  kNone,
  kFd,
  kInt,
  kLong,
  kU64,
  kFlags,
  kMode,
  kUid,
  kGid,
  kOff,
  kPid,
  kDev,
  kSig,
  kMask,
  kUPtr,
  kPath,
  kStr,
  kBufIn,
  kBufOut,
  kCharBuf,
  kVoidPtr,
  kStatPtr,
  kRusagePtr,
  kIntPtr,
  kLongPtr,
  kTvPtr,
  kCTvPtr,
  kTzPtr,
  kCTzPtr,
  kGidPtr,
  kCGidPtr,
  kIoVecPtr,
  kSockAddrPtr,   // struct SockAddr* the kernel writes (accept, getsockname)
  kCSockAddrPtr,  // const struct SockAddr* the caller provides (bind, connect)
};

struct SyscallSpec {
  int16_t number = -1;
  int16_t nargs = 0;
  uint32_t flags = 0;
  int32_t default_cost_usec = kDefaultSyscallCost;
  int8_t path_arg = -1;  // index of the first Path/Str argument, or -1
  std::string_view name;  // "#<n>" for numbers with no 4.3BSD name
  std::array<ArgKind, kMaxSyscallArgs> args{};
};

// O(1) lookup; any int is safe (out-of-range numbers get a placeholder spec).
const SyscallSpec& SyscallSpecOf(int number);

// Generic "name(arg, arg, ...)" formatter driven by the arg-kind metadata;
// the trace agent's fallback for calls without a hand-written formatter.
// Unimplemented numbers format their first three raw args in hex.
std::string FormatSyscall(int number, const SyscallArgs& args);

}  // namespace ia

#endif  // SRC_KERNEL_SYSCALL_TABLE_H_
