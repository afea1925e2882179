// Bounded pipe buffer with 4.3BSD semantics (4KB capacity, EOF on writer close,
// EPIPE/SIGPIPE on reader close), guarded by the kernel big lock. Blocked
// readers and writers sleep on `chan`; PipeBacking wakes it on every transfer
// and on each end's close. A write stamps the buffer with the writer's
// virtual time, and a read merges the stamp into the reader's host clock,
// so a reader on another host never reads bytes from its own past.
#ifndef SRC_KERNEL_PIPE_H_
#define SRC_KERNEL_PIPE_H_

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "src/base/clock.h"
#include "src/kernel/fiber.h"
#include "src/kernel/types.h"

namespace ia {

// A fixed-capacity contiguous ring of bytes: at most two memcpy calls per
// transfer, no per-byte container churn on the pipe/socket data plane. Shared
// by Pipe and the AF_UNIX socket receive queue.
class ByteRing {
 public:
  static constexpr size_t kCapacity = 4096;

  size_t size() const { return count_; }
  size_t space() const { return kCapacity - count_; }

  // Transfers up to min(count, space); returns bytes accepted.
  int64_t WriteSome(const char* buf, int64_t count) {
    if (count <= 0) {
      return 0;
    }
    const size_t n = std::min(static_cast<size_t>(count), space());
    const size_t tail = (head_ + count_) % kCapacity;
    const size_t first = std::min(n, kCapacity - tail);
    std::memcpy(buf_ + tail, buf, first);
    std::memcpy(buf_, buf + first, n - first);
    count_ += n;
    return static_cast<int64_t>(n);
  }

  // Transfers up to min(count, buffered); returns bytes copied out.
  int64_t ReadSome(char* buf, int64_t count) {
    if (count <= 0) {
      return 0;
    }
    const size_t n = std::min(static_cast<size_t>(count), count_);
    const size_t first = std::min(n, kCapacity - head_);
    std::memcpy(buf, buf_ + head_, first);
    std::memcpy(buf + first, buf_, n - first);
    head_ = (head_ + n) % kCapacity;
    count_ -= n;
    return static_cast<int64_t>(n);
  }

  // The latest writer's virtual time, a Lamport message stamp.
  void Stamp(VirtualMicros now) { stamp_ = std::max(stamp_, now); }
  VirtualMicros stamp() const { return stamp_; }

 private:
  char buf_[kCapacity];
  size_t head_ = 0;   // index of the oldest buffered byte
  size_t count_ = 0;  // bytes buffered
  VirtualMicros stamp_ = 0;
};

class Pipe {
 public:
  static constexpr size_t kCapacity = ByteRing::kCapacity;

  size_t BytesBuffered() const { return ring_.size(); }
  size_t SpaceAvailable() const { return ring_.space(); }

  // Transfers up to min(count, space); returns bytes accepted.
  int64_t WriteSome(const char* buf, int64_t count) {
    const int64_t n = ring_.WriteSome(buf, count);
    total_written_ += n;
    return n;
  }

  // Transfers up to min(count, buffered); returns bytes copied out.
  int64_t ReadSome(char* buf, int64_t count) { return ring_.ReadSome(buf, count); }

  void Stamp(VirtualMicros now) { ring_.Stamp(now); }
  VirtualMicros stamp() const { return ring_.stamp(); }

  int readers = 0;  // open read ends (struct-file granularity)
  int writers = 0;  // open write ends
  WaitChannel chan;

  int64_t total_written() const { return total_written_; }

 private:
  ByteRing ring_;
  int64_t total_written_ = 0;
};

}  // namespace ia

#endif  // SRC_KERNEL_PIPE_H_
