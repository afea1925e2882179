// Virtual and wall clocks.
//
// The simulated kernel keeps a *virtual* microsecond clock so tests and the
// paper-shape cost model are deterministic: each simulated system call advances
// virtual time by a modeled cost. Benchmarks additionally measure real wall time.
#ifndef SRC_BASE_CLOCK_H_
#define SRC_BASE_CLOCK_H_

#include <atomic>
#include <cstdint>

namespace ia {

// Microseconds since the virtual epoch.
using VirtualMicros = int64_t;

// A monotonically advancing virtual clock with one writer, the thread that
// owns it; any thread may read it. A write is a relaxed load plus a store,
// not a read-modify-write, so the owner's advances never leave its core's
// cache. Two writers would lose updates: cross-owner time moves through
// Merge, run by the owner on a stamp the other side left behind.
class VirtualClock {
 public:
  explicit VirtualClock(VirtualMicros epoch_micros = 0) : now_(epoch_micros) {}

  VirtualMicros Now() const { return now_.load(std::memory_order_relaxed); }
  void Advance(VirtualMicros delta) { Set(Now() + delta); }
  void Set(VirtualMicros now) { now_.store(now, std::memory_order_relaxed); }
  // Lamport's receive rule: the clock becomes the later of itself and `stamp`.
  void Merge(VirtualMicros stamp) {
    if (stamp > Now()) {
      Set(stamp);
    }
  }

 private:
  std::atomic<VirtualMicros> now_;
};

// The clock of the host thread this thread is, or null on any other thread.
// A host thread binds its own clock for its lifetime, so code below the
// kernel (the filesystem's timestamps) reads the caller's time without being
// handed it.
namespace clock_internal {
extern constinit thread_local const VirtualClock* t_clock;
}  // namespace clock_internal
inline const VirtualClock* ThreadClock() { return clock_internal::t_clock; }
inline void BindThreadClock(const VirtualClock* clock) { clock_internal::t_clock = clock; }

// Returns wall-clock microseconds from a steady monotonic source.
int64_t MonotonicMicros();

}  // namespace ia

#endif  // SRC_BASE_CLOCK_H_
