#include "src/base/clock.h"

#include <chrono>

namespace ia {

constinit thread_local const VirtualClock* clock_internal::t_clock = nullptr;

int64_t MonotonicMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace ia
