// A mutex in one 32-bit word, for objects that exist by the thousand
// (std::mutex is 40 bytes; ringmix builds about 8.5k inodes per world).
//
// The word is 0 when free, 1 when held, 2 when held with waiters; a waiter
// parks in std::atomic::wait, a futex wait on Linux, and unlock wakes one
// only when the word said 2. This is "mutex 2" of Drepper, "Futexes Are
// Tricky". It meets the Lockable requirements, so std::lock_guard and
// std::unique_lock take it.
#ifndef SRC_BASE_WORD_MUTEX_H_
#define SRC_BASE_WORD_MUTEX_H_

#include <atomic>
#include <cstdint>

namespace ia {

class WordMutex {
 public:
  void lock() {
    uint32_t seen = 0;
    if (state_.compare_exchange_strong(seen, 1, std::memory_order_acquire)) {
      return;
    }
    if (seen != 2) {
      seen = state_.exchange(2, std::memory_order_acquire);
    }
    while (seen != 0) {
      state_.wait(2, std::memory_order_relaxed);
      seen = state_.exchange(2, std::memory_order_acquire);
    }
  }
  bool try_lock() {
    uint32_t seen = 0;
    return state_.compare_exchange_strong(seen, 1, std::memory_order_acquire);
  }
  void unlock() {
    if (state_.exchange(0, std::memory_order_release) == 2) {
      state_.notify_one();
    }
  }

 private:
  std::atomic<uint32_t> state_{0};
};

}  // namespace ia

#endif  // SRC_BASE_WORD_MUTEX_H_
