// A reader/writer lock that prefers writers and spins briefly before it
// parks.
//
// std::shared_mutex is glibc's default pthread_rwlock, which prefers
// readers: a new reader gets in while a writer waits. Under a steady stream
// of shared holders an exclusive acquirer can then wait for a long time,
// and everyone queued behind it (on the kernel's big lock, say) sleeps with
// it. This lock sets glibc's PTHREAD_RWLOCK_PREFER_WRITER_NONRECURSIVE_NP:
// once a writer waits, new readers queue behind it. It is non-recursive, so
// a thread must never take it shared twice.
//
// Every hold is one system call's worth of work, a few microseconds. A
// parked waiter costs a futex sleep plus a cross-CPU wakeup, which on a
// virtualized host can take longer than many holds, so a contended
// acquisition retries for up to kSpins rounds before it parks.
//
// It meets the SharedMutex requirements, so std::shared_lock and
// std::unique_lock take it.
#ifndef SRC_BASE_RWLOCK_H_
#define SRC_BASE_RWLOCK_H_

#include <pthread.h>

namespace ia {

class RwLock {
 public:
  RwLock() {
    pthread_rwlockattr_t attr;
    pthread_rwlockattr_init(&attr);
#if defined(__GLIBC__)
    pthread_rwlockattr_setkind_np(&attr, PTHREAD_RWLOCK_PREFER_WRITER_NONRECURSIVE_NP);
#endif
    pthread_rwlock_init(&lock_, &attr);
    pthread_rwlockattr_destroy(&attr);
  }
  ~RwLock() { pthread_rwlock_destroy(&lock_); }

  RwLock(const RwLock&) = delete;
  RwLock& operator=(const RwLock&) = delete;

  void lock() {
    for (int i = 0; i < kSpins; ++i) {
      if (try_lock()) {
        return;
      }
      CpuRelax();
    }
    pthread_rwlock_wrlock(&lock_);
  }
  bool try_lock() { return pthread_rwlock_trywrlock(&lock_) == 0; }
  void unlock() { pthread_rwlock_unlock(&lock_); }

  void lock_shared() {
    for (int i = 0; i < kSpins; ++i) {
      if (try_lock_shared()) {
        return;
      }
      CpuRelax();
    }
    pthread_rwlock_rdlock(&lock_);
  }
  bool try_lock_shared() { return pthread_rwlock_tryrdlock(&lock_) == 0; }
  void unlock_shared() { pthread_rwlock_unlock(&lock_); }

 private:
  // andrew on a 4-thread host: 100 rounds still parked often enough to
  // double run_s_p50 while cross-CPU wakeups were slow; 300 to 3000 read
  // alike while they were fast (EXPERIMENTS.md).
  static constexpr int kSpins = 1000;

  static void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }

  pthread_rwlock_t lock_;
};

}  // namespace ia

#endif  // SRC_BASE_RWLOCK_H_
