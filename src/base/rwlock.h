// A reader/writer lock that prefers writers, spins briefly before it parks,
// and keeps its reader count in per-thread slots.
//
// Why slots: nearly every hold is shared (path walks and the regular-file
// data plane), and a lock with one reader count makes every shared acquire
// and release a read-modify-write on a line all clients write, about two
// contended RMWs per call. Here a reader increments the count in its own
// cache line, picked by StatShardSlot, then checks the writer count, which
// it only reads. A writer announces itself in the writer count, takes the
// writer mutex, and waits for every slot to drain. The reader's increment
// and the writer's announcement are sequentially consistent, so a reader
// and a writer arriving together cannot both miss each other (Dekker): the
// reader backs out, or the writer sees it and waits.
//
// Writer preference: while any writer holds or waits, new readers queue
// behind it. A steady stream of shared holders therefore cannot starve an
// exclusive acquirer, which can hold the kernel's big lock while it waits
// and so stall everyone queued behind that too. The lock is non-recursive:
// a thread must never take it shared twice, or it deadlocks once a writer
// waits (unless it keeps the lock, below).
//
// Keeping: a thread that calls Keep() holds its first shared acquire until
// StopKeeping(). Its shared acquires and releases in between only count in
// a thread-local word, so a run of short holds (a batch of stat, fstat and
// read calls, each taking the lock itself) pays one acquire and one release
// for the whole run. Writers wait for the run as they wait for any hold.
// A thread keeps one lock at a time, and must not sleep or take a lock
// ordered before this one while it keeps: StopKeeping first.
//
// Every hold is one system call's worth of work, a few microseconds. A
// parked waiter costs a futex sleep plus a cross-CPU wakeup, which on a
// virtualized host can take longer than many holds, so a contended
// acquisition retries for up to kSpins rounds before it parks.
//
// It is one lock, not a stripe per path: the slots spread only the reader
// count.
//
// std::shared_lock and std::unique_lock take it (it has no try_ forms: no
// caller needs them).
#ifndef SRC_BASE_RWLOCK_H_
#define SRC_BASE_RWLOCK_H_

#include <atomic>
#include <cstdint>

#include "src/base/shardslot.h"
#include "src/base/word_mutex.h"

namespace ia {

class RwLock {
 public:
  RwLock() = default;
  RwLock(const RwLock&) = delete;
  RwLock& operator=(const RwLock&) = delete;

  void lock() {
    writers_.fetch_add(1, std::memory_order_seq_cst);
    if (!writer_mu_.try_lock()) {
      SpinThenLock();
    }
    for (Slot& slot : slots_) {
      AwaitZero(slot.readers);
    }
  }
  void unlock() {
    writer_mu_.unlock();
    LeaveWriters();
  }

  void lock_shared() {
    Keeper& keeper = keeper_;
    if (keeper.lock == this) {
      if (!keeper.acquired) {
        AcquireShared();
        keeper.acquired = true;
      }
      ++keeper.holds;
      return;
    }
    AcquireShared();
  }
  void unlock_shared() {
    Keeper& keeper = keeper_;
    if (keeper.lock == this && keeper.holds != 0) {
      --keeper.holds;
      return;
    }
    ReleaseSlot(MySlot());
  }

  // Starts keeping this lock on the calling thread (a no-op if it already
  // does), ending any other lock's keeping. The thread must hold no shared
  // hold of this lock.
  void Keep() {
    Keeper& keeper = keeper_;
    if (keeper.lock != this) {
      if (keeper.lock != nullptr) {
        keeper.lock->StopKeeping();
      }
      keeper = Keeper{this, 0, false};
    }
  }
  // Releases the kept hold, if any, and ends keeping (a no-op if the thread
  // does not keep this lock). The thread must hold no live shared hold.
  void StopKeeping() {
    Keeper& keeper = keeper_;
    if (keeper.lock != this) {
      return;
    }
    if (keeper.acquired) {
      ReleaseSlot(MySlot());
    }
    keeper = Keeper{nullptr, 0, false};
  }

 private:
  // andrew on a 4-thread host: 100 rounds still parked often enough to
  // double run_s_p50 while cross-CPU wakeups were slow; 300 to 3000 read
  // alike while they were fast (EXPERIMENTS.md).
  static constexpr int kSpins = 1000;
  static constexpr uint32_t kSlots = 8;  // power of two

  struct alignas(64) Slot {
    std::atomic<uint32_t> readers{0};
  };

  // The calling thread's keeping state: the lock it keeps, its live shared
  // holds of it, and whether it holds the lock's slot (the kept acquire).
  struct Keeper {
    RwLock* lock;
    uint32_t holds;
    bool acquired;
  };
  static inline constinit thread_local Keeper keeper_{nullptr, 0, false};

  void AcquireShared() {
    Slot& slot = MySlot();
    for (;;) {
      slot.readers.fetch_add(1, std::memory_order_seq_cst);
      if (writers_.load(std::memory_order_seq_cst) == 0) {
        return;
      }
      ReleaseSlot(slot);
      AwaitZero(writers_);
    }
  }

  // A thread keeps its slot for its lifetime, so its unlock_shared finds
  // the count its lock_shared raised.
  Slot& MySlot() { return slots_[StatShardSlot(kSlots)]; }

  // A reader leaving while a writer waits may be the one it waits for.
  void ReleaseSlot(Slot& slot) {
    if (slot.readers.fetch_sub(1, std::memory_order_seq_cst) == 1 &&
        writers_.load(std::memory_order_seq_cst) != 0) {
      slot.readers.notify_all();
    }
  }

  void LeaveWriters() {
    if (writers_.fetch_sub(1, std::memory_order_seq_cst) == 1) {
      writers_.notify_all();
    }
  }

  void SpinThenLock() {
    for (int i = 0; i < kSpins; ++i) {
      CpuRelax();
      if (writer_mu_.try_lock()) {
        return;
      }
    }
    writer_mu_.lock();
  }

  // Spins, then parks, until `word` reads 0: a slot drained of readers, or
  // no writer left.
  static void AwaitZero(std::atomic<uint32_t>& word) {
    int spins = 0;
    for (uint32_t seen = word.load(std::memory_order_seq_cst); seen != 0;
         seen = word.load(std::memory_order_seq_cst)) {
      if (spins < kSpins) {
        ++spins;
        CpuRelax();
      } else {
        word.wait(seen, std::memory_order_seq_cst);
      }
    }
  }

  static void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }

  Slot slots_[kSlots];
  // Writers holding or waiting. Readers only read it until one arrives.
  alignas(64) std::atomic<uint32_t> writers_{0};
  // Serializes writers, which then drain the slots one after another.
  WordMutex writer_mu_;
};

}  // namespace ia

#endif  // SRC_BASE_RWLOCK_H_
