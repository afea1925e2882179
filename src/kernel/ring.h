// Per-process submission/completion rings for batched system calls.
//
// The io_uring-shaped answer to per-call dispatch overhead: a client queues
// SyscallRequest entries on its process's submission queue, asks the context
// to drain (each entry runs through the emulation stack's compiled route
// exactly as a synchronous call would — agents see nothing new), and reaps
// SyscallCompletion entries carrying value/errno/vtime asynchronously. The
// drain hands each run of kernel-lane entries to the kernel's one dispatch
// core, Kernel::DoSyscallBatch (a synchronous call is its count-1 case), so
// the route lookup and the prologue — clock and rusage accounting — are paid
// once per run instead of once per call.
//
// Threading: the submission queue is MULTI-producer/single-consumer, so a
// thread-pool server can share one process's ring — any number of host
// threads may call Submit/SubmitBatch concurrently while the owning process
// thread drains. Producers claim a slot by CAS on the tail and commit it with
// a per-slot published-sequence store (the Vyukov bounded-queue protocol), so
// the single consumer only ever observes fully written entries and entries
// drain in claim order. The completion queue stays single-producer (the
// draining thread) / single-consumer (the reaper); reaping from multiple
// threads is not supported.
//
// Capacity: Submit reserves in-flight room (submitted and not yet reaped)
// with a CAS so concurrent producers cannot oversubscribe; the reservation
// guarantees both a free submission slot now and completion-queue room later,
// which is why PushCompletion can never fail and completions are never
// dropped.
#ifndef SRC_KERNEL_RING_H_
#define SRC_KERNEL_RING_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/kernel/types.h"

namespace ia {

// The explicit request object of the dispatch path. A synchronous
// ProcessContext::Syscall() builds one on the stack and executes it
// immediately; a ring client enqueues a batch of them. `user_data` is an
// opaque cookie echoed in the matching completion (completions are pushed in
// drain order, but the cookie lets clients match without counting).
struct SyscallRequest {
  int32_t number = 0;
  uint64_t user_data = 0;
  SyscallArgs args;
};

// The completion slot for one request: the raw dispatch status (>= 0 or
// negative errno), the rv pair (pipe() uses both words), and the virtual
// clock at completion time.
struct SyscallCompletion {
  uint64_t user_data = 0;
  SyscallStatus status = 0;
  SyscallResult result;
  int64_t vtime_usec = 0;
};

class SyscallRing {
 public:
  static constexpr uint32_t kDefaultEntries = 256;

  // `entries` is rounded up to a power of two (min 2).
  explicit SyscallRing(uint32_t entries = kDefaultEntries);

  SyscallRing(const SyscallRing&) = delete;
  SyscallRing& operator=(const SyscallRing&) = delete;

  uint32_t capacity() const { return capacity_; }

  // --- submission side (any number of concurrent producers) -------------------
  // False when the ring is full (capacity() requests in flight).
  bool Submit(const SyscallRequest& req);
  // Enqueues as many of the `count` requests as fit; returns how many.
  uint32_t SubmitBatch(const SyscallRequest* reqs, uint32_t count);

  // --- drain side (the owning process thread) ---------------------------------
  bool PopRequest(SyscallRequest* out);
  // Never fails: Submit's in-flight accounting reserved the slot.
  void PushCompletion(const SyscallCompletion& comp);

  // --- reap side (single consumer) ---------------------------------------------
  bool Reap(SyscallCompletion* out);
  uint32_t ReapBatch(SyscallCompletion* out, uint32_t max);

  // --- introspection ------------------------------------------------------------
  // Claimed minus consumed; may transiently include slots a producer has
  // claimed but not yet committed (the consumer skips those until published).
  uint32_t SubmissionsPending() const {
    return sq_tail_.load(std::memory_order_acquire) -
           sq_head_.load(std::memory_order_acquire);
  }
  uint32_t CompletionsPending() const {
    return cq_tail_.load(std::memory_order_acquire) -
           cq_head_.load(std::memory_order_acquire);
  }
  // Submitted and not yet reaped (includes entries currently being drained).
  uint32_t InFlight() const { return in_flight_.load(std::memory_order_relaxed); }

 private:
  // One submission slot plus its publish sequence. The sequence encodes the
  // slot's lap state: `seq == pos` means free for the producer claiming
  // logical position `pos`; `seq == pos + 1` means committed and consumable;
  // the consumer frees it for the next lap with `seq = pos + capacity`.
  struct SqSlot {
    std::atomic<uint32_t> seq{0};
    SyscallRequest req;
  };

  uint32_t capacity_ = 0;
  uint32_t mask_ = 0;
  std::unique_ptr<SqSlot[]> sq_slots_;
  std::vector<SyscallCompletion> cq_slots_;
  // Hot indices on their own cache lines: producers hammer sq_tail_, the
  // drainer owns sq_head_/cq_tail_, the reaper owns cq_head_.
  alignas(64) std::atomic<uint32_t> sq_tail_{0};
  alignas(64) std::atomic<uint32_t> sq_head_{0};
  alignas(64) std::atomic<uint32_t> cq_tail_{0};
  alignas(64) std::atomic<uint32_t> cq_head_{0};
  // Submit-side reservation counter; see the capacity comment at the top.
  alignas(64) std::atomic<uint32_t> in_flight_{0};
};

}  // namespace ia

#endif  // SRC_KERNEL_RING_H_
