// Per-process submission/completion rings for batched system calls.
//
// The io_uring-shaped answer to per-call dispatch overhead: a client queues
// SyscallRequest entries on its process's submission queue, asks the context
// to drain (each entry runs through the emulation stack's compiled route
// exactly as a synchronous call would — agents see nothing new), and reaps
// SyscallCompletion entries carrying value/errno/vtime asynchronously. The
// drain reads each entry from its submission slot and completes it into the
// completion slot at the same position: runs of kernel-lane entries go to
// the kernel's one dispatch core, Kernel::DoSyscallBatch (a synchronous call
// is its count-1 case), so the route lookup and the prologue — clock and
// rusage accounting — are paid once per run instead of once per call.
//
// Threading: single-producer/single-consumer, like the paper's one caller
// per process. One thread submits (the owning process, or one sibling host
// thread it hands the ring to); the owning process drains and reaps. There
// are three indices, each with one writer: the producer's sq_tail_, the
// drainer's drained_ (the submission head and the completion tail at once,
// since entry i completes into slot i) and the reaper's cq_head_. Each is
// published with a release store that the other sides read with acquire —
// no read-modify-write anywhere.
//
// Capacity: every submission produces exactly one completion, so the number
// in flight (submitted and not yet reaped) is sq_tail - cq_head. Submit
// admits an entry only while that is below capacity, so the completion slot
// at a queued entry's position has always been reaped: the drain never
// waits for room and completions are never dropped.
//
// Lifetime: the ring belongs to the process image, like its address space.
// A successful exec drops it (queued entries hold pointers into the old
// image), so a sibling submitter must be joined before the owner execs.
#ifndef SRC_KERNEL_RING_H_
#define SRC_KERNEL_RING_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/kernel/types.h"

namespace ia {

// The explicit request object of the dispatch path. A synchronous
// ProcessContext::Syscall() builds one on the stack and executes it
// immediately; a ring client enqueues a batch of them. `user_data` is an
// opaque cookie echoed in the matching completion (completions keep
// submission order, but the cookie lets clients match without counting).
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

// Entries as the dispatch core reads them: entry i is reqs[(first + i) &
// mask] and completes into comps[(first + i) & mask]. A ring run that
// crosses the slot array's end is therefore still one batch; a synchronous
// call passes its one stack entry as {&req, &comp, 0, 0, 1}.
struct SyscallBatch {
  const SyscallRequest* reqs = nullptr;
  SyscallCompletion* comps = nullptr;
  uint32_t first = 0;
  uint32_t mask = 0;
  int count = 0;

  const SyscallRequest& req(int i) const { return reqs[(first + static_cast<uint32_t>(i)) & mask]; }
  SyscallCompletion& comp(int i) const { return comps[(first + static_cast<uint32_t>(i)) & mask]; }
};

class SyscallRing {
 public:
  static constexpr uint32_t kDefaultEntries = 256;

  // `entries` is rounded up to a power of two (min 2).
  explicit SyscallRing(uint32_t entries = kDefaultEntries);

  SyscallRing(const SyscallRing&) = delete;
  SyscallRing& operator=(const SyscallRing&) = delete;

  uint32_t capacity() const { return capacity_; }

  // --- submission side (one producer thread) ---------------------------------
  // Enqueues as many of the `count` requests as fit; returns how many.
  uint32_t SubmitBatch(const SyscallRequest* reqs, uint32_t count);
  // The count-1 batch: false when the ring is full (capacity() in flight).
  bool Submit(const SyscallRequest& req);

  // --- drain side (the owning process) ----------------------------------------
  // Every queued request, read where it was submitted, and its completion
  // slot at the same position, which is free: in flight never exceeds
  // capacity(). count is 0 when nothing is queued.
  SyscallBatch Queued();
  // Publishes the completions of the first `n` queued entries, written in
  // place, and claims their submission slots.
  void Complete(uint32_t n);

  // --- reap side (the owning process) -----------------------------------------
  uint32_t ReapBatch(SyscallCompletion* out, uint32_t max);
  // The count-1 batch.
  bool Reap(SyscallCompletion* out);

  // --- introspection ------------------------------------------------------------
  uint32_t SubmissionsPending() const {
    return sq_tail_.load(std::memory_order_acquire) -
           drained_.load(std::memory_order_acquire);
  }
  uint32_t CompletionsPending() const {
    return drained_.load(std::memory_order_acquire) -
           cq_head_.load(std::memory_order_acquire);
  }
  // Submitted and not yet reaped (includes entries currently being drained).
  // cq_head_ is read first: it never passes sq_tail_, so the later tail read
  // cannot make the difference wrap.
  uint32_t InFlight() const {
    const uint32_t reaped = cq_head_.load(std::memory_order_acquire);
    return sq_tail_.load(std::memory_order_acquire) - reaped;
  }

 private:
  uint32_t capacity_ = 0;
  uint32_t mask_ = 0;
  std::vector<SyscallRequest> sq_slots_;
  std::vector<SyscallCompletion> cq_slots_;
  // Each index on its own cache line with its one writer: the producer owns
  // sq_tail_, the drainer owns drained_, the reaper owns cq_head_.
  alignas(64) std::atomic<uint32_t> sq_tail_{0};
  alignas(64) std::atomic<uint32_t> drained_{0};
  alignas(64) std::atomic<uint32_t> cq_head_{0};
};

}  // namespace ia

#endif  // SRC_KERNEL_RING_H_
