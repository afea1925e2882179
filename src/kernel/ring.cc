#include "src/kernel/ring.h"

namespace ia {

namespace {

uint32_t RoundUpPow2(uint32_t n) {
  uint32_t p = 2;
  while (p < n && p < (uint32_t{1} << 31)) {
    p <<= 1;
  }
  return p;
}

}  // namespace

SyscallRing::SyscallRing(uint32_t entries) {
  capacity_ = RoundUpPow2(entries < 2 ? 2 : entries);
  mask_ = capacity_ - 1;
  sq_slots_.resize(capacity_);
  cq_slots_.resize(capacity_);
}

bool SyscallRing::Submit(const SyscallRequest& req) { return SubmitBatch(&req, 1) == 1; }

uint32_t SyscallRing::SubmitBatch(const SyscallRequest* reqs, uint32_t count) {
  // In flight is sq_tail_ - cq_head_: every submission yields exactly one
  // completion, so an entry leaves flight only when it is reaped. The acquire
  // pairs with the reaper's release of cq_head_, which in turn follows the
  // drainer's reads of the submission slots being reused here (the drainer
  // reads an entry in place before it publishes that entry's completion).
  const uint32_t tail = sq_tail_.load(std::memory_order_relaxed);
  const uint32_t room = capacity_ - (tail - cq_head_.load(std::memory_order_acquire));
  const uint32_t n = count < room ? count : room;
  for (uint32_t i = 0; i < n; ++i) {
    sq_slots_[(tail + i) & mask_] = reqs[i];
  }
  if (n > 0) {
    sq_tail_.store(tail + n, std::memory_order_release);
  }
  return n;
}

SyscallBatch SyscallRing::Queued() {
  // The drainer writes drained_, so a relaxed load sees its own stores. In
  // flight ends at sq_tail_ <= cq_head_ + capacity_, so no completion slot
  // of a queued entry holds an unreaped completion.
  const uint32_t head = drained_.load(std::memory_order_relaxed);
  const uint32_t queued = sq_tail_.load(std::memory_order_acquire) - head;
  return SyscallBatch{sq_slots_.data(), cq_slots_.data(), head, mask_, static_cast<int>(queued)};
}

void SyscallRing::Complete(uint32_t n) {
  drained_.store(drained_.load(std::memory_order_relaxed) + n, std::memory_order_release);
}

bool SyscallRing::Reap(SyscallCompletion* out) { return ReapBatch(out, 1) == 1; }

uint32_t SyscallRing::ReapBatch(SyscallCompletion* out, uint32_t max) {
  const uint32_t head = cq_head_.load(std::memory_order_relaxed);
  const uint32_t avail = drained_.load(std::memory_order_acquire) - head;
  const uint32_t n = max < avail ? max : avail;
  for (uint32_t i = 0; i < n; ++i) {
    out[i] = cq_slots_[(head + i) & mask_];
  }
  if (n > 0) {
    // Release: the producer that sees this room also sees the reads above.
    cq_head_.store(head + n, std::memory_order_release);
  }
  return n;
}

}  // namespace ia
