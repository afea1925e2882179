// BatchClient — the client-side helper for the submission/completion ring.
//
// Queues typed system calls locally, then Flush() submits them as one batch,
// drains the ring (on the calling thread, which must be the owning process
// thread), and reaps every completion in submission order. The completion
// vector is valid until the next Flush().
//
//   BatchClient batch(ctx);
//   int tag = 0;
//   batch.PushStat("/etc/motd", &st, tag++);
//   batch.PushOpen("/data/f0", kORdonly, 0, tag++);
//   batch.Flush();
//   for (const SyscallCompletion& c : batch.completions()) { ... }
//
// Pointer arguments (paths, buffers, Stat out-params) are captured by
// reference into the queued SyscallArgs, exactly as the synchronous syscall
// ABI captures them — they must stay alive until Flush() returns.
#ifndef SRC_APPS_BATCH_H_
#define SRC_APPS_BATCH_H_

#include <string>
#include <vector>

#include "src/kernel/context.h"

namespace ia {

class BatchClient {
 public:
  explicit BatchClient(ProcessContext& ctx, uint32_t ring_entries = SyscallRing::kDefaultEntries)
      : ctx_(ctx), ring_entries_(ring_entries) {}

  // Raw push: any syscall number with prebuilt args.
  void Push(int number, const SyscallArgs& args, uint64_t tag = 0);

  // Typed pushes for the common mixed-workload rows.
  void PushOpen(const char* path, int flags, Mode mode = 0644, uint64_t tag = 0);
  void PushClose(int fd, uint64_t tag = 0);
  void PushRead(int fd, void* buf, int64_t count, uint64_t tag = 0);
  void PushWrite(int fd, const void* buf, int64_t count, uint64_t tag = 0);
  void PushLseek(int fd, Off offset, int whence, uint64_t tag = 0);
  void PushStat(const char* path, ia::Stat* st, uint64_t tag = 0);
  void PushFstat(int fd, ia::Stat* st, uint64_t tag = 0);
  void PushAccess(const char* path, int amode, uint64_t tag = 0);
  void PushGetpid(uint64_t tag = 0);

  size_t PendingCount() const { return queued_.size(); }

  // Submits everything queued, drains, and reaps. Returns the number of
  // completions (== the number queued: the helper splits oversized batches so
  // the ring's capacity never refuses an entry).
  size_t Flush();

  // Completions from the last Flush(), in submission order.
  const std::vector<SyscallCompletion>& completions() const { return completions_; }

 private:
  ProcessContext& ctx_;
  uint32_t ring_entries_;
  std::vector<SyscallRequest> queued_;
  std::vector<SyscallCompletion> completions_;
};

// The ring-driven workload program:
//   ringload <base-dir> <iterations>
// Runs the scalability bench's mixed file workload (stat/open/read/fstat/
// close/getpid) through the ring in batches instead of call-by-call. Exits 0
// when every completion matches the synchronous expectation: stat and fstat
// report the file's size and one inode, lseek and close return 0, the read
// returns the file's first 256 bytes, and getpid the caller's pid.
int RingLoadMain(ProcessContext& ctx);

}  // namespace ia

#endif  // SRC_APPS_BATCH_H_
