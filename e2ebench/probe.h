// Probe agents and the span recorder behind the benchmark's traced run.
//
// Two probe agents bracket a client's agent stack: `probe.bottom` is
// agents[0] (closest to the kernel) and `probe.top` is agents.back()
// (closest to the application). Both intercept every call and record one
// span per call into a per-thread buffer owned by a SpanRecorder. A bottom
// span's parent is the top span open on the same thread, so:
//
//   * a top span minus the bottom spans nested in it is the agent stack's
//     self time (src/agents + src/toolkit + the src/interpose frame code);
//   * bottom spans beyond the first one per top span are agent down-calls;
//   * bottom spans are the kernel's calls as the kernel boundary sees them.
//
// The probes make no calls of their own, so they add no kernel calls.
// Buffers stay in memory until Drain(), which the benchmark calls only once
// the world has quiesced.
#ifndef E2EBENCH_PROBE_H_
#define E2EBENCH_PROBE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/interpose/agent.h"

namespace e2ebench {

enum class SpanLayer : uint8_t { kTop, kBottom };

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: no enclosing top span on this thread
  int32_t pid = 0;
  int16_t number = 0;
  SpanLayer layer = SpanLayer::kTop;
  int64_t result = 0;  // the call's value or -errno (wait4 returns the reaped pid)
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

int64_t NowNs();

class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  // Brackets one call on the calling thread. Begin returns the span's index
  // in this thread's buffer; End must run on the same thread.
  size_t Begin(SpanLayer layer, int32_t pid, int number);
  void End(size_t index, int64_t result);

  // Moves every recorded span out and forgets all buffers. Only legal while
  // no thread is inside Begin/End (the world has quiesced).
  std::vector<Span> Drain();

 private:
  struct ThreadBuffer {
    uint64_t id_base = 0;
    uint64_t next_id = 1;
    std::vector<Span> spans;
    std::vector<uint64_t> open_tops;  // ids of this thread's open top spans
  };
  ThreadBuffer& Local();

  // Drawn from a process-wide counter at construction and by every Drain, so
  // a thread's cached buffer from another recorder or an earlier epoch is
  // never reused.
  std::atomic<uint64_t> epoch_;
  std::mutex mu_;  // guards buffers_
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

// A transparent agent that records a span around every call it sees.
class ProbeAgent final : public ia::Agent {
 public:
  ProbeAgent(SpanRecorder& recorder, SpanLayer layer) : recorder_(recorder), layer_(layer) {}

  std::string name() const override {
    return layer_ == SpanLayer::kTop ? "probe.top" : "probe.bottom";
  }
  void Init(ia::ProcessContext& ctx, ia::AgentBinding& binding) override;
  ia::SyscallStatus OnSyscall(ia::AgentCall& call) override;

 private:
  SpanRecorder& recorder_;
  SpanLayer layer_;
};

// Returns {probe.bottom, middle..., probe.top}.
std::vector<ia::AgentRef> WithProbes(SpanRecorder& recorder,
                                     const std::vector<ia::AgentRef>& middle);

// Kernel call classes, split by the syscalls.def flags: kProcess first, then
// kTakesPath, then kTakesFd; everything else is "other".
enum CallClass { kClassProc, kClassPath, kClassFd, kClassOther, kNumClasses };
CallClass ClassOf(int number);
const char* ClassName(CallClass c);

// What one batch of drained spans says about each layer. Durations in µs,
// as float: a traced run keeps millions of them.
struct SpanFold {
  int64_t top_spans = 0;
  int64_t bottom_spans = 0;
  int64_t downcalls = 0;  // bottom spans beyond the first per top span
  std::vector<float> top_us;   // application-visible call latency
  std::vector<float> self_us;  // top span minus the bottom spans it covers
  // Kernel latency per class. wait4 is left out: it lasts the child's whole
  // life, and the part that is the kernel's is in wake_us.
  std::array<std::vector<float>, kNumClasses> bottom_us;
  std::vector<float> wake_us;  // child exit entering the kernel -> parent's wait4 return
};

SpanFold FoldSpans(const std::vector<Span>& spans);

}  // namespace e2ebench

#endif  // E2EBENCH_PROBE_H_
