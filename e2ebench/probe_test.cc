// Tests of the probe agents and the span fold the traced run relies on.
#include <gtest/gtest.h>

#include <map>

#include "e2ebench/probe.h"

namespace e2ebench {
namespace {

constexpr int kCalls = 50;

int GetpidLoop(ia::ProcessContext& ctx) {
  for (int i = 0; i < kCalls; ++i) {
    ctx.Getpid();
  }
  return 0;
}

int RunUnderProbes(ia::Kernel& kernel, SpanRecorder& recorder,
                   const std::vector<ia::AgentRef>& middle) {
  ia::SpawnOptions options;
  options.body = GetpidLoop;
  return ia::RunUnderAgents(kernel, WithProbes(recorder, middle), options);
}

// Makes one extra call on the lower interface for every call it sees.
class ExtraCallAgent final : public ia::Agent {
 public:
  std::string name() const override { return "extra_call"; }
  void Init(ia::ProcessContext& ctx, ia::AgentBinding& binding) override {
    (void)ctx;
    binding.InterceptAllSyscalls();
  }
  ia::SyscallStatus OnSyscall(ia::AgentCall& call) override {
    ia::SyscallResult rv;
    call.Call(ia::kSysGetppid, ia::SyscallArgs{}, &rv);
    return call.CallDown();
  }
};

int64_t CountGetpid(const std::vector<Span>& spans, SpanLayer layer) {
  int64_t n = 0;
  for (const Span& span : spans) {
    n += span.layer == layer && span.number == ia::kSysGetpid ? 1 : 0;
  }
  return n;
}

TEST(ProbeSpans, EachTopSpanHasExactlyOneBottomChild) {
  ia::Kernel kernel;
  SpanRecorder recorder;
  const int64_t calls_before = kernel.TotalSyscallCount();
  const int status = RunUnderProbes(kernel, recorder, {});
  ASSERT_TRUE(ia::WifExited(status));
  ASSERT_EQ(ia::WExitStatus(status), 0);
  const std::vector<Span> spans = recorder.Drain();

  EXPECT_EQ(CountGetpid(spans, SpanLayer::kTop), kCalls);
  EXPECT_EQ(CountGetpid(spans, SpanLayer::kBottom), kCalls);
  std::map<uint64_t, int> children;
  for (const Span& span : spans) {
    EXPECT_LE(span.start_ns, span.end_ns);
    if (span.layer == SpanLayer::kBottom) {
      ++children[span.parent];
    }
  }
  for (const Span& span : spans) {
    if (span.layer == SpanLayer::kTop) {
      EXPECT_EQ(children[span.id], 1);
    }
  }

  const SpanFold fold = FoldSpans(spans);
  EXPECT_EQ(fold.downcalls, 0);
  EXPECT_EQ(fold.top_spans, fold.bottom_spans);
  EXPECT_EQ(static_cast<int64_t>(fold.self_us.size()), fold.top_spans);
  for (const double us : fold.self_us) {
    EXPECT_GE(us, 0.0);
  }
  // The probes make no calls of their own: every kernel call is a bottom span.
  EXPECT_EQ(kernel.TotalSyscallCount() - calls_before, fold.bottom_spans);
}

TEST(ProbeSpans, ExtraLowerCallCountsAsOneDowncallPerCall) {
  ia::Kernel kernel;
  SpanRecorder recorder;
  const int status = RunUnderProbes(kernel, recorder, {std::make_shared<ExtraCallAgent>()});
  ASSERT_TRUE(ia::WifExited(status));
  const SpanFold fold = FoldSpans(recorder.Drain());
  EXPECT_GE(fold.top_spans, kCalls);
  EXPECT_EQ(fold.bottom_spans, 2 * fold.top_spans);
  EXPECT_DOUBLE_EQ(
      static_cast<double>(fold.downcalls) / static_cast<double>(fold.top_spans), 1.0);
}

TEST(ProbeSpans, SelfTimeSubtractsOnlyTheCoveredPart) {
  std::vector<Span> spans(3);
  spans[0] = {1, 0, 7, ia::kSysGetpid, SpanLayer::kTop, 0, 1000, 11000};
  spans[1] = {2, 1, 7, ia::kSysGetppid, SpanLayer::kBottom, 0, 2000, 4000};
  // Starts inside the parent but ends after it: only 6000..11000 is covered.
  spans[2] = {3, 1, 7, ia::kSysGetpid, SpanLayer::kBottom, 0, 6000, 15000};
  const SpanFold fold = FoldSpans(spans);
  ASSERT_EQ(fold.self_us.size(), 1u);
  EXPECT_DOUBLE_EQ(fold.self_us[0], 3.0);  // 10 µs minus 2 µs minus 5 µs
  EXPECT_EQ(fold.downcalls, 1);
}

TEST(ProbeSpans, WakeLatencyMatchesExitToWait4ByPid) {
  std::vector<Span> spans(2);
  spans[0] = {1, 0, 9, ia::kSysExit, SpanLayer::kBottom, 0, 5000, 6000};
  spans[1] = {2, 0, 8, ia::kSysWait4, SpanLayer::kBottom, 9, 1000, 12000};
  const SpanFold fold = FoldSpans(spans);
  ASSERT_EQ(fold.wake_us.size(), 1u);
  EXPECT_DOUBLE_EQ(fold.wake_us[0], 7.0);
}

TEST(ProbeSpans, ClassesFollowTheSyscallTableFlags) {
  EXPECT_EQ(ClassOf(ia::kSysFork), kClassProc);
  EXPECT_EQ(ClassOf(ia::kSysExecve), kClassProc);
  EXPECT_EQ(ClassOf(ia::kSysStat), kClassPath);
  EXPECT_EQ(ClassOf(ia::kSysRead), kClassFd);
  EXPECT_EQ(ClassOf(ia::kSysGetpid), kClassProc);
  EXPECT_EQ(ClassOf(ia::kSysGettimeofday), kClassOther);
}

}  // namespace
}  // namespace e2ebench
