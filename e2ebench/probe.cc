#include "e2ebench/probe.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <unordered_map>

#include "src/kernel/syscall_table.h"

namespace e2ebench {
namespace {

std::atomic<uint64_t> g_next_epoch{1};

// The calling thread's buffer for one recorder epoch. Epochs are unique
// across recorders, so the epoch alone identifies the owner.
struct BufferCache {
  uint64_t epoch = 0;
  void* buffer = nullptr;
};
thread_local BufferCache t_cache;

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanRecorder::SpanRecorder() : epoch_(g_next_epoch.fetch_add(1)) {}

SpanRecorder::ThreadBuffer& SpanRecorder::Local() {
  const uint64_t epoch = epoch_.load(std::memory_order_acquire);
  if (t_cache.epoch == epoch) {
    return *static_cast<ThreadBuffer*>(t_cache.buffer);
  }
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<ThreadBuffer>());
  ThreadBuffer& buffer = *buffers_.back();
  buffer.id_base = static_cast<uint64_t>(buffers_.size()) << 32;
  buffer.spans.reserve(1024);
  t_cache = BufferCache{epoch, &buffer};
  return buffer;
}

size_t SpanRecorder::Begin(SpanLayer layer, int32_t pid, int number) {
  ThreadBuffer& buffer = Local();
  Span span;
  span.id = buffer.id_base | buffer.next_id++;
  span.pid = pid;
  span.number = static_cast<int16_t>(number);
  span.layer = layer;
  if (layer == SpanLayer::kTop) {
    buffer.open_tops.push_back(span.id);
  } else if (!buffer.open_tops.empty()) {
    span.parent = buffer.open_tops.back();
  }
  buffer.spans.push_back(span);
  buffer.spans.back().start_ns = NowNs();
  return buffer.spans.size() - 1;
}

void SpanRecorder::End(size_t index, int64_t result) {
  const int64_t now = NowNs();
  ThreadBuffer& buffer = Local();
  Span& span = buffer.spans[index];
  span.end_ns = now;
  span.result = result;
  if (span.layer == SpanLayer::kTop) {
    buffer.open_tops.pop_back();
  }
}

std::vector<Span> SpanRecorder::Drain() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  buffers_.clear();
  epoch_.store(g_next_epoch.fetch_add(1), std::memory_order_release);
  return all;
}

void ProbeAgent::Init(ia::ProcessContext& ctx, ia::AgentBinding& binding) {
  (void)ctx;
  binding.InterceptAllSyscalls();
}

ia::SyscallStatus ProbeAgent::OnSyscall(ia::AgentCall& call) {
  const size_t span = recorder_.Begin(layer_, call.ctx().process().pid, call.number());
  ia::SyscallStatus status = 0;
  try {
    status = call.CallDown();
  } catch (...) {
    recorder_.End(span, INT64_MIN);  // exit/exec unwinds pass through; close the span
    throw;
  }
  recorder_.End(span, status < 0 ? status : call.rv()->rv[0]);
  return status;
}

std::vector<ia::AgentRef> WithProbes(SpanRecorder& recorder,
                                     const std::vector<ia::AgentRef>& middle) {
  std::vector<ia::AgentRef> agents;
  agents.push_back(std::make_shared<ProbeAgent>(recorder, SpanLayer::kBottom));
  agents.insert(agents.end(), middle.begin(), middle.end());
  agents.push_back(std::make_shared<ProbeAgent>(recorder, SpanLayer::kTop));
  return agents;
}

CallClass ClassOf(int number) {
  const uint32_t flags = ia::SyscallSpecOf(number).flags;
  if ((flags & ia::kProcess) != 0) {
    return kClassProc;
  }
  if ((flags & ia::kTakesPath) != 0) {
    return kClassPath;
  }
  if ((flags & ia::kTakesFd) != 0) {
    return kClassFd;
  }
  return kClassOther;
}

const char* ClassName(CallClass c) {
  static constexpr const char* kNames[kNumClasses] = {"proc", "path", "fd", "other"};
  return kNames[c];
}

SpanFold FoldSpans(const std::vector<Span>& spans) {
  struct Children {
    int64_t count = 0;
    int64_t covered_ns = 0;
  };
  std::unordered_map<uint64_t, const Span*> tops;
  std::unordered_map<uint64_t, Children> children;
  std::unordered_map<int32_t, int64_t> exit_start_ns;  // pid -> exit entering the kernel
  for (const Span& span : spans) {
    if (span.layer == SpanLayer::kTop) {
      tops.emplace(span.id, &span);
    } else if (span.number == ia::kSysExit) {
      exit_start_ns[span.pid] = span.start_ns;
    }
  }

  SpanFold fold;
  for (const Span& span : spans) {
    const float us = static_cast<float>(span.end_ns - span.start_ns) / 1e3f;
    if (span.layer == SpanLayer::kTop) {
      ++fold.top_spans;
      fold.top_us.push_back(us);
      continue;
    }
    ++fold.bottom_spans;
    if (span.number != ia::kSysWait4) {
      fold.bottom_us[ClassOf(span.number)].push_back(us);
    }
    if (span.parent != 0) {
      const auto top = tops.find(span.parent);
      if (top != tops.end()) {
        // Only the part of the child inside its parent's interval counts.
        const int64_t lo = std::max(span.start_ns, top->second->start_ns);
        const int64_t hi = std::min(span.end_ns, top->second->end_ns);
        Children& c = children[span.parent];
        ++c.count;
        c.covered_ns += std::max<int64_t>(0, hi - lo);
      }
    }
    if (span.number == ia::kSysWait4 && span.result > 0) {
      const auto exited = exit_start_ns.find(static_cast<int32_t>(span.result));
      if (exited != exit_start_ns.end()) {
        fold.wake_us.push_back(static_cast<float>(span.end_ns - exited->second) / 1e3f);
      }
    }
  }
  for (const auto& [id, top] : tops) {
    const auto c = children.find(id);
    const int64_t count = c == children.end() ? 0 : c->second.count;
    const int64_t covered = c == children.end() ? 0 : c->second.covered_ns;
    fold.downcalls += std::max<int64_t>(0, count - 1);
    fold.self_us.push_back(static_cast<float>(top->end_ns - top->start_ns - covered) / 1e3f);
  }
  return fold;
}

}  // namespace e2ebench
