#include "src/kernel/fiber.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>

#if defined(__SANITIZE_THREAD__)
#define IA_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define IA_FIBER_TSAN 1
#endif
#endif

#if defined(__SANITIZE_ADDRESS__)
#define IA_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define IA_FIBER_ASAN 1
#endif
#endif

#ifdef IA_FIBER_TSAN
#include <sanitizer/tsan_interface.h>
#endif
#ifdef IA_FIBER_ASAN
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

namespace ia {
namespace {

// The same size std::thread gives a host thread by default. The mapping is
// MAP_NORESERVE, so only the pages a fiber touches are committed.
constexpr size_t kStackSize = size_t{8} << 20;

thread_local FiberHost* t_host = nullptr;   // the host whose loop runs here
thread_local Fiber* t_current = nullptr;    // the fiber running here, if any

[[noreturn]] void FiberFatal(const char* what) {
  std::fprintf(stderr, "fiber: %s\n", what);
  std::abort();
}

// The C++ exception globals (the caught-exception stack, the uncaught count)
// belong to the host thread, not the fiber, so a fiber may not switch while
// it throws or handles an exception: ExitUnwind and ExecveUnwind unwind
// through program frames, and a switch there would hand their state to
// another fiber.
void CheckNoException() {
  if (std::uncaught_exceptions() != 0 || std::current_exception()) {
    FiberFatal("a fiber may not switch while an exception is in flight or being handled");
  }
}

size_t GuardSize() {
  static const auto page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

char* StackBottom(const Fiber& fiber) { return static_cast<char*>(fiber.mapping) + GuardSize(); }

}  // namespace

FiberHost::~FiberHost() { Join(); }

Fiber* FiberHost::Add(std::function<void()> body) {
  auto* fiber = new Fiber;
  fiber->home = this;
  fiber->body = std::move(body);
  if (spare_mapping_ != nullptr) {
    fiber->mapping = spare_mapping_;
    spare_mapping_ = nullptr;
#ifdef IA_FIBER_ASAN
    // The finished fiber's last frames never returned: clear their poison.
    __asan_unpoison_memory_region(StackBottom(*fiber), kStackSize);
#endif
  } else {
    fiber->mapping = mmap(nullptr, GuardSize() + kStackSize, PROT_READ | PROT_WRITE,
                          MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
    if (fiber->mapping == MAP_FAILED || mprotect(fiber->mapping, GuardSize(), PROT_NONE) != 0) {
      FiberFatal("cannot map a fiber stack");
    }
  }
  getcontext(&fiber->context);
  fiber->context.uc_stack.ss_sp = StackBottom(*fiber);
  fiber->context.uc_stack.ss_size = kStackSize;
  fiber->context.uc_link = nullptr;
  makecontext(&fiber->context, &FiberHost::Trampoline, 0);
#ifdef IA_FIBER_TSAN
  fiber->tsan_fiber = __tsan_create_fiber(0);
#endif
  std::lock_guard<std::mutex> lk(mu_);
  ++live_;
  runq_.push_back(fiber);  // no poke: the loop is not started, or is running us
  return fiber;
}

void FiberHost::Start() {
  loop_thread_ = std::thread([this] { Loop(); });
}

void FiberHost::Join() {
  if (loop_thread_.joinable()) {
    loop_thread_.join();
  }
}

void FiberHost::Loop() {
  t_host = this;
  BindThreadClock(&clock_);
#ifdef IA_FIBER_TSAN
  loop_tsan_fiber_ = __tsan_get_current_fiber();
#endif
  for (;;) {
    Fiber* next = nullptr;
    {
      std::unique_lock<std::mutex> lk(mu_);
      park_.wait(lk, [this] { return !runq_.empty() || live_ == 0; });
      if (runq_.empty()) {
        break;  // no fiber is live, and none can be added
      }
      next = runq_.front();
      runq_.pop_front();
    }
    t_current = next;
#ifdef IA_FIBER_ASAN
    __sanitizer_start_switch_fiber(&loop_asan_fake_stack_, StackBottom(*next), kStackSize);
#endif
#ifdef IA_FIBER_TSAN
    __tsan_switch_to_fiber(next->tsan_fiber, 0);
#endif
    swapcontext(&loop_context_, &next->context);
#ifdef IA_FIBER_ASAN
    __sanitizer_finish_switch_fiber(loop_asan_fake_stack_, nullptr, nullptr);
#endif
    t_current = nullptr;
    if (next->finished) {
#ifdef IA_FIBER_TSAN
      __tsan_destroy_fiber(next->tsan_fiber);
#endif
      if (spare_mapping_ == nullptr) {
        spare_mapping_ = next->mapping;
      } else {
        munmap(next->mapping, GuardSize() + kStackSize);
      }
      delete next;
      std::lock_guard<std::mutex> lk(mu_);
      --live_;
    }
  }
  if (spare_mapping_ != nullptr) {
    munmap(spare_mapping_, GuardSize() + kStackSize);
    spare_mapping_ = nullptr;
  }
  BindThreadClock(nullptr);
  t_host = nullptr;
}

void FiberHost::Trampoline() {
  Fiber* self = t_current;
  FiberHost* host = self->home;
#ifdef IA_FIBER_ASAN
  __sanitizer_finish_switch_fiber(nullptr, &host->loop_stack_bottom_, &host->loop_stack_size_);
#endif
  self->body();
  self->body = nullptr;  // drops the body's captures on the fiber's own stack
  self->finished = true;
  host->SwitchToLoop(self, /*finishing=*/true);
}

void FiberHost::SwitchToLoop(Fiber* self, bool finishing) {
#ifdef IA_FIBER_ASAN
  // A finishing fiber passes no save slot, so ASan frees its fake stack.
  __sanitizer_start_switch_fiber(finishing ? nullptr : &self->asan_fake_stack,
                                 loop_stack_bottom_, loop_stack_size_);
#endif
#ifdef IA_FIBER_TSAN
  __tsan_switch_to_fiber(loop_tsan_fiber_, 0);
#endif
  swapcontext(&self->context, &loop_context_);
  if (finishing) {
    FiberFatal("a finished fiber was resumed");
  }
#ifdef IA_FIBER_ASAN
  __sanitizer_finish_switch_fiber(self->asan_fake_stack, &loop_stack_bottom_, &loop_stack_size_);
#endif
}

void FiberHost::Wake(Fiber* fiber) {
  FiberHost* host = fiber->home;
  // Notifying under mu_ keeps the host alive for the call: it cannot end
  // while a fiber it has not yet run is queued.
  std::lock_guard<std::mutex> lk(host->mu_);
  host->runq_.push_back(fiber);
  if (t_host != host) {
    if (t_host != nullptr) {
      fiber->wake_stamp = std::max(fiber->wake_stamp, t_host->clock_.Now());
    }
    host->park_.notify_one();
  }
}

void FiberHost::Suspend() {
  Fiber* self = t_current;
  if (self == nullptr) {
    FiberFatal("Suspend called outside a fiber");
  }
  CheckNoException();
  self->home->SwitchToLoop(self, /*finishing=*/false);
  self->home->clock_.Merge(self->wake_stamp);
}

void FiberHost::Yield() {
  Fiber* self = t_current;
  if (self == nullptr) {
    std::this_thread::yield();
    return;
  }
  CheckNoException();
  FiberHost* host = self->home;
  bool queued = false;
  {
    std::lock_guard<std::mutex> lk(host->mu_);
    if (!host->runq_.empty()) {
      host->runq_.push_back(self);
      queued = true;
    }
  }
  if (!queued) {
    std::this_thread::yield();  // nothing else runnable here
    return;
  }
  host->SwitchToLoop(self, /*finishing=*/false);
}

void WaitChannel::Wakeup() {
  for (Fiber* fiber : sleepers_) {
    FiberHost::Wake(fiber);
  }
  sleepers_.clear();
}

void WaitChannel::Wake(Fiber* fiber) {
  auto it = std::find(sleepers_.begin(), sleepers_.end(), fiber);
  if (it != sleepers_.end()) {
    sleepers_.erase(it);
    FiberHost::Wake(fiber);
  }
}

}  // namespace ia
