// Fibers: every simulated process is a user-level thread of control on the
// host thread of the root it descends from.
//
// Kernel::Spawn (a host-spawned root) starts one FiberHost: a host thread
// that runs a small cooperative scheduler over a run queue. fork(2) adds the
// child as a fiber on its parent's FiberHost. Fibers never migrate, so a
// whole fork/exec/wait4 tree hands control around with user-level switches,
// and a mutex a fiber takes is released on the host thread that took it.
//
// A fiber leaves its host thread only by Suspend (through Sleep in
// process.h, after publishing itself on a wait channel) or Yield; a fiber
// whose body returns is finished, and its stack goes back to its host: the
// host keeps one finished stack for its next fiber and unmaps the rest, and
// unmaps the kept one when its thread ends. The host thread ends once no
// fiber on it is live. Switches are annotated for TSan and ASan
// (DESIGN.md §13).
//
// Each host keeps one virtual clock, shared by every fiber on it and
// written only by its thread (DESIGN.md §7). A wakeup from another host
// leaves the waker's time on the fiber, and the fiber merges it into its
// own host's clock when it resumes.
#ifndef SRC_KERNEL_FIBER_H_
#define SRC_KERNEL_FIBER_H_

#include <ucontext.h>

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/base/clock.h"

namespace ia {

class FiberHost;

// One fiber: its saved context, its stack mapping (a guard page below the
// stack), and the body it runs. Owned by its FiberHost until it finishes.
struct Fiber {
  FiberHost* home = nullptr;
  std::function<void()> body;
  ucontext_t context;
  void* mapping = nullptr;  // guard page + stack
  bool finished = false;
  void* tsan_fiber = nullptr;
  void* asan_fake_stack = nullptr;  // ASan's fake-stack handle while switched out
  // The latest virtual time of a waker on another host, written by Wake
  // under the home host's mu_ while the fiber sleeps; merged into the home
  // clock when the fiber resumes.
  VirtualMicros wake_stamp = 0;
};

class FiberHost {
 public:
  FiberHost() = default;
  ~FiberHost();  // joins the host thread

  FiberHost(const FiberHost&) = delete;
  FiberHost& operator=(const FiberHost&) = delete;

  // Creates a fiber running `body` and queues it at the tail of the run
  // queue. Called before Start, or by a fiber already on this host.
  Fiber* Add(std::function<void()> body);

  // Starts the host thread; it runs the queued fibers and ends once none is
  // live.
  void Start();

  // Waits for the host thread to end. Never called on the host thread.
  void Join();

  // This host's virtual clock. Only the host thread writes it (before Start,
  // its creator may set it); any thread may read it.
  VirtualClock& clock() { return clock_; }

  // Makes a suspended fiber runnable on its home thread, from any thread.
  // The home thread's park is poked only when the caller runs elsewhere.
  // A waker on another host thread stamps the fiber with its clock.
  static void Wake(Fiber* fiber);

  // The calling fiber gives up its host thread until a Wake. The caller must
  // already be published where its waker finds it, and may hold no lock.
  // On return the host clock has merged the waker's stamp.
  static void Suspend();

  // Requeues the calling fiber at the tail of its run queue and runs the
  // fibers queued before it. With nothing else runnable it yields the host
  // thread to the OS instead. Outside a fiber, it is a host yield.
  static void Yield();

 private:
  void Loop();
  // Switches from the running fiber back to this host's scheduler loop.
  void SwitchToLoop(Fiber* self, bool finishing);
  static void Trampoline();

  std::mutex mu_;                  // guards runq_ and live_
  std::condition_variable park_;   // the loop waits here for a runnable fiber
  std::deque<Fiber*> runq_;
  int live_ = 0;                   // fibers added and not yet finished
  // A finished fiber's stack mapping, kept for the next Add: a fresh mapping
  // costs a page fault per stack page the fiber touches. Touched only on the
  // host thread (and by Add before Start).
  void* spare_mapping_ = nullptr;

  // The scheduler loop's context and its sanitizer handles.
  ucontext_t loop_context_;
  void* loop_tsan_fiber_ = nullptr;
  void* loop_asan_fake_stack_ = nullptr;
  const void* loop_stack_bottom_ = nullptr;
  size_t loop_stack_size_ = 0;

  // Its own cache line: every call on this host writes it, and other
  // threads only read it.
  alignas(64) VirtualClock clock_;

  std::thread loop_thread_;  // last: it runs Loop over every member above
};

// A wait channel, 4.3BSD's sleep address: the fibers asleep on one object.
// It is guarded by the kernel big lock, like the object it belongs to, so
// every Add and every wakeup runs under that lock.
class WaitChannel {
 public:
  void Add(Fiber* fiber) { sleepers_.push_back(fiber); }

  // wakeup(chan): makes every sleeper runnable.
  void Wakeup();

  // Makes `fiber` runnable if it still sleeps here (a signal post); a fiber
  // already woken is left alone.
  void Wake(Fiber* fiber);

 private:
  std::vector<Fiber*> sleepers_;
};

}  // namespace ia

#endif  // SRC_KERNEL_FIBER_H_
