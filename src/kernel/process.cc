#include "src/kernel/process.h"

#include "src/kernel/context.h"

namespace ia {

Process::~Process() = default;

SyscallStatus Sleep(Process& p, WaitChannel& chan, KernelLock& lk, SleepMode mode) {
  if (mode == SleepMode::kNonblock) {
    return -kEWouldblock;
  }
  if (mode == SleepMode::kInterruptible && p.HasDeliverableSignal()) {
    return -kEIntr;
  }
  p.wchan = &chan;
  chan.Add(p.fiber);
  lk.unlock();
  FiberHost::Suspend();  // a wakeup has queued us, and the host resumed us
  lk.lock();
  p.wchan = nullptr;
  return 0;
}

SigDefault DefaultActionFor(int signo) {
  switch (signo) {
    case kSigUrg:
    case kSigChld:
    case kSigIo:
    case kSigWinch:
    case kSigInfo:
      return SigDefault::kIgnore;
    case kSigStop:
    case kSigTstp:
    case kSigTtin:
    case kSigTtou:
      return SigDefault::kStop;
    case kSigCont:
      return SigDefault::kContinue;
    default:
      return SigDefault::kTerminate;
  }
}

}  // namespace ia
