// Declared abstraction footprints (paper goal 4: agents pay only for what they
// use).
//
// A Footprint names the slice of the system interface an agent actually
// touches, derived from the abstraction-class flags in src/kernel/syscalls.def
// rather than from hand-enumerated numbers: a pathname-layer agent says
// "every path-taking row" once, and its interest set then narrows or widens
// automatically as table rows change. At install time the toolkit resolves the
// footprint against the syscall table into the per-frame interest bitset, so
// numbers outside the footprint skip the agent's frame entirely and go
// straight to their kernel handlers, which take only the locks they need.
#ifndef SRC_TOOLKIT_FOOTPRINT_H_
#define SRC_TOOLKIT_FOOTPRINT_H_

#include <bitset>
#include <initializer_list>

#include "src/kernel/syscall_table.h"
#include "src/kernel/types.h"

namespace ia {

class AgentBinding;

class Footprint {
 public:
  // The full interface, both directions (calls and incoming signals) — the
  // pre-refactor SymbolicSyscall default, kept for trace/monitor-style agents
  // whose job is the whole interface.
  static Footprint All() {
    Footprint fp;
    fp.numbers_.set();
    fp.signals_ = kAllSignalsMask;
    return fp;
  }

  static Footprint None() { return Footprint(); }

  // Every table row carrying at least one of `table_flags`
  // (kTakesPath/kTakesFd/kProcess/kSignalRelated/kBlocking/kFileRef/...).
  static Footprint Classes(uint32_t table_flags) {
    return Footprint().AddClasses(table_flags);
  }

  static Footprint Numbers(std::initializer_list<int> numbers) {
    Footprint fp;
    for (int n : numbers) {
      fp.Add(n);
    }
    return fp;
  }

  // The rows a Directory open object needs on top of its owner's footprint:
  // direntry iteration (getdirentries) and seek-driven rewind (lseek).
  static Footprint Direntry() { return Numbers({kSysGetdirentries, kSysLseek}); }

  // The AF_UNIX socket interface (every row tagged kSocketClass in syscalls.def,
  // implemented or not) — the natural footprint for socket-layer agents like
  // the proxy/firewall agent.
  static Footprint Sockets() { return Classes(kSocketClass); }

  Footprint& Add(int number) {
    if (number >= 0 && number < kMaxSyscall) {
      numbers_.set(static_cast<size_t>(number));
    }
    return *this;
  }

  Footprint& AddClasses(uint32_t table_flags) {
    for (int n = 0; n < kMaxSyscall; ++n) {
      if ((SyscallSpecOf(n).flags & table_flags) != 0) {
        numbers_.set(static_cast<size_t>(n));
      }
    }
    return *this;
  }

  Footprint& AddSignal(int signo) {
    if (signo > 0 && signo < kNumSignals) {
      signals_ |= SigMask(signo);
    }
    return *this;
  }

  Footprint& AddAllSignals() {
    signals_ = kAllSignalsMask;
    return *this;
  }

  Footprint& Merge(const Footprint& other) {
    numbers_ |= other.numbers_;
    signals_ |= other.signals_;
    return *this;
  }

  bool Contains(int number) const {
    return number >= 0 && number < kMaxSyscall &&
           numbers_.test(static_cast<size_t>(number));
  }

  const std::bitset<kMaxSyscall>& numbers() const { return numbers_; }
  uint32_t signals() const { return signals_; }
  size_t Count() const { return numbers_.count(); }

 private:
  // Clamped to valid signal numbers (1..kNumSignals-1); see types.h.
  static constexpr uint32_t kAllSignalsMask = kValidSignalsMask;

  std::bitset<kMaxSyscall> numbers_;
  uint32_t signals_ = 0;
};

inline Footprint operator|(Footprint lhs, const Footprint& rhs) {
  lhs.Merge(rhs);
  return lhs;
}

}  // namespace ia

#endif  // SRC_TOOLKIT_FOOTPRINT_H_
