#include "src/kernel/fdtable.h"

namespace ia {

// Destruction that releases a held flock — or, via the backing member's
// destructor, detaches a pipe end or closes a socket endpoint — mutates
// big-lock-guarded state, so every path that can drop the *last* reference to
// such an OpenFile runs under the kernel big lock; the close fast path first
// checks (atomically) that neither is the case before bypassing it.
OpenFile::~OpenFile() {
  if (flock_mode != 0 && inode != nullptr) {
    if (flock_mode == kLockEx) {
      inode->flock_exclusive = false;
    } else {
      inode->flock_shared -= 1;
    }
  }
}

OpenFileRef MakeVnodeFile(InodeRef inode, int flags) {
  auto file = std::make_shared<OpenFile>();
  file->inode = std::move(inode);
  file->backing = VnodeBacking::Instance();
  file->flags = flags;
  return file;
}

OpenFileRef MakePipeEnd(std::shared_ptr<Pipe> pipe, bool write_end) {
  auto file = std::make_shared<OpenFile>();
  file->backing = std::make_shared<PipeBacking>(std::move(pipe), write_end);
  file->flags = write_end ? kOWronly : kORdonly;
  return file;
}

int FdTable::AllocateSlot(int from) {
  if (from < 0) {
    return -kEInval;
  }
  for (int fd = from; fd < kMaxFilesPerProcess; ++fd) {
    if (!slots_[fd].InUse()) {
      return fd;
    }
  }
  return -kEMfile;
}

int FdTable::Close(int fd) {
  if (!Valid(fd)) {
    return -kEBadf;
  }
  slots_[fd] = FdEntry{};
  return 0;
}

int FdTable::Dup2(int from, int to) {
  if (!Valid(from) || to < 0 || to >= kMaxFilesPerProcess) {
    return -kEBadf;
  }
  if (from != to) {
    slots_[to] = FdEntry{slots_[from].file};
  }
  return to;
}

void FdTable::CloseOnExec() {
  for (FdEntry& slot : slots_) {
    if (slot.close_on_exec) {
      slot = FdEntry{};
    }
  }
}

void FdTable::CloseAll() { slots_.fill(FdEntry{}); }

int FdTable::OpenCount() const {
  int count = 0;
  for (const FdEntry& slot : slots_) {
    if (slot.InUse()) {
      ++count;
    }
  }
  return count;
}

}  // namespace ia
