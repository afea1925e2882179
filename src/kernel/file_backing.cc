#include "src/kernel/file_backing.h"

#include "src/kernel/fdtable.h"
#include "src/kernel/kernel.h"
#include "src/kernel/pipe.h"
#include "src/kernel/process.h"
#include "src/kernel/vfs.h"

namespace ia {

// ---------------------------------------------------------------------------
// The narrow kernel API (FileBacking is a friend of Kernel).
// ---------------------------------------------------------------------------

void FileBacking::PostSignal(Kernel& k, Process& p, int signo) { k.PostSignalLocked(p, signo); }

void FileBacking::BigLock(Kernel& k, KernelLock& lk) { k.BigLock(lk); }

SyscallStatus FileBacking::ReadRegular(Kernel& k, Process& p, OpenFile& f, char* buf,
                                       int64_t count, SyscallResult* rv) {
  return k.ReadRegular(p, f, buf, count, rv);
}

SyscallStatus FileBacking::WriteRegular(Kernel& k, Process& p, OpenFile& f, const char* buf,
                                        int64_t count, SyscallResult* rv) {
  const InodeBytesLock bytes_lock(k.fs_, *f.inode);
  return k.WriteRegularLocked(p, f, buf, count, rv);
}

// ---------------------------------------------------------------------------
// VnodeBacking.
// ---------------------------------------------------------------------------

const std::shared_ptr<FileBacking>& VnodeBacking::Instance() {
  static const std::shared_ptr<FileBacking> instance = std::make_shared<VnodeBacking>();
  return instance;
}

SyscallStatus VnodeBacking::Read(Kernel& k, Process& p, OpenFile& f, char* buf, int64_t count,
                                 SyscallResult* rv, KernelLock& lk) {
  const InodeRef& inode = f.inode;
  if (inode == nullptr) {
    return -kEBadf;
  }
  if (inode->IsDevice()) {
    BigLock(k, lk);  // device state belongs to the big lock
    const int64_t n = inode->device->Read(buf, count, f.offset);
    if (n > 0) {
      f.offset += n;
    }
    rv->rv[0] = n;
    return static_cast<SyscallStatus>(n);
  }
  return ReadRegular(k, p, f, buf, count, rv);
}

SyscallStatus VnodeBacking::Write(Kernel& k, Process& p, OpenFile& f, const char* buf,
                                  int64_t count, SyscallResult* rv, KernelLock& lk) {
  const InodeRef& inode = f.inode;
  if (inode == nullptr) {
    return -kEBadf;
  }
  if (inode->IsRegular()) {
    return WriteRegular(k, p, f, buf, count, rv);
  }
  if (inode->IsDirectory()) {
    return -kEIsdir;
  }
  if (inode->IsDevice()) {
    BigLock(k, lk);  // device state belongs to the big lock
    const int64_t n = inode->device->Write(buf, count, f.offset);
    if (n > 0) {
      f.offset += n;
    }
    rv->rv[0] = n;
    return static_cast<SyscallStatus>(n);
  }
  return -kEInval;  // a node that holds no bytes (a socket node opened by path)
}

SyscallStatus VnodeBacking::Fstat(Kernel& k, OpenFile& f, Stat* st) {
  if (f.inode == nullptr) {
    return -kEBadf;
  }
  std::shared_lock<RwLock> tree(k.fs().TreeMutex());
  f.inode->FillStat(st);  // takes a regular file's data_mu for its size
  return 0;
}

SyscallStatus VnodeBacking::Lseek(Kernel& k, OpenFile& f, Off offset, int whence,
                                  SyscallResult* rv) {
  // The tree lock held shared, then the inode's data_mu: it orders the
  // offset move against the inode's writers and guards the SEEK_END size
  // read.
  std::shared_lock<RwLock> tree(k.fs().TreeMutex());
  std::unique_lock<WordMutex> data_lock;
  if (f.inode != nullptr) {
    data_lock = std::unique_lock<WordMutex>(f.inode->data_mu);
  }
  Off base = 0;
  switch (whence) {
    case kSeekSet:
      base = 0;
      break;
    case kSeekCur:
      base = f.offset;
      break;
    case kSeekEnd:
      base = f.inode != nullptr ? static_cast<Off>(f.inode->data.size()) : 0;
      break;
    default:
      return -kEInval;
  }
  // Sum in unsigned so hostile offsets near INT64_MAX cannot overflow the
  // signed addition. Offsets past the per-file byte ceiling are rejected
  // outright: no byte there can ever be read or written, and bounding the
  // stored offset keeps every later offset sum overflow-free.
  const Off target = static_cast<Off>(static_cast<uint64_t>(base) + static_cast<uint64_t>(offset));
  if (target < 0 || target > kMaxFileBytes) {
    return -kEInval;
  }
  f.offset = target;
  rv->rv[0] = target;
  return static_cast<SyscallStatus>(target >= 0 ? 0 : target);
}

// ---------------------------------------------------------------------------
// PipeBacking.
// ---------------------------------------------------------------------------

PipeBacking::PipeBacking(std::shared_ptr<Pipe> pipe, bool write_end)
    : pipe_(std::move(pipe)), write_end_(write_end) {
  if (write_end_) {
    pipe_->writers += 1;
  } else {
    pipe_->readers += 1;
  }
}

PipeBacking::~PipeBacking() {
  if (write_end_) {
    pipe_->writers -= 1;
  } else {
    pipe_->readers -= 1;
  }
  pipe_->chan.Wakeup();
}

SyscallStatus PipeBacking::Read(Kernel& k, Process& p, OpenFile& f, char* buf, int64_t count,
                                SyscallResult* rv, KernelLock& lk) {
  BigLock(k, lk);
  for (;;) {
    if (pipe_->BytesBuffered() > 0) {
      const int64_t n = pipe_->ReadSome(buf, count);
      p.host->clock().Merge(pipe_->stamp());
      rv->rv[0] = n;
      pipe_->chan.Wakeup();
      return static_cast<SyscallStatus>(n);
    }
    if (pipe_->writers == 0) {
      rv->rv[0] = 0;
      return 0;  // EOF
    }
    const SyscallStatus slept = Sleep(p, pipe_->chan, lk, SleepModeOf(f));
    if (slept != 0) {
      return slept;
    }
  }
}

SyscallStatus PipeBacking::Write(Kernel& k, Process& p, OpenFile& f, const char* buf,
                                 int64_t count, SyscallResult* rv, KernelLock& lk) {
  BigLock(k, lk);
  int64_t total = 0;
  for (;;) {
    if (pipe_->readers == 0) {
      PostSignal(k, p, kSigPipe);
      return total > 0 ? static_cast<SyscallStatus>(total) : -kEPipe;
    }
    const int64_t n = pipe_->WriteSome(buf + total, count - total);
    if (n > 0) {
      total += n;
      pipe_->Stamp(p.host->clock().Now());
      pipe_->chan.Wakeup();
    }
    if (total == count) {
      rv->rv[0] = total;
      return static_cast<SyscallStatus>(total);
    }
    const SyscallStatus slept = Sleep(p, pipe_->chan, lk, SleepModeOf(f));
    if (slept != 0) {
      if (total > 0) {
        rv->rv[0] = total;
        return static_cast<SyscallStatus>(total);
      }
      return slept;
    }
  }
}

SyscallStatus PipeBacking::Fstat(Kernel& k, OpenFile& f, Stat* st) {
  if (f.inode != nullptr) {
    std::shared_lock<RwLock> tree(k.fs().TreeMutex());
    f.inode->FillStat(st);  // named fifo: the inode carries the attributes
    return 0;
  }
  // Anonymous pipe: its byte count is big-lock state.
  KernelLock lk;
  BigLock(k, lk);
  *st = Stat{};
  st->st_mode = kSIfifo | 0600;
  st->st_size = static_cast<Off>(pipe_->BytesBuffered());
  st->st_nlink = 1;
  return 0;
}

SyscallStatus PipeBacking::Lseek(Kernel& /*k*/, OpenFile& /*f*/, Off /*offset*/, int /*whence*/,
                                 SyscallResult* /*rv*/) {
  return -kESpipe;
}

}  // namespace ia
