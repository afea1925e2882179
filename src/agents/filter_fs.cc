#include "src/agents/filter_fs.h"

#include <cstring>

#include "src/base/strings.h"

namespace ia {

bool FilterAgent::InScope(const std::string& path) const {
  const std::string clean = path::LexicallyClean(path);
  if (scope_ == "/") {
    return true;
  }
  return clean == scope_ || (StartsWith(clean, scope_) && clean.size() > scope_.size() &&
                             clean[scope_.size()] == '/');
}

PathnameRef FilterAgent::getpn(AgentCall& call, const char* path) {
  const std::string absolute = AbsoluteClientPath(call, path);
  if (!InScope(absolute)) {
    return PathnameSet::getpn(call, path);
  }
  return std::make_unique<FilterPathname>(this, absolute, codec_.get());
}

SyscallStatus FilterPathname::stat(AgentCall& call, Stat* st) {
  const SyscallStatus status = Pathname::stat(call, st);
  if (status < 0 || st == nullptr || !SIsReg(st->st_mode)) {
    return status;
  }
  // Report the logical size, not the stored size.
  DownApi api(call);
  std::string stored;
  if (api.ReadWholeFile(path_, &stored) == 0) {
    std::string plain;
    if (codec_->Decode(stored, &plain) == 0) {
      st->st_size = static_cast<Off>(plain.size());
      st->st_blocks = (st->st_size + 511) / 512;
    }
  }
  return status;
}

SyscallStatus FilterPathname::open(AgentCall& call, int flags, Mode mode) {
  DownApi api(call);
  Stat st;
  const bool exists = api.Stat(path_, &st) == 0;
  if (exists && !SIsReg(st.st_mode)) {
    return Pathname::open(call, flags, mode);  // directories, devices: untouched
  }
  if (!exists && (flags & kOCreat) == 0) {
    return Pathname::open(call, flags, mode);  // let the lower level report ENOENT
  }

  // Open the stored file below. We need read access to load and write access to
  // write back, independent of the application's access mode.
  const int accmode = flags & kOAccmode;
  int lower_flags = accmode == kORdonly ? kORdonly : kORdwr;
  if ((flags & kOCreat) != 0) {
    lower_flags |= kOCreat;
  }
  if ((flags & kOExcl) != 0) {
    lower_flags |= kOExcl;
  }
  const int fd = api.Open(path_, lower_flags, mode);
  if (fd < 0) {
    return fd;
  }

  std::string stored;
  {
    char buf[4096];
    for (;;) {
      const int64_t n = api.Read(fd, buf, sizeof(buf));
      if (n < 0) {
        api.Close(fd);
        return static_cast<SyscallStatus>(n);
      }
      if (n == 0) {
        break;
      }
      stored.append(buf, static_cast<size_t>(n));
    }
  }
  std::string logical;
  const int decode_err = codec_->Decode(stored, &logical);
  if (decode_err != 0) {
    api.Close(fd);
    return decode_err;  // stored bytes are not in this agent's format
  }
  if ((flags & kOTrunc) != 0) {
    logical.clear();
  }

  auto object = std::make_shared<FilterFileObject>(fd, codec_, std::move(logical), flags);
  static_cast<FilterAgent*>(owner_)->InstallDescriptor(call.ctx(), fd, object);
  if (call.rv() != nullptr) {
    call.rv()->rv[0] = fd;
  }
  return fd;
}

// ---------------------------------------------------------------------------
// FilterFileObject.
// ---------------------------------------------------------------------------

FilterFileObject::FilterFileObject(int real_fd, const ByteCodec* byte_codec,
                                   std::string logical, int open_flags)
    : OpenObject(real_fd),
      codec_(byte_codec),
      logical_(std::move(logical)),
      open_flags_(open_flags) {
  if ((open_flags_ & kOAppend) != 0) {
    offset_ = static_cast<Off>(logical_.size());
  }
  if ((open_flags_ & kOTrunc) != 0) {
    dirty_ = true;  // the truncated form must reach the store even if never written
  }
}

SyscallStatus FilterFileObject::read(AgentCall& call, void* buf, int64_t cnt) {
  if ((open_flags_ & kOAccmode) == kOWronly) {
    return -kEBadf;
  }
  if (buf == nullptr) {
    return -kEFault;
  }
  const int64_t size = static_cast<int64_t>(logical_.size());
  const int64_t avail = size - offset_;
  const int64_t n = avail <= 0 ? 0 : std::min(cnt, avail);
  if (n > 0) {
    std::memcpy(buf, logical_.data() + offset_, static_cast<size_t>(n));
    offset_ += n;
  }
  if (call.rv() != nullptr) {
    call.rv()->rv[0] = n;
  }
  return static_cast<SyscallStatus>(n);
}

SyscallStatus FilterFileObject::write(AgentCall& call, const void* buf, int64_t cnt) {
  if ((open_flags_ & kOAccmode) == kORdonly) {
    return -kEBadf;
  }
  if (buf == nullptr) {
    return -kEFault;
  }
  if ((open_flags_ & kOAppend) != 0) {
    offset_ = static_cast<Off>(logical_.size());
  }
  const auto end = static_cast<size_t>(offset_ + cnt);
  if (end > logical_.size()) {
    logical_.resize(end, '\0');
  }
  std::memcpy(logical_.data() + offset_, buf, static_cast<size_t>(cnt));
  offset_ += cnt;
  dirty_ = true;
  if (call.rv() != nullptr) {
    call.rv()->rv[0] = cnt;
  }
  return static_cast<SyscallStatus>(cnt);
}

SyscallStatus FilterFileObject::lseek(AgentCall& call, Off offset, int whence) {
  Off base = 0;
  switch (whence) {
    case kSeekSet:
      base = 0;
      break;
    case kSeekCur:
      base = offset_;
      break;
    case kSeekEnd:
      base = static_cast<Off>(logical_.size());
      break;
    default:
      return -kEInval;
  }
  const Off target = base + offset;
  if (target < 0) {
    return -kEInval;
  }
  offset_ = target;
  if (call.rv() != nullptr) {
    call.rv()->rv[0] = target;
  }
  return 0;
}

SyscallStatus FilterFileObject::fstat(AgentCall& call, Stat* st) {
  const SyscallStatus status = OpenObject::fstat(call, st);
  if (status >= 0 && st != nullptr) {
    st->st_size = static_cast<Off>(logical_.size());
    st->st_blocks = (st->st_size + 511) / 512;
  }
  return status;
}

SyscallStatus FilterFileObject::ftruncate(AgentCall& call, Off length) {
  (void)call;
  if (length < 0) {
    return -kEInval;
  }
  logical_.resize(static_cast<size_t>(length), '\0');
  dirty_ = true;
  return 0;
}

int FilterFileObject::WriteBack(DownApi api) {
  const std::string stored = codec_->Encode(logical_);
  const int64_t pos = api.Lseek(real_fd_, 0, kSeekSet);
  if (pos < 0) {
    return static_cast<int>(pos);
  }
  int64_t done = 0;
  while (done < static_cast<int64_t>(stored.size())) {
    const int64_t n =
        api.Write(real_fd_, stored.data() + done, static_cast<int64_t>(stored.size()) - done);
    if (n < 0) {
      return static_cast<int>(n);
    }
    done += n;
  }
  return api.Ftruncate(real_fd_, static_cast<Off>(stored.size()));
}

SyscallStatus FilterFileObject::fsync(AgentCall& call) {
  if (dirty_) {
    const int err = WriteBack(DownApi(call));
    if (err != 0) {
      return err;
    }
    dirty_ = false;
  }
  return OpenObject::fsync(call);
}

SyscallStatus FilterFileObject::close(AgentCall& call) {
  if (dirty_) {
    const int err = WriteBack(DownApi(call));
    if (err != 0) {
      // Report the write-back failure but still release the descriptor.
      call.CallDown();
      return err;
    }
    dirty_ = false;
  }
  return OpenObject::close(call);
}

}  // namespace ia
