#include "src/agents/userdev.h"

#include <cstring>

#include "src/base/strings.h"

namespace ia {
namespace {

// The open object backing an agent-level logical device. The lower-level fd is a
// placeholder on /dev/null, claimed only to reserve the descriptor number.
class UserDevObject final : public OpenObject {
 public:
  UserDevObject(int real_fd, std::shared_ptr<UserDevice> device)
      : OpenObject(real_fd), device_(std::move(device)) {}

  SyscallStatus read(AgentCall& call, void* buf, int64_t cnt) override {
    if (buf == nullptr) {
      return -kEFault;
    }
    const int64_t n = device_->Read(offset_, static_cast<char*>(buf), cnt);
    if (n > 0) {
      offset_ += n;
    }
    if (call.rv() != nullptr && n >= 0) {
      call.rv()->rv[0] = n;
    }
    return static_cast<SyscallStatus>(n);
  }

  SyscallStatus write(AgentCall& call, const void* buf, int64_t cnt) override {
    if (buf == nullptr) {
      return -kEFault;
    }
    const int64_t n = device_->Write(offset_, static_cast<const char*>(buf), cnt);
    if (n > 0) {
      offset_ += n;
    }
    if (call.rv() != nullptr && n >= 0) {
      call.rv()->rv[0] = n;
    }
    return static_cast<SyscallStatus>(n);
  }

  SyscallStatus lseek(AgentCall& call, Off offset, int whence) override {
    Off base = 0;
    switch (whence) {
      case kSeekSet:
        base = 0;
        break;
      case kSeekCur:
        base = offset_;
        break;
      default:
        return -kEInval;  // logical devices have no meaningful end
    }
    if (base + offset < 0) {
      return -kEInval;
    }
    offset_ = base + offset;
    if (call.rv() != nullptr) {
      call.rv()->rv[0] = offset_;
    }
    return 0;
  }

  SyscallStatus fstat(AgentCall& call, Stat* st) override {
    (void)call;
    if (st == nullptr) {
      return -kEFault;
    }
    *st = Stat{};
    st->st_mode = kSIfchr | 0666;
    st->st_nlink = 1;
    st->st_rdev = 0x7f00;
    return 0;
  }

  SyscallStatus ioctl(AgentCall& call, uint64_t request, void* argp) override {
    (void)call;
    return device_->Ioctl(request, argp);
  }

 private:
  std::shared_ptr<UserDevice> device_;
  Off offset_ = 0;
};

// Pathname for a registered logical device.
class UserDevPathname final : public Pathname {
 public:
  UserDevPathname(UserDevAgent* owner, std::string path, std::shared_ptr<UserDevice> device)
      : Pathname(owner, std::move(path)), device_(std::move(device)) {}

  SyscallStatus open(AgentCall& call, int /*flags*/, Mode /*mode*/) override {
    DownApi api(call);
    // Reserve the application-visible descriptor slot below.
    const int fd = api.Open("/dev/null", kORdwr);
    if (fd < 0) {
      return fd;
    }
    auto object = std::make_shared<UserDevObject>(fd, device_);
    static_cast<UserDevAgent*>(owner_)->InstallDescriptor(call.ctx(), fd, object);
    if (call.rv() != nullptr) {
      call.rv()->rv[0] = fd;
    }
    return fd;
  }

  SyscallStatus stat(AgentCall& call, Stat* st) override {
    (void)call;
    if (st == nullptr) {
      return -kEFault;
    }
    *st = Stat{};
    st->st_mode = kSIfchr | 0666;
    st->st_nlink = 1;
    st->st_rdev = 0x7f00;
    return 0;
  }

  SyscallStatus lstat(AgentCall& call, Stat* st) override { return stat(call, st); }
  SyscallStatus access(AgentCall& call, int /*amode*/) override {
    (void)call;
    return 0;
  }
  SyscallStatus unlink(AgentCall& call) override {
    (void)call;
    return -kEPerm;  // logical devices cannot be removed by clients
  }

 private:
  std::shared_ptr<UserDevice> device_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Devices.
// ---------------------------------------------------------------------------

int64_t FortuneDevice::Read(Off offset, char* buf, int64_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  if (fortunes_.empty()) {
    return 0;
  }
  // offset 0 starts a fresh fortune; non-zero offsets continue/terminate it.
  if (offset > 0) {
    return 0;  // one fortune per open (then EOF)
  }
  const std::string& fortune = fortunes_[next_];
  next_ = (next_ + 1) % fortunes_.size();
  const int64_t n = std::min<int64_t>(count, static_cast<int64_t>(fortune.size()));
  std::memcpy(buf, fortune.data(), static_cast<size_t>(n));
  return n;
}

int64_t FortuneDevice::Write(Off /*offset*/, const char* /*buf*/, int64_t count) {
  return count;  // contributions graciously accepted and discarded
}

int64_t CounterDevice::Read(Off offset, char* buf, int64_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string text = StringPrintf("%lld\n", static_cast<long long>(value_));
  if (offset >= static_cast<Off>(text.size())) {
    return 0;
  }
  const int64_t n =
      std::min<int64_t>(count, static_cast<int64_t>(text.size()) - offset);
  std::memcpy(buf, text.data() + offset, static_cast<size_t>(n));
  return n;
}

int64_t CounterDevice::Write(Off /*offset*/, const char* buf, int64_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  value_ = std::atoll(std::string(buf, static_cast<size_t>(count)).c_str());
  return count;
}

int CounterDevice::Ioctl(uint64_t request, void* argp) {
  std::lock_guard<std::mutex> lock(mu_);
  switch (request) {
    case kIoctlIncrement:
      ++value_;
      if (argp != nullptr) {
        *static_cast<int64_t*>(argp) = value_;
      }
      return 0;
    case kIoctlReset:
      value_ = 0;
      return 0;
    default:
      return -kENotty;
  }
}

// ---------------------------------------------------------------------------
// Agent.
// ---------------------------------------------------------------------------

void UserDevAgent::AddDevice(const std::string& path, std::shared_ptr<UserDevice> device) {
  std::lock_guard<std::mutex> lock(mu_);
  devices_[path::LexicallyClean(path)] = std::move(device);
}

std::shared_ptr<UserDevice> UserDevAgent::FindDevice(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = devices_.find(path::LexicallyClean(path));
  return it == devices_.end() ? nullptr : it->second;
}

PathnameRef UserDevAgent::getpn(AgentCall& call, const char* path) {
  const std::string absolute = AbsoluteClientPath(call, path);
  std::shared_ptr<UserDevice> device = FindDevice(absolute);
  if (device == nullptr) {
    return PathnameSet::getpn(call, path);
  }
  return std::make_unique<UserDevPathname>(this, absolute, std::move(device));
}

}  // namespace ia
