// Transparent data transformation agents (paper §1.4: "transparent data
// compression and/or encryption agents").
//
// FilterAgent applies a ByteCodec to every regular file under a scope prefix:
// the stored bytes are the encoded form; applications read and write the logical
// (decoded) form through a custom OpenObject that buffers the logical content and
// writes the encoded form back on last close. CompressAgent and CryptAgent are
// the two instantiations.
#ifndef SRC_AGENTS_FILTER_FS_H_
#define SRC_AGENTS_FILTER_FS_H_

#include <memory>

#include "src/agents/codec.h"
#include "src/toolkit/toolkit.h"

namespace ia {

class FilterAgent : public PathnameSet {
 public:
  FilterAgent(std::string agent_name, std::string scope_prefix,
              std::shared_ptr<ByteCodec> codec)
      : name_(std::move(agent_name)),
        scope_(std::move(scope_prefix)),
        codec_(std::move(codec)) {}

  std::string name() const override { return name_; }
  const ByteCodec& codec() const { return *codec_; }

  bool InScope(const std::string& path) const;

 protected:
  PathnameRef getpn(AgentCall& call, const char* path) override;

  // Pathname footprint plus the whole fd class: FilterFileObject transforms
  // the data plane (read/write/lseek/fstat/ftruncate/fsync route through the
  // codec buffer), so every descriptor row must still reach the frame.
  Footprint default_footprint() const override {
    return PathnameSet::default_footprint().Merge(Footprint::Classes(kTakesFd));
  }

 private:
  std::string name_;
  std::string scope_;
  std::shared_ptr<ByteCodec> codec_;
};

class CompressAgent final : public FilterAgent {
 public:
  explicit CompressAgent(std::string scope_prefix)
      : FilterAgent("compress", std::move(scope_prefix), std::make_shared<RleCodec>()) {}
};

class CryptAgent final : public FilterAgent {
 public:
  CryptAgent(std::string scope_prefix, uint64_t key)
      : FilterAgent("crypt", std::move(scope_prefix), std::make_shared<XorCodec>(key)) {}
};

// Pathname under the filter scope: opens produce FilterFileObjects; stat reports
// the logical size.
class FilterPathname final : public Pathname {
 public:
  FilterPathname(FilterAgent* owner, std::string path, const ByteCodec* byte_codec)
      : Pathname(owner, std::move(path)), codec_(byte_codec) {}

  SyscallStatus open(AgentCall& call, int flags, Mode mode) override;
  SyscallStatus stat(AgentCall& call, Stat* st) override;

 private:
  const ByteCodec* codec_;
};

// Buffers the logical content; encodes on write-back. dup()/fork() sharing gives
// a shared offset, matching 4.3BSD open-file semantics.
class FilterFileObject final : public OpenObject {
 public:
  FilterFileObject(int real_fd, const ByteCodec* byte_codec, std::string logical,
                   int open_flags);

  SyscallStatus read(AgentCall& call, void* buf, int64_t cnt) override;
  SyscallStatus write(AgentCall& call, const void* buf, int64_t cnt) override;
  SyscallStatus lseek(AgentCall& call, Off offset, int whence) override;
  SyscallStatus fstat(AgentCall& call, Stat* st) override;
  SyscallStatus ftruncate(AgentCall& call, Off length) override;
  SyscallStatus fsync(AgentCall& call) override;
  SyscallStatus close(AgentCall& call) override;

  const std::string& logical() const { return logical_; }

 private:
  int WriteBack(DownApi api);

  const ByteCodec* codec_;
  std::string logical_;
  Off offset_ = 0;
  int open_flags_;
  bool dirty_ = false;
};

}  // namespace ia

#endif  // SRC_AGENTS_FILTER_FS_H_
