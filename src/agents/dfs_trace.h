// The dfs_trace agent (paper §3.5.3): file reference tracing compatible with the
// DFSTrace tools originally implemented in-kernel for the Coda project.
//
// The paper built this agent as the "best available implementation" comparison:
// the in-kernel DFSTrace needed 26 modified kernel files and 1627 statements; the
// agent needed no kernel changes and 1584 statements, but ran slower (64% vs 3.0%
// slowdown on the AFS benchmark). Our in-kernel counterpart is src/kernel/ktrace.
//
// Name references are collected at the paper's chokepoint — getpn() — plus
// descriptor lifecycle events, and each record costs two write(2) calls on the
// lower interface (fixed header + variable payload), like the original trace log.
#ifndef SRC_AGENTS_DFS_TRACE_H_
#define SRC_AGENTS_DFS_TRACE_H_

#include <array>
#include <atomic>
#include <string_view>

#include "src/toolkit/toolkit.h"

namespace ia {

// DFSTrace-style record opcodes (subset).
enum class DfsOpcode : uint8_t {
  kNameRef = 1,   // pathname resolved on behalf of a call
  kOpen = 2,
  kClose = 3,
  kStat = 4,
  kUnlink = 5,
  kRename = 6,
  kMkdir = 7,
  kRmdir = 8,
  kChdir = 9,
  kExecve = 10,
  kFork = 11,
  kExit = 12,
  kSeek = 13,
};

// On-disk record header (fixed size, little-endian host layout).
struct DfsRecordHeader {
  uint32_t magic = 0xdf57ace;  // "DFSTRACE"
  uint32_t sequence = 0;
  int32_t pid = 0;
  uint8_t opcode = 0;
  uint8_t pad[3] = {0, 0, 0};
  int32_t result = 0;
  uint16_t payload_len = 0;
  uint16_t reserved = 0;
};

class DfsTraceAgent final : public PathnameSet {
 public:
  explicit DfsTraceAgent(std::string log_path) : log_path_(std::move(log_path)) {}

  std::string name() const override { return "dfs_trace"; }

  int64_t records_written() const { return sequence_.load(); }
  int64_t count(DfsOpcode op) const {
    return counts_[static_cast<size_t>(op)].load(std::memory_order_relaxed);
  }

 protected:
  void init(ProcessContext& ctx) override;

  // DFSTrace records exactly the file-reference events, so the footprint is
  // the table's kFileRef class — the same flag bit that drives ktrace's
  // file-reference sink filter. Calls outside that set skip the frame.
  Footprint default_footprint() const override { return Footprint::Classes(kFileRef); }

  // The central name-reference collection point (paper: "it provides a central
  // point for name reference data collection, as was done by the dfs_trace
  // agent").
  PathnameRef getpn(AgentCall& call, const char* path) override;

  SyscallStatus sys_open(AgentCall& call, const char* path, int flags, Mode mode) override;
  SyscallStatus sys_close(AgentCall& call, int fd) override;
  SyscallStatus sys_stat(AgentCall& call, const char* path, Stat* st) override;
  SyscallStatus sys_unlink(AgentCall& call, const char* path) override;
  SyscallStatus sys_rename(AgentCall& call, const char* from, const char* to) override;
  SyscallStatus sys_mkdir(AgentCall& call, const char* path, Mode mode) override;
  SyscallStatus sys_rmdir(AgentCall& call, const char* path) override;
  SyscallStatus sys_chdir(AgentCall& call, const char* path) override;
  SyscallStatus sys_execve(AgentCall& call, const char* path) override;
  SyscallStatus sys_lseek(AgentCall& call, int fd, Off offset, int whence) override;
  SyscallStatus sys_fork(AgentCall& call) override;
  SyscallStatus sys_exit(AgentCall& call, int status) override;

 private:
  // Writes header + payload: exactly two write(2) calls on the lower interface
  // (one when the payload is empty).
  void Record(DownApi api, Pid pid, DfsOpcode op, int32_t result, std::string_view payload);
  // A record whose payload is descriptor `fd` in decimal.
  void RecordFd(AgentCall& call, DfsOpcode op, int32_t result, int fd);

  std::string log_path_;
  int log_fd_ = -1;
  std::atomic<uint32_t> sequence_{0};
  std::array<std::atomic<int64_t>, 16> counts_{};
};

// Reads back a DFSTrace log into decoded records (analysis tools / tests).
struct DfsDecodedRecord {
  DfsRecordHeader header;
  std::string payload;
};
std::vector<DfsDecodedRecord> DecodeDfsTraceLog(const std::string& bytes);

}  // namespace ia

#endif  // SRC_AGENTS_DFS_TRACE_H_
