#include "src/agents/dfs_trace.h"

#include <charconv>
#include <cstring>

namespace ia {

void DfsTraceAgent::init(ProcessContext& ctx) {
  PathnameSet::init(ctx);
  if (log_fd_ < 0) {
    log_fd_ = ctx.Open(log_path_, kOWronly | kOCreat | kOAppend, 0644);
  }
}

void DfsTraceAgent::Record(DownApi api, Pid pid, DfsOpcode op, int32_t result,
                           std::string_view payload) {
  if (log_fd_ < 0) {
    return;
  }
  counts_[static_cast<size_t>(op)].fetch_add(1, std::memory_order_relaxed);
  DfsRecordHeader header;
  header.sequence = sequence_.fetch_add(1, std::memory_order_relaxed);
  header.pid = pid;
  header.opcode = static_cast<uint8_t>(op);
  header.result = result;
  header.payload_len = static_cast<uint16_t>(payload.size());
  // Two writes per record, as the paper notes for agent-based tracing.
  api.Write(log_fd_, &header, sizeof(header));
  if (!payload.empty()) {
    api.Write(log_fd_, payload.data(), static_cast<int64_t>(payload.size()));
  }
}

void DfsTraceAgent::RecordFd(AgentCall& call, DfsOpcode op, int32_t result, int fd) {
  char digits[16];
  const char* end = std::to_chars(digits, digits + sizeof(digits), fd).ptr;
  Record(DownApi(call), call.ctx().process().pid, op, result,
         std::string_view(digits, static_cast<size_t>(end - digits)));
}

PathnameRef DfsTraceAgent::getpn(AgentCall& call, const char* path) {
  Record(DownApi(call), call.ctx().process().pid, DfsOpcode::kNameRef, 0, path);
  return PathnameSet::getpn(call, path);
}

SyscallStatus DfsTraceAgent::sys_open(AgentCall& call, const char* path, int flags, Mode mode) {
  const SyscallStatus status = PathnameSet::sys_open(call, path, flags, mode);
  Record(DownApi(call), call.ctx().process().pid, DfsOpcode::kOpen, status,
         path != nullptr ? path : "");
  return status;
}

SyscallStatus DfsTraceAgent::sys_close(AgentCall& call, int fd) {
  const SyscallStatus status = PathnameSet::sys_close(call, fd);
  RecordFd(call, DfsOpcode::kClose, status, fd);
  return status;
}

SyscallStatus DfsTraceAgent::sys_stat(AgentCall& call, const char* path, Stat* st) {
  const SyscallStatus status = PathnameSet::sys_stat(call, path, st);
  Record(DownApi(call), call.ctx().process().pid, DfsOpcode::kStat, status,
         path != nullptr ? path : "");
  return status;
}

SyscallStatus DfsTraceAgent::sys_unlink(AgentCall& call, const char* path) {
  const SyscallStatus status = PathnameSet::sys_unlink(call, path);
  Record(DownApi(call), call.ctx().process().pid, DfsOpcode::kUnlink, status,
         path != nullptr ? path : "");
  return status;
}

SyscallStatus DfsTraceAgent::sys_rename(AgentCall& call, const char* from, const char* to) {
  const SyscallStatus status = PathnameSet::sys_rename(call, from, to);
  Record(DownApi(call), call.ctx().process().pid, DfsOpcode::kRename, status,
         std::string(from != nullptr ? from : "") + " -> " + (to != nullptr ? to : ""));
  return status;
}

SyscallStatus DfsTraceAgent::sys_mkdir(AgentCall& call, const char* path, Mode mode) {
  const SyscallStatus status = PathnameSet::sys_mkdir(call, path, mode);
  Record(DownApi(call), call.ctx().process().pid, DfsOpcode::kMkdir, status,
         path != nullptr ? path : "");
  return status;
}

SyscallStatus DfsTraceAgent::sys_rmdir(AgentCall& call, const char* path) {
  const SyscallStatus status = PathnameSet::sys_rmdir(call, path);
  Record(DownApi(call), call.ctx().process().pid, DfsOpcode::kRmdir, status,
         path != nullptr ? path : "");
  return status;
}

SyscallStatus DfsTraceAgent::sys_chdir(AgentCall& call, const char* path) {
  const SyscallStatus status = PathnameSet::sys_chdir(call, path);
  Record(DownApi(call), call.ctx().process().pid, DfsOpcode::kChdir, status,
         path != nullptr ? path : "");
  return status;
}

SyscallStatus DfsTraceAgent::sys_execve(AgentCall& call, const char* path) {
  Record(DownApi(call), call.ctx().process().pid, DfsOpcode::kExecve, 0,
         path != nullptr ? path : "");
  return PathnameSet::sys_execve(call, path);
}

SyscallStatus DfsTraceAgent::sys_lseek(AgentCall& call, int fd, Off offset, int whence) {
  const SyscallStatus status = PathnameSet::sys_lseek(call, fd, offset, whence);
  RecordFd(call, DfsOpcode::kSeek, status, fd);
  return status;
}

SyscallStatus DfsTraceAgent::sys_fork(AgentCall& call) {
  const SyscallStatus status = PathnameSet::sys_fork(call);
  Record(DownApi(call), call.ctx().process().pid, DfsOpcode::kFork, status, "");
  return status;
}

SyscallStatus DfsTraceAgent::sys_exit(AgentCall& call, int status) {
  Record(DownApi(call), call.ctx().process().pid, DfsOpcode::kExit, status, "");
  return PathnameSet::sys_exit(call, status);
}

std::vector<DfsDecodedRecord> DecodeDfsTraceLog(const std::string& bytes) {
  std::vector<DfsDecodedRecord> records;
  size_t pos = 0;
  while (pos + sizeof(DfsRecordHeader) <= bytes.size()) {
    DfsDecodedRecord record;
    std::memcpy(&record.header, bytes.data() + pos, sizeof(DfsRecordHeader));
    pos += sizeof(DfsRecordHeader);
    if (record.header.magic != 0xdf57ace) {
      break;
    }
    const size_t len = record.header.payload_len;
    if (pos + len > bytes.size()) {
      break;
    }
    record.payload.assign(bytes.data() + pos, len);
    pos += len;
    records.push_back(std::move(record));
  }
  return records;
}

}  // namespace ia
