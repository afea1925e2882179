#include "src/apps/batch.h"

#include <cstdlib>
#include <cstring>

namespace ia {

void BatchClient::Push(int number, const SyscallArgs& args, uint64_t tag) {
  SyscallRequest req;
  req.number = number;
  req.user_data = tag;
  req.args = args;
  queued_.push_back(req);
}

void BatchClient::PushOpen(const char* path, int flags, Mode mode, uint64_t tag) {
  SyscallArgs args;
  args.SetPtr(0, path);
  args.SetInt(1, flags);
  args.SetInt(2, mode);
  Push(kSysOpen, args, tag);
}

void BatchClient::PushClose(int fd, uint64_t tag) {
  SyscallArgs args;
  args.SetInt(0, fd);
  Push(kSysClose, args, tag);
}

void BatchClient::PushRead(int fd, void* buf, int64_t count, uint64_t tag) {
  SyscallArgs args;
  args.SetInt(0, fd);
  args.SetPtr(1, buf);
  args.SetInt(2, count);
  Push(kSysRead, args, tag);
}

void BatchClient::PushWrite(int fd, const void* buf, int64_t count, uint64_t tag) {
  SyscallArgs args;
  args.SetInt(0, fd);
  args.SetPtr(1, buf);
  args.SetInt(2, count);
  Push(kSysWrite, args, tag);
}

void BatchClient::PushLseek(int fd, Off offset, int whence, uint64_t tag) {
  SyscallArgs args;
  args.SetInt(0, fd);
  args.SetInt(1, offset);
  args.SetInt(2, whence);
  Push(kSysLseek, args, tag);
}

void BatchClient::PushStat(const char* path, ia::Stat* st, uint64_t tag) {
  SyscallArgs args;
  args.SetPtr(0, path);
  args.SetPtr(1, st);
  Push(kSysStat, args, tag);
}

void BatchClient::PushFstat(int fd, ia::Stat* st, uint64_t tag) {
  SyscallArgs args;
  args.SetInt(0, fd);
  args.SetPtr(1, st);
  Push(kSysFstat, args, tag);
}

void BatchClient::PushAccess(const char* path, int amode, uint64_t tag) {
  SyscallArgs args;
  args.SetPtr(0, path);
  args.SetInt(1, amode);
  Push(kSysAccess, args, tag);
}

void BatchClient::PushGetpid(uint64_t tag) {
  Push(kSysGetpid, SyscallArgs{}, tag);
}

size_t BatchClient::Flush() {
  completions_.clear();
  completions_.reserve(queued_.size());
  SyscallRing& ring = ctx_.Ring(ring_entries_);
  size_t submitted = 0;
  size_t reaped = 0;
  while (submitted < queued_.size()) {
    const uint32_t accepted = ring.SubmitBatch(
        queued_.data() + submitted, static_cast<uint32_t>(queued_.size() - submitted));
    submitted += accepted;
    ctx_.DrainRing();
    // Reap straight into place: room for every submitted entry's completion.
    completions_.resize(submitted);
    while (reaped < submitted) {
      const uint32_t n = ctx_.ReapBatch(completions_.data() + reaped,
                                        static_cast<uint32_t>(submitted - reaped));
      if (n == 0) {
        break;
      }
      reaped += n;
    }
    completions_.resize(reaped);
    if (accepted == 0 && reaped < submitted) {
      break;  // ring wedged (drain stopped on pending exit/exec); bail out
    }
  }
  queued_.clear();
  return completions_.size();
}

// ---------------------------------------------------------------------------
// ringload — the ring-driven mixed workload program.
// ---------------------------------------------------------------------------

int RingLoadMain(ProcessContext& ctx) {
  const std::vector<std::string>& argv = ctx.argv();
  std::string base = "/tmp";
  int iterations = 64;
  if (argv.size() > 1) {
    base = argv[1];
  }
  if (argv.size() > 2) {
    iterations = std::atoi(argv[2].c_str());
  }

  const std::string file = base + "/ringload.dat";
  // Position-dependent bytes: a read at the wrong offset reads other data.
  std::string payload(1024, '\0');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>('a' + i % 26);
  }
  if (ctx.WriteWholeFile(file, payload) < 0) {
    return 1;
  }

  BatchClient batch(ctx);
  char buf[256];
  ia::Stat st{};
  ia::Stat fst{};
  int failures = 0;
  for (int it = 0; it < iterations; ++it) {
    // The fd is needed to build the fd-keyed entries, so open stays
    // synchronous; everything else in the iteration rides the ring.
    const int fd = ctx.Open(file, kORdonly);
    if (fd < 0) {
      return 1;
    }
    std::memset(buf, 0, sizeof(buf));
    st = ia::Stat{};
    fst = ia::Stat{};
    batch.PushStat(file.c_str(), &st, 1);
    batch.PushFstat(fd, &fst, 2);
    batch.PushLseek(fd, 0, kSeekSet, 3);
    batch.PushRead(fd, buf, static_cast<int64_t>(sizeof(buf)), 4);
    batch.PushGetpid(5);
    batch.PushClose(fd, 6);
    batch.Flush();
    const std::vector<SyscallCompletion>& done = batch.completions();
    if (done.size() != 6) {
      ++failures;
      continue;
    }
    for (const SyscallCompletion& c : done) {
      if (c.status < 0) {
        ++failures;
      }
    }
    const bool answers_match =
        st.st_size == static_cast<Off>(payload.size()) && fst.st_size == st.st_size &&
        fst.st_ino == st.st_ino && done[2].result.rv[0] == 0 &&
        done[3].result.rv[0] == static_cast<int64_t>(sizeof(buf)) &&
        std::memcmp(buf, payload.data(), sizeof(buf)) == 0 &&
        done[4].result.rv[0] == ctx.Getpid() && done[5].status == 0;
    if (!answers_match) {
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace ia
