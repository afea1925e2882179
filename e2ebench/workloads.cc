#include "e2ebench/workloads.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "src/agents/dfs_trace.h"
#include "src/agents/union_fs.h"
#include "src/apps/apps.h"
#include "src/apps/batch.h"
#include "src/base/prng.h"
#include "src/base/strings.h"

namespace e2ebench {
namespace {

double MsSince(int64_t start_ns) { return static_cast<double>(NowNs() - start_ns) / 1e6; }

// Host-side peek at a simulated file; null when absent or not a regular file.
const std::string* FileData(ia::Kernel& kernel, const std::string& file_path) {
  ia::Cred root;
  ia::NameiEnv env{kernel.fs().root(), kernel.fs().root(), &root};
  ia::NameiResult nr;
  if (kernel.fs().Namei(env, file_path, ia::NameiOp::kLookup, true, &nr) != 0 ||
      nr.inode == nullptr || !nr.inode->IsRegular()) {
    return nullptr;
  }
  return &nr.inode->data;
}

// Seeded Fisher-Yates shuffle.
template <typename T>
void Shuffle(std::vector<T>* items, ia::Prng* prng) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[prng->Below(i)]);
  }
}

// Every world runs simulated programs at full speed: no host time is spent on
// simulated user compute, so all measured time belongs to the system.
ia::KernelConfig BenchKernelConfig() {
  ia::KernelConfig config;
  config.compute_spin_scale = 0.0;
  return config;
}

// ---------------------------------------------------------------------------
// make
// ---------------------------------------------------------------------------

constexpr int kMakePrograms = 8;
constexpr const char* kMakeDir = "/home/mbj/progs";

class MakeBench final : public Workload {
 public:
  explicit MakeBench(uint64_t seed) {
    // SetupMakeWorkload's programs, with seeded constants of fixed width so
    // every seed makes the same calls and moves the same bytes.
    ia::Prng prng(seed * 0x9e3779b97f4a7c15ULL + 1);
    constexpr int kHelpersPerProgram = 24;
    for (int i = 1; i <= kMakePrograms; ++i) {
      std::string source = ia::StringPrintf(
          "#include <stdio.h>\n#include \"util.h\"\n/* program %d */\n", i);
      for (int h = 0; h < kHelpersPerProgram; ++h) {
        source += ia::StringPrintf(
            "int helper_%d_%d(int x) {\n"
            "  int acc = x + %d;\n"
            "  acc = acc * %d + 17;\n"
            "  acc = acc ^ (acc >> 3);\n"
            "  return acc;\n"
            "}\n",
            i, h, 100 + static_cast<int>(prng.Below(900)),
            100 + static_cast<int>(prng.Below(900)));
      }
      source += ia::StringPrintf(
          "int main(int argc, char** argv) {\n"
          "  char buf[BUFSIZE];\n"
          "  int value = helper_%d_0(argc);\n"
          "  put(\"prog%d running\\n\");\n"
          "  get(buf, BUFSIZE);\n"
          "  return value & 0xff;\n"
          "}\n",
          i, i);
      sources_.push_back(std::move(source));
    }
  }

  int clients() const override { return 1; }

  void Build(SpanRecorder* recorder, SetupTimes* times) override {
    BuildWorld(recorder, times, /*bare=*/false);
  }

  bool Run(std::string* error) override { return RunClients(error); }

  bool Check(std::string* error) override {
    const std::vector<uint64_t> digests = BinaryDigests();
    if (digests != reference_) {
      *error = "make: built binaries differ from the warm-up build";
      return false;
    }
    return true;
  }

  // The bare build sets the reference digests; the union build must match it.
  bool WarmUp(std::string* error) override {
    SetupTimes ignored;
    BuildWorld(nullptr, &ignored, /*bare=*/true);
    const bool bare_ok = Run(error);
    reference_ = BinaryDigests();
    Teardown();
    if (!bare_ok) {
      return false;
    }
    for (const uint64_t digest : reference_) {
      if (digest == 0) {
        *error = "make: bare build left a binary missing";
        return false;
      }
    }
    Build(nullptr, &ignored);
    bool ok = Run(error);
    if (ok && BinaryDigests() != reference_) {
      *error = "make: union build differs from the bare build";
      ok = false;
    }
    Teardown();
    return ok;
  }

 private:
  void BuildWorld(SpanRecorder* recorder, SetupTimes* times, bool bare) {
    BuildBase(times);
    const int64_t start = NowNs();
    ia::SetupMakeWorkload(*kernel_, kMakePrograms, kMakeDir);
    for (int i = 1; i <= kMakePrograms; ++i) {
      kernel_->fs().InstallFile(ia::StringPrintf("%s/prog%d.c", kMakeDir, i),
                                sources_[static_cast<size_t>(i - 1)]);
    }
    Client client;
    client.spawn.path = "/bin/make";
    client.spawn.argv = {"make"};
    client.spawn.cwd = kMakeDir;
    if (!bare) {
      client.agents.push_back(std::make_shared<ia::UnionAgent>(
          std::vector<ia::UnionMount>{{"/union", {"/usr/lib", "/usr/bin"}}}));
    }
    if (recorder != nullptr) {
      client.agents = WithProbes(*recorder, client.agents);
    }
    clients_ = {std::move(client)};
    times->inputs_ms = MsSince(start);
  }

  // Digest 0 marks a missing binary.
  std::vector<uint64_t> BinaryDigests() {
    std::vector<uint64_t> digests;
    for (int i = 1; i <= kMakePrograms; ++i) {
      const std::string* data = FileData(*kernel_, ia::StringPrintf("%s/prog%d", kMakeDir, i));
      digests.push_back(data == nullptr ? 0 : Digest(*data));
    }
    return digests;
  }

  std::vector<std::string> sources_;
  std::vector<uint64_t> reference_;
};

// ---------------------------------------------------------------------------
// andrew
// ---------------------------------------------------------------------------

constexpr int kAndrewClients = 4;
constexpr int kAndrewSubdirs = 5;
constexpr int kAndrewFilesPerDir = 40;
constexpr const char* kAndrewSource = "/usr/andrew";

class AndrewBench final : public Workload {
 public:
  explicit AndrewBench(uint64_t seed) {
    ia::Prng prng(seed * 0xbf58476d1ce4e5b9ULL + 2);
    // Line counts are a seeded permutation of one fixed multiset and lines
    // have a fixed width, so every seed yields a tree of the same size.
    std::vector<int> lines;
    for (int i = 0; i < kAndrewSubdirs * kAndrewFilesPerDir; ++i) {
      lines.push_back(20 + i % 60);
    }
    Shuffle(&lines, &prng);
    int64_t size = 0;
    int64_t tokens = 0;
    for (int d = 0; d < kAndrewSubdirs; ++d) {
      for (int f = 0; f < kAndrewFilesPerDir; ++f) {
        std::string contents;
        const int count = lines[static_cast<size_t>(d * kAndrewFilesPerDir + f)];
        for (int line = 0; line < count; ++line) {
          contents += ia::StringPrintf("line %02d of file %02d in dir %d: payload %016llx\n", line,
                                       f, d, static_cast<unsigned long long>(prng.Next()));
        }
        size += static_cast<int64_t>(contents.size());
        tokens += static_cast<int64_t>(ia::Split(contents, ' ').size());
        files_.push_back({ia::StringPrintf("/sub%d/file%d.c", d, f), std::move(contents)});
      }
    }
    // The line AndrewMain writes to MAKELOG for this tree.
    makelog_ = ia::StringPrintf("files=%zu dirs=%d size=%lld read=%lld tokens=%lld\n",
                                files_.size(), kAndrewSubdirs, static_cast<long long>(size),
                                static_cast<long long>(size), static_cast<long long>(tokens));
  }

  int clients() const override { return kAndrewClients; }

  void Build(SpanRecorder* recorder, SetupTimes* times) override {
    BuildBase(times);
    const int64_t start = NowNs();
    for (const auto& [relative, contents] : files_) {
      kernel_->fs().InstallFile(kAndrewSource + relative, contents);
    }
    clients_.clear();
    for (int c = 0; c < kAndrewClients; ++c) {
      Client client;
      client.spawn.path = "/usr/bin/andrew";
      client.spawn.argv = {"andrew", kAndrewSource, WorkDir(c)};
      client.agents = {
          std::make_shared<ia::DfsTraceAgent>(ia::StringPrintf("/tmp/dfs%d.log", c))};
      if (recorder != nullptr) {
        client.agents = WithProbes(*recorder, client.agents);
      }
      clients_.push_back(std::move(client));
    }
    times->inputs_ms = MsSince(start);
  }

  bool Run(std::string* error) override { return RunClients(error); }

  bool Check(std::string* error) override {
    for (int c = 0; c < kAndrewClients; ++c) {
      const std::string* log = FileData(*kernel_, WorkDir(c) + "/MAKELOG");
      if (log == nullptr || *log != makelog_) {
        *error = ia::StringPrintf("andrew: client %d MAKELOG is not '%s'", c,
                                  makelog_.substr(0, makelog_.size() - 1).c_str());
        return false;
      }
      for (const auto& [relative, contents] : files_) {
        const std::string* copy = FileData(*kernel_, WorkDir(c) + relative);
        if (copy == nullptr || *copy != contents) {
          *error = ia::StringPrintf("andrew: client %d copy of %s differs", c, relative.c_str());
          return false;
        }
      }
    }
    return true;
  }

 private:
  static std::string WorkDir(int client) { return ia::StringPrintf("/tmp/andrew%d", client); }

  std::vector<std::pair<std::string, std::string>> files_;  // relative path, contents
  std::string makelog_;
};

// ---------------------------------------------------------------------------
// ringmix
// ---------------------------------------------------------------------------

constexpr int kRingClients = 4;
constexpr int kRingDirs = 256;
constexpr int kRingFilesPerDir = 32;
constexpr int kRingBatch = 64;
constexpr int kRingOpenFds = 4;
constexpr int kRingWriteBytes = 64;
constexpr int kRingMaxRead = 256;

enum class RingOp : uint8_t { kStat, kAccess, kFstat, kLseek, kRead, kWrite };

struct RingEntry {
  RingOp op = RingOp::kStat;
  int32_t file = 0;  // stat/access: path index
  int32_t slot = 0;  // fstat/lseek/read: open-fd slot; write: payload slice
  int64_t arg = 0;   // lseek offset, read count
  int64_t expect = 0;       // expected value (rv[0]) or -errno
  int64_t expect_size = 0;  // stat/fstat: st_size
  int32_t read_file = 0;    // read: file and offset the bytes must come from
  int64_t read_offset = 0;
};

struct RingRound {
  std::array<int32_t, kRingOpenFds> open_files{};
  std::vector<RingEntry> entries;
};

struct RingClientResult {
  bool ok = false;
  std::string error;
  RingSpans spans;
};

class RingmixBench final : public Workload {
 public:
  explicit RingmixBench(uint64_t seed) {
    ia::Prng prng(seed * 0x94d049bb133111ebULL + 3);
    std::vector<int64_t> sizes;
    for (int i = 0; i < kRingDirs * kRingFilesPerDir; ++i) {
      sizes.push_back(128 * (1 + i % 8));
    }
    Shuffle(&sizes, &prng);
    for (int d = 0; d < kRingDirs; ++d) {
      for (int f = 0; f < kRingFilesPerDir; ++f) {
        std::string contents(static_cast<size_t>(sizes[paths_.size()]), '\0');
        for (char& c : contents) {
          c = static_cast<char>('a' + prng.Below(26));
        }
        paths_.push_back(ia::StringPrintf("/data/d%03d/f%02d", d, f));
        contents_.push_back(std::move(contents));
      }
    }
    // Each round: 8 writes and 56 reads of five kinds, in seeded order.
    std::vector<RingOp> mix;
    mix.insert(mix.end(), 8, RingOp::kWrite);
    mix.insert(mix.end(), 14, RingOp::kStat);
    mix.insert(mix.end(), 10, RingOp::kAccess);
    mix.insert(mix.end(), 10, RingOp::kFstat);
    mix.insert(mix.end(), 10, RingOp::kLseek);
    mix.insert(mix.end(), 12, RingOp::kRead);
    const int64_t files = static_cast<int64_t>(paths_.size());
    for (int c = 0; c < kRingClients; ++c) {
      payloads_.emplace_back(static_cast<size_t>(8 * kRingWriteBytes), '\0');
      for (char& ch : payloads_.back()) {
        ch = static_cast<char>('A' + prng.Below(26));
      }
      std::vector<RingRound> rounds(kRingRounds);
      for (RingRound& round : rounds) {
        std::array<int64_t, kRingOpenFds> offsets{};
        for (int32_t& file : round.open_files) {
          file = static_cast<int32_t>(prng.Below(static_cast<uint64_t>(files)));
        }
        Shuffle(&mix, &prng);
        int writes = 0;
        for (const RingOp op : mix) {
          RingEntry e;
          e.op = op;
          switch (op) {
            case RingOp::kStat:
            case RingOp::kAccess:
              e.file = static_cast<int32_t>(prng.Below(static_cast<uint64_t>(files)));
              e.expect_size = static_cast<int64_t>(contents_[static_cast<size_t>(e.file)].size());
              break;
            case RingOp::kFstat:
              e.slot = static_cast<int32_t>(prng.Below(kRingOpenFds));
              e.expect_size = FileSize(round.open_files[static_cast<size_t>(e.slot)]);
              break;
            case RingOp::kLseek: {
              e.slot = static_cast<int32_t>(prng.Below(kRingOpenFds));
              const int64_t size = FileSize(round.open_files[static_cast<size_t>(e.slot)]);
              e.arg = static_cast<int64_t>(prng.Below(static_cast<uint64_t>(size + 1)));
              e.expect = e.arg;
              offsets[static_cast<size_t>(e.slot)] = e.arg;
              break;
            }
            case RingOp::kRead: {
              e.slot = static_cast<int32_t>(prng.Below(kRingOpenFds));
              e.read_file = round.open_files[static_cast<size_t>(e.slot)];
              e.arg = 1 + static_cast<int64_t>(prng.Below(kRingMaxRead));
              int64_t& offset = offsets[static_cast<size_t>(e.slot)];
              e.read_offset = offset;
              e.expect = std::min(e.arg, FileSize(e.read_file) - offset);
              offset += e.expect;
              break;
            }
            case RingOp::kWrite:
              e.slot = writes++;
              e.expect = kRingWriteBytes;
              break;
          }
          round.entries.push_back(e);
        }
      }
      plans_.push_back(std::move(rounds));
    }
  }

  int clients() const override { return kRingClients; }

  void Build(SpanRecorder* recorder, SetupTimes* times) override {
    BuildBase(times);
    const int64_t start = NowNs();
    for (size_t i = 0; i < paths_.size(); ++i) {
      kernel_->fs().InstallFile(paths_[i], contents_[i]);
    }
    kernel_->fs().MkdirAll("/tmp/ringmix");
    traced_ = recorder != nullptr;
    results_.assign(kRingClients, RingClientResult{});
    clients_.clear();
    for (int c = 0; c < kRingClients; ++c) {
      Client client;
      client.spawn.argv = {"ringmix"};
      client.spawn.body = [this, c](ia::ProcessContext& ctx) { return ClientMain(ctx, c); };
      clients_.push_back(std::move(client));
    }
    times->inputs_ms = MsSince(start);
  }

  bool Run(std::string* error) override {
    const bool exited = RunClients(error);
    // A client's own account of what went wrong beats its exit status.
    for (int c = 0; c < kRingClients; ++c) {
      if (!results_[static_cast<size_t>(c)].ok) {
        *error = ia::StringPrintf("ringmix: client %d: %s", c,
                                  results_[static_cast<size_t>(c)].error.c_str());
        return false;
      }
    }
    return exited;
  }

  bool Check(std::string* error) override {
    for (int c = 0; c < kRingClients; ++c) {
      std::string expected;
      for (int r = 0; r < kRingRounds; ++r) {
        expected += payloads_[static_cast<size_t>(c)];
      }
      const std::string* written = FileData(*kernel_, OutPath(c));
      if (written == nullptr || Digest(*written) != Digest(expected)) {
        *error = ia::StringPrintf("ringmix: client %d output file differs", c);
        return false;
      }
    }
    return true;
  }

  RingSpans TakeRingSpans() override {
    RingSpans all;
    for (RingClientResult& result : results_) {
      RingSpans& s = result.spans;
      all.flush_us.insert(all.flush_us.end(), s.flush_us.begin(), s.flush_us.end());
      all.flush_entries.insert(all.flush_entries.end(), s.flush_entries.begin(),
                               s.flush_entries.end());
      all.sync_us.insert(all.sync_us.end(), s.sync_us.begin(), s.sync_us.end());
      all.sync_numbers.insert(all.sync_numbers.end(), s.sync_numbers.begin(),
                              s.sync_numbers.end());
      s = RingSpans{};
    }
    return all;
  }

 private:
  // Rounds per client per iteration.
  static constexpr int kRingRounds = 60;

  static std::string OutPath(int client) {
    return ia::StringPrintf("/tmp/ringmix/c%d.out", client);
  }
  int64_t FileSize(int32_t file) const {
    return static_cast<int64_t>(contents_[static_cast<size_t>(file)].size());
  }

  // One synchronous call, timed when traced.
  template <typename F>
  int Sync(RingSpans* spans, int number, F&& call) {
    if (!traced_) {
      return call();
    }
    const int64_t start = NowNs();
    const int status = call();
    spans->sync_us.push_back(static_cast<double>(NowNs() - start) / 1e3);
    spans->sync_numbers.push_back(number);
    return status;
  }

  int ClientMain(ia::ProcessContext& ctx, int c) {
    RingClientResult& result = results_[static_cast<size_t>(c)];
    RingSpans* spans = &result.spans;
    const std::string& payload = payloads_[static_cast<size_t>(c)];
    const std::string out_path = OutPath(c);
    const int out = Sync(spans, ia::kSysOpen, [&] {
      return ctx.Open(out_path, ia::kOWronly | ia::kOCreat | ia::kOTrunc, 0644);
    });
    if (out < 0) {
      result.error = "open of the output file failed";
      return 1;
    }
    ia::BatchClient batch(ctx);
    std::array<ia::Stat, kRingBatch> stats{};
    std::vector<std::array<char, kRingMaxRead>> bufs(kRingBatch);
    std::array<int, kRingOpenFds> fds{};
    int round_index = 0;
    for (const RingRound& round : plans_[static_cast<size_t>(c)]) {
      for (int s = 0; s < kRingOpenFds; ++s) {
        const std::string& file_path = paths_[static_cast<size_t>(round.open_files[s])];
        fds[static_cast<size_t>(s)] =
            Sync(spans, ia::kSysOpen, [&] { return ctx.Open(file_path, ia::kORdonly); });
        if (fds[static_cast<size_t>(s)] < 0) {
          result.error = "open of " + file_path + " failed";
          return 1;
        }
      }
      for (size_t i = 0; i < round.entries.size(); ++i) {
        const RingEntry& e = round.entries[i];
        const int fd = fds[static_cast<size_t>(e.slot) % kRingOpenFds];
        switch (e.op) {
          case RingOp::kStat:
            batch.PushStat(paths_[static_cast<size_t>(e.file)].c_str(), &stats[i], i);
            break;
          case RingOp::kAccess:
            batch.PushAccess(paths_[static_cast<size_t>(e.file)].c_str(), ia::kROk, i);
            break;
          case RingOp::kFstat:
            batch.PushFstat(fd, &stats[i], i);
            break;
          case RingOp::kLseek:
            batch.PushLseek(fd, e.arg, ia::kSeekSet, i);
            break;
          case RingOp::kRead:
            batch.PushRead(fd, bufs[i].data(), e.arg, i);
            break;
          case RingOp::kWrite:
            batch.PushWrite(out, payload.data() + e.slot * kRingWriteBytes, kRingWriteBytes, i);
            break;
        }
      }
      const int64_t flush_start = traced_ ? NowNs() : 0;
      const size_t done = batch.Flush();
      if (traced_) {
        spans->flush_us.push_back(static_cast<double>(NowNs() - flush_start) / 1e3);
        spans->flush_entries.push_back(static_cast<int>(done));
      }
      if (done != round.entries.size()) {
        result.error = "short flush";
        return 1;
      }
      for (const ia::SyscallCompletion& comp : batch.completions()) {
        const size_t i = static_cast<size_t>(comp.user_data);
        const RingEntry& e = round.entries[i];
        const int64_t value = comp.status < 0 ? comp.status : comp.result.rv[0];
        bool match = value == e.expect;
        if (match && (e.op == RingOp::kStat || e.op == RingOp::kFstat)) {
          match = stats[i].st_size == e.expect_size;
        }
        if (match && e.op == RingOp::kRead) {
          const std::string& contents = contents_[static_cast<size_t>(e.read_file)];
          match = std::memcmp(bufs[i].data(), contents.data() + e.read_offset,
                              static_cast<size_t>(e.expect)) == 0;
        }
        if (!match) {
          result.error = ia::StringPrintf("round %d entry %zu: returned %lld, expected %lld",
                                          round_index, i, static_cast<long long>(value),
                                          static_cast<long long>(e.expect));
          return 1;
        }
      }
      for (const int fd : fds) {
        Sync(spans, ia::kSysClose, [&] { return ctx.Close(fd); });
      }
      ++round_index;
    }
    Sync(spans, ia::kSysClose, [&] { return ctx.Close(out); });
    result.ok = true;
    return 0;
  }

  std::vector<std::string> paths_;
  std::vector<std::string> contents_;
  std::vector<std::string> payloads_;             // per client: 8 write slices
  std::vector<std::vector<RingRound>> plans_;     // per client
  std::vector<RingClientResult> results_;         // per client, written by its process
  bool traced_ = false;
};

}  // namespace

bool Workload::WarmUp(std::string* error) {
  SetupTimes ignored;
  Build(nullptr, &ignored);
  const bool ok = Run(error) && Check(error);
  Teardown();
  return ok;
}

bool Workload::has_agents() const {
  return std::any_of(clients_.begin(), clients_.end(),
                     [](const Client& client) { return !client.agents.empty(); });
}

void Workload::BuildBase(SetupTimes* times) {
  int64_t start = NowNs();
  kernel_ = std::make_unique<ia::Kernel>(BenchKernelConfig());
  times->kernel_ms = MsSince(start);
  start = NowNs();
  ia::InstallStandardPrograms(*kernel_);
  times->programs_ms = MsSince(start);
}

bool Workload::RunClients(std::string* error) {
  std::vector<ia::Pid> pids;
  for (const Client& client : clients_) {
    pids.push_back(client.agents.empty()
                       ? kernel_->Spawn(client.spawn)
                       : ia::SpawnUnderAgents(*kernel_, client.agents, client.spawn));
  }
  bool ok = true;
  for (size_t i = 0; i < pids.size(); ++i) {
    const int status = pids[i] < 0 ? pids[i] : kernel_->HostWaitPid(pids[i]);
    if (ok && (status < 0 || !ia::WifExited(status) || ia::WExitStatus(status) != 0)) {
      *error = ia::StringPrintf("client %zu exited with status %#x", i, status);
      ok = false;
    }
  }
  return ok;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "make") {
    return std::make_unique<MakeBench>(seed);
  }
  if (name == "andrew") {
    return std::make_unique<AndrewBench>(seed);
  }
  if (name == "ringmix") {
    return std::make_unique<RingmixBench>(seed);
  }
  return nullptr;
}

uint64_t Digest(const std::string& bytes) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace e2ebench
