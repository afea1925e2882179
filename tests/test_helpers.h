// Shared fixtures and helpers for the test suites.
#ifndef TESTS_TEST_HELPERS_H_
#define TESTS_TEST_HELPERS_H_

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "src/apps/apps.h"
#include "src/interpose/agent.h"
#include "src/kernel/kernel.h"

// 1 in a ThreadSanitizer build: stress tests shrink their worlds under the
// instrumentation slowdown.
#if defined(__SANITIZE_THREAD__)
#define IA_TEST_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define IA_TEST_UNDER_TSAN 1
#endif
#endif
#ifndef IA_TEST_UNDER_TSAN
#define IA_TEST_UNDER_TSAN 0
#endif

namespace ia {
namespace test {

inline std::unique_ptr<Kernel> MakeWorld() {
  auto kernel = std::make_unique<Kernel>();
  InstallStandardPrograms(*kernel);
  return kernel;
}

// Runs `body` as a process; returns the wait status.
inline int RunBody(Kernel& kernel, std::function<int(ProcessContext&)> body,
                   const std::string& cwd = "/") {
  SpawnOptions options;
  options.body = std::move(body);
  options.cwd = cwd;
  const Pid pid = kernel.Spawn(options);
  EXPECT_GT(pid, 0);
  return kernel.HostWaitPid(pid);
}

// Runs `body` under `agents`; returns the wait status.
inline int RunBodyUnder(Kernel& kernel, const std::vector<AgentRef>& agents,
                        std::function<int(ProcessContext&)> body, const std::string& cwd = "/") {
  SpawnOptions options;
  options.body = std::move(body);
  options.cwd = cwd;
  return RunUnderAgents(kernel, agents, options);
}

// Exit code of a body run (asserts normal exit).
inline int ExitCodeOf(Kernel& kernel, std::function<int(ProcessContext&)> body) {
  const int status = RunBody(kernel, std::move(body));
  EXPECT_TRUE(WifExited(status));
  return WExitStatus(status);
}

// Host-side peek at a simulated file. Returns "<missing>" when absent.
inline std::string FileContents(Kernel& kernel, const std::string& file_path) {
  Cred root;
  NameiEnv env{kernel.fs().root(), kernel.fs().root(), &root};
  NameiResult nr;
  if (kernel.fs().Namei(env, file_path, NameiOp::kLookup, true, &nr) != 0 ||
      nr.inode == nullptr) {
    return "<missing>";
  }
  return nr.inode->data;
}

// Deterministic snapshot of the whole filesystem: path -> "type:mode:content".
// Used by the transparency property tests.
inline std::map<std::string, std::string> SnapshotFs(Kernel& kernel,
                                                     const std::string& skip_prefix = "") {
  std::map<std::string, std::string> snapshot;
  std::function<void(const InodeRef&, const std::string&)> walk =
      [&](const InodeRef& dir, const std::string& prefix) {
        for (const auto& [name, child] : dir->entries) {
          const std::string full = prefix + "/" + name;
          if (!skip_prefix.empty() && full.rfind(skip_prefix, 0) == 0) {
            continue;
          }
          std::string value;
          switch (child->type()) {
            case InodeType::kRegular:
              value = "f:" + std::to_string(child->mode_bits) + ":" + child->data;
              break;
            case InodeType::kDirectory:
              value = "d:" + std::to_string(child->mode_bits);
              break;
            case InodeType::kSymlink:
              value = "l:" + child->symlink_target;
              break;
            default:
              value = "o";
              break;
          }
          snapshot[full] = value;
          if (child->IsDirectory()) {
            walk(child, full);
          }
        }
      };
  walk(kernel.fs().root(), "");
  return snapshot;
}

}  // namespace test
}  // namespace ia

#endif  // TESTS_TEST_HELPERS_H_
