// The Andrew-benchmark-style filesystem workload (the "AFS filesystem
// performance benchmarks" of paper §3.5.3, used for the DFSTrace comparison).
//
// Five classic phases against a source tree: MakeDir (recreate the directory
// skeleton), Copy (copy every file), ScanDir (stat everything), ReadAll (read
// every byte), and Make (a grep-and-count pass standing in for compilation).
#include "src/apps/apps.h"
#include "src/base/prng.h"
#include "src/base/strings.h"

namespace ia {
namespace {

// Recursively lists regular files and directories under `dir`.
void Walk(ProcessContext& ctx, const std::string& dir, std::vector<std::string>* files,
          std::vector<std::string>* dirs) {
  std::vector<std::string> names;
  if (ctx.ListDirectory(dir, &names) < 0) {
    return;
  }
  for (const std::string& name : names) {
    if (name == "." || name == "..") {
      continue;
    }
    const std::string full = path::JoinPath(dir, name);
    Stat st;
    if (ctx.Lstat(full, &st) < 0) {
      continue;
    }
    if (SIsDir(st.st_mode)) {
      dirs->push_back(full);
      Walk(ctx, full, files, dirs);
    } else if (SIsReg(st.st_mode)) {
      files->push_back(full);
    }
  }
}

}  // namespace

int AndrewMain(ProcessContext& ctx) {
  const auto& argv = ctx.argv();
  const std::string source = argv.size() > 1 ? argv[1] : "/usr/andrew";
  const std::string work = argv.size() > 2 ? argv[2] : "/tmp/andrew";

  std::vector<std::string> files;
  std::vector<std::string> dirs;
  Walk(ctx, source, &files, &dirs);
  if (files.empty()) {
    ctx.WriteString(2, "andrew: empty source tree\n");
    return 1;
  }

  // Phase 1: MakeDir.
  ctx.Mkdir(work, 0755);
  for (const std::string& dir : dirs) {
    const std::string relative = dir.substr(source.size());
    ctx.Mkdir(work + relative, 0755);
  }

  // Phase 2: Copy.
  for (const std::string& file : files) {
    const std::string relative = file.substr(source.size());
    std::string contents;
    if (ctx.ReadWholeFile(file, &contents) == 0) {
      ctx.WriteWholeFile(work + relative, contents);
    }
  }

  // Phase 3: ScanDir.
  std::vector<std::string> copied_files;
  std::vector<std::string> copied_dirs;
  Walk(ctx, work, &copied_files, &copied_dirs);
  int64_t total_size = 0;
  for (const std::string& file : copied_files) {
    Stat st;
    if (ctx.Stat(file, &st) == 0) {
      total_size += st.st_size;
    }
  }

  // Phase 4: ReadAll.
  int64_t bytes_read = 0;
  for (const std::string& file : copied_files) {
    const int fd = ctx.Open(file, kORdonly);
    if (fd < 0) {
      continue;
    }
    char buf[1024];
    for (;;) {
      const int64_t n = ctx.Read(fd, buf, sizeof(buf));
      if (n <= 0) {
        break;
      }
      bytes_read += n;
    }
    ctx.Close(fd);
  }

  // Phase 5: Make — grep-and-count as the compile stand-in.
  int64_t tokens = 0;
  for (const std::string& file : copied_files) {
    std::string contents;
    if (ctx.ReadWholeFile(file, &contents) < 0) {
      continue;
    }
    tokens += static_cast<int64_t>(CountFields(contents, ' '));
    ctx.Compute(200);
  }
  ctx.WriteWholeFile(path::JoinPath(work, "MAKELOG"),
                     StringPrintf("files=%zu dirs=%zu size=%lld read=%lld tokens=%lld\n",
                                  copied_files.size(), copied_dirs.size(),
                                  static_cast<long long>(total_size),
                                  static_cast<long long>(bytes_read),
                                  static_cast<long long>(tokens)));
  return 0;
}

void SetupAndrewTree(Kernel& kernel, const std::string& dir, int files, int subdirs) {
  Prng prng(0xa2d3e77);
  kernel.fs().MkdirAll(dir);
  for (int d = 0; d < subdirs; ++d) {
    const std::string sub = path::JoinPath(dir, StringPrintf("sub%d", d));
    kernel.fs().MkdirAll(sub);
    for (int f = 0; f < files; ++f) {
      std::string contents;
      const int lines = 20 + static_cast<int>(prng.Below(60));
      for (int line = 0; line < lines; ++line) {
        contents += StringPrintf("line %d of file %d in dir %d: payload %llx\n", line, f, d,
                                 static_cast<unsigned long long>(prng.Next()));
      }
      kernel.fs().InstallFile(path::JoinPath(sub, StringPrintf("file%d.c", f)), contents);
    }
  }
}

int HpuxHelloMain(ProcessContext& ctx) {
  // A "foreign binary": raw HP-UX-flavoured syscall numbers (see agents/emul.h).
  // Running it without the hpux_emul agent fails with ENOSYS on every call.
  SyscallArgs args;
  SyscallResult rv;

  // hpux getpid
  if (ctx.Syscall(169, args, &rv) < 0) {
    return 10;
  }

  // hpux open("/tmp/hpux.out", HPUX O_WRONLY|O_CREAT|O_TRUNC, 0644)
  const char* out_path = "/tmp/hpux.out";
  args.SetPtr(0, out_path);
  args.SetInt(1, 1 | 0x100 | 0x200);
  args.SetInt(2, 0644);
  const SyscallStatus fd = ctx.Syscall(165, args, &rv);
  if (fd < 0) {
    return 11;
  }

  // hpux write(fd, msg, len)
  const char message[] = "hello from an HP-UX binary\n";
  args = SyscallArgs{};
  args.SetInt(0, fd);
  args.SetPtr(1, message);
  args.SetInt(2, sizeof(message) - 1);
  if (ctx.Syscall(164, args, &rv) < 0) {
    return 12;
  }

  // hpux close(fd)
  args = SyscallArgs{};
  args.SetInt(0, fd);
  ctx.Syscall(166, args, &rv);

  // hpux stat to verify through the foreign interface
  Stat st;
  args = SyscallArgs{};
  args.SetPtr(0, out_path);
  args.SetPtr(1, &st);
  if (ctx.Syscall(170, args, &rv) < 0 || st.st_size != sizeof(message) - 1) {
    return 13;
  }
  return 0;
}

}  // namespace ia
