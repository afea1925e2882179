// Per-syscall behaviour tests against the simulated 4.3BSD kernel, driven
// through real process contexts (the same path agents interpose on).
#include "tests/test_helpers.h"

#include "src/base/strings.h"
#include "src/kernel/direntry_codec.h"

namespace ia {
namespace {

using test::ExitCodeOf;
using test::FileContents;
using test::MakeWorld;
using test::RunBody;

TEST(Syscalls, OpenErrnoMatrix) {
  auto kernel = MakeWorld();
  EXPECT_EQ(ExitCodeOf(*kernel, [](ProcessContext& ctx) {
              if (ctx.Open("/missing", kORdonly) != -kENoent) {
                return 1;
              }
              if (ctx.Open("/missing/sub", kOCreat | kOWronly) != -kENoent) {
                return 2;
              }
              if (ctx.Open("/etc", kOWronly) != -kEIsdir) {
                return 3;
              }
              const int fd = ctx.Open("/tmp/x", kOCreat | kOWronly, 0644);
              if (fd < 0) {
                return 4;
              }
              if (ctx.Open("/tmp/x", kOCreat | kOExcl | kOWronly) != -kEExist) {
                return 5;
              }
              return 0;
            }),
            0);
}

TEST(Syscalls, ReadWriteBadFd) {
  auto kernel = MakeWorld();
  EXPECT_EQ(ExitCodeOf(*kernel, [](ProcessContext& ctx) {
              char buf[8];
              if (ctx.Read(99, buf, 8) != -kEBadf) {
                return 1;
              }
              if (ctx.Write(99, buf, 8) != -kEBadf) {
                return 2;
              }
              if (ctx.Close(99) != -kEBadf) {
                return 3;
              }
              const int fd = ctx.Open("/etc/motd", kORdonly);
              if (ctx.Write(fd, buf, 8) != -kEBadf) {
                return 4;  // read-only descriptor
              }
              const int wfd = ctx.Open("/tmp/w", kOCreat | kOWronly, 0644);
              if (ctx.Read(wfd, buf, 8) != -kEBadf) {
                return 5;  // write-only descriptor
              }
              return 0;
            }),
            0);
}

TEST(Syscalls, LseekAndSparseExtension) {
  auto kernel = MakeWorld();
  EXPECT_EQ(ExitCodeOf(*kernel, [](ProcessContext& ctx) {
              const int fd = ctx.Open("/tmp/s", kOCreat | kORdwr, 0644);
              ctx.WriteString(fd, "0123456789");
              if (ctx.Lseek(fd, 2, kSeekSet) != 2) {
                return 1;
              }
              char c;
              ctx.Read(fd, &c, 1);
              if (c != '2') {
                return 2;
              }
              if (ctx.Lseek(fd, -1, kSeekEnd) != 9) {
                return 3;
              }
              if (ctx.Lseek(fd, 2, kSeekCur) != 11) {
                return 4;  // seeking past EOF is legal
              }
              ctx.WriteString(fd, "X");  // creates a hole
              ia::Stat st;
              ctx.Fstat(fd, &st);
              if (st.st_size != 12) {
                return 5;
              }
              if (ctx.Lseek(fd, -100, kSeekSet) != -kEInval) {
                return 6;
              }
              if (ctx.Lseek(fd, 0, 99) != -kEInval) {
                return 7;
              }
              return 0;
            }),
            0);
  EXPECT_EQ(FileContents(*kernel, "/tmp/s").substr(10), std::string("\0X", 2));
}

TEST(Syscalls, AppendModeAlwaysWritesAtEnd) {
  auto kernel = MakeWorld();
  EXPECT_EQ(ExitCodeOf(*kernel, [](ProcessContext& ctx) {
              ctx.WriteWholeFile("/tmp/log", "start:");
              const int fd = ctx.Open("/tmp/log", kOWronly | kOAppend);
              ctx.Lseek(fd, 0, kSeekSet);  // append ignores the offset
              ctx.WriteString(fd, "one");
              ctx.WriteString(fd, ":two");
              ctx.Close(fd);
              return 0;
            }),
            0);
  EXPECT_EQ(FileContents(*kernel, "/tmp/log"), "start:one:two");
}

TEST(Syscalls, DupSharesOffsetDup2Replaces) {
  auto kernel = MakeWorld();
  EXPECT_EQ(ExitCodeOf(*kernel, [](ProcessContext& ctx) {
              ctx.WriteWholeFile("/tmp/d", "abcdef");
              const int fd = ctx.Open("/tmp/d", kORdonly);
              const int dup_fd = ctx.Dup(fd);
              if (dup_fd < 0 || dup_fd == fd) {
                return 1;
              }
              char c;
              ctx.Read(fd, &c, 1);
              ctx.Read(dup_fd, &c, 1);
              if (c != 'b') {
                return 2;  // shared offset
              }
              const int target = 10;
              if (ctx.Dup2(fd, target) != target) {
                return 3;
              }
              ctx.Read(target, &c, 1);
              if (c != 'c') {
                return 4;
              }
              if (ctx.Dup2(fd, fd) != fd) {
                return 5;
              }
              if (ctx.Dup2(99, 5) != -kEBadf) {
                return 6;
              }
              if (ctx.Dup2(fd, -1) != -kEBadf) {
                return 7;
              }
              return 0;
            }),
            0);
}

TEST(Syscalls, FcntlDupfdAndFlags) {
  auto kernel = MakeWorld();
  EXPECT_EQ(ExitCodeOf(*kernel, [](ProcessContext& ctx) {
              const int fd = ctx.Open("/etc/motd", kORdonly);
              const int high = ctx.Fcntl(fd, kFDupfd, 20);
              if (high < 20) {
                return 1;
              }
              if (ctx.Fcntl(fd, kFGetfd, 0) != 0) {
                return 2;
              }
              ctx.Fcntl(fd, kFSetfd, 1);
              if (ctx.Fcntl(fd, kFGetfd, 0) != 1) {
                return 3;
              }
              const int wfd = ctx.Open("/tmp/f", kOCreat | kOWronly, 0644);
              ctx.Fcntl(wfd, kFSetfl, kOAppend);
              if ((ctx.Fcntl(wfd, kFGetfl, 0) & kOAppend) == 0) {
                return 4;
              }
              if (ctx.Fcntl(fd, 777, 0) != -kEInval) {
                return 5;
              }
              return 0;
            }),
            0);
}

TEST(Syscalls, GetdirentriesPaginatesAndResumes) {
  auto kernel = MakeWorld();
  for (int i = 0; i < 40; ++i) {
    kernel->fs().InstallFile(StringPrintf("/many/file-with-a-long-name-%02d", i), "x");
  }
  EXPECT_EQ(ExitCodeOf(*kernel, [](ProcessContext& ctx) {
              const int fd = ctx.Open("/many", kORdonly);
              if (fd < 0) {
                return 1;
              }
              char buf[256];  // forces several getdirentries calls
              int64_t base = 0;
              int entries = 0;
              int calls = 0;
              for (;;) {
                const int n = ctx.Getdirentries(fd, buf, sizeof(buf), &base);
                if (n < 0) {
                  return 2;
                }
                if (n == 0) {
                  break;
                }
                ++calls;
                entries += static_cast<int>(DecodeDirents(buf, n).size());
              }
              if (entries != 42) {
                return 3;  // 40 files + "." + ".."
              }
              if (calls < 3) {
                return 4;  // must have paginated
              }
              // Rewind via lseek and count again.
              ctx.Lseek(fd, 0, kSeekSet);
              const int n = ctx.Getdirentries(fd, buf, sizeof(buf), &base);
              if (n <= 0) {
                return 5;
              }
              return 0;
            }),
            0);
}

TEST(Syscalls, GetdirentriesErrors) {
  auto kernel = MakeWorld();
  EXPECT_EQ(ExitCodeOf(*kernel, [](ProcessContext& ctx) {
              const int fd = ctx.Open("/etc/motd", kORdonly);
              char buf[512];
              int64_t base = 0;
              if (ctx.Getdirentries(fd, buf, sizeof(buf), &base) != -kENotdir) {
                return 1;
              }
              const int dirfd = ctx.Open("/etc", kORdonly);
              if (ctx.Getdirentries(dirfd, buf, 4, &base) != -kEInval) {
                return 2;  // no record fits in 4 bytes
              }
              return 0;
            }),
            0);
}

TEST(Syscalls, UmaskAppliesToCreation) {
  auto kernel = MakeWorld();
  EXPECT_EQ(ExitCodeOf(*kernel, [](ProcessContext& ctx) {
              const Mode old = ctx.Umask(077);
              if (old != 022) {
                return 1;  // default umask
              }
              ctx.Close(ctx.Open("/tmp/masked", kOCreat | kOWronly, 0777));
              ia::Stat st;
              ctx.Stat("/tmp/masked", &st);
              if ((st.st_mode & 0777) != 0700) {
                return 2;
              }
              ctx.Mkdir("/tmp/mdir", 0777);
              ctx.Stat("/tmp/mdir", &st);
              if ((st.st_mode & 0777) != 0700) {
                return 3;
              }
              return 0;
            }),
            0);
}

TEST(Syscalls, DevicesBehave) {
  auto kernel = MakeWorld();
  EXPECT_EQ(ExitCodeOf(*kernel, [](ProcessContext& ctx) {
              char buf[16];
              const int null_fd = ctx.Open("/dev/null", kORdwr);
              if (ctx.Read(null_fd, buf, 16) != 0) {
                return 1;  // EOF immediately
              }
              if (ctx.Write(null_fd, buf, 16) != 16) {
                return 2;  // swallows everything
              }
              const int zero_fd = ctx.Open("/dev/zero", kORdonly);
              buf[3] = 'x';
              if (ctx.Read(zero_fd, buf, 16) != 16 || buf[3] != 0) {
                return 3;
              }
              const int rand_fd = ctx.Open("/dev/random", kORdonly);
              if (ctx.Read(rand_fd, buf, 16) != 16) {
                return 4;
              }
              ia::Stat st;
              ctx.Stat("/dev/null", &st);
              if (!SIsChr(st.st_mode)) {
                return 5;
              }
              return 0;
            }),
            0);
}

TEST(Syscalls, IoctlOnlyOnDevices) {
  auto kernel = MakeWorld();
  EXPECT_EQ(ExitCodeOf(*kernel, [](ProcessContext& ctx) {
              const int tty = ctx.Open("/dev/tty", kORdonly);
              uint16_t dims[2] = {0, 0};
              if (ctx.Ioctl(tty, kTiocGwinsz, dims) != 0 || dims[1] != 80) {
                return 1;
              }
              const int file = ctx.Open("/etc/motd", kORdonly);
              if (ctx.Ioctl(file, kTiocGwinsz, dims) != -kENotty) {
                return 2;
              }
              if (ctx.Ioctl(tty, 0xbad, nullptr) != -kENotty) {
                return 3;
              }
              return 0;
            }),
            0);
}

TEST(Syscalls, IdentityCalls) {
  auto kernel = MakeWorld();
  SpawnOptions options;
  options.uid = 7;
  options.gid = 8;
  options.body = [](ProcessContext& ctx) {
    if (ctx.Getuid() != 7 || ctx.Geteuid() != 7) {
      return 1;
    }
    if (ctx.Getgid() != 8 || ctx.Getegid() != 8) {
      return 2;
    }
    if (ctx.Setuid(0) != -kEPerm) {
      return 3;  // non-root cannot become root
    }
    if (ctx.Setuid(7) != 0) {
      return 4;  // setting to own real uid is fine
    }
    Gid groups[4] = {};
    if (ctx.Getgroups(4, groups) != 0) {
      return 5;  // none set
    }
    char login[64];
    if (ctx.Getlogin(login, sizeof(login)) != 0) {
      return 6;
    }
    return 0;
  };
  const Pid pid = kernel->Spawn(options);
  EXPECT_EQ(WExitStatus(kernel->HostWaitPid(pid)), 0);
}

TEST(Syscalls, HostnameAndLogin) {
  auto kernel = MakeWorld();
  EXPECT_EQ(ExitCodeOf(*kernel, [](ProcessContext& ctx) {
              char buf[64];
              ctx.Gethostname(buf, sizeof(buf));
              if (std::string(buf) != "vax6250") {
                return 1;
              }
              if (ctx.Sethostname("newname") != 0) {
                return 2;  // we're root
              }
              ctx.Gethostname(buf, sizeof(buf));
              if (std::string(buf) != "newname") {
                return 3;
              }
              if (ctx.Setlogin("mbj") != 0) {
                return 4;
              }
              ctx.Getlogin(buf, sizeof(buf));
              if (std::string(buf) != "mbj") {
                return 5;
              }
              return 0;
            }),
            0);
}

TEST(Syscalls, TimeVirtualClockAdvances) {
  auto kernel = MakeWorld();
  EXPECT_EQ(ExitCodeOf(*kernel, [](ProcessContext& ctx) {
              TimeVal before;
              ctx.Gettimeofday(&before, nullptr);
              if (before.tv_sec < 725846400) {
                return 1;  // 1993 epoch
              }
              ctx.Compute(5'000'000);  // five virtual seconds of work
              TimeVal after;
              ctx.Gettimeofday(&after, nullptr);
              if (after.tv_sec - before.tv_sec < 4) {
                return 2;
              }
              TimeVal setto{800000000, 0};
              if (ctx.Settimeofday(&setto, nullptr) != 0) {
                return 3;
              }
              ctx.Gettimeofday(&after, nullptr);
              if (after.tv_sec < 800000000) {
                return 4;
              }
              return 0;
            }),
            0);
}

TEST(Syscalls, GetrusageCountsActivity) {
  auto kernel = MakeWorld();
  EXPECT_EQ(ExitCodeOf(*kernel, [](ProcessContext& ctx) {
              for (int i = 0; i < 10; ++i) {
                ctx.Getpid();
              }
              ctx.Compute(1000);
              Rusage usage;
              if (ctx.Getrusage(kRusageSelf, &usage) != 0) {
                return 1;
              }
              if (usage.ru_nsyscalls < 10) {
                return 2;
              }
              if (usage.ru_utime.tv_usec + usage.ru_utime.tv_sec * 1000000 < 1000) {
                return 3;
              }
              if (ctx.Getrusage(42, &usage) != -kEInval) {
                return 4;
              }
              return 0;
            }),
            0);
}

TEST(Syscalls, ChdirAndGetwd) {
  auto kernel = MakeWorld();
  kernel->fs().MkdirAll("/deep/nested/dir");
  EXPECT_EQ(ExitCodeOf(*kernel, [](ProcessContext& ctx) {
              if (ctx.Chdir("/deep/nested/dir") != 0) {
                return 1;
              }
              std::string wd;
              if (ctx.Getwd(&wd) != 0 || wd != "/deep/nested/dir") {
                return 2;
              }
              if (ctx.Chdir("..") != 0) {
                return 3;
              }
              ctx.Getwd(&wd);
              if (wd != "/deep/nested") {
                return 4;
              }
              if (ctx.Chdir("/etc/motd") != -kENotdir) {
                return 5;
              }
              if (ctx.Chdir("/absent") != -kENoent) {
                return 6;
              }
              const int fd = ctx.Open("/deep", kORdonly);
              if (ctx.Fchdir(fd) != 0) {
                return 7;
              }
              ctx.Getwd(&wd);
              return wd == "/deep" ? 0 : 8;
            }),
            0);
}

TEST(Syscalls, ChrootConfinesNamespace) {
  auto kernel = MakeWorld();
  kernel->fs().MkdirAll("/jail/etc");
  kernel->fs().InstallFile("/jail/etc/inside", "jailed");
  kernel->fs().InstallFile("/etc/outside", "free");
  EXPECT_EQ(ExitCodeOf(*kernel, [](ProcessContext& ctx) {
              if (ctx.Chroot("/jail") != 0) {
                return 1;
              }
              std::string data;
              if (ctx.ReadWholeFile("/etc/inside", &data) != 0 || data != "jailed") {
                return 2;
              }
              if (ctx.ReadWholeFile("/etc/outside", &data) != -kENoent) {
                return 3;
              }
              // ".." cannot escape the jail.
              if (ctx.ReadWholeFile("/../etc/outside", &data) != -kENoent) {
                return 4;
              }
              return 0;
            }),
            0);
}

TEST(Syscalls, FlockAdvisoryLocking) {
  auto kernel = MakeWorld();
  EXPECT_EQ(ExitCodeOf(*kernel, [](ProcessContext& ctx) {
              ctx.WriteWholeFile("/tmp/locked", "x");
              const int a = ctx.Open("/tmp/locked", kORdwr);
              const int b = ctx.Open("/tmp/locked", kORdwr);
              if (ctx.Flock(a, kLockEx) != 0) {
                return 1;
              }
              if (ctx.Flock(b, kLockEx | kLockNb) != -kEWouldblock) {
                return 2;
              }
              if (ctx.Flock(b, kLockSh | kLockNb) != -kEWouldblock) {
                return 3;
              }
              if (ctx.Flock(a, kLockUn) != 0) {
                return 4;
              }
              if (ctx.Flock(b, kLockSh) != 0) {
                return 5;
              }
              if (ctx.Flock(a, kLockSh) != 0) {
                return 6;  // shared locks coexist
              }
              if (ctx.Flock(b, kLockEx | kLockNb) != -kEWouldblock) {
                return 7;  // cannot upgrade past another shared holder
              }
              ctx.Close(a);  // close releases
              if (ctx.Flock(b, kLockEx) != 0) {
                return 8;
              }
              return 0;
            }),
            0);
}

TEST(Syscalls, UnknownSyscallIsEnosys) {
  auto kernel = MakeWorld();
  EXPECT_EQ(ExitCodeOf(*kernel, [](ProcessContext& ctx) {
              SyscallArgs args;
              if (ctx.Syscall(kSysMmap, args, nullptr) != -kENosys) {
                return 1;
              }
              if (ctx.Syscall(188, args, nullptr) != -kENosys) {
                return 2;
              }
              return 0;
            }),
            0);
}

TEST(Syscalls, NamedFifoRoundTrip) {
  auto kernel = MakeWorld();
  EXPECT_EQ(ExitCodeOf(*kernel, [](ProcessContext& ctx) {
              SyscallArgs args;
              const std::string fifo_path = "/tmp/fifo";
              args.SetPtr(0, fifo_path.c_str());
              args.SetInt(1, kSIfifo | 0644);
              if (ctx.Syscall(kSysMknod, args, nullptr) != 0) {
                return 1;
              }
              const int w = ctx.Open("/tmp/fifo", kOWronly);
              const int r = ctx.Open("/tmp/fifo", kORdonly);
              if (w < 0 || r < 0) {
                return 2;
              }
              ctx.WriteString(w, "through the fifo");
              char buf[32] = {};
              const int64_t n = ctx.Read(r, buf, sizeof(buf));
              if (n != 16 || std::string(buf, 16) != "through the fifo") {
                return 3;
              }
              return 0;
            }),
            0);
}


// A readv/writev whose later segment fails after an earlier one moved bytes
// returns those bytes, on both writev paths (a regular file's under the
// shared tree lock, a pipe's under the big lock) and on readv.
TEST(Syscalls, PartialVectorTransferReportsTheBytesMoved) {
  auto kernel = MakeWorld();
  EXPECT_EQ(ExitCodeOf(*kernel, [](ProcessContext& ctx) {
              char head[] = "abcd";
              IoVec out[2] = {{head, 4}, {nullptr, 4}};
              const int fd = ctx.Open("/tmp/partial", kOCreat | kORdwr, 0644);
              if (fd < 0 || ctx.Writev(fd, out, 2) != 4) {
                return 1;
              }
              int pipe_fds[2];
              if (ctx.Pipe(pipe_fds) != 0 || ctx.Writev(pipe_fds[1], out, 2) != 4) {
                return 2;
              }
              char from_pipe[8] = {};
              if (ctx.Read(pipe_fds[0], from_pipe, sizeof from_pipe) != 4 ||
                  std::string(from_pipe, 4) != "abcd") {
                return 3;
              }
              if (ctx.Write(fd, "efgh", 4) != 4 || ctx.Lseek(fd, 0, kSeekSet) != 0) {
                return 4;
              }
              char in_head[4] = {};
              IoVec in[2] = {{in_head, 4}, {nullptr, 4}};
              if (ctx.Readv(fd, in, 2) != 4 || std::string(in_head, 4) != "abcd") {
                return 5;
              }
              return 0;
            }),
            0);
  EXPECT_EQ(FileContents(*kernel, "/tmp/partial"), "abcdefgh");
}

TEST(Syscalls, ReadvWritevScatterGather) {
  auto kernel = MakeWorld();
  EXPECT_EQ(ExitCodeOf(*kernel, [](ProcessContext& ctx) {
              const int fd = ctx.Open("/tmp/vec", kOCreat | kORdwr, 0644);
              char part1[] = "scatter";
              char part2[] = "-";
              char part3[] = "gather";
              IoVec out[3] = {{part1, 7}, {part2, 1}, {part3, 6}};
              if (ctx.Writev(fd, out, 3) != 14) {
                return 1;
              }
              ctx.Lseek(fd, 0, kSeekSet);
              char a[7] = {};
              char b[1] = {};
              char c[8] = {};
              IoVec in[3] = {{a, 7}, {b, 1}, {c, 8}};
              const int64_t n = ctx.Readv(fd, in, 3);
              if (n != 14) {
                return 2;
              }
              if (std::string(a, 7) != "scatter" || b[0] != '-' ||
                  std::string(c, 6) != "gather") {
                return 3;
              }
              // Error cases.
              if (ctx.Readv(fd, nullptr, 1) != -kEFault) {
                return 4;
              }
              if (ctx.Readv(fd, in, 0) != -kEInval) {
                return 5;
              }
              if (ctx.Readv(fd, in, kMaxIoVecs + 1) != -kEInval) {
                return 6;
              }
              if (ctx.Readv(99, in, 1) != -kEBadf) {
                return 7;
              }
              return 0;
            }),
            0);
}

TEST(Syscalls, WritevOnPipe) {
  auto kernel = MakeWorld();
  EXPECT_EQ(ExitCodeOf(*kernel, [](ProcessContext& ctx) {
              int fds[2];
              ctx.Pipe(fds);
              char x[] = "ab";
              char y[] = "cd";
              IoVec parts[2] = {{x, 2}, {y, 2}};
              if (ctx.Writev(fds[1], parts, 2) != 4) {
                return 1;
              }
              char buf[8] = {};
              if (ctx.Read(fds[0], buf, 8) != 4 || std::string(buf, 4) != "abcd") {
                return 2;
              }
              return 0;
            }),
            0);
}

TEST(Syscalls, Dup2SelfPreservesCloseOnExec) {
  auto kernel = MakeWorld();
  EXPECT_EQ(ExitCodeOf(*kernel, [](ProcessContext& ctx) {
              const int fd = ctx.Open("/etc/motd", kORdonly);
              if (fd < 0 || ctx.Fcntl(fd, kFSetfd, 1) != 0) {
                return 1;
              }
              // dup2(fd, fd) is a no-op: it must NOT clear close-on-exec.
              if (ctx.Dup2(fd, fd) != fd) {
                return 2;
              }
              if (ctx.Fcntl(fd, kFGetfd, 0) != 1) {
                return 3;  // the flag survived the self-dup
              }
              return 0;
            }),
            0);
  // Verify at the descriptor-table level too (no fcntl indirection).
  FdTable fds;
  auto file = std::make_shared<OpenFile>();
  fds.Set(3, file, /*close_on_exec=*/true);
  EXPECT_EQ(fds.Dup2(3, 3), 3);
  EXPECT_TRUE(fds.Entry(3)->close_on_exec);
  fds.CloseOnExec();
  EXPECT_FALSE(fds.Valid(3));
}

TEST(Syscalls, Dup2ResultAlwaysHasCloseOnExecClear) {
  FdTable fds;
  auto a = std::make_shared<OpenFile>();
  auto b = std::make_shared<OpenFile>();
  fds.Set(3, a, /*close_on_exec=*/true);
  fds.Set(7, b, /*close_on_exec=*/true);
  // dup2 onto an open cloexec slot: the new descriptor starts with the flag
  // clear, and the source keeps its own flag.
  EXPECT_EQ(fds.Dup2(3, 7), 7);
  EXPECT_FALSE(fds.Entry(7)->close_on_exec);
  EXPECT_TRUE(fds.Entry(3)->close_on_exec);
  EXPECT_EQ(fds.Get(7), fds.Get(3));
  // dup2 onto a closed slot likewise.
  EXPECT_EQ(fds.Dup2(3, 9), 9);
  EXPECT_FALSE(fds.Entry(9)->close_on_exec);
  fds.CloseOnExec();
  EXPECT_FALSE(fds.Valid(3));  // cloexec source dropped
  EXPECT_TRUE(fds.Valid(7));   // duplicates survive exec
  EXPECT_TRUE(fds.Valid(9));
}

TEST(Syscalls, FdTableCloseAllLeavesNothingOpen) {
  FdTable fds;
  for (int fd = 0; fd < 16; ++fd) {
    fds.Set(fd, std::make_shared<OpenFile>(), /*close_on_exec=*/fd % 2 == 0);
  }
  EXPECT_EQ(fds.Dup2(3, 20), 20);
  EXPECT_EQ(fds.OpenCount(), 17);
  const FdTable clone = fds.Clone();
  fds.CloseAll();
  EXPECT_EQ(fds.OpenCount(), 0);
  EXPECT_FALSE(fds.Valid(3));
  EXPECT_EQ(clone.OpenCount(), 17);  // a fork's copy keeps its own slots
}

TEST(Syscalls, Dup2OntoOpenFdReleasesOldFile) {
  // Replacing a pipe's last write end via dup2 must release that end so
  // readers see EOF instead of blocking forever.
  auto kernel = MakeWorld();
  EXPECT_EQ(ExitCodeOf(*kernel, [](ProcessContext& ctx) {
              int fds[2];
              if (ctx.Pipe(fds) != 0) {
                return 1;
              }
              if (ctx.WriteString(fds[1], "hi") != 0) {
                return 2;
              }
              const int null_fd = ctx.Open("/dev/null", kOWronly);
              if (null_fd < 0) {
                return 3;
              }
              // Overwrites (and thereby closes) the only write end.
              if (ctx.Dup2(null_fd, fds[1]) != fds[1]) {
                return 4;
              }
              char buf[8] = {};
              if (ctx.Read(fds[0], buf, sizeof(buf)) != 2) {
                return 5;  // buffered bytes still readable
              }
              if (ctx.Read(fds[0], buf, sizeof(buf)) != 0) {
                return 6;  // EOF, not a hang: the write end was released
              }
              return 0;
            }),
            0);
  // Descriptor-table view of the same invariant: the displaced OpenFile's
  // pipe-end registration is dropped when its last reference goes.
  auto pipe = std::make_shared<Pipe>();
  {
    FdTable fds;
    fds.Set(4, MakePipeEnd(pipe, /*write_end=*/true));
    fds.Set(5, MakePipeEnd(pipe, /*write_end=*/false));
    EXPECT_EQ(pipe->writers, 1);
    auto replacement = std::make_shared<OpenFile>();
    fds.Set(6, replacement);
    EXPECT_EQ(fds.Dup2(6, 4), 4);  // displaces the write end
    EXPECT_EQ(pipe->writers, 0);
    EXPECT_EQ(pipe->readers, 1);
  }
  EXPECT_EQ(pipe->readers, 0);  // table teardown releases the read end too
}

}  // namespace
}  // namespace ia
