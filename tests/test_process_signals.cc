// Process and signal machinery tests: fork inheritance, wait4 selectors,
// zombies, signal masks, EINTR, stop/continue, exec resets.
#include "tests/test_helpers.h"

namespace ia {
namespace {

using test::ExitCodeOf;
using test::FileContents;
using test::MakeWorld;
using test::RunBody;

TEST(Process, ForkInheritsStateButNotPending) {
  auto kernel = MakeWorld();
  EXPECT_EQ(ExitCodeOf(*kernel, [](ProcessContext& ctx) {
              ctx.Chdir("/tmp");
              ctx.Umask(027);
              const int fd = ctx.Open("/etc/motd", kORdonly);
              const Pid parent_pid = ctx.Getpid();
              const Pid child = ctx.Fork([fd, parent_pid](ProcessContext& c) {
                if (c.Getppid() != parent_pid) {
                  return 1;
                }
                std::string wd;
                c.Getwd(&wd);
                if (wd != "/tmp") {
                  return 2;
                }
                if (c.Umask(022) != 027) {
                  return 3;  // umask inherited
                }
                char buf[4];
                if (c.Read(fd, buf, 4) != 4) {
                  return 4;  // descriptors inherited
                }
                return 0;
              });
              int status = 0;
              ctx.Wait4(child, &status, 0, nullptr);
              return WExitStatus(status);
            }),
            0);
}

TEST(Process, ForkSharesOpenFileOffsets) {
  auto kernel = MakeWorld();
  EXPECT_EQ(ExitCodeOf(*kernel, [](ProcessContext& ctx) {
              ctx.WriteWholeFile("/tmp/shared", "abcdef");
              const int fd = ctx.Open("/tmp/shared", kORdonly);
              const Pid child = ctx.Fork([fd](ProcessContext& c) {
                char b;
                c.Read(fd, &b, 1);  // advances the SHARED offset
                return b == 'a' ? 0 : 1;
              });
              int status = 0;
              ctx.Wait4(child, &status, 0, nullptr);
              if (WExitStatus(status) != 0) {
                return 1;
              }
              char b;
              ctx.Read(fd, &b, 1);
              return b == 'b' ? 0 : 2;  // parent continues where the child left off
            }),
            0);
}

TEST(Process, WaitSelectorsAndEchild) {
  auto kernel = MakeWorld();
  EXPECT_EQ(ExitCodeOf(*kernel, [](ProcessContext& ctx) {
              int status = 0;
              if (ctx.Wait4(-1, &status, 0, nullptr) != -kEChild) {
                return 1;  // no children yet
              }
              const Pid c1 = ctx.Fork([](ProcessContext&) { return 11; });
              const Pid c2 = ctx.Fork([](ProcessContext&) { return 22; });
              // Wait for the specific second child first.
              if (ctx.Wait4(c2, &status, 0, nullptr) != c2 || WExitStatus(status) != 22) {
                return 2;
              }
              if (ctx.Wait4(c1, &status, 0, nullptr) != c1 || WExitStatus(status) != 11) {
                return 3;
              }
              if (ctx.Wait4(-1, &status, 0, nullptr) != -kEChild) {
                return 4;
              }
              if (ctx.Wait4(c1, &status, 0, nullptr) != -kEChild) {
                return 5;  // already reaped
              }
              return 0;
            }),
            0);
}

TEST(Process, WaitNohang) {
  auto kernel = MakeWorld();
  EXPECT_EQ(ExitCodeOf(*kernel, [](ProcessContext& ctx) {
              int pipe_fds[2];
              ctx.Pipe(pipe_fds);
              const Pid child = ctx.Fork([&pipe_fds](ProcessContext& c) {
                char b;
                c.Read(pipe_fds[0], &b, 1);  // blocks until parent writes
                return 0;
              });
              int status = 0;
              if (ctx.Wait4(child, &status, kWNoHang, nullptr) != 0) {
                return 1;  // child still alive -> 0, not blocking
              }
              ctx.WriteString(pipe_fds[1], "g");
              if (ctx.Wait4(child, &status, 0, nullptr) != child) {
                return 2;
              }
              return 0;
            }),
            0);
}

TEST(Process, OrphansReparentToHost) {
  auto kernel = MakeWorld();
  EXPECT_EQ(ExitCodeOf(*kernel, [](ProcessContext& ctx) {
              const Pid child = ctx.Fork([](ProcessContext& c) {
                // Leave a grandchild running; we exit first.
                c.Fork([](ProcessContext& gc) {
                  gc.Compute(2000);
                  return 0;
                });
                return 0;
              });
              int status = 0;
              ctx.Wait4(child, &status, 0, nullptr);
              return 0;
            }),
            0);
  // HostWaitPid's orphan reaper cleans the grandchild up eventually.
  for (int i = 0; i < 100 && kernel->LiveProcessCount() > 0; ++i) {
    // The grandchild finishes on its own thread.
  }
  kernel->Shutdown();
  EXPECT_EQ(kernel->Pids().size(), 0u);
}

TEST(Process, RusageAggregatesChildren) {
  auto kernel = MakeWorld();
  EXPECT_EQ(ExitCodeOf(*kernel, [](ProcessContext& ctx) {
              const Pid child = ctx.Fork([](ProcessContext& c) {
                for (int i = 0; i < 50; ++i) {
                  c.Getpid();
                }
                return 0;
              });
              Rusage child_usage;
              int status = 0;
              ctx.Wait4(child, &status, 0, &child_usage);
              if (child_usage.ru_nsyscalls < 50) {
                return 1;
              }
              Rusage aggregated;
              ctx.Getrusage(kRusageChildren, &aggregated);
              if (aggregated.ru_nsyscalls < 50) {
                return 2;
              }
              return 0;
            }),
            0);
}

TEST(Signals, MaskBlocksUntilUnblocked) {
  auto kernel = MakeWorld();
  EXPECT_EQ(ExitCodeOf(*kernel, [](ProcessContext& ctx) {
              int delivered = 0;
              ctx.Sigvec(kSigUsr1, 2, [&delivered](ProcessContext&, int) { ++delivered; });
              ctx.Sigblock(SigMask(kSigUsr1));
              ctx.Kill(ctx.Getpid(), kSigUsr1);
              ctx.Getpid();  // a delivery point — but the signal is blocked
              if (delivered != 0) {
                return 1;
              }
              ctx.Sigsetmask(0);  // unblock; next boundary delivers
              ctx.Getpid();
              if (delivered != 1) {
                return 2;
              }
              return 0;
            }),
            0);
}

TEST(Signals, RusageCountsEachDeliveryOnce) {
  // ru_nsignals counts deliveries, as 4.3BSD's psig() does: a signal posted
  // twice while blocked is pending once, so it is delivered and counted once.
  auto kernel = MakeWorld();
  EXPECT_EQ(ExitCodeOf(*kernel, [](ProcessContext& ctx) {
              int delivered = 0;
              ctx.Sigvec(kSigUsr1, 2, [&delivered](ProcessContext&, int) { ++delivered; });
              ctx.Sigblock(SigMask(kSigUsr1));
              ctx.Kill(ctx.Getpid(), kSigUsr1);
              ctx.Kill(ctx.Getpid(), kSigUsr1);
              ctx.Sigsetmask(0);  // unblock; this call's boundary delivers
              if (delivered != 1) {
                return 1;
              }
              Rusage usage;
              if (ctx.Getrusage(kRusageSelf, &usage) != 0) {
                return 2;
              }
              return usage.ru_nsignals == 1 ? 0 : 3;
            }),
            0);
}

TEST(Signals, IgnoredSignalsAreDiscarded) {
  auto kernel = MakeWorld();
  EXPECT_EQ(ExitCodeOf(*kernel, [](ProcessContext& ctx) {
              ctx.Sigvec(kSigUsr2, kSigIgn, nullptr);
              ctx.Kill(ctx.Getpid(), kSigUsr2);
              ctx.Getpid();
              return 0;  // survived: ignored, not terminated
            }),
            0);
}

TEST(Signals, DefaultTerminatesWithSignalStatus) {
  auto kernel = MakeWorld();
  const int status = RunBody(*kernel, [](ProcessContext& ctx) {
    ctx.Kill(ctx.Getpid(), kSigTerm);
    ctx.Getpid();  // delivery point
    return 0;      // unreachable
  });
  EXPECT_TRUE(WifSignaled(status));
  EXPECT_EQ(WTermSig(status), kSigTerm);
}

TEST(Signals, CannotCatchOrBlockKill) {
  auto kernel = MakeWorld();
  EXPECT_EQ(ExitCodeOf(*kernel, [](ProcessContext& ctx) {
              if (ctx.Sigvec(kSigKill, 2, [](ProcessContext&, int) {}) != -kEInval) {
                return 1;
              }
              if (ctx.Sigvec(kSigStop, kSigIgn, nullptr) != -kEInval) {
                return 2;
              }
              const uint32_t old_mask = ctx.Sigblock(SigMask(kSigKill));
              (void)old_mask;
              // The mask must not actually contain SIGKILL.
              const uint32_t mask_now = ctx.Sigblock(0);
              if ((mask_now & SigMask(kSigKill)) != 0) {
                return 3;
              }
              return 0;
            }),
            0);
}

TEST(Signals, HandlerMaskAppliedDuringHandler) {
  auto kernel = MakeWorld();
  EXPECT_EQ(ExitCodeOf(*kernel, [](ProcessContext& ctx) {
              int inner_delivered = 0;
              ctx.Sigvec(kSigUsr2, 2,
                         [&inner_delivered](ProcessContext&, int) { ++inner_delivered; });
              int outer_result = -1;
              ctx.Sigvec(
                  kSigUsr1, 2,
                  [&outer_result, &inner_delivered](ProcessContext& c, int) {
                    // USR2 is in the handler mask: posting it must not deliver here.
                    c.Kill(c.Getpid(), kSigUsr2);
                    c.Getpid();
                    outer_result = inner_delivered;
                  },
                  SigMask(kSigUsr2));
              ctx.Kill(ctx.Getpid(), kSigUsr1);
              ctx.Getpid();
              if (outer_result != 0) {
                return 1;  // USR2 leaked into the masked handler
              }
              ctx.Getpid();  // after the handler returned, USR2 delivers
              if (inner_delivered != 1) {
                return 2;
              }
              return 0;
            }),
            0);
}

TEST(Signals, EintrOnBlockedRead) {
  auto kernel = MakeWorld();
  EXPECT_EQ(ExitCodeOf(*kernel, [](ProcessContext& ctx) {
              int pipe_fds[2];
              ctx.Pipe(pipe_fds);
              const Pid parent = ctx.Getpid();
              bool handled = false;
              ctx.Sigvec(kSigUsr1, 2, [&handled](ProcessContext&, int) { handled = true; });
              // The child signals until it is killed, so the parent is
              // guaranteed to be blocked in read() for at least one of them. A
              // bounded count is not enough: virtual-time pacing costs no real
              // time, so a slow parent thread (e.g. under TSan) can still be
              // short of read() when a finite barrage ends — the coalesced
              // pending bit is then consumed at a pre-read boundary and the
              // read blocks forever. The parent's SIGKILL ends the loop (kill
              // is a delivery point for the child's own pending signals). The
              // child yields each round: it shares the parent's host thread.
              const Pid child = ctx.Fork([parent](ProcessContext& c) -> int {
                for (;;) {
                  c.Compute(200);
                  if (c.Kill(parent, kSigUsr1) < 0) {
                    break;
                  }
                  c.Yield();
                }
                return 0;
              });
              char b;
              const int64_t n = ctx.Read(pipe_fds[0], &b, 1);  // blocks until signal
              ctx.Kill(child, kSigKill);
              int status = 0;
              while (ctx.Wait4(child, &status, 0, nullptr) == -kEIntr) {
              }
              if (n != -kEIntr) {
                return 1;
              }
              return handled ? 0 : 2;
            }),
            0);
}

TEST(Signals, SigpauseWaitsForSignal) {
  auto kernel = MakeWorld();
  EXPECT_EQ(ExitCodeOf(*kernel, [](ProcessContext& ctx) {
              const Pid parent = ctx.Getpid();
              // Handler and mask in place BEFORE the child can signal.
              bool handled = false;
              ctx.Sigvec(kSigUsr1, 2, [&handled](ProcessContext&, int) { handled = true; });
              ctx.Sigblock(SigMask(kSigUsr1));
              // The child signals repeatedly: whenever sigpause opens the mask,
              // at least one USR1 gets through.
              const Pid child = ctx.Fork([parent](ProcessContext& c) -> int {
                for (int i = 0; i < 500; ++i) {
                  c.Compute(200);
                  if (c.Kill(parent, kSigUsr1) < 0) {
                    break;
                  }
                }
                return 0;
              });
              const int rc = ctx.Sigpause(0);  // atomically unblock + wait
              ctx.Kill(child, kSigKill);
              int status = 0;
              while (ctx.Wait4(child, &status, 0, nullptr) == -kEIntr) {
              }
              if (rc != -kEIntr) {
                return 1;
              }
              return handled ? 0 : 2;
            }),
            0);
}

TEST(Signals, StopAndContinue) {
  auto kernel = MakeWorld();
  EXPECT_EQ(ExitCodeOf(*kernel, [](ProcessContext& ctx) {
              int pipe_fds[2];
              ctx.Pipe(pipe_fds);
              const Pid child = ctx.Fork([&pipe_fds](ProcessContext& c) {
                c.WriteString(pipe_fds[1], "A");  // before the stop
                c.Getpid();                       // delivery point: stops here
                c.WriteString(pipe_fds[1], "B");  // only after SIGCONT
                return 0;
              });
              char b;
              ctx.Read(pipe_fds[0], &b, 1);  // child reached "A"
              ctx.Kill(child, kSigStop);
              ctx.Compute(2000);  // give it time to stop at its next boundary
              ctx.Kill(child, kSigCont);
              const int64_t n = ctx.Read(pipe_fds[0], &b, 1);
              int status = 0;
              ctx.Wait4(child, &status, 0, nullptr);
              if (n != 1 || b != 'B') {
                return 1;
              }
              return WExitStatus(status) == 0 ? 0 : 2;
            }),
            0);
}

TEST(Signals, KillPermissionsAndErrors) {
  auto kernel = MakeWorld();
  EXPECT_EQ(ExitCodeOf(*kernel, [](ProcessContext& ctx) {
              if (ctx.Kill(4242, kSigTerm) != -kESrch) {
                return 1;
              }
              if (ctx.Kill(ctx.Getpid(), 99) != -kEInval) {
                return 2;
              }
              if (ctx.Kill(ctx.Getpid(), 0) != 0) {
                return 3;  // existence probe
              }
              return 0;
            }),
            0);
}

TEST(Signals, KillProcessGroup) {
  auto kernel = MakeWorld();
  EXPECT_EQ(ExitCodeOf(*kernel, [](ProcessContext& ctx) {
              // Two children placed into a fresh process group.
              const auto spin = [](ProcessContext& c) -> int {
                for (;;) {
                  c.Compute(100);
                }
              };
              const Pid c1 = ctx.Fork(spin);
              const Pid c2 = ctx.Fork(spin);
              ctx.Setpgrp(c1, c1);
              ctx.Setpgrp(c2, c1);
              if (ctx.Killpg(c1, kSigKill) != 0) {
                return 1;
              }
              int status = 0;
              int reaped = 0;
              while (ctx.Wait4(-1, &status, 0, nullptr) > 0) {
                if (WifSignaled(status) && WTermSig(status) == kSigKill) {
                  ++reaped;
                }
              }
              return reaped == 2 ? 0 : 2;
            }),
            0);
}

TEST(Exec, ResetsHandlersAndClosesCloexec) {
  auto kernel = MakeWorld();
  kernel->InstallProgram("/bin/checker", "checker", [](ProcessContext& ctx) {
    // fd 7 was close-on-exec in the parent image; it must be gone.
    char b;
    if (ctx.Read(7, &b, 1) != -kEBadf) {
      return 1;
    }
    // fd 8 was NOT close-on-exec; it must survive.
    if (ctx.Read(8, &b, 1) != 1) {
      return 2;
    }
    return 0;
  });
  EXPECT_EQ(ExitCodeOf(*kernel, [](ProcessContext& ctx) {
              const Pid child = ctx.Fork([](ProcessContext& c) {
                const int fd7 = c.Open("/etc/motd", kORdonly);
                c.Dup2(fd7, 7);
                c.Close(fd7);
                c.Fcntl(7, kFSetfd, 1);  // close-on-exec
                const int fd8 = c.Open("/etc/motd", kORdonly);
                c.Dup2(fd8, 8);
                if (fd8 != 8) {
                  c.Close(fd8);
                }
                c.Sigvec(kSigUsr1, 2, [](ProcessContext&, int) {});
                c.Execve("/bin/checker", {"checker"});
                return 99;
              });
              int status = 0;
              ctx.Wait4(child, &status, 0, nullptr);
              return WExitStatus(status);
            }),
            0);
}

TEST(Exec, ErrnoCases) {
  auto kernel = MakeWorld();
  kernel->fs().InstallFile("/tmp/not_executable", "data", 0644);
  kernel->fs().InstallFile("/tmp/no_image", "plain file", 0755);
  EXPECT_EQ(ExitCodeOf(*kernel, [](ProcessContext& ctx) {
              if (ctx.Execve("/absent", {"x"}) != -kENoent) {
                return 1;
              }
              if (ctx.Execve("/etc", {"x"}) != -kEIsdir) {
                return 2;
              }
              if (ctx.Execve("/tmp/not_executable", {"x"}) != -kEAcces) {
                return 3;
              }
              if (ctx.Execve("/tmp/no_image", {"x"}) != -kENoexec) {
                return 4;
              }
              return 0;
            }),
            0);
}

TEST(Exec, SetuidBitRaisesEffectiveUid) {
  auto kernel = MakeWorld();
  kernel->InstallProgram("/bin/whoami_eff", "whoami_eff",
                         [](ProcessContext& ctx) { return static_cast<int>(ctx.Geteuid()); });
  // Make it setuid-root.
  Cred root;
  NameiEnv env{kernel->fs().root(), kernel->fs().root(), &root};
  NameiResult nr;
  ASSERT_EQ(kernel->fs().Namei(env, "/bin/whoami_eff", NameiOp::kLookup, true, &nr), 0);
  nr.inode->mode_bits |= kSIsuid;
  nr.inode->uid = 0;

  SpawnOptions options;
  options.uid = 1000;
  options.gid = 1000;
  options.body = [](ProcessContext& ctx) {
    int status = 0;
    ctx.Spawn("/bin/whoami_eff", {"whoami_eff"}, &status);
    return WExitStatus(status);  // euid inside the setuid binary
  };
  const Pid pid = kernel->Spawn(options);
  EXPECT_EQ(WExitStatus(kernel->HostWaitPid(pid)), 0);  // ran as root
}

TEST(Exec, ShebangScriptsRun) {
  auto kernel = MakeWorld();
  kernel->fs().InstallFile("/tmp/hello.sh", "#!/bin/sh\necho scripted\n", 0755);
  SpawnOptions options;
  options.path = "/tmp/hello.sh";
  options.argv = {"hello.sh"};
  const Pid pid = kernel->Spawn(options);
  EXPECT_EQ(WExitStatus(kernel->HostWaitPid(pid)), 0);
  EXPECT_EQ(kernel->console().transcript(), "scripted\n");
}

TEST(Process, GetdtablesizeAndLimits) {
  auto kernel = MakeWorld();
  EXPECT_EQ(ExitCodeOf(*kernel, [](ProcessContext& ctx) {
              if (ctx.Getdtablesize() != kMaxFilesPerProcess) {
                return 1;
              }
              // Exhaust the descriptor table.
              int opened = 0;
              for (;;) {
                const int fd = ctx.Open("/etc/motd", kORdonly);
                if (fd < 0) {
                  if (fd != -kEMfile) {
                    return 2;
                  }
                  break;
                }
                ++opened;
              }
              return opened <= kMaxFilesPerProcess ? 0 : 3;
            }),
            0);
}

}  // namespace
}  // namespace ia
