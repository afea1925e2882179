// Unit tests for the directory name-lookup cache (DNLC): hit/miss/negative
// accounting, generation-based invalidation on every mutating path operation,
// LRU bounds, weak-reference hygiene, and transparency of cached resolution.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/base/strings.h"
#include "src/kernel/namecache.h"
#include "src/kernel/vfs.h"
#include "tests/test_helpers.h"

namespace ia {
namespace {

using test::ExitCodeOf;
using test::MakeWorld;

class NameCacheVfsTest : public ::testing::Test {
 protected:
  NameCacheVfsTest() : env_{fs_.root(), fs_.root(), &cred_} {}

  int Lookup(const std::string& p, InodeRef* out = nullptr) {
    NameiResult nr;
    const int err = fs_.Namei(env_, p, NameiOp::kLookup, /*follow_final=*/true, &nr);
    if (out != nullptr) {
      *out = nr.inode;
    }
    return err;
  }

  NameCacheStats Stats() const { return fs_.namecache().stats(); }

  Filesystem fs_;
  Cred cred_;
  NameiEnv env_;
};

TEST_F(NameCacheVfsTest, RepeatedLookupHitsCache) {
  fs_.MkdirAll("/a/b/c");
  fs_.InstallFile("/a/b/c/f", "x");
  fs_.namecache().ResetStats();

  EXPECT_EQ(Lookup("/a/b/c/f"), 0);  // cold: all misses, then inserts
  const NameCacheStats cold = Stats();
  EXPECT_EQ(cold.hits, 0u);
  EXPECT_EQ(cold.misses, 4u);
  EXPECT_EQ(cold.insertions, 4u);

  EXPECT_EQ(Lookup("/a/b/c/f"), 0);  // warm: every component served by cache
  const NameCacheStats warm = Stats();
  EXPECT_EQ(warm.hits, 4u);
  EXPECT_EQ(warm.misses, cold.misses);
}

TEST_F(NameCacheVfsTest, NegativeEntryShortCircuitsRepeatedEnoent) {
  fs_.MkdirAll("/dir");
  fs_.namecache().ResetStats();

  EXPECT_EQ(Lookup("/dir/missing"), -kENoent);
  EXPECT_EQ(Stats().negative_hits, 0u);
  EXPECT_EQ(Lookup("/dir/missing"), -kENoent);
  EXPECT_EQ(Stats().negative_hits, 1u);
}

TEST_F(NameCacheVfsTest, CreateInvalidatesNegativeEntry) {
  fs_.MkdirAll("/dir");
  EXPECT_EQ(Lookup("/dir/f"), -kENoent);
  EXPECT_EQ(Lookup("/dir/f"), -kENoent);  // negative entry now cached

  InodeRef opened;
  ASSERT_EQ(fs_.Open(env_, "/dir/f", kOCreat | kOWronly, 0644, &opened), 0);
  InodeRef found;
  EXPECT_EQ(Lookup("/dir/f", &found), 0);  // stale negative must not survive
  EXPECT_EQ(found, opened);
}

TEST_F(NameCacheVfsTest, UnlinkInvalidatesPositiveEntry) {
  fs_.InstallFile("/f", "x");
  EXPECT_EQ(Lookup("/f"), 0);
  EXPECT_EQ(Lookup("/f"), 0);  // cached
  ASSERT_EQ(fs_.Unlink(env_, "/f"), 0);
  EXPECT_EQ(Lookup("/f"), -kENoent);
}

TEST_F(NameCacheVfsTest, RenameInvalidatesBothNames) {
  fs_.MkdirAll("/d1");
  fs_.MkdirAll("/d2");
  fs_.InstallFile("/d1/src", "payload");
  EXPECT_EQ(Lookup("/d1/src"), 0);
  EXPECT_EQ(Lookup("/d2/dst"), -kENoent);
  EXPECT_EQ(Lookup("/d1/src"), 0);       // positive cached
  EXPECT_EQ(Lookup("/d2/dst"), -kENoent);  // negative cached

  ASSERT_EQ(fs_.Rename(env_, "/d1/src", "/d2/dst"), 0);
  EXPECT_EQ(Lookup("/d1/src"), -kENoent);
  InodeRef moved;
  EXPECT_EQ(Lookup("/d2/dst", &moved), 0);
  EXPECT_EQ(moved->data, "payload");
}

TEST_F(NameCacheVfsTest, RmdirAndMkdirReuseName) {
  fs_.MkdirAll("/parent/kid");
  EXPECT_EQ(Lookup("/parent/kid"), 0);
  EXPECT_EQ(Lookup("/parent/kid"), 0);
  ASSERT_EQ(fs_.Rmdir(env_, "/parent/kid"), 0);
  EXPECT_EQ(Lookup("/parent/kid"), -kENoent);
  ASSERT_EQ(fs_.Mkdir(env_, "/parent/kid", 0755), 0);
  InodeRef again;
  EXPECT_EQ(Lookup("/parent/kid", &again), 0);
  EXPECT_TRUE(again->IsDirectory());
}

TEST_F(NameCacheVfsTest, HardLinkAndSymlinkCreationInvalidate) {
  fs_.InstallFile("/orig", "x");
  fs_.MkdirAll("/d");
  EXPECT_EQ(Lookup("/d/ln"), -kENoent);
  EXPECT_EQ(Lookup("/d/ln"), -kENoent);
  ASSERT_EQ(fs_.Link(env_, "/orig", "/d/ln"), 0);
  EXPECT_EQ(Lookup("/d/ln"), 0);

  EXPECT_EQ(Lookup("/d/sym"), -kENoent);
  EXPECT_EQ(Lookup("/d/sym"), -kENoent);
  ASSERT_EQ(fs_.Symlink(env_, "/orig", "/d/sym"), 0);
  InodeRef via;
  EXPECT_EQ(Lookup("/d/sym", &via), 0);
  EXPECT_EQ(via->data, "x");
}

TEST_F(NameCacheVfsTest, ChmodOfDirectoryBumpsGeneration) {
  fs_.MkdirAll("/locked");
  fs_.InstallFile("/locked/f", "x");
  EXPECT_EQ(Lookup("/locked/f"), 0);
  const uint64_t before = Stats().invalidations;
  ASSERT_EQ(fs_.Chmod(env_, "/locked", 0700), 0);
  EXPECT_GT(Stats().invalidations, before);
  // Lookup correctness under the new mode is still enforced live by Namei.
  Cred other;
  other.ruid = other.euid = 1000;
  other.rgid = other.egid = 1000;
  NameiEnv other_env{fs_.root(), fs_.root(), &other};
  NameiResult nr;
  EXPECT_EQ(fs_.Namei(other_env, "/locked/f", NameiOp::kLookup, true, &nr), -kEAcces);
}

TEST_F(NameCacheVfsTest, SymlinkComponentsAreNotCached) {
  fs_.InstallFile("/target", "x");
  ASSERT_EQ(fs_.Symlink(env_, "/target", "/ln"), 0);
  fs_.namecache().ResetStats();
  EXPECT_EQ(Lookup("/ln"), 0);
  EXPECT_EQ(Lookup("/ln"), 0);
  // "target" may be cached, but the symlink inode "ln" itself never is: each
  // walk re-expands it, so at least one miss per lookup remains.
  const NameCacheStats stats = Stats();
  EXPECT_GE(stats.misses, 2u);
}

TEST_F(NameCacheVfsTest, DotAndDotDotBypassTheCache) {
  fs_.MkdirAll("/a/b");
  fs_.namecache().ResetStats();
  EXPECT_EQ(Lookup("/a/b/.."), 0);
  EXPECT_EQ(Lookup("/a/b/.."), 0);
  EXPECT_EQ(Lookup("/a/."), 0);
  const NameCacheStats stats = Stats();
  // Only "a" and "b" ever enter the cache; dot components never do.
  EXPECT_EQ(stats.insertions, 2u);
}

TEST_F(NameCacheVfsTest, DisabledCacheNeverHitsAndStaysEmpty) {
  fs_.namecache().set_enabled(false);
  fs_.namecache().ResetStats();
  fs_.InstallFile("/f", "x");
  EXPECT_EQ(Lookup("/f"), 0);
  EXPECT_EQ(Lookup("/f"), 0);
  const NameCacheStats stats = Stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.insertions, 0u);
  EXPECT_EQ(stats.size, 0u);
}

TEST_F(NameCacheVfsTest, ResolutionIdenticalWithCacheOnAndOff) {
  // A mutation-churn script must produce byte-identical outcomes either way.
  const auto run_script = [](Filesystem& fs, std::vector<int>* results) {
    Cred cred;
    NameiEnv env{fs.root(), fs.root(), &cred};
    fs.MkdirAll("/w");
    for (int i = 0; i < 50; ++i) {
      const std::string name = "/w/f" + std::to_string(i % 7);
      InodeRef out;
      results->push_back(fs.Open(env, name, kOCreat | kORdwr, 0644, &out));
      NameiResult nr;
      results->push_back(fs.Namei(env, name, NameiOp::kLookup, true, &nr));
      if (i % 3 == 0) {
        results->push_back(fs.Unlink(env, name));
        results->push_back(fs.Namei(env, name, NameiOp::kLookup, true, &nr));
      }
      if (i % 5 == 0) {
        results->push_back(fs.Rename(env, name, "/w/renamed"));
      }
    }
  };
  std::vector<int> with_cache;
  {
    Filesystem fs;
    run_script(fs, &with_cache);
  }
  std::vector<int> without_cache;
  {
    Filesystem fs;
    fs.namecache().set_enabled(false);
    run_script(fs, &without_cache);
  }
  EXPECT_EQ(with_cache, without_cache);
}

TEST(NameCacheUnit, LruEvictsOldestEntry) {
  NameCache cache(/*capacity=*/2);
  auto dir = std::make_shared<Inode>(100, InodeType::kDirectory, 0755, 0, 0);
  auto a = std::make_shared<Inode>(101, InodeType::kRegular, 0644, 0, 0);
  auto b = std::make_shared<Inode>(102, InodeType::kRegular, 0644, 0, 0);
  auto c = std::make_shared<Inode>(103, InodeType::kRegular, 0644, 0, 0);

  cache.InsertPositive(*dir, "a", a);
  cache.InsertPositive(*dir, "b", b);
  Inode* out = nullptr;
  EXPECT_EQ(cache.Lookup(*dir, "a", &out), NameCache::Outcome::kHit);  // promote "a"
  cache.InsertPositive(*dir, "c", c);                                  // evicts "b"
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.Lookup(*dir, "b", &out), NameCache::Outcome::kMiss);
  EXPECT_EQ(cache.Lookup(*dir, "a", &out), NameCache::Outcome::kHit);
  EXPECT_EQ(cache.Lookup(*dir, "c", &out), NameCache::Outcome::kHit);
  EXPECT_EQ(cache.size(), 2u);
}

// The writer side has one shard per NameCache::kEntriesPerShard entries of
// capacity, a power of two, at most kMaxShards: a small cache (like the
// capacity-2 one above) is one shard with exact clock replacement.
TEST(NameCacheUnit, ShardCountFollowsCapacity) {
  EXPECT_EQ(NameCache(2).shard_count(), 1u);
  EXPECT_EQ(NameCache(2 * NameCache::kEntriesPerShard - 1).shard_count(), 1u);
  EXPECT_EQ(NameCache(2 * NameCache::kEntriesPerShard).shard_count(), 2u);
  EXPECT_EQ(NameCache(2000).shard_count(), 4u);
  EXPECT_EQ(NameCache().shard_count(), NameCache::kMaxShards);
  EXPECT_EQ(NameCache(1 << 16).shard_count(), NameCache::kMaxShards);
}

// A Hint snapshots its key's shard's structure generation. Re-mapping a
// name in another shard unlinks a node there and leaves the hint valid, so
// the insert revalidates the hinted node; a re-map in the key's own shard
// moves the generation the hint would be checked against.
TEST(NameCacheUnit, HintStaysValidAcrossUnlinksInAnotherShard) {
  NameCache cache;
  ASSERT_GT(cache.shard_count(), 1u);
  auto dir = std::make_shared<Inode>(100, InodeType::kDirectory, 0755, 0, 0);
  auto x = std::make_shared<Inode>(101, InodeType::kRegular, 0644, 0, 0);
  auto y = std::make_shared<Inode>(102, InodeType::kRegular, 0644, 0, 0);
  const size_t x_shard = cache.ShardOf(dir->ino(), "x");
  std::string other;
  std::string same;
  for (int i = 0; other.empty() || same.empty(); ++i) {
    const std::string name = "n" + std::to_string(i);
    std::string& slot = cache.ShardOf(dir->ino(), name) == x_shard ? same : other;
    if (slot.empty()) {
      slot = name;
    }
  }
  cache.InsertPositive(*dir, "x", x);
  cache.InsertNegative(*dir, other);
  cache.InsertNegative(*dir, same);
  cache.InvalidateDirShared(*dir);  // stales all three; nothing unlinked

  Inode* out = nullptr;
  NameCache::Hint hint;
  ASSERT_EQ(cache.Lookup(*dir, "x", &out, &hint), NameCache::Outcome::kMiss);
  ASSERT_NE(hint.node, nullptr);
  cache.InsertPositive(*dir, other, y);  // negative -> positive: unlinks in another shard
  NameCache::Hint again;
  ASSERT_EQ(cache.Lookup(*dir, "x", &out, &again), NameCache::Outcome::kMiss);
  EXPECT_EQ(again.node, hint.node);
  EXPECT_EQ(again.gen, hint.gen);
  const uint64_t insertions = cache.stats().insertions;
  cache.InsertPositive(*dir, "x", x, &hint);
  EXPECT_EQ(cache.stats().insertions, insertions);  // revalidated, not re-added
  ASSERT_EQ(cache.Lookup(*dir, "x", &out), NameCache::Outcome::kHit);
  EXPECT_EQ(out, x.get());

  cache.InvalidateDirShared(*dir);
  NameCache::Hint stale;
  ASSERT_EQ(cache.Lookup(*dir, "x", &out, &stale), NameCache::Outcome::kMiss);
  cache.InsertPositive(*dir, same, y);  // negative -> positive: unlinks in x's shard
  NameCache::Hint moved;
  ASSERT_EQ(cache.Lookup(*dir, "x", &out, &moved), NameCache::Outcome::kMiss);
  EXPECT_EQ(moved.node, stale.node);
  EXPECT_NE(moved.gen, stale.gen);
}

TEST(NameCacheUnit, WeakReferenceDoesNotExtendInodeLifetime) {
  NameCache cache(8);
  auto dir = std::make_shared<Inode>(100, InodeType::kDirectory, 0755, 0, 0);
  auto child = std::make_shared<Inode>(101, InodeType::kRegular, 0644, 0, 0);
  cache.InsertPositive(*dir, "x", child);
  std::weak_ptr<Inode> watch = child;
  child.reset();
  EXPECT_TRUE(watch.expired());  // the cache held no strong reference
  Inode* out = nullptr;
  EXPECT_EQ(cache.Lookup(*dir, "x", &out), NameCache::Outcome::kMiss);
  EXPECT_EQ(cache.size(), 0u);  // expired entry was dropped
}

TEST(NameCacheUnit, GenerationInvalidationIsLazy) {
  NameCache cache(8);
  auto dir = std::make_shared<Inode>(100, InodeType::kDirectory, 0755, 0, 0);
  auto child = std::make_shared<Inode>(101, InodeType::kRegular, 0644, 0, 0);
  cache.InsertPositive(*dir, "x", child);
  cache.InsertNegative(*dir, "y");
  EXPECT_EQ(cache.size(), 2u);
  cache.InvalidateDir(*dir);  // O(1): nothing walked, entries stale out on touch
  EXPECT_EQ(cache.size(), 2u);
  Inode* out = nullptr;
  EXPECT_EQ(cache.Lookup(*dir, "x", &out), NameCache::Outcome::kMiss);
  EXPECT_EQ(cache.Lookup(*dir, "y", &out), NameCache::Outcome::kMiss);
  // Stale nodes linger (they age out through LRU) so a re-insert after the
  // directory re-search refreshes them in place instead of reallocating.
  EXPECT_EQ(cache.size(), 2u);
  const uint64_t insertions_before = cache.stats().insertions;
  cache.InsertPositive(*dir, "x", child);
  EXPECT_EQ(cache.stats().insertions, insertions_before);  // refreshed, not added
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Lookup(*dir, "x", &out), NameCache::Outcome::kHit);
  EXPECT_EQ(out, child.get());
}

// A hit hands back the cached child's address and writes no reference
// count: the child's use_count() is the same before and after, where a
// weak_ptr::lock() would have raised it for the caller's copy.
TEST(NameCacheUnit, HitTakesNoReference) {
  NameCache cache(8);
  auto dir = std::make_shared<Inode>(100, InodeType::kDirectory, 0755, 0, 0);
  auto child = std::make_shared<Inode>(101, InodeType::kRegular, 0644, 0, 0);
  cache.InsertPositive(*dir, "x", child);
  const long before = child.use_count();
  Inode* out = nullptr;
  ASSERT_EQ(cache.Lookup(*dir, "x", &out), NameCache::Outcome::kHit);
  EXPECT_EQ(out, child.get());
  EXPECT_EQ(child.use_count(), before);
  EXPECT_EQ(dir.use_count(), 1);
}

TEST(NameCacheUnit, SymlinkChildrenAreRefused) {
  NameCache cache(8);
  auto dir = std::make_shared<Inode>(100, InodeType::kDirectory, 0755, 0, 0);
  auto link = std::make_shared<Inode>(101, InodeType::kSymlink, 0777, 0, 0);
  cache.InsertPositive(*dir, "ln", link);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(NameCacheKernel, CacheStatsVisibleThroughKernel) {
  auto kernel = MakeWorld();
  EXPECT_EQ(ExitCodeOf(*kernel, [](ProcessContext& ctx) {
              Stat st;
              for (int i = 0; i < 10; ++i) {
                if (ctx.Stat("/etc/motd", &st) != 0) {
                  return 1;
                }
              }
              return 0;
            }),
            0);
  const NameCacheStats stats = kernel->CacheStats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.insertions, 0u);
  EXPECT_EQ(stats.capacity, NameCache::kDefaultCapacity);
}

// The counted twin of a long-lived world's read-only churn: stats over four
// times the cache's capacity of distinct files unlink thousands of evicted
// nodes into the deferred garbage, with no namespace mutation to reclaim
// them. The dispatch core reclaims once the garbage passes the capacity, so
// a new working set is still cached in its first round and hit in every
// later one.
TEST(NameCacheKernel, KeepsCachingAfterEvictionChurnWithoutMutation) {
  constexpr int kChurnFiles = 4 * static_cast<int>(NameCache::kDefaultCapacity);
  constexpr int kSetFiles = 2000;
  constexpr int kRounds = 5;
  auto kernel = MakeWorld();
  kernel->fs().MkdirAll("/big");
  kernel->fs().MkdirAll("/set");
  for (int i = 0; i < kChurnFiles; ++i) {
    kernel->fs().InstallFile(StringPrintf("/big/f%d", i), "");
  }
  for (int i = 0; i < kSetFiles; ++i) {
    kernel->fs().InstallFile(StringPrintf("/set/f%d", i), "");
  }
  Kernel* const k = kernel.get();
  std::vector<NameCacheStats> rounds;
  EXPECT_EQ(ExitCodeOf(*kernel, [k, &rounds](ProcessContext& ctx) {
              Stat st;
              for (int i = 0; i < kChurnFiles; ++i) {
                if (ctx.Stat(StringPrintf("/big/f%d", i).c_str(), &st) != 0) {
                  return 1;
                }
              }
              for (int r = 0; r < kRounds; ++r) {
                const NameCacheStats before = k->CacheStats();
                for (int i = 0; i < kSetFiles; ++i) {
                  if (ctx.Stat(StringPrintf("/set/f%d", i).c_str(), &st) != 0) {
                    return 2;
                  }
                }
                NameCacheStats delta = k->CacheStats();
                delta.hits -= before.hits;
                delta.misses -= before.misses;
                delta.insertions -= before.insertions;
                rounds.push_back(delta);
              }
              return 0;
            }),
            0);
  ASSERT_EQ(rounds.size(), static_cast<size_t>(kRounds));
  // Two cached components per stat: "set" (or "big") and the file's name.
  EXPECT_GE(rounds[0].insertions, static_cast<uint64_t>(kSetFiles));
  for (int r = 1; r < kRounds; ++r) {
    EXPECT_EQ(rounds[r].hits, 2u * kSetFiles) << "round " << r;
    EXPECT_EQ(rounds[r].misses, 0u) << "round " << r;
    EXPECT_EQ(rounds[r].insertions, 0u) << "round " << r;
  }
}

// Kernel::Spawn resolves a new root's cwd holding mu_ alone, so the
// reclaim a batch runs at its end must hold mu_ as well as the exclusive
// tree lock. One root stats twice the cache's capacity of distinct
// directories per round, so its evictions fill the garbage and its batches
// reclaim again and again. The host meanwhile spawns roots whose cwd is an
// entry that root inserted almost a capacity ago, so the spawn's walk reads
// nodes that are about to be evicted and freed.
TEST(NameCacheKernel, SpawnWalksAgainstBatchReclaim) {
  constexpr int kCapacity = static_cast<int>(NameCache::kDefaultCapacity);
  constexpr int kDirs = 2 * kCapacity + 512;
  constexpr int kRounds = IA_TEST_UNDER_TSAN ? 3 : 6;
  constexpr int kMaxSpawns = 256;
  auto kernel = MakeWorld();
  for (int i = 0; i < kDirs; ++i) {
    kernel->fs().MkdirAll(StringPrintf("/big/d%d", i));
  }
  std::atomic<int> statted{0};
  std::atomic<bool> churning{true};
  SpawnOptions churn;
  churn.body = [&statted, &churning](ProcessContext& ctx) {
    Stat st;
    int rc = 0;
    for (int r = 0; r < kRounds && rc == 0; ++r) {
      for (int i = 0; i < kDirs; ++i) {
        if (ctx.Stat(StringPrintf("/big/d%d", i).c_str(), &st) != 0) {
          rc = 1;
          break;
        }
        statted.fetch_add(1, std::memory_order_relaxed);
      }
    }
    churning.store(false, std::memory_order_release);
    return rc;
  };
  const Pid churner = kernel->Spawn(churn);
  ASSERT_GT(churner, 0);
  int spawned = 0;
  while (churning.load(std::memory_order_acquire) && spawned < kMaxSpawns) {
    const int n = statted.load(std::memory_order_relaxed);
    SpawnOptions walker;
    walker.cwd = StringPrintf("/big/d%d", std::max(n - kCapacity + 64, 0) % kDirs);
    walker.open_console_stdio = false;
    walker.body = [](ProcessContext& ctx) {
      Stat st;  // "." is the cwd the spawn resolved
      return ctx.Stat(".", &st) == 0 && SIsDir(st.st_mode) ? 0 : 1;
    };
    const int status = kernel->HostWaitPid(kernel->Spawn(walker));
    EXPECT_TRUE(WifExited(status) && WExitStatus(status) == 0) << "spawn " << spawned;
    ++spawned;
  }
  const int status = kernel->HostWaitPid(churner);
  EXPECT_TRUE(WifExited(status) && WExitStatus(status) == 0);
  EXPECT_GT(spawned, 0);
}

// Four roots stat paths over twice the cache's capacity, each its own
// quarter plus one band that all four share, so misses insert, evict and
// re-map in every shard at once and the batches' ends reclaim. A fifth root
// meanwhile creates and unlinks one name in each of the statters'
// directories, which the statters stat too: each create bumps a directory's
// generation under the shared tree lock and flips a cached negative entry
// to positive, and each unlink runs InvalidateDir's reclaim under mu_ and
// the exclusive tree lock. Every stat must find the right file, and the
// cache must still cache and hit a working set once the roots are done.
TEST(NameCacheKernel, ShardsChurnUnderFourRootsAndACreator) {
  constexpr int kStatters = 4;
  constexpr int kDirs = 256;
  constexpr int kFiles = 2 * static_cast<int>(NameCache::kDefaultCapacity);
  constexpr int kFilesPerDir = kFiles / kDirs;
  constexpr int kShared = kFiles / 8;
  constexpr int kRounds = IA_TEST_UNDER_TSAN ? 1 : 3;
  auto kernel = MakeWorld();
  auto path_of = [](int i) {
    return StringPrintf("/s/d%03d/f%02d", i / kFilesPerDir, i % kFilesPerDir);
  };
  for (int i = 0; i < kFiles; ++i) {
    kernel->fs().InstallFile(path_of(i), std::string(static_cast<size_t>(1 + i % 7), 'x'));
  }
  std::atomic<int> arrivals{0};
  std::atomic<int> statters_done{0};
  auto start_together = [&arrivals] {
    arrivals.fetch_add(1, std::memory_order_acq_rel);
    while (arrivals.load(std::memory_order_acquire) < kStatters + 1) {
      std::this_thread::yield();
    }
  };
  std::vector<Pid> pids;
  for (int r = 0; r < kStatters; ++r) {
    SpawnOptions options;
    options.body = [r, &start_together, &statters_done, &path_of](ProcessContext& ctx) {
      start_together();
      Stat st;
      int rc = 0;
      for (int round = 0; round < kRounds && rc == 0; ++round) {
        for (int i = 0; i < kFiles; ++i) {
          if (i % kStatters != r && i >= kShared) {
            continue;
          }
          if (ctx.Stat(path_of(i), &st) != 0 || st.st_size != 1 + i % 7) {
            rc = 1;
            break;
          }
          if (i % kFilesPerDir == 0) {
            const int err = ctx.Stat(StringPrintf("/s/d%03d/new", i / kFilesPerDir), &st);
            if (err != 0 && err != -kENoent) {
              rc = 2;
              break;
            }
          }
        }
      }
      statters_done.fetch_add(1, std::memory_order_release);
      return rc;
    };
    pids.push_back(kernel->Spawn(options));
  }
  SpawnOptions creator;
  creator.body = [&start_together, &statters_done](ProcessContext& ctx) {
    start_together();
    for (int i = 0; i < kDirs || statters_done.load(std::memory_order_acquire) < kStatters;
         ++i) {
      const std::string name = StringPrintf("/s/d%03d/new", i % kDirs);
      const int fd = ctx.Open(name, kOWronly | kOCreat | kOExcl, 0644);
      if (fd < 0 || ctx.Close(fd) != 0 || ctx.Unlink(name) != 0) {
        return 1;
      }
    }
    return 0;
  };
  pids.push_back(kernel->Spawn(creator));
  for (const Pid pid : pids) {
    const int status = kernel->HostWaitPid(pid);
    EXPECT_TRUE(WifExited(status) && WExitStatus(status) == 0) << "pid " << pid;
  }
  const NameCacheStats churned = kernel->CacheStats();
  EXPECT_GT(churned.evictions, 0u);
  EXPECT_LE(churned.size, churned.capacity);

  Kernel* const k = kernel.get();
  EXPECT_EQ(ExitCodeOf(*kernel, [k, &path_of](ProcessContext& ctx) {
              Stat st;
              for (int pass = 0; pass < 2; ++pass) {
                const NameCacheStats before = k->CacheStats();
                for (int i = 0; i < kShared; ++i) {
                  if (ctx.Stat(path_of(i), &st) != 0) {
                    return 1;
                  }
                }
                if (pass == 1 && k->CacheStats().misses != before.misses) {
                  return 2;
                }
              }
              return 0;
            }),
            0);
}

TEST(NameCacheKernel, ChrootKeepsLookupsCorrect) {
  auto kernel = MakeWorld();
  kernel->fs().MkdirAll("/jail/sub");
  kernel->fs().InstallFile("/jail/sub/f", "inside");
  kernel->fs().InstallFile("/f", "outside");
  EXPECT_EQ(ExitCodeOf(*kernel, [](ProcessContext& ctx) {
              Stat st;
              // Warm the cache on the outside view first.
              if (ctx.Stat("/f", &st) != 0 || ctx.Stat("/jail/sub/f", &st) != 0) {
                return 1;
              }
              if (ctx.Chroot("/jail") != 0) {
                return 2;
              }
              // ".." at the new root must stay put (never cached), and names
              // resolve relative to the jail.
              if (ctx.Stat("/../../sub/f", &st) != 0) {
                return 3;
              }
              if (ctx.Stat("/f", &st) != -kENoent) {
                return 4;  // the outside "/f" must not leak through the cache
              }
              return 0;
            }),
            0);
}

}  // namespace
}  // namespace ia
