// Directory name-lookup cache (DNLC), after the 4.3BSD namei cache.
//
// Maps (directory inode number, component name) -> inode for the Namei fast
// path, so repeated pathname syscalls (open/stat/access/...) skip the
// per-directory entry-map search. Mirrors the 4.3BSD design points:
//
//   * bounded capacity with second-chance (clock) replacement approximating
//     LRU (the BSD cache recycled the least-recently-used nch entry; the
//     clock variant keeps hits free of list surgery — a hit just sets a
//     referenced bit, and the eviction sweep gives touched entries a second
//     pass before recycling them);
//   * negative entries ("name known absent"), which turn repeated failing
//     lookups — common in PATH and include-path searches — into cache hits;
//   * O(1) invalidation via per-directory generation counters (the analogue of
//     BSD's cache_purge() capability bump): any mutation of a directory
//     increments its generation, instantly staling every cached entry under it
//     without walking the cache. Stale entries age out through LRU. The
//     generation is an atomic on the inode: an exclusive mutator bumps it,
//     and so does a creating open under a shared hold, inside the
//     directory's data_mu;
//   * no negative entry for the final name of a create walk (4.3BSD's namei
//     CREATE skips the cache too): the caller is about to create it.
//
// Entries hold weak inode references so the cache never extends inode
// lifetimes. A hit returns a raw pointer and takes no reference: a current
// generation means the directory still links the child, which keeps it alive
// for the caller's tree-lock hold, and the hit only loads the weak
// reference's count to confirm it. "." and ".." are never cached ("." is trivial; ".." depends on
// the per-process root under chroot), and symlink inodes are not cached
// (Namei re-expands symlinks on every walk; keeping them out keeps the cache
// a pure name->object map, as the BSD DNLC did).
//
// Synchronization: the hit path is lock-free. Namei walks run concurrently
// under the VFS tree lock in *shared* mode (see vfs.h), and a deep walk does
// one cache probe per component, so a per-probe mutex would both serialize
// concurrent walkers and tax the single-client warm path. Instead:
//
//   * The index is a fixed-size array of atomic bucket heads over singly
//     linked Entry chains. Lookup() traverses with acquire loads and never
//     takes a lock; Entry identity fields (key, hash, child, negative) are
//     immutable after publication, and the mutable bits (dir_gen, touched,
//     dead) are atomics.
//   * The writer side is split into shards, picked by the key's hash (the
//     low bits of its bucket index, so every node of one chain belongs to
//     one shard). A shard owns its mutex, its clock list and its share of
//     the capacity, its garbage list, its structure generation (which
//     validates Hints) and its counters; stats() folds them. One shard per
//     kEntriesPerShard entries of capacity, at most kMaxShards: misses in
//     different shards insert and evict in parallel, and a small cache is one
//     shard with exact clock replacement. The clock is per shard, so a large
//     cache approximates LRU within each shard's share.
//   * All structural mutation — insert, refresh, eviction, clear — happens
//     under the key's shard mutex (a leaf lock: nothing is acquired while
//     holding it, and no code holds two). An entry is never updated to point
//     at a *different* inode in place: re-mapping unlinks the old node and
//     publishes a fresh one, so a concurrent reader sees either the old
//     consistent entry or the new one.
//   * Unlinked nodes are not freed immediately (a lock-free reader may still
//     be traversing them); they move to their shard's garbage list, reclaimed
//     inside InvalidateDir()/Reclaim()/Clear(). A walker holds the VFS tree
//     lock shared, or the kernel's big lock alone (Kernel::Spawn resolves its
//     cwd under mu_), so a reclaimer holds both, the tree lock exclusively — a
//     point where no walker (hence no reader) can exist. Those two locks are
//     the cache's grace period. Bumping a generation is separate from
//     reclaim: InvalidateDirShared() bumps only, for creators that hold the
//     tree lock shared. A workload with no exclusive mutation still
//     reclaims: once one shard's garbage passes that shard's share of the
//     capacity it raises one "due" word (ReclaimDue), and the kernel's
//     dispatch core takes mu_ and the exclusive tree lock after a batch and
//     calls Reclaim(), which visits only the shards that hold garbage.
//   * A miss's directory search and its Insert* run under the directory's
//     data_mu (vfs.cc), the lock a shared-hold creator links and bumps
//     under, so an inserted entry never carries a generation newer than the
//     entries it was read from.
#ifndef SRC_KERNEL_NAMECACHE_H_
#define SRC_KERNEL_NAMECACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "src/base/shardslot.h"
#include "src/kernel/types.h"

namespace ia {

class Inode;
using InodeRef = std::shared_ptr<Inode>;

// Counters exported through Kernel::CacheStats().
struct NameCacheStats {
  uint64_t hits = 0;           // positive entry returned an inode
  uint64_t negative_hits = 0;  // negative entry short-circuited an ENOENT
  uint64_t misses = 0;         // not present / stale / expired
  uint64_t insertions = 0;     // entries added (positive + negative)
  uint64_t evictions = 0;      // entries displaced by LRU capacity pressure
  uint64_t invalidations = 0;  // per-directory generation bumps
  size_t size = 0;             // current entry count
  size_t capacity = 0;         // maximum entry count
};

class NameCache {
 public:
  static constexpr size_t kDefaultCapacity = 4096;
  // Writer shards: one per kEntriesPerShard entries of capacity, a power of
  // two, at most kMaxShards. A cache smaller than two shards' worth is one.
  static constexpr size_t kEntriesPerShard = 256;
  static constexpr size_t kMaxShards = 16;

  explicit NameCache(size_t capacity = kDefaultCapacity);

  NameCache(const NameCache&) = delete;
  NameCache& operator=(const NameCache&) = delete;

  // Toggling the cache off makes Lookup always miss and Insert* no-ops; used
  // by benchmarks to measure the uncached baseline on a live filesystem.
  // Flip only while no walks are in flight (benches toggle between runs).
  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  enum class Outcome {
    kMiss,         // caller must search the directory
    kHit,          // *out is the child inode
    kNegativeHit,  // name is known absent; *out is null
  };

  // Opaque node-reuse hint: a Lookup that misses on a STALE node records the
  // node here, and a subsequent Insert* with the same (dir, name) revalidates
  // it directly — no second hash probe. Only valid for the very next Insert*
  // with the identical key; do not store. `gen` snapshots the structure
  // generation of the key's shard: if any node of that shard was unlinked or
  // reclaimed between the Lookup and the Insert* (possible now that walks
  // run concurrently), the hint is silently ignored instead of dereferencing
  // a recycled node. Unlinks in other shards leave it valid.
  struct Hint {
    void* node = nullptr;
    uint64_t gen = 0;
  };

  // Consults the cache for `name` under `dir`. Only kHit fills *out. The hit
  // path is lock-free, allocation-free and writes no reference count: one
  // hash, one atomic bucket-chain traversal, no mutex, no string copy.
  // Callers must hold the VFS tree lock (shared is enough); that is what
  // keeps unlinked-but-visible nodes, and a hit's child, alive until the
  // next exclusive section.
  Outcome Lookup(const Inode& dir, std::string_view name, Inode** out, Hint* hint = nullptr);

  // Records that `dir` contains `name` -> `child`. Symlink children are
  // skipped. A node for the same key pointing at the same inode is
  // revalidated in place; a re-mapped name gets a fresh node.
  void InsertPositive(const Inode& dir, std::string_view name, const InodeRef& child,
                      const Hint* hint = nullptr);

  // Records that `name` does not exist under `dir`.
  void InsertNegative(const Inode& dir, std::string_view name, const Hint* hint = nullptr);

  // O(1) stale-out of every cached entry under `dir` (bumps its generation),
  // then a reclaim of deferred garbage from evictions and re-maps. Callers
  // must hold the kernel's big lock and the VFS tree lock exclusively: that
  // section is the reclaim's grace period.
  void InvalidateDir(Inode& dir);

  // The bump alone, for a creator holding the tree lock shared and `dir`'s
  // data_mu: lock-free readers may be in flight, so nothing is reclaimed.
  void InvalidateDirShared(Inode& dir);

  // True once some shard's deferred garbage holds more nodes than its share
  // of the capacity. One relaxed load: callers poll it with no lock held.
  bool ReclaimDue() const { return reclaim_due_.load(std::memory_order_relaxed); }
  // Frees the deferred garbage of every shard that has any. Callers hold
  // the same locks as for InvalidateDir.
  void Reclaim();

  // Drops every entry (stats other than size are kept). Requires quiescence
  // (no concurrent walks): benches/tests call it between runs.
  void Clear();

  void ResetStats();

  // Snapshot including current size/capacity. Counters are independent relaxed
  // atomics: each value is exact, but a snapshot taken mid-walk may observe a
  // lookup whose insertion has not landed yet (hits+misses can transiently
  // disagree with insertions). Quiesce the kernel for exact cross-counter
  // arithmetic, as the benches do.
  NameCacheStats stats() const;

  size_t size() const;
  size_t capacity() const { return capacity_; }
  size_t shard_count() const { return shard_mask_ + 1; }
  // The writer shard that owns (dir_ino, name); tests pick keys with it.
  size_t ShardOf(Ino dir_ino, std::string_view name) const {
    return HashMix(dir_ino, name) & shard_mask_;
  }

 private:
  struct Key {
    Ino dir_ino;
    std::string name;
  };

  static size_t HashMix(Ino dir_ino, std::string_view name) {
    return std::hash<std::string_view>()(name) ^
           (std::hash<uint64_t>()(static_cast<uint64_t>(dir_ino)) * 0x9e3779b97f4a7c15ULL);
  }

  struct Entry {
    Entry(Key k, size_t h, const InodeRef& c, uint64_t gen, bool neg)
        : key(std::move(k)), hash(h), child(c), inode(c.get()), negative(neg), dir_gen(gen) {}

    // Immutable after publication (a re-mapped name gets a fresh node, so
    // lock-free readers never observe these mid-change).
    const Key key;
    const size_t hash;                 // HashMix(key): picks bucket and shard
    const std::weak_ptr<Inode> child;  // empty for negative entries
    Inode* const inode;                // child's address, returned by a hit
    const bool negative;

    // Directory generation this mapping was validated against. Refreshed in
    // place (release store) when an insert revalidates the same mapping.
    std::atomic<uint64_t> dir_gen;
    // Clock bit: referenced since the last eviction sweep. Set by lock-free
    // readers, consumed by the sweep under the shard mutex.
    std::atomic<bool> touched{false};
    // Set (exchange) by whichever side retires the entry first: a reader that
    // caught the weak child expired, or a writer unlinking it. Whoever wins
    // the exchange owns the live-count decrement, so the count stays exact
    // even when both race.
    std::atomic<bool> dead{false};
    // Bucket chain link. Readers traverse with acquire loads; writers relink
    // under the shard mutex. An unlinked node keeps its link so a reader
    // paused on it can finish walking the chain.
    std::atomic<Entry*> next_hash{nullptr};

    // This node's own position in its shard's lru/garbage, so an unlink
    // found through the hash chain can splice the node out in O(1).
    // Writer-only, guarded by the shard mutex.
    std::list<Entry>::iterator self;
  };

  // Sets the clock bit only when it is clear: a hot entry's line then stays
  // shared among the walkers that hit it, instead of being written by each.
  static void Touch(Entry& node) {
    if (!node.touched.load(std::memory_order_relaxed)) {
      node.touched.store(true, std::memory_order_relaxed);
    }
  }

  using EntryList = std::list<Entry>;

  // One writer shard. Its fields are written only under `mu` (live_count
  // also by a reader that retires an expired node). structure_gen sits on
  // its own line because every Lookup in the shard loads it, and the
  // writers' mutex and list traffic should not evict it from the readers'
  // caches.
  struct alignas(64) Shard {
    std::mutex mu;
    EntryList lru;      // live entries; front = most recently inserted
    EntryList garbage;  // unlinked entries awaiting a quiescent reclaim
    size_t capacity = 0;  // this shard's share
    std::atomic<size_t> live_count{0};
    std::atomic<size_t> garbage_count{0};  // garbage.size(), for Reclaim's skip
    std::atomic<uint64_t> insertions{0};
    std::atomic<uint64_t> evictions{0};
    // Bumped whenever a node of this shard is unlinked or reclaimed;
    // validates Hints.
    alignas(64) std::atomic<uint64_t> structure_gen{0};
  };

  // Read-path tallies. Every concurrent Namei walk bumps one of these per
  // component, so a single shared cache line here serializes the otherwise
  // lock-free hit path — they are striped into per-thread-slot shards
  // (folded on snapshot), same scheme as the kernel's syscall stats.
  // Relaxed is sufficient: they order nothing, and every mutation
  // happens-before a quiescent snapshot anyway.
  static constexpr uint32_t kCounterShards = 8;
  struct alignas(64) ReadCounterShard {
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> negative_hits{0};
    std::atomic<uint64_t> misses{0};
  };

  Shard& ShardFor(size_t hash) { return shards_[hash & shard_mask_]; }
  std::atomic<Entry*>& BucketFor(size_t hash) { return buckets_[hash & bucket_mask_]; }

  // Inserts (or revalidates) an entry under its shard's mutex.
  void Insert(const Inode& dir, std::string_view name, const InodeRef& child, bool negative,
              const Hint* hint);

  // Unlinks `node` from its bucket chain and moves it to its shard's garbage
  // list (it may still be visible to in-flight readers). Bumps the shard's
  // structure generation; raises reclaim_due_ once the garbage passes the
  // shard's share. `shard.mu` held.
  void UnlinkLocked(Shard& shard, Entry* node);

  // Frees one shard's garbage list. Only callable while no lock-free reader
  // can exist (mu_ and the VFS tree lock held exclusively, or
  // single-threaded quiescence), with `shard.mu` held.
  static void ReclaimGarbageLocked(Shard& shard);

  size_t capacity_;
  size_t bucket_mask_ = 0;
  size_t shard_mask_ = 0;
  std::atomic<bool> enabled_{true};
  // Raised by the unlink that takes a shard's garbage past its share;
  // lowered by Reclaim and Clear.
  std::atomic<bool> reclaim_due_{false};
  std::unique_ptr<std::atomic<Entry*>[]> buckets_;
  std::unique_ptr<Shard[]> shards_;
  ReadCounterShard read_shards_[kCounterShards];
  // Bumped by invalidations, which mutate a directory anyway; on its own
  // line, away from the fields every Lookup reads.
  alignas(64) std::atomic<uint64_t> invalidations_{0};
};

}  // namespace ia

#endif  // SRC_KERNEL_NAMECACHE_H_
