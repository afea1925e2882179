#include "src/kernel/namecache.h"

#include "src/kernel/vfs.h"

namespace ia {

NameCache::NameCache(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {
  // Fixed bucket array at ~2x capacity: no rehash ever happens, which is what
  // lets Lookup traverse the chains without a lock.
  size_t buckets = 8;
  while (buckets < capacity_ * 2) {
    buckets <<= 1;
  }
  bucket_mask_ = buckets - 1;
  buckets_ = std::make_unique<std::atomic<Entry*>[]>(buckets);  // value-init: all null
}

NameCache::Outcome NameCache::Lookup(const Inode& dir, std::string_view name, Inode** out,
                                     Hint* hint) {
  if (!enabled()) {
    return Outcome::kMiss;
  }
  // Structure generation is snapshotted BEFORE the probe: if the node found
  // below is unlinked after this point the generation moves, so a Hint built
  // from this snapshot can never smuggle an unlinked node into Insert*.
  const uint64_t gen_snapshot = structure_gen_.load(std::memory_order_acquire);
  ReadCounterShard& rc = read_shards_[StatShardSlot(kCounterShards)];
  Entry* node = BucketOf(dir.ino(), name).load(std::memory_order_acquire);
  while (node != nullptr && !(node->key.dir_ino == dir.ino() && node->key.name == name)) {
    node = node->next_hash.load(std::memory_order_acquire);
  }
  if (node == nullptr || node->dead.load(std::memory_order_acquire)) {
    rc.misses.fetch_add(1, std::memory_order_relaxed);
    return Outcome::kMiss;
  }
  if (node->dir_gen.load(std::memory_order_acquire) !=
      dir.namecache_gen.load(std::memory_order_acquire)) {
    // The directory mutated since this entry was cached. Report a miss but
    // keep the node: the caller re-searches the directory and its Insert*
    // revalidates this node in place (through `hint` without even re-probing),
    // so churny directories don't pay an unlink + reallocate cycle per
    // mutation.
    if (hint != nullptr) {
      hint->node = node;
      hint->gen = gen_snapshot;
    }
    rc.misses.fetch_add(1, std::memory_order_relaxed);
    return Outcome::kMiss;
  }
  if (node->negative) {
    Touch(*node);
    rc.negative_hits.fetch_add(1, std::memory_order_relaxed);
    *out = nullptr;
    return Outcome::kNegativeHit;
  }
  // A load of the control block's count, not lock()'s compare-and-swap: the
  // walker's tree-lock hold keeps a current mapping's child alive.
  if (node->child.expired()) {
    // The inode died under the cache. A lock-free reader cannot unlink, but
    // it can retire: the exchange decides whether this reader or a racing
    // writer owns the live-count decrement. The node stays chained until a
    // writer re-maps or sweeps it.
    if (!node->dead.exchange(true, std::memory_order_acq_rel)) {
      live_count_.fetch_sub(1, std::memory_order_relaxed);
    }
    rc.misses.fetch_add(1, std::memory_order_relaxed);
    return Outcome::kMiss;
  }
  Touch(*node);  // clock bit: no list surgery on a hit
  rc.hits.fetch_add(1, std::memory_order_relaxed);
  *out = node->inode;
  return Outcome::kHit;
}

void NameCache::InsertPositive(const Inode& dir, std::string_view name, const InodeRef& child,
                               const Hint* hint) {
  if (!enabled() || child == nullptr || child->IsSymlink()) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  Entry* hinted = nullptr;
  if (hint != nullptr && hint->node != nullptr &&
      hint->gen == structure_gen_.load(std::memory_order_relaxed)) {
    hinted = static_cast<Entry*>(hint->node);
  }
  InsertEntryLocked(dir, name, child, /*negative=*/false, hinted);
}

void NameCache::InsertNegative(const Inode& dir, std::string_view name, const Hint* hint) {
  if (!enabled()) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  Entry* hinted = nullptr;
  if (hint != nullptr && hint->node != nullptr &&
      hint->gen == structure_gen_.load(std::memory_order_relaxed)) {
    hinted = static_cast<Entry*>(hint->node);
  }
  InsertEntryLocked(dir, name, nullptr, /*negative=*/true, hinted);
}

NameCache::Entry* NameCache::FindLocked(Ino dir_ino, std::string_view name) {
  Entry* node = BucketOf(dir_ino, name).load(std::memory_order_relaxed);
  while (node != nullptr && !(node->key.dir_ino == dir_ino && node->key.name == name)) {
    node = node->next_hash.load(std::memory_order_relaxed);
  }
  return node;
}

void NameCache::InsertEntryLocked(const Inode& dir, std::string_view name, const InodeRef& child,
                                  bool negative, Entry* hinted) {
  // Both the hint (structure-generation-validated) and FindLocked can only
  // yield nodes that are still chained and on lru_: unlinking is the single
  // operation that unchains, and it moves the node to garbage_ in the same
  // step while bumping the generation.
  Entry* node = hinted != nullptr ? hinted : FindLocked(dir.ino(), name);
  if (node != nullptr) {
    const bool same_mapping =
        !node->dead.load(std::memory_order_acquire) && node->negative == negative &&
        (negative || (!node->child.owner_before(child) && !child.owner_before(node->child)));
    if (same_mapping) {
      // Same name -> same object: revalidate in place. Readers racing this
      // store see either the stale or the fresh generation, never a torn
      // mapping (key/child/negative are immutable).
      node->dir_gen.store(dir.namecache_gen.load(std::memory_order_relaxed),
                          std::memory_order_release);
      node->touched.store(true, std::memory_order_relaxed);
      return;
    }
    // Re-mapped (different inode, flipped negativity, or retired): publish a
    // fresh node instead of mutating this one under concurrent readers.
    UnlinkLocked(node);
  }
  while (lru_.size() >= capacity_) {
    Entry& back = lru_.back();
    if (back.dead.load(std::memory_order_acquire)) {
      // Retired by a reader that caught the weak child expired; not a
      // capacity eviction.
      UnlinkLocked(&back);
      continue;
    }
    if (back.touched.load(std::memory_order_relaxed)) {
      // Second-chance sweep: a touched back entry is recycled to the front
      // with its clock bit cleared; the first untouched one is the victim.
      // Each touched entry is passed over at most once per sweep, so this
      // terminates.
      back.touched.store(false, std::memory_order_relaxed);
      lru_.splice(lru_.begin(), lru_, std::prev(lru_.end()));
      continue;
    }
    UnlinkLocked(&back);
    counters_.evictions.fetch_add(1, std::memory_order_relaxed);
  }
  lru_.emplace_front(Key{dir.ino(), std::string(name)}, child,
                     dir.namecache_gen.load(std::memory_order_relaxed), negative);
  Entry& fresh = lru_.front();
  fresh.self = lru_.begin();
  std::atomic<Entry*>& bucket = BucketOf(dir.ino(), name);
  // Publish: fully constructed node first, then the release store that makes
  // it reachable. Readers acquire-load the bucket head, so they observe the
  // node's immutable fields.
  fresh.next_hash.store(bucket.load(std::memory_order_relaxed), std::memory_order_relaxed);
  bucket.store(&fresh, std::memory_order_release);
  live_count_.fetch_add(1, std::memory_order_relaxed);
  counters_.insertions.fetch_add(1, std::memory_order_relaxed);
}

void NameCache::UnlinkLocked(Entry* node) {
  // Splice out of the bucket chain. The node keeps its own next_hash link so
  // a concurrent reader paused on it can finish walking the rest of the
  // chain; the node's memory stays valid until the next quiescent reclaim.
  std::atomic<Entry*>* link = &BucketOf(node->key.dir_ino, node->key.name);
  Entry* cur = link->load(std::memory_order_relaxed);
  while (cur != node) {
    link = &cur->next_hash;
    cur = link->load(std::memory_order_relaxed);
  }
  link->store(node->next_hash.load(std::memory_order_relaxed), std::memory_order_release);
  if (!node->dead.exchange(true, std::memory_order_acq_rel)) {
    live_count_.fetch_sub(1, std::memory_order_relaxed);
  }
  garbage_.splice(garbage_.begin(), lru_, node->self);
  garbage_count_.store(garbage_.size(), std::memory_order_relaxed);
  structure_gen_.fetch_add(1, std::memory_order_release);
}

void NameCache::ReclaimGarbageLocked() {
  if (garbage_.empty()) {
    return;
  }
  garbage_.clear();
  garbage_count_.store(0, std::memory_order_relaxed);
  structure_gen_.fetch_add(1, std::memory_order_release);
}

void NameCache::InvalidateDir(Inode& dir) {
  InvalidateDirShared(dir);
  // The caller's exclusive hold guarantees no lock-free reader is in flight,
  // so this is the safe point to free deferred garbage.
  Reclaim();
}

void NameCache::Reclaim() {
  std::lock_guard<std::mutex> lock(mu_);
  ReclaimGarbageLocked();
}

void NameCache::InvalidateDirShared(Inode& dir) {
  // Release: a reader that sees the new generation also sees the entry the
  // bump announces (the creator linked it first, under the same data_mu).
  dir.namecache_gen.fetch_add(1, std::memory_order_release);
  counters_.invalidations.fetch_add(1, std::memory_order_relaxed);
}

void NameCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i <= bucket_mask_; ++i) {
    buckets_[i].store(nullptr, std::memory_order_relaxed);
  }
  garbage_.splice(garbage_.begin(), lru_);
  live_count_.store(0, std::memory_order_relaxed);
  // Callers promise quiescence, so the garbage (including everything just
  // unpublished) can be freed immediately.
  ReclaimGarbageLocked();
  structure_gen_.fetch_add(1, std::memory_order_release);
}

void NameCache::ResetStats() {
  for (ReadCounterShard& shard : read_shards_) {
    shard.hits.store(0, std::memory_order_relaxed);
    shard.negative_hits.store(0, std::memory_order_relaxed);
    shard.misses.store(0, std::memory_order_relaxed);
  }
  counters_.insertions.store(0, std::memory_order_relaxed);
  counters_.evictions.store(0, std::memory_order_relaxed);
  counters_.invalidations.store(0, std::memory_order_relaxed);
}

NameCacheStats NameCache::stats() const {
  NameCacheStats out;
  for (const ReadCounterShard& shard : read_shards_) {
    out.hits += shard.hits.load(std::memory_order_relaxed);
    out.negative_hits += shard.negative_hits.load(std::memory_order_relaxed);
    out.misses += shard.misses.load(std::memory_order_relaxed);
  }
  out.insertions = counters_.insertions.load(std::memory_order_relaxed);
  out.evictions = counters_.evictions.load(std::memory_order_relaxed);
  out.invalidations = counters_.invalidations.load(std::memory_order_relaxed);
  out.size = size();
  out.capacity = capacity_;
  return out;
}

}  // namespace ia
