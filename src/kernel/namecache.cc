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
  // The shard is the low bits of the bucket index (shards <= kMaxShards <
  // buckets), so the nodes of one chain are relinked under one mutex.
  size_t shards = 1;
  while (shards * 2 <= kMaxShards && shards * 2 * kEntriesPerShard <= capacity_) {
    shards <<= 1;
  }
  shard_mask_ = shards - 1;
  shards_ = std::make_unique<Shard[]>(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_[i].capacity = capacity_ / shards + (i < capacity_ % shards ? 1 : 0);
  }
}

NameCache::Outcome NameCache::Lookup(const Inode& dir, std::string_view name, Inode** out,
                                     Hint* hint) {
  if (!enabled()) {
    return Outcome::kMiss;
  }
  const size_t hash = HashMix(dir.ino(), name);
  Shard& shard = ShardFor(hash);
  // Structure generation is snapshotted BEFORE the probe: if the node found
  // below is unlinked after this point the generation moves, so a Hint built
  // from this snapshot can never smuggle an unlinked node into Insert*.
  const uint64_t gen_snapshot = shard.structure_gen.load(std::memory_order_acquire);
  ReadCounterShard& rc = read_shards_[StatShardSlot(kCounterShards)];
  Entry* node = BucketFor(hash).load(std::memory_order_acquire);
  while (node != nullptr && !(node->hash == hash && node->key.dir_ino == dir.ino() &&
                              node->key.name == name)) {
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
      shard.live_count.fetch_sub(1, std::memory_order_relaxed);
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
  Insert(dir, name, child, /*negative=*/false, hint);
}

void NameCache::InsertNegative(const Inode& dir, std::string_view name, const Hint* hint) {
  if (!enabled()) {
    return;
  }
  Insert(dir, name, nullptr, /*negative=*/true, hint);
}

void NameCache::Insert(const Inode& dir, std::string_view name, const InodeRef& child,
                       bool negative, const Hint* hint) {
  const size_t hash = HashMix(dir.ino(), name);
  Shard& shard = ShardFor(hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  // Both the hint (validated by the shard's structure generation) and the
  // probe can only yield nodes that are still chained and on the shard's
  // lru: unlinking is the single operation that unchains, and it moves the
  // node to the garbage in the same step while bumping the generation.
  Entry* node = nullptr;
  if (hint != nullptr && hint->node != nullptr &&
      hint->gen == shard.structure_gen.load(std::memory_order_relaxed)) {
    node = static_cast<Entry*>(hint->node);
  } else {
    node = BucketFor(hash).load(std::memory_order_relaxed);
    while (node != nullptr && !(node->hash == hash && node->key.dir_ino == dir.ino() &&
                                node->key.name == name)) {
      node = node->next_hash.load(std::memory_order_relaxed);
    }
  }
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
    UnlinkLocked(shard, node);
  }
  EntryList& lru = shard.lru;
  while (lru.size() >= shard.capacity) {
    Entry& back = lru.back();
    if (back.dead.load(std::memory_order_acquire)) {
      // Retired by a reader that caught the weak child expired; not a
      // capacity eviction.
      UnlinkLocked(shard, &back);
      continue;
    }
    if (back.touched.load(std::memory_order_relaxed)) {
      // Second-chance sweep: a touched back entry is recycled to the front
      // with its clock bit cleared; the first untouched one is the victim.
      // Each touched entry is passed over at most once per sweep, so this
      // terminates.
      back.touched.store(false, std::memory_order_relaxed);
      lru.splice(lru.begin(), lru, std::prev(lru.end()));
      continue;
    }
    UnlinkLocked(shard, &back);
    shard.evictions.fetch_add(1, std::memory_order_relaxed);
  }
  lru.emplace_front(Key{dir.ino(), std::string(name)}, hash, child,
                    dir.namecache_gen.load(std::memory_order_relaxed), negative);
  Entry& fresh = lru.front();
  fresh.self = lru.begin();
  std::atomic<Entry*>& bucket = BucketFor(hash);
  // Publish: fully constructed node first, then the release store that makes
  // it reachable. Readers acquire-load the bucket head, so they observe the
  // node's immutable fields.
  fresh.next_hash.store(bucket.load(std::memory_order_relaxed), std::memory_order_relaxed);
  bucket.store(&fresh, std::memory_order_release);
  shard.live_count.fetch_add(1, std::memory_order_relaxed);
  shard.insertions.fetch_add(1, std::memory_order_relaxed);
}

void NameCache::UnlinkLocked(Shard& shard, Entry* node) {
  // Splice out of the bucket chain. The node keeps its own next_hash link so
  // a concurrent reader paused on it can finish walking the rest of the
  // chain; the node's memory stays valid until the next quiescent reclaim.
  std::atomic<Entry*>* link = &BucketFor(node->hash);
  Entry* cur = link->load(std::memory_order_relaxed);
  while (cur != node) {
    link = &cur->next_hash;
    cur = link->load(std::memory_order_relaxed);
  }
  link->store(node->next_hash.load(std::memory_order_relaxed), std::memory_order_release);
  if (!node->dead.exchange(true, std::memory_order_acq_rel)) {
    shard.live_count.fetch_sub(1, std::memory_order_relaxed);
  }
  shard.garbage.splice(shard.garbage.begin(), shard.lru, node->self);
  const size_t garbage = shard.garbage.size();
  shard.garbage_count.store(garbage, std::memory_order_relaxed);
  if (garbage > shard.capacity && !reclaim_due_.load(std::memory_order_relaxed)) {
    reclaim_due_.store(true, std::memory_order_relaxed);
  }
  shard.structure_gen.fetch_add(1, std::memory_order_release);
}

void NameCache::ReclaimGarbageLocked(Shard& shard) {
  if (shard.garbage.empty()) {
    return;
  }
  shard.garbage.clear();
  shard.garbage_count.store(0, std::memory_order_relaxed);
  shard.structure_gen.fetch_add(1, std::memory_order_release);
}

void NameCache::InvalidateDir(Inode& dir) {
  InvalidateDirShared(dir);
  // The caller's exclusive hold guarantees no lock-free reader is in flight,
  // so this is the safe point to free deferred garbage.
  Reclaim();
}

void NameCache::Reclaim() {
  // No writer runs during the caller's exclusive section, so lowering the
  // word first loses no raise.
  reclaim_due_.store(false, std::memory_order_relaxed);
  for (size_t i = 0; i <= shard_mask_; ++i) {
    Shard& shard = shards_[i];
    if (shard.garbage_count.load(std::memory_order_relaxed) == 0) {
      continue;  // host-side installs reclaim once per file: skip the lock
    }
    std::lock_guard<std::mutex> lock(shard.mu);
    ReclaimGarbageLocked(shard);
  }
}

void NameCache::InvalidateDirShared(Inode& dir) {
  // Release: a reader that sees the new generation also sees the entry the
  // bump announces (the creator linked it first, under the same data_mu).
  dir.namecache_gen.fetch_add(1, std::memory_order_release);
  invalidations_.fetch_add(1, std::memory_order_relaxed);
}

void NameCache::Clear() {
  for (size_t i = 0; i <= shard_mask_; ++i) {
    Shard& shard = shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (size_t b = i; b <= bucket_mask_; b += shard_mask_ + 1) {
      buckets_[b].store(nullptr, std::memory_order_relaxed);
    }
    shard.garbage.splice(shard.garbage.begin(), shard.lru);
    shard.live_count.store(0, std::memory_order_relaxed);
    // Callers promise quiescence, so the garbage (including everything just
    // unpublished) can be freed immediately.
    ReclaimGarbageLocked(shard);
    shard.structure_gen.fetch_add(1, std::memory_order_release);
  }
  reclaim_due_.store(false, std::memory_order_relaxed);
}

void NameCache::ResetStats() {
  for (ReadCounterShard& shard : read_shards_) {
    shard.hits.store(0, std::memory_order_relaxed);
    shard.negative_hits.store(0, std::memory_order_relaxed);
    shard.misses.store(0, std::memory_order_relaxed);
  }
  for (size_t i = 0; i <= shard_mask_; ++i) {
    shards_[i].insertions.store(0, std::memory_order_relaxed);
    shards_[i].evictions.store(0, std::memory_order_relaxed);
  }
  invalidations_.store(0, std::memory_order_relaxed);
}

size_t NameCache::size() const {
  size_t live = 0;
  for (size_t i = 0; i <= shard_mask_; ++i) {
    live += shards_[i].live_count.load(std::memory_order_relaxed);
  }
  return live;
}

NameCacheStats NameCache::stats() const {
  NameCacheStats out;
  for (const ReadCounterShard& shard : read_shards_) {
    out.hits += shard.hits.load(std::memory_order_relaxed);
    out.negative_hits += shard.negative_hits.load(std::memory_order_relaxed);
    out.misses += shard.misses.load(std::memory_order_relaxed);
  }
  for (size_t i = 0; i <= shard_mask_; ++i) {
    out.insertions += shards_[i].insertions.load(std::memory_order_relaxed);
    out.evictions += shards_[i].evictions.load(std::memory_order_relaxed);
  }
  out.invalidations = invalidations_.load(std::memory_order_relaxed);
  out.size = size();
  out.capacity = capacity_;
  return out;
}

}  // namespace ia
