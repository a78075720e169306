// The paper's garbage-collection structure (§4): obsolete versions are
// "threaded with a double linked list sorted by timestamp to enable to
// perform the garbage collection just traversing those versions that must be
// garbage collected".
//
// Commit timestamps are handed out monotonically and commits complete almost
// in that order, so inserting from the tail keeps the list sorted in O(1)
// amortized; reclamation pops from the head while the head is reclaimable,
// touching nothing else. This is what makes GC cost proportional to the
// number of versions reclaimed (experiment E8), in contrast with the
// full-scan vacuum baseline.

// Sharding: one global list funnels every committer's Append through one
// mutex. ShardedGcList splits the queue by entity key: each shard keeps the
// paper's timestamp order independently (reclaimability is a per-version
// property — a version is dead once the watermark passes its
// obsolete_since, regardless of what sits in other shards), so appenders
// only contend within a shard. One GC pass still drains every shard.

#ifndef NEOSI_MVCC_GC_LIST_H_
#define NEOSI_MVCC_GC_LIST_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <vector>

#include "common/types.h"

namespace neosi {

/// One obsolete version awaiting reclamation. It names the entity, not the
/// version: the chain owns its versions, and a pass prunes every version of
/// the entity that its watermark has passed. An entry whose version was
/// already freed (vacuum, eviction, erase) therefore drains as a no-op.
struct GcEntry {
  EntityKey key;
  /// The sort key: commit timestamp of the superseding version (a
  /// tombstone's own timestamp for tombstones). The version is reclaimable
  /// once every active transaction's start timestamp >= this.
  Timestamp obsolete_since = kNoTimestamp;
  /// The entity's tombstone (a physical purge), not a superseded version.
  bool tombstone = false;
};

/// Thread-safe timestamp-sorted reclamation queue.
class GcList {
 public:
  /// Inserts in timestamp order. Entries arrive NEARLY sorted (concurrent
  /// commits finish slightly out of timestamp order), so insertion walks
  /// back from the tail: O(1) amortized.
  void Append(GcEntry entry);

  /// Watermark-bounded drain: pops and returns every head entry with
  /// obsolete_since <= watermark (up to max_batch; 0 = unlimited). Cost is
  /// O(#returned) — entries above the watermark are never touched.
  std::vector<GcEntry> PopReclaimable(Timestamp watermark,
                                      size_t max_batch = 0);

  /// Entries currently queued. Lock-free: commit publication reads this on
  /// every commit to decide whether to nudge the GC daemon, so it must not
  /// contend with concurrent Append/PopReclaimable.
  size_t backlog() const { return backlog_.load(std::memory_order_relaxed); }

  /// Largest backlog ever observed at an Append (pacing stat). Lock-free.
  uint64_t backlog_high_water() const {
    return backlog_high_water_.load(std::memory_order_relaxed);
  }

  /// obsolete_since of the head entry (kMaxTimestamp when empty).
  Timestamp OldestObsoleteSince() const;

  /// Total entries ever appended / reclaimed (stats for E8). Lock-free.
  uint64_t total_appended() const {
    return total_appended_.load(std::memory_order_relaxed);
  }
  uint64_t total_reclaimed() const {
    return total_reclaimed_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::mutex mu_;
  std::list<GcEntry> entries_;
  std::atomic<size_t> backlog_{0};
  std::atomic<uint64_t> backlog_high_water_{0};
  std::atomic<uint64_t> total_appended_{0};
  std::atomic<uint64_t> total_reclaimed_{0};
};

/// Entity-key-sharded reclamation queue: N independent timestamp-sorted
/// GcLists. Appends hash the entity key to a shard (a chain's obsolete
/// versions always land in the same shard); PopReclaimable drains them
/// all. The aggregate backlog gauge stays a single lock-free load — commit
/// publication reads it on every commit to decide whether to nudge the GC
/// daemon, and the snapshot lifecycle policy reads it as its
/// backlog-pressure trigger.
class ShardedGcList {
 public:
  static constexpr size_t kMaxShards = 64;

  /// The engine's shard count: hardware_concurrency clamped to
  /// [1, kMaxShards], 4 when the core count is unknown.
  ShardedGcList();

  /// An explicit shard count, clamped to [1, kMaxShards] (tests).
  explicit ShardedGcList(size_t shards);

  /// Inserts into the entity's shard, keeping that shard timestamp-sorted
  /// (near-sorted tail insert, O(1) amortized — see GcList::Append).
  void Append(GcEntry entry);

  /// Watermark-bounded drain across ALL shards. Entries are in timestamp
  /// order within each shard, shards concatenated in index order — no
  /// consumer requires a global sort. Cost is O(#returned + #shards).
  std::vector<GcEntry> PopReclaimable(Timestamp watermark,
                                      size_t max_batch = 0);

  size_t shard_count() const { return shards_.size(); }
  size_t ShardOf(const EntityKey& key) const {
    return std::hash<EntityKey>{}(key) % shards_.size();
  }

  /// Entries currently queued across all shards. One lock-free load.
  size_t backlog() const { return backlog_.load(std::memory_order_relaxed); }

  /// Largest aggregate backlog ever observed at an Append. Lock-free.
  uint64_t backlog_high_water() const {
    return backlog_high_water_.load(std::memory_order_relaxed);
  }

  /// Minimum head obsolete_since across shards (kMaxTimestamp when all are
  /// empty): the "is anything reclaimable / is the backlog pinned" probe.
  Timestamp OldestObsoleteSince() const;

  /// Totals across all shards (stats; re-appended purge-deferred entries
  /// count again on both sides, so backlog == appended - reclaimed holds).
  uint64_t total_appended() const;
  uint64_t total_reclaimed() const;

 private:
  // Shards hold the sorted lists and their per-shard gauges; the aggregate
  // gauges below are maintained here so the hot commit-path read stays one
  // load instead of a shard sweep.
  std::vector<GcList> shards_;
  std::atomic<size_t> backlog_{0};
  std::atomic<uint64_t> backlog_high_water_{0};
};

}  // namespace neosi

#endif  // NEOSI_MVCC_GC_LIST_H_
