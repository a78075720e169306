// Registry of in-flight transactions; provides the GC watermark (paper §3:
// versions older than what the oldest active transaction can read are
// garbage).
//
// Sharded by transaction id: with the commit pipeline running commits in
// parallel, Begin()'s registration is the last per-transaction global touch
// point, so it must not funnel every thread through one mutex.
//
// Snapshot lifecycle: each registration carries a wall-clock birth time and
// a shared expired flag. The GC daemon's expiry sweep (ExpireSnapshots)
// marks snapshots expired — by age (snapshot_max_age_ms) or under GC
// backlog pressure — and Watermark() then IGNORES expired registrations, so
// the reclamation watermark advances past a marked victim immediately. The
// victim's Transaction holds the same flag and fails its next read or
// commit with Status::SnapshotTooOld (checked before AND after each chain
// walk: a read that overlaps its own expiry can never return state the
// concurrent reclamation made inconsistent).
//
// Watermark pinning is OPT-IN per registration: read-committed
// transactions register with pins_watermark=false — they only ever read
// the LATEST committed version, which is never reclaimable, and their
// mid-walk memory safety comes from the epoch-based read path, not from
// holding reclamation back. Non-pinning registrations are invisible to
// both Watermark() and the expiry sweep (they can never be a
// SnapshotTooOld victim), but still count as active transactions.

#ifndef NEOSI_TXN_ACTIVE_TXN_TABLE_H_
#define NEOSI_TXN_ACTIVE_TXN_TABLE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace neosi {

/// What Begin() gets back from a registration: the snapshot timestamp and
/// the expiry flag shared with the table. The Transaction polls the flag
/// (one relaxed/acquire load) instead of taking a shard mutex per read.
struct SnapshotRegistration {
  Timestamp start_ts = kNoTimestamp;
  std::shared_ptr<const std::atomic<bool>> expired;
};

/// Outcome of one expiry sweep.
struct SnapshotExpiryOutcome {
  uint64_t expired_by_age = 0;
  uint64_t expired_by_backlog = 0;
};

/// Thread-safe sharded active-transaction table.
class ActiveTxnTable {
 public:
  /// Shard count is auto-sized from std::thread::hardware_concurrency():
  /// max(16, 2 * cores), capped at 64. More shards keep concurrent Begin()s
  /// off each other's mutexes; fewer make the watermark scan cheaper.
  ActiveTxnTable();

  ActiveTxnTable(const ActiveTxnTable&) = delete;
  ActiveTxnTable& operator=(const ActiveTxnTable&) = delete;

  /// Grace period from registration before a snapshot is eligible for
  /// BACKLOG-pressure eviction (age-based expiry uses snapshot_max_age_ms
  /// alone): a fresh snapshot under a write burst is never the victim.
  static constexpr std::chrono::milliseconds kBacklogExpiryGrace{10};

  void Register(TxnId txn, Timestamp start_ts);

  /// Obtains a start timestamp from `ts_source` and registers the
  /// transaction in one critical section (on the transaction's shard). This
  /// closes the begin/GC race: Watermark() evaluates its fallback BEFORE
  /// scanning the shards, and the oracle's read timestamp is monotone, so a
  /// registration this scan misses must have read a start timestamp >= the
  /// fallback — the watermark never exceeds a missed snapshot's timestamp.
  ///
  /// `pins_watermark=false` (read-committed) registers an active
  /// transaction that neither holds Watermark() back nor participates in
  /// the expiry sweep.
  SnapshotRegistration RegisterAtomic(
      TxnId txn, const std::function<Timestamp()>& ts_source,
      bool pins_watermark = true);

  void Unregister(TxnId txn);

  /// The reclamation watermark: the minimum start timestamp among active,
  /// NON-EXPIRED transactions, or `fallback` (the oracle's current read
  /// timestamp, which callers MUST evaluate before this call) when none
  /// are active. Any version superseded at or before this timestamp can
  /// never be read again (paper §3's example: versions 40 and 56 are dead
  /// once the oldest active start timestamp is 100). An expired
  /// registration no longer holds the watermark back — that is the whole
  /// point of expiry: its transaction is doomed to SnapshotTooOld and must
  /// not be allowed to read reclaimed state anyway.
  Timestamp Watermark(Timestamp fallback) const;

  /// One expiry sweep (called by the GC daemon, never by transactions).
  /// Marks expired:
  ///  - every active transaction older than `max_age_ms` (0 = age expiry
  ///    disabled), and
  ///  - when `backlog_pressure` is set, the oldest-start-ts cohort of
  ///    active transactions older than kBacklogExpiryGrace (the snapshots
  ///    actually pinning the watermark).
  /// Idempotent per victim; per-cause totals accumulate in the stats
  /// counters below.
  SnapshotExpiryOutcome ExpireSnapshots(uint64_t max_age_ms,
                                        bool backlog_pressure);

  /// Replication-conflict expiry (the standby-query-conflict path): marks
  /// every watermark-pinning registration with start_ts < `ts` expired, so
  /// a replica applier can replay a shipped purge that would otherwise wait
  /// on those snapshots forever. Victims fail their next read or commit
  /// with SnapshotTooOld. Returns the number newly marked; the total
  /// accumulates in snapshots_expired_replication().
  uint64_t ExpireSnapshotsBelow(Timestamp ts);

  size_t ActiveCount() const;
  size_t shard_count() const { return shards_.size(); }
  std::vector<TxnId> ActiveTxnIds() const;
  bool IsActive(TxnId txn) const;
  /// True if the transaction is registered AND marked expired (test hook).
  bool IsExpired(TxnId txn) const;

  /// Called by a Transaction when it turns an expiry mark into a
  /// SnapshotTooOld abort (per-cause observability in DatabaseStats).
  void NoteSnapshotTooOldAbort() {
    too_old_aborts_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Lifetime totals. Lock-free.
  uint64_t snapshots_expired_age() const {
    return expired_age_.load(std::memory_order_relaxed);
  }
  uint64_t snapshots_expired_backlog() const {
    return expired_backlog_.load(std::memory_order_relaxed);
  }
  uint64_t snapshots_expired_replication() const {
    return expired_replication_.load(std::memory_order_relaxed);
  }
  uint64_t snapshot_too_old_aborts() const {
    return too_old_aborts_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    Timestamp start_ts = kNoTimestamp;
    std::chrono::steady_clock::time_point registered_at;
    std::shared_ptr<std::atomic<bool>> expired;
    /// False for read-committed registrations: ignored by Watermark() and
    /// by the expiry sweep.
    bool pins_watermark = true;
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<TxnId, Entry> active;
  };

  Shard& ShardFor(TxnId txn) { return *shards_[txn % shards_.size()]; }
  const Shard& ShardFor(TxnId txn) const {
    return *shards_[txn % shards_.size()];
  }

  /// unique_ptr indirection: Shard owns a mutex and cannot be moved into a
  /// runtime-sized vector directly.
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<uint64_t> expired_age_{0};
  std::atomic<uint64_t> expired_backlog_{0};
  std::atomic<uint64_t> expired_replication_{0};
  std::atomic<uint64_t> too_old_aborts_{0};
};

}  // namespace neosi

#endif  // NEOSI_TXN_ACTIVE_TXN_TABLE_H_
