// Registry of in-flight transactions; provides the GC watermark (paper §3:
// versions older than what the oldest active transaction can read are
// garbage).
//
// One claimed slot per transaction: Begin() claims a free cache-line slot by
// CAS, probing from a thread-local hint (as EpochManager::Enter does), and
// commit or abort frees it with one release store. A slot holds an owner
// word — the txn id plus three bits: pins watermark, expired, registering;
// 0 is free — the start ts and the steady-clock birth time. When every slot
// is taken a further chunk is linked in by CAS; chunks are freed only by the
// destructor, so scans walk them without a lock.
//
// Snapshot lifecycle: the GC daemon's expiry sweep marks snapshots expired
// (by age or under GC backlog pressure) and Watermark() then ignores them.
// The victim's Transaction polls its slot and fails its next read or commit
// with SnapshotTooOld (checked before AND after each chain walk).
// Read-committed transactions register with pins_watermark=false: they read
// only latest-committed versions, which are never reclaimable, so neither
// Watermark() nor the sweeps see them; they still count as active.
//
// Three invariants hold without a lock:
//  1. Watermark corollary. Begin claims with the registering bit set,
//     publishes the birth time and the start ts it read from the oracle,
//     clears the bit, then re-reads the oracle after a seq_cst fence,
//     republishing until a re-read confirms the value. Watermark() fences
//     after its caller read the fallback, and skips registering slots. If
//     the registrant's fence came first the scan sees the final start ts (or
//     a later owner); otherwise the fallback was read before the confirming
//     re-read, so fallback <= start ts (the read ts is monotone). Either
//     way the result, clamped to the fallback, is at most the start ts.
//  2. No stale or reused victim. A sweep judges a slot by the owner word it
//     loaded and the fields behind it, then marks it by a CAS from exactly
//     that word. A slot freed and re-claimed meanwhile holds another txn id,
//     so the CAS fails and no counter moves. Registering slots are never
//     judged, so a new owner is never judged by its predecessor's birth.
//  3. Mark before reclaim. The mark is a release CAS and the scan's load of
//     the owner word an acquire, so reclamation that follows an advanced
//     watermark is ordered after the mark, and the victim's post-walk check
//     (an acquire load of its own owner word) cannot miss it.

#ifndef NEOSI_TXN_ACTIVE_TXN_TABLE_H_
#define NEOSI_TXN_ACTIVE_TXN_TABLE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>

#include "common/sync_points.h"
#include "common/types.h"

namespace neosi {

/// Outcome of one expiry sweep.
struct SnapshotExpiryOutcome {
  uint64_t expired_by_age = 0;
  uint64_t expired_by_backlog = 0;
};

/// Thread-safe, lock-free active-transaction table.
class ActiveTxnTable {
 public:
  /// One transaction's registration. Begin() gets a pointer to it back and
  /// hands it to the Transaction, which polls it for expiry and frees it.
  class alignas(64) Slot {
   public:
    Timestamp start_ts() const {
      return start_ts_.load(std::memory_order_relaxed);
    }
    /// True once a sweep has marked this snapshot (one acquire load).
    bool expired() const {
      return (owner_.load(std::memory_order_acquire) & kExpired) != 0;
    }

   private:
    friend class ActiveTxnTable;
    std::atomic<uint64_t> owner_{kFree};
    std::atomic<Timestamp> start_ts_{kNoTimestamp};
    std::atomic<std::chrono::steady_clock::time_point> born_{};
  };

  /// Every Begin() parks at "txn.begin.pre_publish" and every expiry mark at
  /// "snapshot.expire.pre_mark" on `sync_points` (if any).
  explicit ActiveTxnTable(SyncPoints* sync_points = nullptr)
      : sync_points_(sync_points) {}
  ~ActiveTxnTable();
  ActiveTxnTable(const ActiveTxnTable&) = delete;
  ActiveTxnTable& operator=(const ActiveTxnTable&) = delete;

  /// Age before a snapshot can be a BACKLOG-pressure victim: a fresh
  /// snapshot under a write burst is never evicted.
  static constexpr std::chrono::milliseconds kBacklogExpiryGrace{10};

  /// Claims a slot for `txn` and publishes a start ts read from the
  /// monotone `ts_source` (the oracle's read ts), as invariant 1 describes.
  /// Allocates only when every slot of every chunk is taken.
  Slot* RegisterAtomic(TxnId txn,
                       const std::function<Timestamp()>& ts_source,
                       bool pins_watermark = true);

  /// Frees the slot (one release store). The slot must not be used after.
  void Unregister(Slot* slot) {
    slot->owner_.store(kFree, std::memory_order_release);
  }

  /// The reclamation watermark: the minimum start ts among pinning,
  /// NON-EXPIRED transactions, clamped to `fallback` (the oracle's read ts,
  /// which callers MUST evaluate first). No version superseded at or before
  /// it can be read again (paper §3: 40 and 56 die once the oldest is 100).
  Timestamp Watermark(Timestamp fallback) const;

  /// One expiry sweep at time `now` (the GC daemon passes
  /// steady_clock::now()). Marks expired every pinning snapshot older than
  /// `max_age_ms` (0 = off) and, under `backlog_pressure`, the
  /// oldest-start-ts cohort of those older than kBacklogExpiryGrace (the
  /// snapshots actually pinning the watermark). Idempotent per victim.
  SnapshotExpiryOutcome ExpireSnapshots(
      std::chrono::steady_clock::time_point now, uint64_t max_age_ms,
      bool backlog_pressure);

  /// Replication-conflict expiry: marks every pinning snapshot with
  /// start ts < `ts` expired, so a replica can replay a shipped purge that
  /// would otherwise wait on them forever. Returns the number newly marked.
  uint64_t ExpireSnapshotsBelow(Timestamp ts);

  size_t ActiveCount() const;
  bool IsActive(TxnId txn) const { return Find(txn) != nullptr; }
  /// True if the transaction is registered AND marked expired (test hook).
  bool IsExpired(TxnId txn) const {
    const Slot* slot = Find(txn);
    return slot != nullptr && slot->expired();
  }

  /// Counts a Transaction's SnapshotTooOld abort (DatabaseStats).
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
  // Owner word: txn id << kIdShift | flag bits; kFree = no owner.
  static constexpr uint64_t kFree = 0;
  static constexpr uint64_t kRegistering = 1;
  static constexpr uint64_t kExpired = 2;
  static constexpr uint64_t kPins = 4;
  static constexpr int kIdShift = 3;
  static constexpr size_t kChunkSlots = 64;

  struct Chunk {
    Slot slots[kChunkSlots];
    std::atomic<Chunk*> next{nullptr};
  };

  /// A published, pinning, unexpired owner: holds the watermark back.
  static bool Pins(uint64_t word) {
    return (word & (kPins | kExpired | kRegistering)) == kPins;
  }

  /// Calls `fn` on every slot of every chunk of `table` (const or not).
  template <typename Table, typename Fn>
  static void ForEachSlot(Table& table, Fn&& fn) {
    for (auto* chunk = &table.head_; chunk != nullptr;
         chunk = chunk->next.load(std::memory_order_acquire)) {
      for (auto& slot : chunk->slots) fn(slot);
    }
  }

  Slot* Claim(uint64_t word);
  /// min(`min_ts`, start ts of every pinning slot `judge` picks).
  template <typename Judge>
  Timestamp MinStartTs(Timestamp min_ts, Judge&& judge) const;
  /// Marks every pinning slot that `judge` picks, by a CAS from the owner
  /// word it was judged under (invariant 2). Returns the number marked.
  template <typename Judge>
  uint64_t MarkWhere(Judge&& judge);
  const Slot* Find(TxnId txn) const;

  SyncPoints* const sync_points_;
  Chunk head_;

  std::atomic<uint64_t> expired_age_{0};
  std::atomic<uint64_t> expired_backlog_{0};
  std::atomic<uint64_t> expired_replication_{0};
  std::atomic<uint64_t> too_old_aborts_{0};
};

}  // namespace neosi

#endif  // NEOSI_TXN_ACTIVE_TXN_TABLE_H_
