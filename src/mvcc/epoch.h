// Epoch-based reclamation for the latch-free read path (FASTER-style).
//
// Committed-read chain walks traverse raw atomic pointers with NO latch; the
// memory they may touch is protected by epochs instead of by mutual
// exclusion:
//
//   - A reader ENTERS an epoch before its first pointer load (one CAS into a
//     cache-line-padded slot array + one fence) and EXITS after its last
//     (one relaxed store). While entered, its slot publishes the global
//     epoch value it observed.
//   - A writer that unlinks a version from a chain (GC prune/remove, abort)
//     RETIRES it into a limbo list stamped with the current global epoch,
//     instead of freeing it. The version's own forward link stays intact, so
//     a reader standing on a retired version keeps walking a valid chain.
//   - The GC daemon periodically BUMPS the global epoch and DRAINS the limbo
//     list: an entry stamped `e` is freed only when every occupied slot
//     publishes an epoch strictly greater than `e` — i.e. every reader that
//     could possibly still hold a pointer into it has exited.
//
// Safety argument (why a reader can never touch freed memory): the reader's
// slot CAS + seq_cst fence and the drainer's seq_cst fence + slot scan are
// totally ordered. If the scan saw the reader's slot occupied at epoch `e`,
// it frees only entries stamped < `e`, and the reader — which loaded `e`
// from the global counter AFTER every bump that produced those stamps — is
// guaranteed (by the fence pairing) to observe the unlink stores that made
// those entries unreachable before its first chain-pointer load. If the
// scan saw the slot idle, the reader's fence follows the drainer's, and the
// same visibility guarantee applies to everything the drain freed.
//
// Slots are CLAIMED, not owned: a reader probes from a thread-local hint and
// CASes any idle slot. This keeps the manager self-contained per database
// instance (no thread registration, no leak when threads or databases come
// and go — the test suite opens thousands of short-lived databases).
//
// Guards NEST: a guard taken while the same thread already holds one on the
// same manager claims no slot, so one outer guard covers a whole engine call
// (a cache lookup plus every chain walk inside it) and the walks' own guards
// cost a thread-local compare. The limbo holds two kinds of retirees:
// versions (chain unlinks) and unpublished object-cache entries (eviction,
// erase), which the drain deletes like versions.

#ifndef NEOSI_MVCC_EPOCH_H_
#define NEOSI_MVCC_EPOCH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "mvcc/version.h"

namespace neosi {

/// Per-database epoch-based reclamation domain.
class EpochManager {
 public:
  /// `slots` bounds the number of concurrently entered readers (extra
  /// readers spin-probe until a slot frees up); 0 = auto-size from
  /// std::thread::hardware_concurrency(): max(64, 4 * cores).
  explicit EpochManager(size_t slots = 0);

  /// Frees everything still in limbo. The caller must guarantee no reader
  /// is entered (database teardown: transactions must not outlive the db).
  ~EpochManager();

  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  /// RAII epoch entry. Re-entrant per thread and manager: nested inside a
  /// guard on the same manager it claims no slot. Guards must be released
  /// in reverse order of acquisition (RAII scoping does this).
  class Guard {
   public:
    explicit Guard(EpochManager* manager)
        : manager_(manager), outer_(entered_) {
      if (outer_ == manager_) return;  // Nested: the outer guard covers us.
      slot_ = manager_->Enter();
      entered_ = manager_;
    }
    ~Guard() {
      if (slot_ == kNested) return;
      entered_ = outer_;
      manager_->Exit(slot_);
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    static constexpr size_t kNested = SIZE_MAX;
    /// The manager this thread's innermost slot-claiming guard entered.
    inline static thread_local const EpochManager* entered_ = nullptr;

    EpochManager* const manager_;
    const EpochManager* const outer_;
    size_t slot_ = kNested;
  };

  /// Moves an unlinked version into the limbo list, stamped with the
  /// current global epoch. The version's own `older` / `older_raw` links
  /// must be left INTACT by the caller — a reader standing on it mid-walk
  /// follows them.
  void Retire(std::shared_ptr<Version> version) {
    if (version) Push({std::move(version), nullptr, nullptr, 1, 0});
  }

  /// Moves an object no reader can newly reach into the limbo list; the
  /// drain that frees it deletes it. `count` is the number of retirees it
  /// stands for in the gauges (an eviction pass retires its unpublished
  /// cache entries as one batch object).
  template <typename T>
  void Retire(std::unique_ptr<T> object, size_t count = 1) {
    if (object) {
      Push({nullptr, object.release(),
            [](void* p) { delete static_cast<T*>(p); }, count, 0});
    }
  }

  /// Advances the global epoch (called by the GC daemon once per cycle, so
  /// a drain one cycle later can free this cycle's retirees). Returns the
  /// new epoch.
  uint64_t BumpEpoch() {
    return global_epoch_.fetch_add(1, std::memory_order_seq_cst) + 1;
  }

  /// Frees every limbo entry retired strictly before the minimum epoch
  /// published by any occupied slot (all of limbo when no slot is
  /// occupied). Returns the number of entries freed.
  size_t Drain();

  /// Minimum epoch published by any occupied slot; UINT64_MAX when no
  /// reader is entered (test hook; racy by nature).
  uint64_t MinActiveEpoch() const;

  uint64_t current_epoch() const {
    return global_epoch_.load(std::memory_order_relaxed);
  }
  size_t slot_count() const { return slot_count_; }

  /// Observability gauges (DatabaseStats / benches). Lock-free reads.
  size_t limbo_size() const {
    return limbo_size_.load(std::memory_order_relaxed);
  }
  uint64_t total_retired() const {
    return total_retired_.load(std::memory_order_relaxed);
  }
  uint64_t total_freed() const {
    return total_freed_.load(std::memory_order_relaxed);
  }

 private:
  /// Occupied slots publish the epoch the reader observed; kIdle is free.
  /// Padded so concurrent readers on different slots never share a line.
  static constexpr uint64_t kIdle = 0;
  struct alignas(64) Slot {
    std::atomic<uint64_t> epoch{kIdle};
  };

  /// Either a version (or severed chain suffix) or an object with its
  /// deleter.
  struct LimboEntry {
    std::shared_ptr<Version> version;
    void* object;
    void (*destroy)(void*);
    size_t count;  ///< Retirees it stands for (limbo_size, totals).
    uint64_t retired_epoch;
  };

  /// Stamps `entry` with the current global epoch and appends it to limbo.
  void Push(LimboEntry entry);
  /// Frees one limbo entry.
  static void Free(LimboEntry& entry);

  size_t Enter();
  void Exit(size_t slot) {
    slots_[slot].epoch.store(kIdle, std::memory_order_release);
  }

  /// Drops the limbo's reference, unwinding the `older` chain iteratively
  /// while this reference is the last one (a retired chain suffix would
  /// otherwise destruct recursively and can overflow the stack).
  static void FreeRetired(std::shared_ptr<Version> version);

  const size_t slot_count_;
  const std::unique_ptr<Slot[]> slots_;
  /// Global epoch counter. Starts at 1: kIdle(0) must never be a valid
  /// published epoch.
  std::atomic<uint64_t> global_epoch_{1};

  mutable std::mutex limbo_mu_;
  std::vector<LimboEntry> limbo_;
  size_t limbo_count_ = 0;  ///< Sum of limbo_'s counts.

  std::atomic<size_t> limbo_size_{0};
  std::atomic<uint64_t> total_retired_{0};
  std::atomic<uint64_t> total_freed_{0};
};

}  // namespace neosi

#endif  // NEOSI_MVCC_EPOCH_H_
