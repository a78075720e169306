// Versioned index entries (paper §4).
//
// "The nodes/relationships are tagged with the commit timestamp of the
// transaction that associated the label/property to the node/relationship.
// In this way, it is possible to discard those nodes/relationships that do
// not correspond to the snapshot to be observed by the transaction."
//
// Each (index key -> entity) association is an entry carrying the commit
// timestamp of the transaction that ADDED it and, once dissociated, the
// commit timestamp of the transaction that REMOVED it. Uncommitted entries
// are private to their writer (read-your-own-writes applies to index scans
// too). Entries live in stable slots: the pending step returns the slot, so
// commit and abort touch it directly, and a closed interval keeps its slot
// until GC frees it below the watermark. A staged removal finds its
// entity's open interval by scanning a small key, and through a
// linear-probe table of occupied slots hashed by entity once a removal
// meets a key larger than kScanLimit slots.

#ifndef NEOSI_INDEX_VERSIONED_ENTRY_SET_H_
#define NEOSI_INDEX_VERSIONED_ENTRY_SET_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/latch.h"
#include "common/types.h"
#include "mvcc/snapshot.h"

namespace neosi {

/// One entity's membership interval for one index key.
struct IndexEntry {
  /// kInvalidId marks a free slot; its `added_by` holds the next free slot.
  uint64_t entity = kInvalidId;

  /// Commit ts of the adding transaction; kNoTimestamp while uncommitted.
  Timestamp added_ts = kNoTimestamp;
  /// Writer while the add is uncommitted.
  TxnId added_by = kNoTxn;

  /// Commit ts of the removing transaction; kMaxTimestamp while present,
  /// kNoTimestamp once the add aborted.
  Timestamp removed_ts = kMaxTimestamp;
  /// Writer while the removal is uncommitted.
  TxnId removed_by = kNoTxn;

  /// Neither removed nor pending removal: the one interval of its entity
  /// that a removal may close.
  bool Open() const {
    return removed_ts == kMaxTimestamp && removed_by == kNoTxn;
  }

  /// Snapshot visibility (§4): the association is visible iff it was added
  /// at or before the snapshot (or by the reader itself) and not removed at
  /// or before the snapshot (nor pending-removed by the reader).
  bool VisibleAt(const Snapshot& snap) const {
    const bool added_visible =
        (added_ts != kNoTimestamp && added_ts <= snap.start_ts) ||
        (added_by != kNoTxn && added_by == snap.txn_id);
    if (!added_visible) return false;
    if (removed_by != kNoTxn && removed_by == snap.txn_id) return false;
    // Live entries (removed_ts == kMaxTimestamp) are visible to every
    // snapshot, including the read-committed "latest" snapshot whose
    // start_ts is itself kMaxTimestamp.
    return removed_ts == kMaxTimestamp || removed_ts > snap.start_ts;
  }
};

/// Thread-safe membership intervals for one index key, one slot each.
class VersionedEntrySet {
 public:
  /// No slot: a removal that found no open interval.
  static constexpr uint32_t kNoSlot = std::numeric_limits<uint32_t>::max();

  /// Files an uncommitted association of `entity` by `txn` in a free slot
  /// and returns the slot.
  uint32_t AddPending(uint64_t entity, TxnId txn);

  /// Marks the open interval of `entity` as pending removal by `txn` and
  /// returns its slot; kNoSlot if it has none. O(1) expected.
  uint32_t RemovePending(uint64_t entity, TxnId txn);

  /// The slot of `entity`'s open interval (at most one: the committed one,
  /// or a writer's own pending add); kNoSlot if it has none.
  uint32_t OpenSlot(uint64_t entity) const;

  /// Commit / abort of the pending step at `slot`. CommitRemove closes the
  /// interval at `ts`; AbortAdd closes it, empty, at kNoTimestamp. Closed
  /// intervals keep their slot until Free().
  void CommitAdd(uint32_t slot, Timestamp ts);
  void CommitRemove(uint32_t slot, Timestamp ts);
  void AbortAdd(uint32_t slot);
  void AbortRemove(uint32_t slot);

  /// Returns the closed interval at `slot` to the free list. True if no
  /// occupied slot remains.
  bool Free(uint32_t slot);

  /// Appends every entity visible at `snap` to *out, in slot order.
  void CollectVisible(const Snapshot& snap, std::vector<uint64_t>* out) const;

  /// True if `entity` is visible at `snap`.
  bool Contains(uint64_t entity, const Snapshot& snap) const;

  /// Appends the commit timestamp of every membership change (add or
  /// remove) committed after `start_ts` — the index mutations a scan at
  /// `start_ts` could not observe. The SSI read path turns each into an
  /// ANONYMOUS rw-antidependency conflict-out edge: CommitAdd/CommitRemove
  /// clear the writer TxnId on commit, so the timestamp is all that
  /// survives (granularity trade-off documented in ARCHITECTURE.md).
  void CollectConflictsOut(Timestamp start_ts,
                           std::vector<Timestamp>* out) const;

  /// Occupied slots: live entries plus closed ones awaiting Free() (the
  /// dead fraction of experiment E7).
  size_t SizeIncludingDead() const;

  bool Empty() const;

 private:
  /// Slots a key may reach before a removal stops scanning them for the
  /// entity and keeps a table instead.
  static constexpr size_t kScanLimit = 16;

  uint32_t OpenSlotLocked(uint64_t entity) const;

  uint32_t Cells() const { return table_[0]; }
  uint32_t Next(uint32_t cell) const {
    return cell + 1 == Cells() ? 0 : cell + 1;
  }
  uint32_t Home(uint64_t entity) const;
  /// Sizes the table to the occupied slots and refills it.
  void RebuildTable();
  void TableInsert(uint32_t slot);
  void TableErase(uint32_t slot);

  mutable SpinLatch latch_;
  uint32_t free_head_ = kNoSlot;
  uint32_t occupied_ = 0;
  std::vector<IndexEntry> entries_;
  /// Every occupied slot, by its entity's hash: table_[0] is the cell
  /// count, the cells follow, and kNoSlot marks an empty one. At most 85%
  /// full. Null until a removal meets more than kScanLimit slots.
  std::unique_ptr<uint32_t[]> table_;
};

}  // namespace neosi

#endif  // NEOSI_INDEX_VERSIONED_ENTRY_SET_H_
