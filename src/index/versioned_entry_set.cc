#include "index/versioned_entry_set.h"

namespace neosi {

uint32_t VersionedEntrySet::AddPending(uint64_t entity, TxnId txn) {
  std::lock_guard<SpinLatch> guard(latch_);
  uint32_t slot = free_head_;
  if (slot == kNoSlot) {
    slot = static_cast<uint32_t>(entries_.size());
    entries_.emplace_back();
  } else {
    free_head_ = static_cast<uint32_t>(entries_[slot].added_by);
  }
  entries_[slot] = IndexEntry{};
  entries_[slot].entity = entity;
  entries_[slot].added_by = txn;
  ++occupied_;
  return slot;
}

uint32_t VersionedEntrySet::RemovePending(uint64_t entity, TxnId txn) {
  std::lock_guard<SpinLatch> guard(latch_);
  // At most one open interval per entity: the committed one, or this
  // transaction's own pending add. Newest slots first: a key that has only
  // grown keeps its recent adds at the end.
  for (uint32_t slot = static_cast<uint32_t>(entries_.size()); slot-- > 0;) {
    IndexEntry& entry = entries_[slot];
    if (entry.entity != entity || !entry.Open()) continue;
    entry.removed_by = txn;
    return slot;
  }
  return kNoSlot;
}

void VersionedEntrySet::CommitAdd(uint32_t slot, Timestamp ts) {
  std::lock_guard<SpinLatch> guard(latch_);
  entries_[slot].added_ts = ts;
  entries_[slot].added_by = kNoTxn;
}

void VersionedEntrySet::CommitRemove(uint32_t slot, Timestamp ts) {
  std::lock_guard<SpinLatch> guard(latch_);
  entries_[slot].removed_ts = ts;
  entries_[slot].removed_by = kNoTxn;
}

void VersionedEntrySet::AbortAdd(uint32_t slot) {
  std::lock_guard<SpinLatch> guard(latch_);
  // Invisible to every snapshot, and no longer open.
  entries_[slot].added_by = kNoTxn;
  entries_[slot].removed_ts = kNoTimestamp;
  entries_[slot].removed_by = kNoTxn;
}

void VersionedEntrySet::AbortRemove(uint32_t slot) {
  std::lock_guard<SpinLatch> guard(latch_);
  entries_[slot].removed_by = kNoTxn;
}

bool VersionedEntrySet::Free(uint32_t slot) {
  std::lock_guard<SpinLatch> guard(latch_);
  entries_[slot] = IndexEntry{};
  entries_[slot].added_by = free_head_;
  free_head_ = slot;
  return --occupied_ == 0;
}

void VersionedEntrySet::CollectVisible(const Snapshot& snap,
                                       std::vector<uint64_t>* out) const {
  std::lock_guard<SpinLatch> guard(latch_);
  for (const IndexEntry& entry : entries_) {
    if (entry.entity != kInvalidId && entry.VisibleAt(snap)) {
      out->push_back(entry.entity);
    }
  }
}

bool VersionedEntrySet::Contains(uint64_t entity, const Snapshot& snap) const {
  std::lock_guard<SpinLatch> guard(latch_);
  for (const IndexEntry& entry : entries_) {
    if (entry.entity == entity && entry.VisibleAt(snap)) return true;
  }
  return false;
}

void VersionedEntrySet::CollectConflictsOut(Timestamp start_ts,
                                            std::vector<Timestamp>* out) const {
  std::lock_guard<SpinLatch> guard(latch_);
  for (const IndexEntry& entry : entries_) {
    if (entry.entity == kInvalidId) continue;
    if (entry.added_ts != kNoTimestamp && entry.added_ts > start_ts) {
      out->push_back(entry.added_ts);
    }
    if (entry.removed_ts != kMaxTimestamp && entry.removed_by == kNoTxn &&
        entry.removed_ts > start_ts) {
      out->push_back(entry.removed_ts);
    }
  }
}

size_t VersionedEntrySet::SizeIncludingDead() const {
  std::lock_guard<SpinLatch> guard(latch_);
  return occupied_;
}

bool VersionedEntrySet::Empty() const {
  std::lock_guard<SpinLatch> guard(latch_);
  return occupied_ == 0;
}

}  // namespace neosi
