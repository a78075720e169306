#include "index/versioned_entry_set.h"

#include <algorithm>

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
  if (table_ != nullptr) {
    // Past 85% full, regrow to 75%: amortized O(1), since the next
    // rebuild needs the key to grow by more than an eighth.
    if (uint64_t{occupied_} * 20 > uint64_t{Cells()} * 17) {
      RebuildTable();
    } else {
      TableInsert(slot);
    }
  }
  return slot;
}

uint32_t VersionedEntrySet::RemovePending(uint64_t entity, TxnId txn) {
  std::lock_guard<SpinLatch> guard(latch_);
  // Built on the first removal, so a key that only grows (a label every
  // node carries) never pays for one.
  if (table_ == nullptr && entries_.size() > kScanLimit) RebuildTable();
  const uint32_t slot = OpenSlotLocked(entity);
  if (slot != kNoSlot) entries_[slot].removed_by = txn;
  return slot;
}

uint32_t VersionedEntrySet::OpenSlot(uint64_t entity) const {
  std::lock_guard<SpinLatch> guard(latch_);
  return OpenSlotLocked(entity);
}

uint32_t VersionedEntrySet::OpenSlotLocked(uint64_t entity) const {
  if (table_ == nullptr) {
    // Newest slots first: a key that has only grown keeps its recent adds
    // at the end.
    for (uint32_t slot = static_cast<uint32_t>(entries_.size()); slot-- > 0;) {
      if (entries_[slot].entity == entity && entries_[slot].Open()) {
        return slot;
      }
    }
    return kNoSlot;
  }
  // The entity's other slots (intervals awaiting Free) share its probe run.
  const uint32_t* cells = table_.get() + 1;
  for (uint32_t i = Home(entity); cells[i] != kNoSlot; i = Next(i)) {
    const IndexEntry& entry = entries_[cells[i]];
    if (entry.entity == entity && entry.Open()) return cells[i];
  }
  return kNoSlot;
}

uint32_t VersionedEntrySet::Home(uint64_t entity) const {
  // Fibonacci hashing spreads dense ids; the multiply-shift maps the top
  // 32 bits onto [0, Cells()) without a division.
  const uint64_t hash = (entity * 0x9E3779B97F4A7C15ULL) >> 32;
  return static_cast<uint32_t>((hash * Cells()) >> 32);
}

void VersionedEntrySet::RebuildTable() {
  // 75% full, and never full: a probe always meets an empty cell.
  const uint32_t cells = occupied_ + occupied_ / 3 + 1;
  table_ = std::make_unique_for_overwrite<uint32_t[]>(size_t{cells} + 1);
  table_[0] = cells;
  std::fill_n(table_.get() + 1, cells, kNoSlot);
  for (uint32_t slot = 0; slot < entries_.size(); ++slot) {
    if (entries_[slot].entity != kInvalidId) TableInsert(slot);
  }
}

void VersionedEntrySet::TableInsert(uint32_t slot) {
  uint32_t* cells = table_.get() + 1;
  uint32_t i = Home(entries_[slot].entity);
  while (cells[i] != kNoSlot) i = Next(i);
  cells[i] = slot;
}

void VersionedEntrySet::TableErase(uint32_t slot) {
  uint32_t* cells = table_.get() + 1;
  uint32_t hole = Home(entries_[slot].entity);
  while (cells[hole] != slot) hole = Next(hole);
  // Backward shift: pull each later cell of the run into the hole unless
  // its home lies cyclically in (hole, cell], where it must stay.
  const auto distance = [&](uint32_t from, uint32_t to) {
    return to >= from ? to - from : to + Cells() - from;
  };
  for (uint32_t i = Next(hole); cells[i] != kNoSlot; i = Next(i)) {
    if (distance(Home(entries_[cells[i]].entity), i) >= distance(hole, i)) {
      cells[hole] = cells[i];
      hole = i;
    }
  }
  cells[hole] = kNoSlot;
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
  if (table_ != nullptr) TableErase(slot);
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
