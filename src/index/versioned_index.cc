#include "index/versioned_index.h"

#include <algorithm>

namespace neosi {

IndexHandle VersionedIndex::Stage(bool add, uint32_t token,
                                  const PropertyValue& value, uint64_t entity,
                                  TxnId txn) {
  Key key{token, value};
  {
    ReadGuard guard(latch_);
    auto it = sets_.find(key);
    if (!add) {
      if (it == sets_.end()) return {};
      const uint32_t slot = it->second.RemovePending(entity, txn);
      if (slot == VersionedEntrySet::kNoSlot) return {};
      return {&it->second, slot, false};
    }
    if (it != sets_.end()) {
      return {&it->second, it->second.AddPending(entity, txn), true};
    }
  }
  WriteGuard guard(latch_);
  auto [it, inserted] = sets_.try_emplace(std::move(key));
  if (inserted) it->second.key = &it->first;
  return {&it->second, it->second.AddPending(entity, txn), true};
}

void VersionedIndex::Commit(const IndexHandle& handle, Timestamp ts) {
  Stamp(handle, ts);
  Retire(handle, ts);
}

void VersionedIndex::Stamp(const IndexHandle& handle, Timestamp ts) {
  if (handle.set == nullptr) return;
  if (handle.add) {
    handle.set->CommitAdd(handle.slot, ts);
  } else {
    handle.set->CommitRemove(handle.slot, ts);
  }
}

void VersionedIndex::Retire(const IndexHandle& handle, Timestamp ts) {
  if (handle.set != nullptr && !handle.add) Close(handle, ts);
}

void VersionedIndex::Abort(const IndexHandle& handle) {
  if (handle.set == nullptr) return;
  if (handle.add) {
    handle.set->AbortAdd(handle.slot);
    Close(handle, kNoTimestamp);
  } else {
    handle.set->AbortRemove(handle.slot);
  }
}

void VersionedIndex::Close(const IndexHandle& handle, Timestamp ts) {
  std::lock_guard<SpinLatch> guard(closed_latch_);
  closed_.push_back({static_cast<KeyedSet*>(handle.set), handle.slot, ts});
}

template <typename Fn>
void VersionedIndex::ForRange(uint32_t token,
                              const std::optional<PropertyValue>& lo,
                              const std::optional<PropertyValue>& hi,
                              Fn&& fn) const {
  ReadGuard guard(latch_);
  // The null value sorts first, so it is the open lower bound (and the one
  // value a label entry carries).
  for (auto it = sets_.lower_bound({token, lo.value_or(PropertyValue())});
       it != sets_.end() && it->first.token == token; ++it) {
    if (hi.has_value() && *hi < it->first.value) break;
    fn(it->second);
  }
}

std::vector<uint64_t> VersionedIndex::Scan(
    uint32_t token, const std::optional<PropertyValue>& lo,
    const std::optional<PropertyValue>& hi, const Snapshot& snap) const {
  std::vector<uint64_t> out;
  size_t values = 0;
  ForRange(token, lo, hi, [&](const VersionedEntrySet& set) {
    ++values;
    set.CollectVisible(snap, &out);
  });
  // Entries come in slot order, which for a key that has only grown is
  // write order, and for fresh entities usually id order already.
  if (values == 1 && !std::is_sorted(out.begin(), out.end())) {
    std::sort(out.begin(), out.end());
  }
  return out;
}

void VersionedIndex::CollectConflictsOut(
    uint32_t token, const std::optional<PropertyValue>& lo,
    const std::optional<PropertyValue>& hi, Timestamp start_ts,
    std::vector<Timestamp>* out) const {
  ForRange(token, lo, hi, [&](const VersionedEntrySet& set) {
    set.CollectConflictsOut(start_ts, out);
  });
}

size_t VersionedIndex::Compact(Timestamp watermark) {
  std::lock_guard<std::mutex> pass(compact_mu_);
  std::vector<Closed> batch;
  {
    std::lock_guard<SpinLatch> guard(closed_latch_);
    auto end = closed_.begin();
    while (end != closed_.end() && end->ts <= watermark) ++end;
    batch.assign(closed_.begin(), end);
    closed_.erase(closed_.begin(), end);
  }
  if (batch.empty()) return 0;
  // Every slot in the batch was occupied when it was taken, so only the
  // Free() of a set's last one reports it, once.
  std::vector<KeyedSet*> emptied;
  for (const Closed& closed : batch) {
    if (closed.set->Free(closed.slot)) emptied.push_back(closed.set);
  }
  if (!emptied.empty()) {
    WriteGuard guard(latch_);
    // A writer may have staged into the set since; keep it if so.
    for (KeyedSet* set : emptied) {
      if (set->Empty()) sets_.erase(sets_.find(*set->key));
    }
  }
  compacted_total_.fetch_add(batch.size(), std::memory_order_relaxed);
  return batch.size();
}

IndexStats VersionedIndex::Stats() const {
  ReadGuard guard(latch_);
  IndexStats stats;
  stats.keys = sets_.size();
  for (const auto& [key, set] : sets_) {
    stats.entries_total += set.SizeIncludingDead();
  }
  stats.compacted = compacted_total_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace neosi
