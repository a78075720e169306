#include "index/versioned_index.h"

#include <algorithm>

namespace neosi {

VersionedEntrySet& VersionedIndex::SetFor(uint32_t token,
                                          const PropertyValue& value) {
  Key key{token, value};
  {
    ReadGuard guard(latch_);
    auto it = sets_.find(key);
    if (it != sets_.end()) return *it->second;
  }
  WriteGuard guard(latch_);
  auto& slot = sets_[std::move(key)];
  if (!slot) slot = std::make_unique<VersionedEntrySet>();
  return *slot;
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
    fn(*it->second);
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
  // Entries are filed in write order, which for fresh entities is usually
  // id order already.
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
  std::vector<VersionedEntrySet*> sets;
  {
    ReadGuard guard(latch_);
    sets.reserve(sets_.size());
    for (auto& [key, set] : sets_) sets.push_back(set.get());
  }
  size_t dropped = 0;
  for (VersionedEntrySet* set : sets) dropped += set->Compact(watermark);
  WriteGuard guard(latch_);
  compacted_total_ += dropped;
  return dropped;
}

IndexStats VersionedIndex::Stats() const {
  ReadGuard guard(latch_);
  IndexStats stats;
  stats.keys = sets_.size();
  for (const auto& [key, set] : sets_) {
    stats.entries_total += set->SizeIncludingDead();
  }
  stats.compacted = compacted_total_;
  return stats;
}

}  // namespace neosi
