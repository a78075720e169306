// Versioned ordered index: (token, value) -> entities (paper §2/§4).
//
// Figure 1 gives nodes "two indexes, one for labels and another one for
// properties", and relationships a property index; all three are instances
// of this one class. An entry is filed under a token (a label or a property
// key) and a value: the property's value, or the null PropertyValue() for a
// label. Keys are ordered (PropertyValue has a total order), so one range
// scan serves every lookup: a label scan is the whole range of its token, an
// equality lookup the range [v, v], and a predicate scan — the operation
// vulnerable to phantoms under read committed — any [lo, hi] (E2/E7).

#ifndef NEOSI_INDEX_VERSIONED_INDEX_H_
#define NEOSI_INDEX_VERSIONED_INDEX_H_

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/latch.h"
#include "common/property_value.h"
#include "common/types.h"
#include "index/versioned_entry_set.h"
#include "mvcc/snapshot.h"

namespace neosi {

/// Index size/health counters (experiment E7).
struct IndexStats {
  uint64_t keys = 0;           ///< Distinct (token, value) keys.
  uint64_t entries_total = 0;  ///< Including dead intervals awaiting GC.
  uint64_t compacted = 0;      ///< Entries dropped by Compact() so far.
};

/// Thread-safe versioned index.
class VersionedIndex {
 public:
  /// The entry set filed under (token, value), created on first use. Sets
  /// are never freed while the index lives (Compact only empties them), so
  /// the reference stays valid.
  VersionedEntrySet& SetFor(uint32_t token, const PropertyValue& value);

  /// Entities filed under `token` with a value in [lo, hi] (either bound
  /// optional; inclusive) that are visible at `snap`, in value order. When
  /// the range holds one value (a label scan, an equality lookup) they are
  /// in id order.
  std::vector<uint64_t> Scan(uint32_t token,
                             const std::optional<PropertyValue>& lo,
                             const std::optional<PropertyValue>& hi,
                             const Snapshot& snap) const;

  /// Commit timestamps of membership changes committed after `start_ts`
  /// within the same range — anonymous SSI conflict-out edges for a scan of
  /// that range at that snapshot; see VersionedEntrySet::CollectConflictsOut.
  void CollectConflictsOut(uint32_t token,
                           const std::optional<PropertyValue>& lo,
                           const std::optional<PropertyValue>& hi,
                           Timestamp start_ts,
                           std::vector<Timestamp>* out) const;

  /// GC hook: drops dead entries across all keys; returns entries dropped.
  size_t Compact(Timestamp watermark);

  IndexStats Stats() const;

 private:
  struct Key {
    uint32_t token = kInvalidToken;
    PropertyValue value;

    bool operator<(const Key& other) const {
      if (token != other.token) return token < other.token;
      return value < other.value;
    }
  };

  /// Calls fn(set) for every set filed under `token` with a value in
  /// [lo, hi], in value order, holding latch_ shared.
  template <typename Fn>
  void ForRange(uint32_t token, const std::optional<PropertyValue>& lo,
                const std::optional<PropertyValue>& hi, Fn&& fn) const;

  mutable SharedLatch latch_;  // Guards the map structure, not the sets.
  std::map<Key, std::unique_ptr<VersionedEntrySet>> sets_;
  uint64_t compacted_total_ = 0;
};

}  // namespace neosi

#endif  // NEOSI_INDEX_VERSIONED_INDEX_H_
