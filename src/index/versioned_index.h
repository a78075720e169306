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
//
// A writer stages each entry change and gets back a handle on the slot it
// touched; commit and abort go straight to that slot. Intervals close (a
// committed removal, an aborted add) onto one queue per index, in closing
// order, and GC frees them from its front once the watermark passes them,
// erasing the keys that empties.

#ifndef NEOSI_INDEX_VERSIONED_INDEX_H_
#define NEOSI_INDEX_VERSIONED_INDEX_H_

#include <atomic>
#include <deque>
#include <map>
#include <mutex>
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

/// A staged entry change: the set and slot its commit or abort touches.
/// Null for a removal that found no open interval. The set outlives the
/// handle: a key is erased only once every slot in it is free.
struct IndexHandle {
  VersionedEntrySet* set = nullptr;
  uint32_t slot = VersionedEntrySet::kNoSlot;
  bool add = true;
};

/// Thread-safe versioned index.
class VersionedIndex {
 public:
  /// Stages `entity` gaining (`add`) or losing the entry under (token,
  /// value) on behalf of `txn`. An add creates the key on first use; a
  /// removal with no open interval returns a null handle and creates
  /// nothing.
  IndexHandle Stage(bool add, uint32_t token, const PropertyValue& value,
                    uint64_t entity, TxnId txn);

  /// Commits a staged change at `ts`, and aborts one: O(1) on its slot,
  /// no key lookup. A committed removal and an aborted add close their
  /// interval onto the queue Compact() drains. No-ops on a null handle.
  /// Commit is Stamp then Retire; a committer that must keep its stamping
  /// short runs Retire later.
  void Commit(const IndexHandle& handle, Timestamp ts);
  void Abort(const IndexHandle& handle);

  /// Stamps the change at `ts`.
  void Stamp(const IndexHandle& handle, Timestamp ts);
  /// Queues the interval a stamped removal closed for Compact; no-op for an
  /// add.
  void Retire(const IndexHandle& handle, Timestamp ts);

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

  /// GC hook: frees closed intervals from the front of the queue while
  /// they closed at or below the watermark (one closed later stops the
  /// pass), and erases the keys left empty. Work is proportional to the
  /// intervals freed. Returns that number.
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

  /// A set that knows its map key, so Compact can erase it.
  struct KeyedSet : VersionedEntrySet {
    const Key* key = nullptr;
  };

  /// An interval closed at `ts`, awaiting Compact.
  struct Closed {
    KeyedSet* set;
    uint32_t slot;
    Timestamp ts;
  };

  void Close(const IndexHandle& handle, Timestamp ts);

  /// Calls fn(set) for every set filed under `token` with a value in
  /// [lo, hi], in value order, holding latch_ shared.
  template <typename Fn>
  void ForRange(uint32_t token, const std::optional<PropertyValue>& lo,
                const std::optional<PropertyValue>& hi, Fn&& fn) const;

  /// Guards the map structure, not the sets. Staging holds it shared from
  /// lookup through the pending step, so no handle points into a set
  /// Compact is erasing under it exclusively.
  mutable SharedLatch latch_;
  std::map<Key, KeyedSet> sets_;

  SpinLatch closed_latch_;
  std::deque<Closed> closed_;  // Guarded by closed_latch_.

  std::mutex compact_mu_;  // One Compact at a time: it alone erases keys.
  std::atomic<uint64_t> compacted_total_{0};
};

}  // namespace neosi

#endif  // NEOSI_INDEX_VERSIONED_INDEX_H_
