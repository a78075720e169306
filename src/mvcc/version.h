// In-memory version records (paper §3/§4).
//
// Each node / relationship cached in the Object Cache owns a list of
// versions. A version is immutable once committed; uncommitted versions are
// private to their writer transaction (visible to nobody else, but readable
// by the writer itself: read-your-own-writes).

#ifndef NEOSI_MVCC_VERSION_H_
#define NEOSI_MVCC_VERSION_H_

#include <atomic>
#include <vector>

#include "common/property_value.h"
#include "common/types.h"

namespace neosi {

/// The logical content of one version of a node or relationship.
///
/// Relationship topology (src/dst/type) is immutable and lives on the cached
/// object, not in versions; versions carry the mutable state: labels,
/// properties and existence.
struct VersionData {
  /// Tombstone flag (paper §4): the entity is deleted as of this version but
  /// the version is retained until no active transaction can read an older
  /// one.
  bool deleted = false;
  /// Node labels (empty for relationships).
  std::vector<LabelId> labels;
  PropertyMap props;

  /// Approximate heap footprint, for cache accounting and experiment E9.
  size_t ApproximateSize() const {
    size_t n = sizeof(VersionData) + labels.capacity() * sizeof(LabelId);
    for (const auto& [k, v] : props) {
      n += sizeof(k) + v.ApproximateSize();
    }
    return n;
  }
};

/// One version in an entity's version list.
///
/// Concurrency contract (latch-free read path): `commit_ts` is the
/// publication point — CommitHead's release store of the timestamp makes
/// `data` (written strictly before, by the same transaction thread)
/// visible to any reader whose acquire load observes it. `writer` and the
/// initial `data` are published by the chain-head release store at install
/// time. `older` is the one link: latched mutators release-store it and
/// latch-free walks acquire-load it.
///
/// Ownership: a linked version is owned by its chain, an unlinked one by
/// the epoch limbo; everything else borrows. Destroying a version never
/// follows `older`. A latch-free walk hands back a borrowed
/// `const Version*`, valid until the caller's epoch guard is released.
struct Version {
  /// Commit timestamp; kNoTimestamp while the writing transaction is active.
  std::atomic<Timestamp> commit_ts{kNoTimestamp};
  /// Writer transaction (used for read-your-own-writes while uncommitted).
  TxnId writer = kNoTxn;
  VersionData data;
  /// Next-older version (newest-first chain). Stays intact when this
  /// version is retired, so a reader standing here mid-walk keeps going.
  std::atomic<Version*> older{nullptr};

  bool committed() const {
    return commit_ts.load(std::memory_order_acquire) != kNoTimestamp;
  }
};

}  // namespace neosi

#endif  // NEOSI_MVCC_VERSION_H_
