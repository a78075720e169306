// Property chain storage: materializes / persists a PropertyMap as a
// singly-linked chain of fixed PropertyRecords, spilling long values to a
// DynamicStore (the Neo4j property file + dynamic string file pair).

#ifndef NEOSI_STORAGE_PROPERTY_STORE_H_
#define NEOSI_STORAGE_PROPERTY_STORE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/property_value.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/dynamic_store.h"
#include "storage/record_store.h"

namespace neosi {

/// Thread-compatible property-chain manager. Chains are immutable once
/// written: updating an entity's properties writes a fresh chain and frees
/// the old one (the caller swaps the entity's first_prop pointer). This is
/// exactly the "persist only the newest committed version" model of §4.
class PropertyStore {
 public:
  PropertyStore(std::shared_ptr<PagedFile> prop_file,
                std::shared_ptr<PagedFile> dyn_file);

  Status Open();

  /// Writes `props` as a fresh chain; returns its head (kInvalidPropId for
  /// an empty map).
  Result<PropId> WriteChain(const PropertyMap& props);

  /// Reads the chain starting at `head` into *out (cleared first).
  Status ReadChain(PropId head, PropertyMap* out) const;

  /// Frees every record (and overflow blob) in the chain at `head`.
  /// kInvalidPropId is a no-op.
  Status FreeChain(PropId head);

  /// Recovery sweep: frees every in-use record NOT reachable from `roots`
  /// (the first_prop heads of all live node/rel records after replay).
  /// Replay suppresses FreeChain — a stale record's chain pointer can alias
  /// records owned by another live chain, so freeing through it would
  /// corrupt that chain — and this sweep reclaims the leaked records
  /// afterwards from the authoritative reachability set instead. Overflow
  /// blobs are deliberately NOT freed here (a stale record's overflow id can
  /// alias a live blob); crash recovery may leak dynamic-store bytes,
  /// bounded per crash.
  Status SweepUnreachable(const std::vector<PropId>& roots, uint64_t* freed);

  /// Reopen-time audit of the bounded leak documented above: walks every
  /// overflow chain hanging off a reachable property record (Corruption if
  /// any is broken — the reachability assert) and counts dynamic-store
  /// blocks that are in use but reachable from NO live chain, i.e. the
  /// blobs crash recovery has leaked so far. Read-only: the leak is
  /// deliberately not repaired (see SweepUnreachable), only measured, so
  /// growth shows up in stats/tests. Bound: each crash leaks at most the
  /// overflow blocks of the chains whose frees that recovery suppressed.
  Status AuditBlobReachability(const std::vector<PropId>& roots,
                               uint64_t* leaked_blocks);

  RecordStoreStats PropStats() const { return props_.Stats(); }
  RecordStoreStats DynStats() const { return dyn_.Stats(); }
  Status Sync();
  /// Returns whether either backing file needed a sync.
  Result<bool> SyncIfDirty();

 private:
  RecordStore props_;
  DynamicStore dyn_;
};

}  // namespace neosi

#endif  // NEOSI_STORAGE_PROPERTY_STORE_H_
