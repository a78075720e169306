// Index maintenance: one diff from entity state to index entries.
//
// Paper §4 tags each index entry with the commit timestamp of the
// transaction that gave the entity that label or property, so index
// membership is a pure function of an entity's state. Every path that
// changes state derives its index work from the same diff of the entity's
// pre- and post-state:
//  - a transaction's writes stage each change as a pending entry (and take
//    the change's SSI write footprint), journal the change with the handle
//    staging returned, then commit or abort it through that handle;
//  - the replica applier diffs latest-committed against the store's
//    post-state and commits at the record's timestamp;
//  - the open-time rebuild diffs nothing against the persisted state.

#ifndef NEOSI_GRAPH_INDEX_MAINTENANCE_H_
#define NEOSI_GRAPH_INDEX_MAINTENANCE_H_

#include <vector>

#include "common/property_value.h"
#include "common/status.h"
#include "common/types.h"
#include "graph/engine.h"
#include "mvcc/version.h"
#include "txn/ssi_tracker.h"

namespace neosi {

/// One index tuple an entity gains (`add`) or loses between two states.
struct IndexChange {
  IndexId index = IndexId::kLabel;
  bool add = true;
  uint64_t entity = kInvalidId;
  uint32_t token = kInvalidToken;  ///< The label or the property key.
  PropertyValue value;             ///< The property value; null for a label.
  /// Set by staging: the slot the change's commit or abort touches.
  IndexHandle handle;

  EntityKey Entity() const {
    return index == IndexId::kRelProperty ? EntityKey::Rel(entity)
                                          : EntityKey::Node(entity);
  }

  /// The SIREAD range the tuple lies in: writing it is a rw-antidependency
  /// from every serializable scan of that range (Ports & Grittner).
  SsiWriteFootprint Footprint() const {
    return SsiWriteFootprint::Index(index, token, value);
  }
};

/// The index changes that take `key` from `pre` to `post`: labels for
/// nodes, properties for nodes and relationships, removals before
/// additions. A null or deleted state has no index entries.
std::vector<IndexChange> DiffIndexEntries(const EntityKey& key,
                                          const VersionData* pre,
                                          const VersionData* post);

/// Stages `change` as pending for `txn` and records its handle.
void StageIndexChange(Engine* engine, IndexChange* change, TxnId txn);

/// Diffs `pre` -> `post` and stages every change, then commits it at `ts`
/// — for state that is already committed.
void CommitIndexDiff(Engine* engine, const EntityKey& key,
                     const VersionData* pre, const VersionData* post,
                     TxnId txn, Timestamp ts);

/// The persisted state of `key` as version content, with the timestamp it
/// was committed at. NotFound when the record is free or beyond the store.
Status ReadPersistedState(GraphStore& store, const EntityKey& key,
                          VersionData* out, Timestamp* commit_ts);

}  // namespace neosi

#endif  // NEOSI_GRAPH_INDEX_MAINTENANCE_H_
