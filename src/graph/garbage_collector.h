// The paper's garbage collector (§4): reclamation driven by the
// timestamp-sorted list of obsolete versions, so each pass touches only the
// versions it reclaims — never the whole store (contrast: VacuumGc).
//
// One pass drains every shard: the list is entity-key-sharded
// (ShardedGcList) only to split contention between commit-path appends. A
// pass pops every shard's reclaimable prefix in one batch, so physical
// tombstone purges can remove relationships before their endpoint nodes
// within that batch. A node purge that still sees a physical rel chain is
// DEFERRED (re-appended) to a later pass — the fail-closed check that keeps
// a logged purge from ever failing on replay; see DrainEntries.

#ifndef NEOSI_GRAPH_GARBAGE_COLLECTOR_H_
#define NEOSI_GRAPH_GARBAGE_COLLECTOR_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "graph/engine.h"

namespace neosi {

/// Outcome of one collection pass (experiment E8 reads these).
struct GcStats {
  Timestamp watermark = kNoTimestamp;
  uint64_t versions_pruned = 0;    ///< Superseded versions unlinked.
  uint64_t tombstones_purged = 0;  ///< Entities physically removed.
  uint64_t index_entries_dropped = 0;
  /// Node purges pushed to a later pass because the node's physical rel
  /// chain was non-empty (or could not be read). Each deferral re-appends
  /// the entry, so nothing is lost.
  uint64_t purges_deferred = 0;
  uint64_t nanos = 0;              ///< Wall time of the pass.
};

/// Engine-level GC executor over the mvcc::ShardedGcList.
class GcEngine {
 public:
  explicit GcEngine(Engine* engine);

  GcEngine(const GcEngine&) = delete;
  GcEngine& operator=(const GcEngine&) = delete;

  /// One pass: computes the watermark, pops every shard's reclaimable
  /// entries, prunes chains, purges tombstones (relationships before
  /// nodes), and compacts the indexes. Safe to call concurrently with
  /// transactions and with the GC daemon (passes serialize).
  GcStats Collect();

  /// The pass with an explicit watermark (the daemon computes its own).
  GcStats CollectUpTo(Timestamp watermark);

  /// Object-cache eviction sweep (EvictIfNeeded). Runs at the end of every
  /// pass; the daemon also calls it on idle-skipped wakeups so eviction
  /// never starves on garbage-free (e.g. insert-only) workloads.
  void EvictCache();

  /// Epoch tick for the latch-free read path: bumps the global epoch, then
  /// frees every limbo version and cache entry no entered reader can still
  /// reach. Run after EvictCache at the end of every pass and on every
  /// daemon idle skip, so retirees from wakeup N are freed by wakeup N+1 at
  /// the latest. Cheap no-op when nothing was retired.
  void DrainEpochs();

 private:
  /// Shared reclamation body: prunes superseded versions per entity and
  /// purges tombstones (rels strictly before nodes within `entries`;
  /// chained nodes deferred back onto the gc list).
  void DrainEntries(std::vector<GcEntry> entries, Timestamp watermark,
                    GcStats* stats);

  void CompactIndexes(Timestamp watermark, GcStats* stats);

  Engine* const engine_;
  /// One pass at a time: serializes the daemon and manual RunGc() calls.
  std::mutex pass_mu_;
};

/// WAL-logs and physically purges tombstoned entities — relationships
/// strictly before nodes, record + surgery inside one checkpoint epoch.
/// Shared by the threaded collector and the vacuum baseline. Returns the
/// number of entities purged.
uint64_t LogAndPurgeTombstones(Engine* engine, const std::vector<RelId>& rels,
                               const std::vector<NodeId>& nodes,
                               Timestamp watermark);

}  // namespace neosi

#endif  // NEOSI_GRAPH_GARBAGE_COLLECTOR_H_
