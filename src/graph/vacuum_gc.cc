#include "graph/vacuum_gc.h"

#include <chrono>
#include <string>
#include <vector>

#include "graph/garbage_collector.h"

namespace neosi {

VacuumStats VacuumGc::Run() {
  const Timestamp watermark =
      engine_->active_txns.Watermark(engine_->oracle.ReadTs());
  return RunUpTo(watermark);
}

VacuumStats VacuumGc::RunUpTo(Timestamp watermark) {
  std::lock_guard<std::mutex> guard(mu_);
  const auto t0 = std::chrono::steady_clock::now();

  VacuumStats stats;
  stats.watermark = watermark;

  // PostgreSQL-style: visit EVERY record in the persistent store, read it,
  // and write it back (the page rewrite the paper calls out), pruning
  // whatever garbage happens to exist. Cost is O(store size) regardless of
  // the amount of garbage — the behaviour experiment E8 contrasts.
  std::vector<RelId> rels_to_purge;
  std::vector<NodeId> nodes_to_purge;

  engine_->store
      .ForEachRel([&](RelId id) {
        ++stats.records_scanned;
        RelationshipRecord rec;
        NEOSI_RETURN_IF_ERROR(engine_->store.ReadRelRecord(id, &rec));
        EpochManager::Guard guard(&engine_->epochs);  // `rel` is borrowed.
        CachedRel* rel = engine_->cache->PeekRel(id);
        if (rel) {
          // Prune superseded versions below the watermark.
          stats.versions_pruned += rel->chain.PruneSupersededUpTo(watermark);
          auto latest = rel->chain.LatestCommitted();
          if (latest && latest->data.deleted &&
              latest->commit_ts <= watermark && !rel->chain.HasUncommitted()) {
            rels_to_purge.push_back(id);
            return Status::OK();
          }
        } else if (rec.deleted && rec.commit_ts <= watermark) {
          rels_to_purge.push_back(id);
          return Status::OK();
        }
        // The "rewrite the page" cost: write the record back unchanged.
        ++stats.records_rewritten;
        return engine_->store.ApplyRewrite(EntityKey::Rel(id));
      })
      .ok();

  engine_->store
      .ForEachNode([&](NodeId id) {
        ++stats.records_scanned;
        NodeRecord rec;
        NEOSI_RETURN_IF_ERROR(engine_->store.ReadNodeRecord(id, &rec));
        EpochManager::Guard guard(&engine_->epochs);  // `node` is borrowed.
        CachedNode* node = engine_->cache->PeekNode(id);
        if (node) {
          stats.versions_pruned += node->chain.PruneSupersededUpTo(watermark);
          auto latest = node->chain.LatestCommitted();
          if (latest && latest->data.deleted &&
              latest->commit_ts <= watermark &&
              !node->chain.HasUncommitted()) {
            nodes_to_purge.push_back(id);
            return Status::OK();
          }
        } else if (rec.deleted && rec.commit_ts <= watermark) {
          nodes_to_purge.push_back(id);
          return Status::OK();
        }
        ++stats.records_rewritten;
        return engine_->store.ApplyRewrite(EntityKey::Node(id));
      })
      .ok();

  // Physical purges, relationships first, WAL record + surgery inside one
  // checkpoint epoch — shared with GcEngine.
  stats.tombstones_purged +=
      LogAndPurgeTombstones(engine_, rels_to_purge, nodes_to_purge,
                            watermark);

  engine_->label_index.Compact(watermark);
  engine_->node_prop_index.Compact(watermark);
  engine_->rel_prop_index.Compact(watermark);

  stats.nanos = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  return stats;
}

}  // namespace neosi
