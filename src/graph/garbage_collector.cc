#include "graph/garbage_collector.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

namespace neosi {

uint64_t LogAndPurgeTombstones(Engine* engine, const std::vector<RelId>& rels,
                               const std::vector<NodeId>& nodes,
                               Timestamp watermark) {
  if (rels.empty() && nodes.empty()) return 0;

  // On a replica, physical reclamation is DRIVEN BY THE PRIMARY: purge
  // records ship through the applier like any other record, so every
  // replica reclaims exactly what the primary reclaimed. Local GC still
  // trims version chains (memory-only), but never purges or logs.
  if (engine->options.IsReplica()) return 0;

  // Physical purges are WAL-logged (with the chain pointers observed at
  // purge time) so a crash mid-surgery is repaired by replay. The record's
  // LSN stays pinned from append until the surgery below has reached the
  // stores: a fuzzy checkpoint racing this pass truncates only below the
  // pin, so the record can never vanish while the surgery is mid-flight.
  WalRecord record;
  record.txn_id = kNoTxn;
  record.commit_ts = watermark;
  // The GC watermark is <= the published watermark by construction, so it
  // doubles as the record's publication hint for replica appliers.
  record.publish_ts = watermark;
  for (RelId id : rels) {
    RelationshipRecord rec;
    if (!engine->store.ReadRelRecord(id, &rec).ok() || !rec.in_use) continue;
    record.ops.push_back(WalOp::PurgeRel(id, rec.src, rec.dst, rec.src_prev,
                                         rec.src_next, rec.dst_prev,
                                         rec.dst_next));
  }
  for (NodeId id : nodes) {
    record.ops.push_back(WalOp::PurgeNode(id));
  }
  Lsn pinned_lsn = 0;
  bool pinned = false;
  if (!record.ops.empty()) {
    auto lsn = engine->store.wal().Append(record, /*pin=*/true);
    if (!lsn.ok()) {
      // No record ⇒ no surgery: an unlogged purge interrupted by a crash
      // would leave dangling chain pointers nothing can repair. The
      // tombstones stay physically present (safe — just unreclaimed); a
      // vacuum pass can pick them up later.
      return 0;
    }
    pinned_lsn = *lsn;
    pinned = true;
  }

  uint64_t purged = 0;
  for (RelId id : rels) {
    // Drop any residual older versions, then the entity itself.
    engine->cache->EraseRel(id);
    if (engine->store.PurgeRel(id).ok()) ++purged;
  }
  for (NodeId id : nodes) {
    engine->cache->EraseNode(id);
    if (engine->store.PurgeNode(id).ok()) ++purged;
  }
  if (pinned) engine->store.wal().Unpin(pinned_lsn);
  return purged;
}

GcEngine::GcEngine(Engine* engine) : engine_(engine) {}

void GcEngine::EvictCache() { engine_->cache->EvictIfNeeded(); }

void GcEngine::DrainEpochs() {
  EpochManager& epochs = engine_->epochs;
  const uint64_t epoch = epochs.BumpEpoch();
  // A guard spans one engine call, so the readers that entered before the
  // bump (the only ones that can still reach this pass's retirees) leave
  // within microseconds. Wait them out, briefly, so that entries evicted by
  // this pass are freed now instead of doubling the cache's footprint in
  // limbo until the next pass.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::microseconds(500);
  while (epochs.limbo_size() > 0 && epochs.MinActiveEpoch() < epoch &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  epochs.Drain();
}

GcStats GcEngine::Collect() {
  const Timestamp watermark =
      engine_->active_txns.Watermark(engine_->oracle.ReadTs());
  return CollectUpTo(watermark);
}

void GcEngine::DrainEntries(std::vector<GcEntry> entries, Timestamp watermark,
                            GcStats* stats) {
  // Partition: superseded versions are pruned from their chains; tombstone
  // versions trigger physical purges (relationships strictly before nodes,
  // so node purges find an empty chain — a node whose chain is still
  // populated is deferred below). Entries for the same entity are batched
  // so a long backlog is pruned with ONE chain walk per entity (cost stays
  // O(#reclaimed), the paper's complexity claim).
  std::vector<GcEntry> purge_rels;
  std::vector<GcEntry> purge_nodes;
  std::unordered_map<EntityKey, std::vector<std::shared_ptr<Version>>>
      superseded_by_entity;
  for (GcEntry& entry : entries) {
    if (entry.version->data.deleted) {
      if (entry.key.type == EntityType::kRelationship) {
        purge_rels.push_back(std::move(entry));
      } else {
        purge_nodes.push_back(std::move(entry));
      }
      continue;
    }
    superseded_by_entity[entry.key].push_back(std::move(entry.version));
  }
  for (auto& [key, versions] : superseded_by_entity) {
    EpochManager::Guard guard(&engine_->epochs);  // The entry is borrowed.
    VersionChain* chain = nullptr;
    if (key.type == EntityType::kNode) {
      if (CachedNode* node = engine_->cache->PeekNode(key.id)) {
        chain = &node->chain;
      }
    } else if (CachedRel* rel = engine_->cache->PeekRel(key.id)) {
      chain = &rel->chain;
    }
    if (chain == nullptr) continue;
    if (versions.size() > 1) {
      // All these versions are superseded at or below the watermark; one
      // prune pass drops every version older than the newest survivor.
      stats->versions_pruned += chain->PruneSupersededUpTo(watermark);
      // Any stragglers (e.g. a version whose superseding commit is above
      // the watermark cannot exist here by construction) fall through to
      // the precise removal below and count zero.
      for (const auto& version : versions) {
        if (chain->Remove(version)) ++stats->versions_pruned;
      }
    } else {
      if (chain->Remove(versions[0])) ++stats->versions_pruned;
    }
  }

  // Relationships purge first, in their own WAL record, so the node
  // admission check below observes their chains already unlinked.
  std::vector<RelId> rel_ids;
  rel_ids.reserve(purge_rels.size());
  for (const GcEntry& entry : purge_rels) rel_ids.push_back(entry.key.id);
  stats->tombstones_purged +=
      LogAndPurgeTombstones(engine_, rel_ids, {}, watermark);

  // Node purge admission: only nodes whose PHYSICAL rel chain is already
  // empty enter the batch. Rel purges only ever shrink a tombstoned
  // node's chain (attaching a rel needs a visible endpoint), so "empty" is
  // stable once observed — but a chain still holding rels this batch did
  // not purge (e.g. their purge record failed to log) must wait. The
  // skipped entry goes straight back onto the list (same obsolete_since:
  // reclaimable on the very next pass).
  // Crucially the admission check runs BEFORE the WAL purge record is
  // written: a logged-but-failed PurgeNode would fail-stop recovery when
  // the replay hits the chained node.
  std::vector<NodeId> node_ids;
  node_ids.reserve(purge_nodes.size());
  for (GcEntry& entry : purge_nodes) {
    auto chained = engine_->store.NodeHasRelChain(entry.key.id);
    // Fail CLOSED: a read error defers exactly like a populated chain — an
    // unverified node admitted here would still get its PurgeNode WAL op
    // logged, and if its chain turns out non-empty that logged-but-failed
    // purge is the recovery fail-stop this check exists to prevent.
    if (!chained.ok() || *chained) {
      ++stats->purges_deferred;
      engine_->gc_list.Append(std::move(entry));
      continue;
    }
    node_ids.push_back(entry.key.id);
  }
  stats->tombstones_purged +=
      LogAndPurgeTombstones(engine_, {}, node_ids, watermark);
}

void GcEngine::CompactIndexes(Timestamp watermark, GcStats* stats) {
  // Index compaction: free the queued intervals that closed at or below the
  // watermark — work proportional to them, not to the index.
  stats->index_entries_dropped += engine_->label_index.Compact(watermark);
  stats->index_entries_dropped += engine_->node_prop_index.Compact(watermark);
  stats->index_entries_dropped += engine_->rel_prop_index.Compact(watermark);
}

GcStats GcEngine::CollectUpTo(Timestamp watermark) {
  std::lock_guard<std::mutex> guard(pass_mu_);
  const auto t0 = std::chrono::steady_clock::now();

  GcStats stats;
  stats.watermark = watermark;

  // Pop exactly the reclaimable prefix of every shard FIRST, then reclaim:
  // with all rel tombstones <= watermark popped into this one batch, the
  // rels-before-nodes order inside DrainEntries leaves every node chain
  // empty by the time its purge runs.
  DrainEntries(engine_->gc_list.PopReclaimable(watermark), watermark, &stats);
  CompactIndexes(watermark, &stats);
  // Cache eviction rides the GC pass: single-version clean objects beyond
  // capacity go.
  EvictCache();
  // Versions the prune/purge above unlinked were retired into the epoch
  // limbo (latch-free read path); bump + drain frees the reachable-free
  // ones now, so a pass reclaims memory end to end.
  DrainEpochs();

  stats.nanos = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  return stats;
}

}  // namespace neosi
