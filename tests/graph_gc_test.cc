// Garbage collection (paper §3/§4): the timestamp-threaded list reclaims
// exactly the versions below the watermark; tombstoned entities are
// physically purged; active snapshots are never robbed of their versions.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "graph/graph_database.h"

namespace neosi {
namespace {

std::unique_ptr<GraphDatabase> OpenDb() {
  DatabaseOptions options;
  options.in_memory = true;
  options.background_gc_interval_ms = 0;  // Manual GC only.
  auto db = GraphDatabase::Open(options);
  EXPECT_TRUE(db.ok()) << db.status();
  return std::move(*db);
}

TEST(Gc, SupersededVersionsAreReclaimed) {
  auto db = OpenDb();
  NodeId id;
  {
    auto txn = db->Begin();
    id = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{0})}});
    ASSERT_TRUE(txn->Commit().ok());
  }
  for (int i = 1; i <= 5; ++i) {
    auto txn = db->Begin();
    ASSERT_TRUE(txn->SetNodeProperty(id, "v", PropertyValue(int64_t{i})).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  auto node = db->engine().cache->PeekNode(id);
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->chain.Length(), 6u);
  EXPECT_EQ(db->engine().gc_list.backlog(), 5u);

  GcStats stats = db->RunGc();
  EXPECT_EQ(stats.versions_pruned, 5u);
  EXPECT_EQ(stats.tombstones_purged, 0u);
  EXPECT_EQ(node->chain.Length(), 1u);
  EXPECT_EQ(db->engine().gc_list.backlog(), 0u);

  auto reader = db->Begin();
  EXPECT_EQ(reader->GetNodeProperty(id, "v")->AsInt(), 5);
}

TEST(Gc, ActiveSnapshotPinsVersions) {
  auto db = OpenDb();
  NodeId id;
  {
    auto txn = db->Begin();
    id = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{1})}});
    ASSERT_TRUE(txn->Commit().ok());
  }
  auto old_reader = db->Begin(IsolationLevel::kSnapshotIsolation);
  ASSERT_EQ(old_reader->GetNodeProperty(id, "v")->AsInt(), 1);

  {
    auto writer = db->Begin();
    ASSERT_TRUE(writer->SetNodeProperty(id, "v", PropertyValue(int64_t{2})).ok());
    ASSERT_TRUE(writer->Commit().ok());
  }

  // The old reader's snapshot pins version 1: GC must reclaim nothing.
  GcStats stats = db->RunGc();
  EXPECT_EQ(stats.versions_pruned, 0u);
  EXPECT_EQ(db->engine().gc_list.backlog(), 1u);
  EXPECT_EQ(old_reader->GetNodeProperty(id, "v")->AsInt(), 1);

  ASSERT_TRUE(old_reader->Commit().ok());
  stats = db->RunGc();
  EXPECT_EQ(stats.versions_pruned, 1u);
}

TEST(Gc, PaperWatermarkExample) {
  // §3: data item versions at commit timestamps {40, 56, 90}; the oldest
  // active transaction has start timestamp 100 -> versions 40 and 56 can
  // never be read again and are reclaimed; 90 stays (it IS the snapshot
  // state at 100). We reproduce the shape with real commits.
  auto db = OpenDb();
  NodeId id;
  {
    auto txn = db->Begin();
    id = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{40})}});
    ASSERT_TRUE(txn->Commit().ok());
  }
  for (int64_t v : {56, 90}) {
    auto txn = db->Begin();
    ASSERT_TRUE(txn->SetNodeProperty(id, "v", PropertyValue(v)).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  auto active = db->Begin(IsolationLevel::kSnapshotIsolation);  // "ts 100"
  ASSERT_EQ(active->GetNodeProperty(id, "v")->AsInt(), 90);

  GcStats stats = db->RunGc();
  EXPECT_EQ(stats.versions_pruned, 2u);  // The "40" and "56" versions.
  auto node = db->engine().cache->PeekNode(id);
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->chain.Length(), 1u);
  EXPECT_EQ(active->GetNodeProperty(id, "v")->AsInt(), 90);
}

TEST(Gc, TombstonePurgeRemovesEntityPhysically) {
  auto db = OpenDb();
  NodeId a, b;
  RelId rel;
  {
    auto txn = db->Begin();
    a = *txn->CreateNode({"Person"}, {{"k", PropertyValue(int64_t{1})}});
    b = *txn->CreateNode({"Person"});
    rel = *txn->CreateRelationship(a, b, "KNOWS");
    ASSERT_TRUE(txn->Commit().ok());
  }
  {
    auto txn = db->Begin();
    ASSERT_TRUE(txn->DeleteRelationship(rel).ok());
    ASSERT_TRUE(txn->DeleteNode(a).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  // Tombstones still physically present until GC.
  EXPECT_TRUE(db->engine().store.NodeInUse(a));
  EXPECT_TRUE(db->engine().store.RelInUse(rel));

  GcStats stats = db->RunGc();
  EXPECT_EQ(stats.tombstones_purged, 2u);
  EXPECT_FALSE(db->engine().store.NodeInUse(a));
  EXPECT_FALSE(db->engine().store.RelInUse(rel));
  EXPECT_EQ(db->engine().cache->PeekNode(a), nullptr);

  // b's chain is clean and b remains.
  auto reader = db->Begin();
  EXPECT_TRUE(reader->GetNode(b).ok());
  EXPECT_TRUE(reader->GetRelationships(b)->empty());
}

TEST(Gc, TombstonePinnedByOldSnapshot) {
  auto db = OpenDb();
  NodeId id;
  {
    auto txn = db->Begin();
    id = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{7})}});
    ASSERT_TRUE(txn->Commit().ok());
  }
  auto old_reader = db->Begin(IsolationLevel::kSnapshotIsolation);
  {
    auto deleter = db->Begin();
    ASSERT_TRUE(deleter->DeleteNode(id).ok());
    ASSERT_TRUE(deleter->Commit().ok());
  }
  GcStats stats = db->RunGc();
  EXPECT_EQ(stats.tombstones_purged, 0u);  // Pinned by old_reader.
  EXPECT_EQ(old_reader->GetNodeProperty(id, "v")->AsInt(), 7);

  ASSERT_TRUE(old_reader->Commit().ok());
  stats = db->RunGc();
  EXPECT_EQ(stats.tombstones_purged, 1u);
  EXPECT_EQ(stats.versions_pruned, 1u);  // The pre-delete version.
  EXPECT_FALSE(db->engine().store.NodeInUse(id));
}

TEST(Gc, GcCostProportionalToGarbageNotStoreSize) {
  // The paper's central GC claim (§4): a pass over a huge store with little
  // garbage touches only the garbage. We verify by operation counts, not
  // wall time: the GC list is empty after one pass and a second pass does
  // zero work even though the store holds thousands of entities.
  auto db = OpenDb();
  {
    auto txn = db->Begin();
    for (int i = 0; i < 2000; ++i) ASSERT_TRUE(txn->CreateNode({}).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  NodeId hot;
  {
    auto txn = db->Begin();
    hot = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{0})}});
    ASSERT_TRUE(txn->Commit().ok());
  }
  for (int i = 0; i < 3; ++i) {
    auto txn = db->Begin();
    ASSERT_TRUE(txn->SetNodeProperty(hot, "v", PropertyValue(int64_t{i})).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  GcStats stats = db->RunGc();
  EXPECT_EQ(stats.versions_pruned, 3u);
  GcStats idle = db->RunGc();
  EXPECT_EQ(idle.versions_pruned, 0u);
  EXPECT_EQ(idle.tombstones_purged, 0u);

  // Vacuum, by contrast, scans everything even when there is no garbage.
  VacuumStats vacuum = db->RunVacuum();
  EXPECT_GE(vacuum.records_scanned, 2000u);
  EXPECT_EQ(vacuum.versions_pruned, 0u);
}

TEST(Gc, VacuumCollectsSameGarbage) {
  auto db = OpenDb();
  NodeId id;
  {
    auto txn = db->Begin();
    id = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{0})}});
    ASSERT_TRUE(txn->Commit().ok());
  }
  for (int i = 1; i <= 4; ++i) {
    auto txn = db->Begin();
    ASSERT_TRUE(txn->SetNodeProperty(id, "v", PropertyValue(int64_t{i})).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  VacuumStats stats = db->RunVacuum();
  EXPECT_EQ(stats.versions_pruned, 4u);
  auto node = db->engine().cache->PeekNode(id);
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->chain.Length(), 1u);
  auto reader = db->Begin();
  EXPECT_EQ(reader->GetNodeProperty(id, "v")->AsInt(), 4);
}

/// Frees everything in the epoch limbo (no reader is entered).
void DrainLimbo(GraphDatabase* db) {
  db->engine().epochs.BumpEpoch();
  db->engine().epochs.Drain();
  EXPECT_EQ(db->engine().epochs.limbo_size(), 0u);
}

TEST(Gc, StaleEntriesAreHarmless) {
  // Vacuum frees the versions that GC-list entries were queued for. Those
  // entries must drain as no-ops, and prune nothing that later commits
  // allocate (possibly at the freed addresses).
  auto db = OpenDb();
  NodeId id;
  {
    auto txn = db->Begin();
    id = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{0})}});
    ASSERT_TRUE(txn->Commit().ok());
  }
  auto update = [&](int64_t v) {
    auto txn = db->Begin();
    ASSERT_TRUE(txn->SetNodeProperty(id, "v", PropertyValue(v)).ok());
    ASSERT_TRUE(txn->Commit().ok());
  };
  for (int64_t i = 1; i <= 4; ++i) update(i);
  ASSERT_EQ(db->RunVacuum().versions_pruned, 4u);
  DrainLimbo(db.get());  // The pruned versions are gone, not parked.
  EXPECT_EQ(db->engine().gc_list.backlog(), 4u);

  GcStats stale = db->RunGc();
  EXPECT_EQ(stale.versions_pruned, 0u);
  EXPECT_EQ(db->engine().gc_list.backlog(), 0u);

  for (int64_t i = 5; i <= 7; ++i) update(i);
  GcStats fresh = db->RunGc();
  EXPECT_EQ(fresh.versions_pruned, 3u);
  auto node = db->engine().cache->PeekNode(id);
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->chain.Length(), 1u);
  auto reader = db->Begin();
  EXPECT_EQ(reader->GetNodeProperty(id, "v")->AsInt(), 7);
}

TEST(Gc, EvictedSoleTombstoneIsStillPurged) {
  DatabaseOptions options;
  options.in_memory = true;
  options.background_gc_interval_ms = 0;  // Manual GC only.
  options.object_cache_capacity = 2;
  auto db = std::move(*GraphDatabase::Open(options));
  NodeId id;
  {
    auto txn = db->Begin();
    id = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{1})}});
    for (int i = 0; i < 4; ++i) ASSERT_TRUE(txn->CreateNode({}).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  {
    auto txn = db->Begin();
    ASSERT_TRUE(txn->DeleteNode(id).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  EXPECT_EQ(db->engine().gc_list.backlog(), 2u);  // Superseded + tombstone.

  // Leave the tombstone as the chain's only version, as an earlier prune
  // would, then let eviction free the entry before the pass pops either.
  {
    EpochManager::Guard guard(&db->engine().epochs);
    CachedNode* node = db->engine().cache->PeekNode(id);
    ASSERT_NE(node, nullptr);
    ASSERT_EQ(node->chain.PruneSupersededUpTo(db->engine().oracle.ReadTs()),
              1u);
  }
  db->engine().cache->EvictIfNeeded();
  ASSERT_EQ(db->engine().cache->PeekNode(id), nullptr);
  DrainLimbo(db.get());

  GcStats stats = db->RunGc();
  EXPECT_EQ(stats.versions_pruned, 0u);
  EXPECT_EQ(stats.tombstones_purged, 1u);
  EXPECT_FALSE(db->engine().store.NodeInUse(id));
  EXPECT_EQ(db->engine().gc_list.backlog(), 0u);
}

TEST(Gc, StaleTombstoneEntrySparesARecycledId) {
  // Vacuum purges a node and a relationship tombstone whose GC-list
  // entries are still queued, and new entities recycle both ids. The stale
  // entries must not purge them.
  auto db = OpenDb();
  NodeId a, b, gone;
  RelId rel;
  {
    auto txn = db->Begin();
    a = *txn->CreateNode({});
    b = *txn->CreateNode({});
    gone = *txn->CreateNode({});
    rel = *txn->CreateRelationship(a, b, "R");
    ASSERT_TRUE(txn->Commit().ok());
  }
  {
    auto txn = db->Begin();
    ASSERT_TRUE(txn->DeleteRelationship(rel).ok());
    ASSERT_TRUE(txn->DeleteNode(gone).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  ASSERT_EQ(db->RunVacuum().tombstones_purged, 2u);
  {
    auto txn = db->Begin();
    ASSERT_EQ(*txn->CreateNode({}, {{"v", PropertyValue(int64_t{1})}}), gone);
    ASSERT_EQ(*txn->CreateRelationship(a, b, "R"), rel);
    ASSERT_TRUE(txn->Commit().ok());
  }

  GcStats stats = db->RunGc();
  EXPECT_EQ(stats.tombstones_purged, 0u);
  EXPECT_EQ(db->engine().gc_list.backlog(), 0u);
  EXPECT_TRUE(db->engine().store.NodeInUse(gone));
  EXPECT_TRUE(db->engine().store.RelInUse(rel));
  auto reader = db->Begin();
  EXPECT_EQ(reader->GetNodeProperty(gone, "v")->AsInt(), 1);
  EXPECT_EQ(reader->GetRelationships(a)->size(), 1u);
}

TEST(Gc, IndexEntriesCompacted) {
  auto db = OpenDb();
  NodeId id;
  {
    auto txn = db->Begin();
    id = *txn->CreateNode({"L"}, {{"v", PropertyValue(int64_t{0})}});
    ASSERT_TRUE(txn->Commit().ok());
  }
  for (int i = 1; i <= 5; ++i) {
    auto txn = db->Begin();
    ASSERT_TRUE(txn->SetNodeProperty(id, "v", PropertyValue(int64_t{i})).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  // 6 value intervals exist (0..5), 5 of them closed.
  EXPECT_EQ(db->engine().node_prop_index.Stats().entries_total, 6u);
  GcStats stats = db->RunGc();
  EXPECT_EQ(stats.index_entries_dropped, 5u);
  EXPECT_EQ(db->engine().node_prop_index.Stats().entries_total, 1u);
}

TEST(Gc, IdsAreRecycledAfterPurge) {
  auto db = OpenDb();
  NodeId id;
  {
    auto txn = db->Begin();
    id = *txn->CreateNode({});
    ASSERT_TRUE(txn->Commit().ok());
  }
  {
    auto txn = db->Begin();
    ASSERT_TRUE(txn->DeleteNode(id).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  db->RunGc();
  ASSERT_FALSE(db->engine().store.NodeInUse(id));
  // The freed record id is recycled by a later creation.
  auto txn = db->Begin();
  NodeId fresh = *txn->CreateNode({});
  EXPECT_EQ(fresh, id);
  ASSERT_TRUE(txn->Commit().ok());
}

TEST(Gc, BacklogNudgeBoundsChainLengthWithoutForegroundGc) {
  DatabaseOptions options;
  options.in_memory = true;
  options.background_gc_interval_ms = 60000;  // Interval effectively off:
  options.gc_backlog_threshold = 8;           // only nudges can reclaim.
  auto db = std::move(*GraphDatabase::Open(options));
  NodeId id;
  {
    auto txn = db->Begin();
    id = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{0})}});
    ASSERT_TRUE(txn->Commit().ok());
  }
  for (int i = 0; i < 40; ++i) {
    auto txn = db->Begin();
    ASSERT_TRUE(txn->SetNodeProperty(id, "v", PropertyValue(int64_t{i})).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  // Backlog-threshold nudges (the only automatic trigger here) must have
  // bounded the backlog: the daemon runs as soon as 8 versions queue up.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (db->engine().gc_list.backlog() >= 8 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_LT(db->engine().gc_list.backlog(), 8u);
  EXPECT_GE(db->gc_daemon()->nudge_passes(), 1u);
  auto node = db->engine().cache->PeekNode(id);
  ASSERT_NE(node, nullptr);
  EXPECT_LT(node->chain.Length(), 41u);
}

}  // namespace
}  // namespace neosi
