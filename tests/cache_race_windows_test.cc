// The object cache's protocol windows, each driven through a named sync
// point instead of timed churn:
//
//   - a writer between its lock and its install, while eviction
//     unpublishes the entry it looked up;
//   - an eviction between IfSoleCommitted and its slot store, while a
//     writer installs into the entry it is unpublishing;
//   - a relationship-list fill before its CAS, while a chain edit waits
//     for the node's latch;
//   - a chain edit before its list drop, while readers keep hitting the
//     old list.
//
// Every step is ordered by arrivals at points; no test sleeps.

#include <gtest/gtest.h>

#include <thread>

#include "graph/graph_database.h"
#include "sync_points.h"

namespace neosi {
namespace {

std::unique_ptr<GraphDatabase> OpenDb(size_t cache_capacity) {
  DatabaseOptions options;
  options.in_memory = true;
  options.object_cache_capacity = cache_capacity;
  options.background_gc_interval_ms = 0;
  auto db = GraphDatabase::Open(options);
  EXPECT_TRUE(db.ok()) << db.status();
  return std::move(*db);
}

int64_t CountOf(GraphDatabase& db, NodeId id) {
  auto txn = db.Begin(IsolationLevel::kSnapshotIsolation);
  auto value = txn->GetNodeProperty(id, "count");
  EXPECT_TRUE(value.ok()) << value.status();
  return value.ok() ? value->AsInt() : -1;
}

size_t DegreeOf(GraphDatabase& db, NodeId id) {
  auto txn = db.Begin(IsolationLevel::kSnapshotIsolation);
  auto rels = txn->GetRelationships(id, Direction::kBoth);
  EXPECT_TRUE(rels.ok()) << rels.status();
  return rels.ok() ? rels->size() : 0;
}

/// Two evictable nodes at capacity 1; the counter has the lower id, so an
/// eviction pass visits it first.
struct Counters {
  NodeId counter = 0;
  NodeId other = 0;
};

Counters Seed(GraphDatabase& db) {
  Counters c;
  auto setup = db.Begin();
  c.counter = *setup->CreateNode({"C"}, {{"count", PropertyValue(int64_t{0})}});
  c.other = *setup->CreateNode({"C"});
  EXPECT_TRUE(setup->Commit().ok());
  EXPECT_LT(c.counter, c.other);
  return c;
}

// Writer locked, entry looked up, version not yet installed: eviction
// unpublishes the entry and a reader reloads it. The install lands in the
// orphan, the confirm sees it and the writer retries on the published
// entry; the increment survives.
TEST(CacheRaceWindows, EvictionBetweenWriterLockAndInstall) {
  auto db = OpenDb(/*cache_capacity=*/1);
  const Counters c = Seed(*db);
  Engine& engine = db->engine();
  ArmedPoints points(db.get());
  points.Park("txn.write.pre_install");

  auto writer = db->Begin(IsolationLevel::kSnapshotIsolation);
  Status written;
  std::thread install([&] {
    written =
        writer->SetNodeProperty(c.counter, "count", PropertyValue(int64_t{1}));
  });
  ASSERT_TRUE(points.WaitFor("txn.write.pre_install"));
  ASSERT_GT(engine.cache->EvictIfNeeded(), 0u);
  EXPECT_EQ(engine.cache->PeekNode(c.counter), nullptr);
  EXPECT_EQ(CountOf(*db, c.counter), 0);  // Reloads the counter.
  points.Release("txn.write.pre_install");
  install.join();
  ASSERT_TRUE(written.ok()) << written;
  ASSERT_TRUE(writer->Commit().ok());

  EXPECT_EQ(points.Arrivals("txn.write.pre_install"), 2u)
      << "the orphaned install was not retried";
  EXPECT_EQ(CountOf(*db, c.counter), 1) << "the committed increment was lost";
}

// Eviction has seen a sole committed version and holds the chain latch,
// but has not yet cleared the slot; the writer that looked the entry up
// before the pass installs once the latch frees, into an entry that is no
// longer published. The confirm must send it back to the reloaded entry.
TEST(CacheRaceWindows, InstallBetweenSoleCommittedCheckAndSlotStore) {
  auto db = OpenDb(/*cache_capacity=*/1);
  const Counters c = Seed(*db);
  Engine& engine = db->engine();
  ArmedPoints points(db.get());
  points.Park("txn.write.pre_install");
  points.Park("cache.evict.pre_unpublish");

  auto writer = db->Begin(IsolationLevel::kSnapshotIsolation);
  Status written;
  std::thread install([&] {
    written =
        writer->SetNodeProperty(c.counter, "count", PropertyValue(int64_t{1}));
  });
  ASSERT_TRUE(points.WaitFor("txn.write.pre_install"));
  std::thread evict([&] { engine.cache->EvictIfNeeded(); });
  ASSERT_TRUE(points.WaitFor("cache.evict.pre_unpublish"));
  // The pass stopped on the counter, still published.
  EXPECT_NE(engine.cache->PeekNode(c.counter), nullptr);

  // Whether the writer reaches the chain latch before or after the pass
  // lets go of it, it installs into the entry the pass unpublishes.
  points.Release("txn.write.pre_install");
  points.Release("cache.evict.pre_unpublish");
  evict.join();
  install.join();
  ASSERT_TRUE(written.ok()) << written;
  ASSERT_TRUE(writer->Commit().ok());

  EXPECT_EQ(points.Arrivals("txn.write.pre_install"), 2u)
      << "the orphaned install was not retried";
  EXPECT_EQ(CountOf(*db, c.counter), 1) << "the committed increment was lost";
}

// A reader fills a node's relationship list and parks before publishing
// it, holding the node's store latch. A commit linking a new relationship
// to the node reaches its store apply; its chain edit needs that latch, so
// whenever it gets there it runs after the fill publishes, and must then
// drop the list.
TEST(CacheRaceWindows, ChainEditAfterListFillDropsTheFilledList) {
  auto db = OpenDb(/*cache_capacity=*/0);
  NodeId a = 0, b = 0, d = 0;
  {
    auto setup = db->Begin();
    a = *setup->CreateNode({"P"});
    b = *setup->CreateNode({"P"});
    d = *setup->CreateNode({"P"});
    ASSERT_TRUE(setup->CreateRelationship(a, b, "R").ok());
    ASSERT_TRUE(setup->Commit().ok());
  }
  Engine& engine = db->engine();
  ArmedPoints points(db.get());
  points.Park("cache.rel_list.pre_publish");
  points.Count("commit.apply.op");
  const uint64_t drops_before = engine.cache->Stats().rel_list_drops;

  size_t filled_degree = 0;
  std::thread fill([&] { filled_degree = DegreeOf(*db, a); });
  ASSERT_TRUE(points.WaitFor("cache.rel_list.pre_publish"));

  Status committed;
  std::thread edit([&] {
    auto txn = db->Begin();
    committed = txn->CreateRelationship(a, d, "R").status();
    if (committed.ok()) committed = txn->Commit();
  });
  ASSERT_TRUE(points.WaitFor("commit.apply.op"));
  EXPECT_EQ(engine.cache->Stats().rel_list_drops, drops_before);
  points.Release("cache.rel_list.pre_publish");
  fill.join();
  edit.join();
  ASSERT_TRUE(committed.ok()) << committed;

  EXPECT_EQ(filled_degree, 1u);
  EXPECT_GT(engine.cache->Stats().rel_list_drops, drops_before)
      << "the chain edit kept the list filled before it";
  EXPECT_EQ(DegreeOf(*db, a), 2u) << "a stale relationship list was served";
}

// A commit linking a new relationship parks before dropping the node's
// list, holding the node's store latch. Readers keep hitting the old list
// without that latch; once the edit drops it, the next reader refills from
// the new chain.
TEST(CacheRaceWindows, ReadersHitTheOldListUntilTheChainEditDropsIt) {
  auto db = OpenDb(/*cache_capacity=*/0);
  NodeId a = 0, b = 0, d = 0;
  {
    auto setup = db->Begin();
    a = *setup->CreateNode({"P"});
    b = *setup->CreateNode({"P"});
    d = *setup->CreateNode({"P"});
    ASSERT_TRUE(setup->CreateRelationship(a, b, "R").ok());
    ASSERT_TRUE(setup->Commit().ok());
  }
  Engine& engine = db->engine();
  ASSERT_EQ(DegreeOf(*db, a), 1u);  // Fills a's list.
  const ObjectCacheStats before = engine.cache->Stats();

  ArmedPoints points(db.get());
  points.Park("store.chain.pre_drop");
  Status committed;
  std::thread edit([&] {
    auto txn = db->Begin();
    committed = txn->CreateRelationship(a, d, "R").status();
    if (committed.ok()) committed = txn->Commit();
  });
  ASSERT_TRUE(points.WaitFor("store.chain.pre_drop"));
  EXPECT_EQ(DegreeOf(*db, a), 1u);
  EXPECT_EQ(engine.cache->Stats().rel_list_loads, before.rel_list_loads)
      << "a reader refilled instead of hitting the published list";
  EXPECT_EQ(engine.cache->Stats().rel_list_drops, before.rel_list_drops);
  points.Release("store.chain.pre_drop");
  edit.join();
  ASSERT_TRUE(committed.ok()) << committed;

  EXPECT_GT(engine.cache->Stats().rel_list_drops, before.rel_list_drops);
  EXPECT_EQ(DegreeOf(*db, a), 2u) << "a stale relationship list was served";
}

}  // namespace
}  // namespace neosi
