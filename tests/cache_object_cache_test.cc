// ObjectCache: load-on-miss materialization, pinning of multi-version
// entities, eviction, stats; and, through a whole database, the borrowed
// read path and the writers' install-then-confirm rule under eviction (the
// sanitizer jobs and the repeat-until-fail step run this suite).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "cache/object_cache.h"
#include "common/random.h"
#include "graph/graph_database.h"
#include "mvcc/epoch.h"

namespace neosi {
namespace {

std::unique_ptr<GraphStore> MakeStore() {
  DatabaseOptions options;
  options.in_memory = true;
  auto store = std::make_unique<GraphStore>(options);
  EXPECT_TRUE(store->Open().ok());
  return store;
}

TEST(ObjectCache, LoadsNewestCommittedVersionOnMiss) {
  auto store = MakeStore();
  EpochManager epochs;
  ObjectCache cache(store.get(), 0, &epochs);
  const NodeId id = *store->AllocateNodeId();
  ASSERT_TRUE(
      store->PersistNewNode(id, {1}, {{2, PropertyValue("v")}}, 77).ok());

  auto node = cache.GetNode(id);
  ASSERT_TRUE(node.ok());
  EXPECT_EQ((*node)->chain.Length(), 1u);
  auto version = (*node)->chain.LatestCommitted();
  ASSERT_NE(version, nullptr);
  EXPECT_EQ(version->commit_ts, 77u);
  EXPECT_EQ(version->data.labels, (std::vector<LabelId>{1}));
  EXPECT_EQ(version->data.props.at(2), PropertyValue("v"));

  ObjectCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.node_misses, 1u);
  EXPECT_EQ(stats.loads, 1u);
  // Second access is a hit.
  ASSERT_TRUE(cache.GetNode(id).ok());
  EXPECT_EQ(cache.Stats().node_hits, 1u);
}

TEST(ObjectCache, MissOnFreeRecordIsNotFound) {
  auto store = MakeStore();
  EpochManager epochs;
  ObjectCache cache(store.get(), 0, &epochs);
  EXPECT_TRUE(cache.GetNode(42).status().IsNotFound());
  const NodeId id = *store->AllocateNodeId();  // Allocated but zeroed.
  EXPECT_TRUE(cache.GetNode(id).status().IsNotFound());
}

TEST(ObjectCache, LoadsTombstoneAsDeletedVersion) {
  auto store = MakeStore();
  EpochManager epochs;
  ObjectCache cache(store.get(), 0, &epochs);
  const NodeId id = *store->AllocateNodeId();
  ASSERT_TRUE(store->PersistNewNode(id, {}, {}, 5).ok());
  ASSERT_TRUE(store->PersistNodeTombstone(id, 9).ok());
  auto node = cache.GetNode(id);
  ASSERT_TRUE(node.ok());
  auto version = (*node)->chain.LatestCommitted();
  EXPECT_TRUE(version->data.deleted);
  EXPECT_EQ(version->commit_ts, 9u);
}

TEST(ObjectCache, RelTopologyOnCachedObject) {
  auto store = MakeStore();
  EpochManager epochs;
  ObjectCache cache(store.get(), 0, &epochs);
  const NodeId a = *store->AllocateNodeId();
  const NodeId b = *store->AllocateNodeId();
  ASSERT_TRUE(store->PersistNewNode(a, {}, {}, 1).ok());
  ASSERT_TRUE(store->PersistNewNode(b, {}, {}, 1).ok());
  const RelId r = *store->AllocateRelId();
  ASSERT_TRUE(
      store->PersistNewRel(r, a, b, 3, {{1, PropertyValue(2.5)}}, 2).ok());
  auto rel = cache.GetRel(r);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ((*rel)->src, a);
  EXPECT_EQ((*rel)->dst, b);
  EXPECT_EQ((*rel)->type, 3u);
  EXPECT_EQ((*rel)->chain.LatestCommitted()->data.props.at(1),
            PropertyValue(2.5));
}

TEST(ObjectCache, InsertNewAndErase) {
  auto store = MakeStore();
  EpochManager epochs;
  ObjectCache cache(store.get(), 0, &epochs);
  auto node = cache.InsertNewNode(10);
  ASSERT_TRUE(node.ok());
  EXPECT_NE(cache.PeekNode(10), nullptr);
  // Double insert of a live entry is an engine bug...
  ASSERT_TRUE(
      (*node)->chain.InstallUncommitted(1, VersionData{}).ok());
  ASSERT_TRUE((*node)->chain.CommitHead(1, 5).ok());
  EXPECT_TRUE(cache.InsertNewNode(10).status().IsInternal());
  // ...but a defunct (tombstone) entry is silently replaced (purge race).
  auto rel = cache.InsertNewRel(3, 1, 2, 0);
  ASSERT_TRUE(rel.ok());
  VersionData dead;
  dead.deleted = true;
  ASSERT_TRUE((*rel)->chain.InstallUncommitted(1, dead).ok());
  ASSERT_TRUE((*rel)->chain.CommitHead(1, 6).ok());
  EXPECT_TRUE(cache.InsertNewRel(3, 5, 6, 1).ok());
  EXPECT_EQ(cache.PeekRel(3)->src, 5u);

  cache.EraseNode(10);
  EXPECT_EQ(cache.PeekNode(10), nullptr);
}

TEST(ObjectCache, EvictionKeepsMultiVersionEntitiesPinned) {
  auto store = MakeStore();
  EpochManager epochs;
  ObjectCache cache(store.get(), /*capacity=*/4, &epochs);
  // 10 single-version nodes (evictable) + 1 multi-version node (pinned).
  for (int i = 0; i < 10; ++i) {
    const NodeId id = *store->AllocateNodeId();
    ASSERT_TRUE(store->PersistNewNode(id, {}, {}, 1).ok());
    ASSERT_TRUE(cache.GetNode(id).ok());
  }
  const NodeId pinned = *store->AllocateNodeId();
  ASSERT_TRUE(store->PersistNewNode(pinned, {}, {}, 1).ok());
  auto node = cache.GetNode(pinned);
  ASSERT_TRUE(node.ok());
  ASSERT_TRUE((*node)->chain.InstallUncommitted(9, VersionData{}).ok());
  ASSERT_TRUE((*node)->chain.CommitHead(9, 2).ok());  // Two versions now.

  const size_t evicted = cache.EvictIfNeeded();
  EXPECT_GT(evicted, 0u);
  EXPECT_NE(cache.PeekNode(pinned), nullptr) << "multi-version pinned";

  // Uncommitted writers also pin.
  const NodeId writing = *store->AllocateNodeId();
  ASSERT_TRUE(store->PersistNewNode(writing, {}, {}, 3).ok());
  auto wnode = cache.GetNode(writing);
  ASSERT_TRUE(wnode.ok());
  ASSERT_TRUE((*wnode)->chain.InstallUncommitted(5, VersionData{}).ok());
  cache.EvictIfNeeded();
  EXPECT_NE(cache.PeekNode(writing), nullptr);
}

TEST(ObjectCache, EvictedEntryReloadsFromStore) {
  auto store = MakeStore();
  EpochManager epochs;
  ObjectCache cache(store.get(), /*capacity=*/1, &epochs);
  std::vector<NodeId> ids;
  for (int i = 0; i < 5; ++i) {
    const NodeId id = *store->AllocateNodeId();
    ASSERT_TRUE(store->PersistNewNode(
                        id, {}, {{1, PropertyValue(int64_t{i})}}, i + 1)
                    .ok());
    ids.push_back(id);
    ASSERT_TRUE(cache.GetNode(id).ok());
  }
  cache.EvictIfNeeded();
  for (int i = 0; i < 5; ++i) {
    auto node = cache.GetNode(ids[i]);
    ASSERT_TRUE(node.ok());
    EXPECT_EQ((*node)->chain.LatestCommitted()->data.props.at(1),
              PropertyValue(int64_t{i}));
  }
}

TEST(ObjectCache, StatsCountResidentVersions) {
  auto store = MakeStore();
  EpochManager epochs;
  ObjectCache cache(store.get(), 0, &epochs);
  const NodeId id = *store->AllocateNodeId();
  ASSERT_TRUE(store->PersistNewNode(id, {}, {}, 1).ok());
  auto node = cache.GetNode(id);
  ASSERT_TRUE(node.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE((*node)->chain.InstallUncommitted(50 + i, VersionData{}).ok());
    ASSERT_TRUE((*node)->chain.CommitHead(50 + i, 10 + i).ok());
  }
  ObjectCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.resident_nodes, 1u);
  EXPECT_EQ(stats.resident_versions, 4u);
  EXPECT_GT(stats.approx_bytes, 0u);
}

// Every lookup is counted exactly once, including the one that loses the
// load race to another thread (it returns the winner's load: a hit).
TEST(ObjectCache, ConcurrentColdLookupsCountEveryCall) {
  auto store = MakeStore();
  EpochManager epochs;
  ObjectCache cache(store.get(), 0, &epochs);
  constexpr int kIds = 1000;
  constexpr int kThreads = 8;
  std::vector<NodeId> ids;
  for (int i = 0; i < kIds; ++i) {
    const NodeId id = *store->AllocateNodeId();
    ASSERT_TRUE(store->PersistNewNode(id, {}, {}, 1).ok());
    ids.push_back(id);
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (NodeId id : ids) EXPECT_TRUE(cache.GetNode(id).ok());
    });
  }
  for (auto& thread : threads) thread.join();

  ObjectCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.node_hits + stats.node_misses,
            static_cast<uint64_t>(kIds * kThreads));
  EXPECT_EQ(stats.node_misses, static_cast<uint64_t>(kIds));
  EXPECT_EQ(stats.loads, static_cast<uint64_t>(kIds));
}

std::unique_ptr<GraphDatabase> OpenDb(size_t cache_capacity,
                                      uint64_t gc_interval_ms) {
  DatabaseOptions options;
  options.in_memory = true;
  options.object_cache_capacity = cache_capacity;
  options.background_gc_interval_ms = gc_interval_ms;
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

// A first write must not look the entity up before its lock wait: eviction
// can unpublish the entry during the wait and a reader reload it, and a
// write installed into the unpublished entry would then commit where no
// later reader or writer looks (a lost update).
TEST(ObjectCacheEviction, WriteAfterLockWaitLandsInThePublishedEntry) {
  auto db = OpenDb(/*cache_capacity=*/1, /*gc_interval_ms=*/0);
  NodeId counter = 0, other = 0;
  {
    auto setup = db->Begin();
    counter = *setup->CreateNode({"C"}, {{"count", PropertyValue(int64_t{0})}});
    other = *setup->CreateNode({"C"});
    ASSERT_TRUE(setup->Commit().ok());
  }
  Engine& engine = db->engine();
  // Wait-die lets the older transaction wait for the younger one.
  auto writer = db->Begin(IsolationLevel::kSnapshotIsolation);
  auto holder = db->Begin(IsolationLevel::kSnapshotIsolation);
  // Creating an edge locks its endpoints without writing them, so the
  // counter stays a one-version (evictable) chain while its lock is held.
  ASSERT_TRUE(holder->CreateRelationship(counter, other, "R").ok());

  Status written;
  std::thread blocked([&] {
    written =
        writer->SetNodeProperty(counter, "count", PropertyValue(int64_t{1}));
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (engine.lock_manager.Stats().waiting == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_EQ(engine.lock_manager.Stats().waiting, 1u);

  ASSERT_GT(engine.cache->EvictIfNeeded(), 0u);
  EXPECT_EQ(engine.cache->PeekNode(counter), nullptr);
  EXPECT_EQ(CountOf(*db, counter), 0);  // Reloads the counter.
  ASSERT_TRUE(holder->Abort().ok());
  blocked.join();
  ASSERT_TRUE(written.ok()) << written;
  ASSERT_TRUE(writer->Commit().ok());

  EXPECT_EQ(CountOf(*db, counter), 1) << "the committed increment was lost";
}

// Stress form of the same race: SI writers increment hot counters while
// readers churn a tiny cache through other nodes and the GC daemon evicts
// and drains every millisecond. A locker holds pairs of counter locks
// without writing them (an edge it then aborts), which widens the window
// between a writer's lock wait and its install. Every committed increment
// must survive.
TEST(ObjectCacheEviction, HotCountersLoseNoCommittedIncrement) {
  auto db = OpenDb(/*cache_capacity=*/8, /*gc_interval_ms=*/1);
  constexpr int kCounters = 32;
  constexpr int kOthers = 4000;
  std::vector<NodeId> counters, others;
  {
    auto setup = db->Begin();
    for (int i = 0; i < kCounters; ++i) {
      counters.push_back(
          *setup->CreateNode({"C"}, {{"count", PropertyValue(int64_t{0})}}));
    }
    for (int i = 0; i < kOthers; ++i) {
      others.push_back(
          *setup->CreateNode({"O"}, {{"v", PropertyValue(int64_t{i})}}));
    }
    ASSERT_TRUE(setup->Commit().ok());
  }

  std::atomic<bool> stop{false};
  std::vector<std::vector<int64_t>> committed(
      4, std::vector<int64_t>(kCounters, 0));
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&, w] {
      Random rng(1000 + w);
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t i = rng.Uniform(kCounters);
        auto txn = db->Begin(IsolationLevel::kSnapshotIsolation);
        auto count = txn->GetNodeProperty(counters[i], "count");
        if (!count.ok()) continue;
        // Cache misses between the read and the write: the transaction ages
        // while the cache churns.
        for (int k = 0; k < 4; ++k) {
          (void)txn->GetNodeProperty(others[rng.Uniform(kOthers)], "v");
        }
        if (!txn->SetNodeProperty(counters[i], "count",
                                  PropertyValue(count->AsInt() + 1))
                 .ok()) {
          continue;
        }
        if (txn->Commit().ok()) ++committed[w][i];
      }
    });
  }
  threads.emplace_back([&] {
    Random rng(1500);
    while (!stop.load(std::memory_order_relaxed)) {
      auto txn = db->Begin(IsolationLevel::kSnapshotIsolation);
      if (txn->CreateRelationship(counters[rng.Uniform(kCounters)],
                                  counters[rng.Uniform(kCounters)], "HOLD")
              .ok()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      (void)txn->Abort();
    }
  });
  std::atomic<int> bad_reads{0};
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      Random rng(2000 + r);
      while (!stop.load(std::memory_order_relaxed)) {
        auto txn = db->Begin(IsolationLevel::kSnapshotIsolation);
        const size_t i = rng.Uniform(kOthers);
        auto v = txn->GetNodeProperty(others[i], "v");
        if (!v.ok() || v->AsInt() != static_cast<int64_t>(i)) {
          bad_reads.fetch_add(1);
        }
        // Reloads counters that eviction dropped.
        if (!txn->GetNodeProperty(counters[rng.Uniform(kCounters)], "count")
                 .ok()) {
          bad_reads.fetch_add(1);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  stop.store(true);
  for (auto& t : threads) t.join();

  EXPECT_EQ(bad_reads.load(), 0);
  int64_t total = 0;
  for (int i = 0; i < kCounters; ++i) {
    int64_t expected = 0;
    for (int w = 0; w < 4; ++w) expected += committed[w][i];
    total += expected;
    EXPECT_EQ(CountOf(*db, counters[i]), expected) << "counter " << i;
  }
  EXPECT_GT(total, 0);
  EXPECT_GT(db->Stats().cache.evictions, 0u);
}

// Borrowed reads under churn: cache hits hand back raw entries while the GC
// daemon evicts and drains at capacity 8. A reader that used an entry after
// its retirement was freed would read garbage here, and ASan reports it
// deterministically.
TEST(ObjectCacheEviction, BorrowedReadsSurviveEvictionAndDrains) {
  auto db = OpenDb(/*cache_capacity=*/8, /*gc_interval_ms=*/1);
  constexpr int kPeople = 64;
  std::vector<NodeId> people;
  std::map<RelId, int64_t> since;
  {
    auto setup = db->Begin();
    for (int i = 0; i < kPeople; ++i) {
      people.push_back(
          *setup->CreateNode({"P"}, {{"n", PropertyValue(int64_t{i})}}));
    }
    for (int i = 0; i < kPeople; ++i) {
      const int64_t year = 2000 + i;
      auto rel = setup->CreateRelationship(people[i],
                                           people[(i + 1) % kPeople], "K",
                                           {{"since", PropertyValue(year)}});
      ASSERT_TRUE(rel.ok());
      since[*rel] = year;
    }
    ASSERT_TRUE(setup->Commit().ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Random rng(3000 + r);
      while (!stop.load(std::memory_order_relaxed)) {
        auto txn = db->Begin(IsolationLevel::kSnapshotIsolation);
        auto rels = txn->GetRelationships(people[rng.Uniform(kPeople)]);
        if (!rels.ok() || rels->size() != 2) {
          bad.fetch_add(1);
          continue;
        }
        for (RelId rel : *rels) {
          auto year = txn->GetRelProperty(rel, "since");
          if (!year.ok() || year->AsInt() != since.at(rel)) bad.fetch_add(1);
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(bad.load(), 0);
  EXPECT_GT(reads.load(), 0u);
  const DatabaseStats stats = db->Stats();
  EXPECT_GT(stats.cache.evictions, 0u);
  EXPECT_GT(stats.cache.loads, static_cast<uint64_t>(kPeople))
      << "evicted entries were reloaded";
}

}  // namespace
}  // namespace neosi
