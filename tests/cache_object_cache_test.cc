// ObjectCache: load-on-miss materialization, pinning of multi-version
// entities, eviction, stats.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "cache/object_cache.h"
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
    EXPECT_EQ(node->get()->chain.LatestCommitted()->data.props.at(1),
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

}  // namespace
}  // namespace neosi
