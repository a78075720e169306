// Cursor-style iterator API, and the cached relationship list behind
// GetRelationships: after every kind of store chain edit a fresh snapshot
// reads exactly the store chain; the list is resolved in batched windows
// whatever mix of entries it holds, and a relationship that fails to load
// fails the read (the sanitizer jobs and the repeat-until-fail step run
// this suite).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/random.h"
#include "graph/graph_database.h"
#include "graph/iterators.h"
#include "graph/replica_applier.h"
#include "mvcc/epoch.h"
#include "sync_points.h"

namespace neosi {
namespace {

class IteratorsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.in_memory = true;
    db_ = std::move(*GraphDatabase::Open(options));
    auto txn = db_->Begin();
    for (int i = 0; i < 10; ++i) {
      people_.push_back(*txn->CreateNode(
          {"Person"}, {{"age", PropertyValue(static_cast<int64_t>(20 + i))}}));
    }
    hub_ = *txn->CreateNode({"Hub"});
    for (int i = 0; i < 5; ++i) {
      rels_.push_back(*txn->CreateRelationship(
          hub_, people_[i], "OWNS",
          {{"w", PropertyValue(static_cast<int64_t>(i))}}));
    }
    ASSERT_TRUE(txn->Commit().ok());
  }

  std::unique_ptr<GraphDatabase> db_;
  std::vector<NodeId> people_;
  std::vector<RelId> rels_;
  NodeId hub_ = kInvalidNodeId;
};

TEST_F(IteratorsTest, AllNodesIteration) {
  auto txn = db_->Begin();
  auto it = NodeIterator::All(*txn);
  EXPECT_TRUE(it.status().ok());
  size_t count = 0;
  NodeId prev = 0;
  for (; it.Valid(); it.Next()) {
    if (count > 0) {
      EXPECT_GT(it.id(), prev);
    }
    prev = it.id();
    ++count;
  }
  EXPECT_EQ(count, 11u);
  EXPECT_EQ(it.size(), 11u);
}

TEST_F(IteratorsTest, ByLabelWithViews) {
  auto txn = db_->Begin();
  auto it = NodeIterator::ByLabel(*txn, "Person");
  size_t count = 0;
  for (; it.Valid(); it.Next()) {
    auto view = it.Get();
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(view->labels, (std::vector<std::string>{"Person"}));
    EXPECT_GE(view->props.at("age").AsInt(), 20);
    ++count;
  }
  EXPECT_EQ(count, 10u);
}

TEST_F(IteratorsTest, ByPropertyAndRange) {
  auto txn = db_->Begin();
  auto exact =
      NodeIterator::ByProperty(*txn, "age", PropertyValue(int64_t{25}));
  EXPECT_EQ(exact.size(), 1u);
  auto range = NodeIterator::ByPropertyRange(
      *txn, "age", PropertyValue(int64_t{22}), PropertyValue(int64_t{26}));
  EXPECT_EQ(range.size(), 5u);
  auto none =
      NodeIterator::ByProperty(*txn, "nope", PropertyValue(int64_t{0}));
  EXPECT_TRUE(none.status().ok());
  EXPECT_FALSE(none.Valid());
}

TEST_F(IteratorsTest, RelationshipsOfNode) {
  auto txn = db_->Begin();
  auto it = RelationshipIterator::Of(*txn, hub_, Direction::kOutgoing);
  size_t count = 0;
  for (; it.Valid(); it.Next()) {
    auto view = it.Get();
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(view->src, hub_);
    EXPECT_EQ(view->type, "OWNS");
    ++count;
  }
  EXPECT_EQ(count, 5u);
  auto typed = RelationshipIterator::Of(*txn, hub_, Direction::kBoth,
                                        std::string("MISSING"));
  EXPECT_FALSE(typed.Valid());
}

TEST_F(IteratorsTest, RelationshipsByProperty) {
  auto txn = db_->Begin();
  auto it =
      RelationshipIterator::ByProperty(*txn, "w", PropertyValue(int64_t{3}));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.id(), rels_[3]);
  it.Next();
  EXPECT_FALSE(it.Valid());
}

TEST_F(IteratorsTest, IteratorHonoursSnapshot) {
  auto reader = db_->Begin(IsolationLevel::kSnapshotIsolation);
  // Pin the snapshot, then commit a new Person.
  EXPECT_EQ(NodeIterator::ByLabel(*reader, "Person").size(), 10u);
  {
    auto writer = db_->Begin();
    ASSERT_TRUE(writer->CreateNode({"Person"}).ok());
    ASSERT_TRUE(writer->Commit().ok());
  }
  EXPECT_EQ(NodeIterator::ByLabel(*reader, "Person").size(), 10u);
  auto fresh = db_->Begin();
  EXPECT_EQ(NodeIterator::ByLabel(*fresh, "Person").size(), 11u);
}

TEST_F(IteratorsTest, IteratorSeesOwnWrites) {
  auto txn = db_->Begin();
  ASSERT_TRUE(txn->CreateNode({"Person"}).ok());
  EXPECT_EQ(NodeIterator::ByLabel(*txn, "Person").size(), 11u);
}

TEST_F(IteratorsTest, InvalidAfterExhaustion) {
  auto txn = db_->Begin();
  auto it = NodeIterator::ByLabel(*txn, "Hub");
  ASSERT_TRUE(it.Valid());
  it.Next();
  EXPECT_FALSE(it.Valid());
}

// --- The cached relationship list ------------------------------------------

std::vector<RelId> Sorted(std::vector<RelId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// The node's physical relationship chain, sorted.
std::vector<RelId> StoreChain(GraphDatabase& db, NodeId node) {
  std::vector<RelId> chain;
  EXPECT_TRUE(db.engine().store.RelChainOf(node, &chain).ok());
  return Sorted(chain);
}

/// Checks `node` with no tombstone left in its chain: a fresh snapshot's
/// GetRelationships and the node's cached list both equal the store chain.
void ExpectAdjacencyMatchesStore(GraphDatabase& db, NodeId node) {
  const std::vector<RelId> chain = StoreChain(db, node);
  auto txn = db.Begin();
  auto rels = txn->GetRelationships(node);
  ASSERT_TRUE(rels.ok()) << rels.status();
  EXPECT_EQ(Sorted(*rels), chain) << "node " << node;

  EpochManager::Guard guard(&db.engine().epochs);
  const CachedNode* cached = db.engine().cache->PeekNode(node);
  ASSERT_NE(cached, nullptr);
  const RelIdList* list = cached->rel_list.load(std::memory_order_acquire);
  ASSERT_NE(list, nullptr) << "GetRelationships left no list";
  EXPECT_EQ(Sorted(std::vector<RelId>(list->begin(), list->end())), chain);
}

/// Fills both endpoints' lists, so the edit under test must drop them.
void FillLists(GraphDatabase& db, std::initializer_list<NodeId> nodes) {
  auto txn = db.Begin();
  for (NodeId node : nodes) ASSERT_TRUE(txn->GetRelationships(node).ok());
}

/// A hub with `spokes` outgoing relationships; no GC daemon, so purges run
/// only when a test calls RunGc.
struct Star {
  std::unique_ptr<GraphDatabase> db;
  NodeId hub = kInvalidNodeId;
  std::vector<NodeId> spokes;
  std::vector<RelId> rels;
};

Star OpenStar(int spokes) {
  DatabaseOptions options;
  options.in_memory = true;
  options.background_gc_interval_ms = 0;
  Star star;
  star.db = std::move(*GraphDatabase::Open(options));
  auto txn = star.db->Begin();
  star.hub = *txn->CreateNode({"Hub"});
  for (int i = 0; i < spokes; ++i) {
    star.spokes.push_back(*txn->CreateNode({}));
    star.rels.push_back(
        *txn->CreateRelationship(star.hub, star.spokes.back(), "OWNS"));
  }
  EXPECT_TRUE(txn->Commit().ok());
  return star;
}

TEST(RelListEditPaths, CommittedCreateDropsBothEndpointLists) {
  Star star = OpenStar(5);
  FillLists(*star.db, {star.hub, star.spokes[4]});
  {
    auto txn = star.db->Begin();
    ASSERT_TRUE(
        txn->CreateRelationship(star.spokes[4], star.hub, "OWNS").ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  ExpectAdjacencyMatchesStore(*star.db, star.hub);
  ExpectAdjacencyMatchesStore(*star.db, star.spokes[4]);
  EXPECT_EQ(StoreChain(*star.db, star.hub).size(), 6u);
}

TEST(RelListEditPaths, PurgedDeleteDropsBothEndpointLists) {
  Star star = OpenStar(5);
  {
    auto txn = star.db->Begin();
    ASSERT_TRUE(txn->DeleteRelationship(star.rels[2]).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  // The tombstone still sits in the chain: the list keeps it, visibility
  // filters it.
  FillLists(*star.db, {star.hub, star.spokes[2]});
  EXPECT_EQ(star.db->Begin()->GetRelationships(star.hub)->size(), 4u);
  ASSERT_GE(star.db->RunGc().tombstones_purged, 1u);
  ExpectAdjacencyMatchesStore(*star.db, star.hub);
  ExpectAdjacencyMatchesStore(*star.db, star.spokes[2]);
  EXPECT_EQ(StoreChain(*star.db, star.hub).size(), 4u);
  EXPECT_TRUE(StoreChain(*star.db, star.spokes[2]).empty());
}

TEST(RelListEditPaths, ReplicaAppliesShippedCreateAndPurge) {
  DatabaseOptions primary_options;
  primary_options.in_memory = true;
  primary_options.background_gc_interval_ms = 0;
  auto primary = std::move(*GraphDatabase::Open(primary_options));
  DatabaseOptions replica_options;
  replica_options.in_memory = true;
  replica_options.replica_of = primary->engine().store.dir();
  replica_options.replica_poll_interval_ms = 0;  // Driven by RunOnce.
  replica_options.background_gc_interval_ms = 0;
  auto replica = std::move(*GraphDatabase::Open(replica_options));

  NodeId a, b;
  RelId first;
  {
    auto txn = primary->Begin();
    a = *txn->CreateNode({});
    b = *txn->CreateNode({});
    first = *txn->CreateRelationship(a, b, "KNOWS");
    ASSERT_TRUE(txn->Commit().ok());
  }
  ASSERT_TRUE(replica->replica_applier()->RunOnce().ok());
  FillLists(*replica, {a, b});

  // Shipped create.
  {
    auto txn = primary->Begin();
    ASSERT_TRUE(txn->CreateRelationship(b, a, "KNOWS").ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  ASSERT_TRUE(replica->replica_applier()->RunOnce().ok());
  ExpectAdjacencyMatchesStore(*replica, a);
  ExpectAdjacencyMatchesStore(*replica, b);
  EXPECT_EQ(StoreChain(*replica, a).size(), 2u);

  // Shipped delete, then shipped purge.
  {
    auto txn = primary->Begin();
    ASSERT_TRUE(txn->DeleteRelationship(first).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  ASSERT_TRUE(replica->replica_applier()->RunOnce().ok());
  FillLists(*replica, {a, b});
  ASSERT_GE(primary->RunGc().tombstones_purged, 1u);
  ASSERT_TRUE(replica->replica_applier()->RunOnce().ok());
  ASSERT_GE(replica->Stats().replica_purges_applied, 1u);
  ExpectAdjacencyMatchesStore(*replica, a);
  ExpectAdjacencyMatchesStore(*replica, b);
  EXPECT_EQ(StoreChain(*replica, a).size(), 1u);
}

TEST(RelListEditPaths, RecoveryRelinkMatchesAfterReopen) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("neosi_rel_list_recovery_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  DatabaseOptions options;
  options.in_memory = false;
  options.path = dir.string();
  options.checkpoint_interval_ms = 0;  // Reopen replays every commit.
  NodeId a, b;
  {
    auto db = std::move(*GraphDatabase::Open(options));
    auto txn = db->Begin();
    a = *txn->CreateNode({});
    b = *txn->CreateNode({});
    ASSERT_TRUE(txn->CreateRelationship(a, b, "KNOWS").ok());
    ASSERT_TRUE(txn->CreateRelationship(b, a, "KNOWS").ok());
    ASSERT_TRUE(txn->Commit().ok());
    FillLists(*db, {a, b});
  }
  {
    // Replaying the creates finds their records present and runs the link
    // repair (EnsureRelLinked) on each.
    auto db = std::move(*GraphDatabase::Open(options));
    ExpectAdjacencyMatchesStore(*db, a);
    ExpectAdjacencyMatchesStore(*db, b);
    EXPECT_EQ(StoreChain(*db, a).size(), 2u);
    // A repair of an intact link edits nothing.
    for (RelId rel : StoreChain(*db, a)) {
      ASSERT_TRUE(db->engine().store.EnsureRelLinked(rel).ok());
    }
    ExpectAdjacencyMatchesStore(*db, a);
  }
  std::filesystem::remove_all(dir);
}

// Writers create relationships on 16 hubs and delete them again, keeping a
// `degree` property on the hub in step in the same transaction; the GC
// daemon purges the deletes and, at capacity 8, evicts entries with their
// lists. Every reader snapshot must count exactly `degree` relationships.
TEST(RelListStress, SnapshotDegreeMatchesAdjacencyUnderChurnAndEviction) {
  DatabaseOptions options;
  options.in_memory = true;
  options.object_cache_capacity = 8;
  options.background_gc_interval_ms = 1;
  auto db = std::move(*GraphDatabase::Open(options));

  constexpr int kHubs = 16;
  constexpr int kLeaves = 32;
  std::vector<NodeId> hubs, leaves;
  {
    auto txn = db->Begin();
    for (int i = 0; i < kHubs; ++i) {
      hubs.push_back(
          *txn->CreateNode({"Hub"}, {{"degree", PropertyValue(int64_t{0})}}));
    }
    for (int i = 0; i < kLeaves; ++i) leaves.push_back(*txn->CreateNode({}));
    ASSERT_TRUE(txn->Commit().ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> commits{0}, reads{0}, mismatches{0}, errors{0};

  auto writer = [&](uint64_t seed) {
    Random rng(seed);
    while (!stop.load(std::memory_order_relaxed)) {
      const NodeId hub = hubs[rng.Uniform(kHubs)];
      auto txn = db->Begin();
      auto degree = txn->GetNodeProperty(hub, "degree");
      auto rels = txn->GetRelationships(hub);
      Status s = degree.ok() ? rels.status() : degree.status();
      if (s.ok()) {
        int64_t next = degree->AsInt();
        if (rels->empty() || rng.Uniform(3) != 0) {
          s = txn->CreateRelationship(hub, leaves[rng.Uniform(kLeaves)],
                                      "LINK")
                  .status();
          ++next;
        } else {
          s = txn->DeleteRelationship((*rels)[rng.Uniform(rels->size())]);
          --next;
        }
        if (s.ok()) {
          s = txn->SetNodeProperty(hub, "degree", PropertyValue(next));
        }
      }
      if (s.ok()) s = txn->Commit();
      if (s.ok()) {
        commits.fetch_add(1, std::memory_order_relaxed);
      } else if (!s.IsRetryable()) {
        errors.fetch_add(1, std::memory_order_relaxed);
        ADD_FAILURE() << s;
      }
    }
  };
  auto reader = [&](uint64_t seed) {
    Random rng(seed);
    while (!stop.load(std::memory_order_relaxed)) {
      auto txn = db->Begin();
      for (int i = 0; i < 4; ++i) {
        const NodeId hub = hubs[rng.Uniform(kHubs)];
        auto degree = txn->GetNodeProperty(hub, "degree");
        auto rels = txn->GetRelationships(hub);
        if (!degree.ok() || !rels.ok()) {
          Status s = degree.ok() ? rels.status() : degree.status();
          if (!s.IsRetryable()) {
            errors.fetch_add(1, std::memory_order_relaxed);
            ADD_FAILURE() << s;
          }
          break;
        }
        reads.fetch_add(1, std::memory_order_relaxed);
        if (static_cast<int64_t>(rels->size()) != degree->AsInt()) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  };

  std::vector<std::thread> threads;
  threads.emplace_back(writer, 1);
  threads.emplace_back(writer, 2);
  threads.emplace_back(reader, 3);
  threads.emplace_back(reader, 4);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(1500);
  while (std::chrono::steady_clock::now() < deadline &&
         (commits.load() < 20000 || reads.load() < 20000)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true);
  for (auto& t : threads) t.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_GT(commits.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  const ObjectCacheStats stats = db->Stats().cache;
  EXPECT_GT(stats.rel_list_drops, 0u);
  EXPECT_GT(stats.evictions, 0u);
  // Quiesced: every hub's adjacency is its degree and its store chain.
  db->RunGc();
  auto txn = db->Begin();
  for (NodeId hub : hubs) {
    EXPECT_EQ(static_cast<int64_t>(txn->GetRelationships(hub)->size()),
              txn->GetNodeProperty(hub, "degree")->AsInt());
  }
}

// --- The batched walk ------------------------------------------------------

/// A relationship as the model of the batch tests sees it.
struct ModelRel {
  RelId id;
  NodeId src;
  NodeId dst;
  std::string type;
};

/// Opens a database that evicts and purges only when a test asks: no GC
/// daemon, and a capacity of one, so EvictIfNeeded unpublishes every clean
/// single-version entry.
std::unique_ptr<GraphDatabase> OpenEvictable() {
  DatabaseOptions options;
  options.in_memory = true;
  options.background_gc_interval_ms = 0;
  options.object_cache_capacity = 1;
  return std::move(*GraphDatabase::Open(options));
}

bool Resident(GraphDatabase& db, RelId id) {
  EpochManager::Guard guard(&db.engine().epochs);
  return db.engine().cache->PeekRel(id) != nullptr;
}

// A 42-entry list crosses three windows and holds every kind of entry the
// walk must tell apart: resident and evicted relationships, multi-version
// ones, a committed tombstone, the reader's own delete, a relationship
// committed after the reader's snapshot, and an id recycled to a
// relationship elsewhere. The reader's own creation joins from the
// transaction's side. Every direction and type filter must give the model's
// answer, for GetRelationships, GetNeighbors and Degree alike.
TEST(AdjacencyBatch, MixedListAcrossWindowsMatchesTheModel) {
  auto db = OpenEvictable();
  NodeId hub;
  std::vector<ModelRel> model;
  RelId recycled;
  {
    auto txn = db->Begin();
    hub = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{0})}});
    for (int i = 0; i < 40; ++i) {
      const NodeId other = *txn->CreateNode({});
      const std::string type = i % 2 == 0 ? "A" : "B";
      const bool in = i % 3 == 0;
      const NodeId src = in ? other : hub;
      const NodeId dst = in ? hub : other;
      model.push_back({*txn->CreateRelationship(src, dst, type), src, dst,
                       type});
    }
    model.push_back({*txn->CreateRelationship(hub, hub, "B"), hub, hub, "B"});
    recycled = *txn->CreateRelationship(hub, *txn->CreateNode({}), "A");
    ASSERT_TRUE(txn->Commit().ok());
  }
  // Purge `recycled`, then hand its id to a relationship elsewhere.
  {
    auto txn = db->Begin();
    ASSERT_TRUE(txn->DeleteRelationship(recycled).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  ASSERT_GE(db->RunGc().tombstones_purged, 1u);
  {
    auto txn = db->Begin();
    const NodeId a = *txn->CreateNode({});
    const NodeId b = *txn->CreateNode({});
    ASSERT_EQ(*txn->CreateRelationship(a, b, "A"), recycled);
    ASSERT_TRUE(txn->Commit().ok());
  }
  // A committed tombstone, and two relationships (and the hub) pinned by a
  // second version: nothing purges from here on.
  {
    auto txn = db->Begin();
    ASSERT_TRUE(txn->DeleteRelationship(model[5].id).ok());
    for (size_t i : {7u, 20u}) {
      ASSERT_TRUE(
          txn->SetRelProperty(model[i].id, "w", PropertyValue(int64_t{1}))
              .ok());
    }
    ASSERT_TRUE(txn->SetNodeProperty(hub, "v", PropertyValue(int64_t{1})).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  model.erase(model.begin() + 5);

  auto reader = db->Begin();
  // Committed after the reader's snapshot: in the list, invisible to it.
  RelId late;
  {
    auto txn = db->Begin();
    late = *txn->CreateRelationship(hub, *txn->CreateNode({}), "A");
    ASSERT_TRUE(txn->Commit().ok());
  }

  // Fill the hub's list, then make it an older list that still names the
  // recycled id (as an entry evicted before the purge would keep it).
  ASSERT_TRUE(db->Begin()->GetRelationships(hub).ok());
  {
    EpochManager::Guard guard(&db->engine().epochs);
    CachedNode* cached = db->engine().cache->PeekNode(hub);
    ASSERT_NE(cached, nullptr);
    const RelIdList* list = cached->rel_list.load(std::memory_order_acquire);
    ASSERT_NE(list, nullptr);
    std::vector<RelId> ids(list->begin(), list->end());
    ASSERT_EQ(std::count(ids.begin(), ids.end(), late), 1);
    ids.insert(ids.begin() + 17, recycled);
    RelIdList* old = cached->rel_list.exchange(
        RelIdList::Copy(ids).release(), std::memory_order_acq_rel);
    db->engine().epochs.Retire(std::unique_ptr<RelIdList>(old));
  }

  // Evict every clean entry, then reload every third relationship.
  db->engine().cache->EvictIfNeeded();
  {
    auto txn = db->Begin();
    for (size_t i = 0; i < model.size(); i += 3) {
      ASSERT_TRUE(txn->GetRelationship(model[i].id).ok());
    }
  }
  size_t resident = 0;
  for (const ModelRel& rel : model) resident += Resident(*db, rel.id);
  ASSERT_GT(resident, 0u);
  ASSERT_LT(resident, model.size());
  ASSERT_FALSE(Resident(*db, late));
  ASSERT_FALSE(Resident(*db, recycled));

  // The reader deletes one relationship and creates one of its own.
  ASSERT_TRUE(reader->DeleteRelationship(model[9].id).ok());
  model.erase(model.begin() + 9);
  const NodeId mine_dst = *reader->CreateNode({});
  model.push_back(
      {*reader->CreateRelationship(hub, mine_dst, "B"), hub, mine_dst, "B"});
  {
    // The walk below reads the altered list, in three windows.
    EpochManager::Guard guard(&db->engine().epochs);
    const RelIdList* list =
        db->engine().cache->PeekNode(hub)->rel_list.load(
            std::memory_order_acquire);
    ASSERT_NE(list, nullptr);
    ASSERT_EQ(std::count(list->begin(), list->end(), recycled), 1);
    ASSERT_GT(list->size(), 2 * ObjectCache::kResolveWindow);
  }

  for (Direction direction :
       {Direction::kOutgoing, Direction::kIncoming, Direction::kBoth}) {
    for (const std::optional<std::string>& type :
         {std::optional<std::string>(), std::optional<std::string>("A"),
          std::optional<std::string>("B"),
          std::optional<std::string>("NOPE")}) {
      std::vector<RelId> rels;
      std::vector<NodeId> neighbors;
      for (const ModelRel& rel : model) {
        const bool out = rel.src == hub;
        const bool in = rel.dst == hub;
        if (direction == Direction::kOutgoing && !out) continue;
        if (direction == Direction::kIncoming && !in) continue;
        if (type.has_value() && rel.type != *type) continue;
        rels.push_back(rel.id);
        neighbors.push_back(out ? rel.dst : rel.src);
      }
      std::sort(neighbors.begin(), neighbors.end());
      SCOPED_TRACE(::testing::Message()
                   << "direction " << static_cast<int>(direction)
                   << " type " << type.value_or("(any)"));
      auto got = reader->GetRelationships(hub, direction, type);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(Sorted(*got), Sorted(rels));
      auto got_neighbors = reader->GetNeighbors(hub, direction, type);
      ASSERT_TRUE(got_neighbors.ok()) << got_neighbors.status();
      std::sort(got_neighbors->begin(), got_neighbors->end());
      EXPECT_EQ(*got_neighbors, neighbors);
      if (!type.has_value()) {
        EXPECT_EQ(*reader->Degree(hub, direction), rels.size());
      }
    }
  }
  ASSERT_TRUE(reader->Commit().ok());
}

// Write skew through an adjacency read: T1 reads the hub's relationships
// and writes y; T2 reads y and adds a relationship to the hub. The walk
// must turn T2's relationship, committed after T1's snapshot, into T1's
// conflict-out edge whether its entry is resident (writer known) or was
// evicted and reloads with only its commit timestamp.
class AdjacencyWriteSkew : public ::testing::TestWithParam<bool> {};

TEST_P(AdjacencyWriteSkew, SerializableAbortsTheSkew) {
  const bool evicted = GetParam();
  auto db = OpenEvictable();
  NodeId hub, y;
  {
    auto txn = db->Begin();
    hub = *txn->CreateNode({});
    y = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{0})}});
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          txn->CreateRelationship(hub, *txn->CreateNode({}), "E").ok());
    }
    ASSERT_TRUE(txn->Commit().ok());
  }
  auto t1 = db->Begin(IsolationLevel::kSerializable);
  auto t2 = db->Begin(IsolationLevel::kSerializable);
  ASSERT_TRUE(t2->GetNodeProperty(y, "v").ok());
  auto added = t2->CreateRelationship(hub, *t2->CreateNode({}), "E");
  ASSERT_TRUE(added.ok()) << added.status();
  ASSERT_TRUE(t2->Commit().ok());
  if (evicted) db->engine().cache->EvictIfNeeded();
  ASSERT_EQ(Resident(*db, *added), !evicted);

  Status s = t1->GetRelationships(hub).status();
  if (s.ok()) s = t1->SetNodeProperty(y, "v", PropertyValue(int64_t{1}));
  if (s.ok()) s = t1->Commit();
  EXPECT_TRUE(s.IsSerializationFailure()) << s;
}

INSTANTIATE_TEST_SUITE_P(ConflictingEntry, AdjacencyWriteSkew,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? std::string("Evicted")
                                             : std::string("Resident");
                         });

// --- Relationship load errors ------------------------------------------------

// Only a purge (NotFound) may drop a relationship from an adjacency read:
// an I/O error loading an evicted one fails the read instead of shortening
// its result.
TEST(AdjacencyErrors, EvictedRelationshipLoadErrorFailsTheRead) {
  auto db = OpenEvictable();
  NodeId hub;
  {
    auto txn = db->Begin();
    hub = *txn->CreateNode({});
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(
          txn->CreateRelationship(hub, *txn->CreateNode({}), "E").ok());
    }
    ASSERT_TRUE(txn->Commit().ok());
  }
  ASSERT_EQ(db->Begin()->GetRelationships(hub)->size(), 20u);
  db->engine().cache->EvictIfNeeded();
  {
    ArmedPoints points(db.get());
    points.Fail("cache.rel.load", /*nth=*/20);
    auto txn = db->Begin();
    EXPECT_TRUE(txn->GetRelationships(hub).status().IsIOError());
    EXPECT_TRUE(points.Fired("cache.rel.load"));
    db->engine().cache->EvictIfNeeded();
    points.Fail("cache.rel.load");
    EXPECT_TRUE(txn->GetNeighbors(hub).status().IsIOError());
    EXPECT_TRUE(txn->Degree(hub).status().IsIOError());
  }
  EXPECT_EQ(db->Begin()->GetRelationships(hub)->size(), 20u);
}

// DeleteNode's attachment check reads the latest committed state of every
// relationship in the store chain. A relationship committed after the
// deleter's snapshot is invisible to its adjacency read; if loading it
// then fails, the delete must fail rather than take it for purged and
// leave it dangling.
TEST(AdjacencyErrors, DeleteNodeFailsWhenAnAttachmentCannotLoad) {
  auto db = OpenEvictable();
  NodeId hub;
  {
    auto txn = db->Begin();
    hub = *txn->CreateNode({});
    ASSERT_TRUE(txn->Commit().ok());
  }
  auto deleter = db->Begin();
  RelId late;
  {
    auto txn = db->Begin();
    late = *txn->CreateRelationship(hub, *txn->CreateNode({}), "E");
    ASSERT_TRUE(txn->Commit().ok());
  }

  {
    ArmedPoints points(db.get());
    // Park the delete after its adjacency read, evict the relationship it
    // just loaded, and fail its reload.
    points.Park("txn.write.pre_install");
    Status deleted;
    std::thread thread([&] { deleted = deleter->DeleteNode(hub); });
    ASSERT_TRUE(points.WaitFor("txn.write.pre_install"));
    db->engine().cache->EvictIfNeeded();
    EXPECT_FALSE(Resident(*db, late));
    points.Fail("cache.rel.load");
    points.Release("txn.write.pre_install");
    thread.join();
    EXPECT_TRUE(deleted.IsIOError()) << deleted;
    EXPECT_TRUE(points.Fired("cache.rel.load"));
  }
  // The failed delete left the node as it was: committing the rest of the
  // transaction keeps both.
  ASSERT_TRUE(deleter->Commit().ok());
  auto check = db->Begin();
  EXPECT_TRUE(check->NodeExists(hub));
  EXPECT_TRUE(check->RelExists(late));
}

}  // namespace
}  // namespace neosi
