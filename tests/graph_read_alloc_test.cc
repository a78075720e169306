// A cached snapshot read allocates nothing: the visible version is
// borrowed under the read's epoch guard (no reference count, no copy), a
// small property set is read in place, and the token lookup reads the
// published table. A cached adjacency read allocates only its result. This
// binary replaces the global operator new with a per-thread counting one,
// so it keeps to reads whose count is exact.

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <string>

#include "graph/graph_database.h"

namespace {
// operator new calls made by this thread.
thread_local size_t t_news = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_news;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace neosi {
namespace {

TEST(ReadAllocations, CachedSnapshotReadsAllocateNothing) {
  DatabaseOptions options;
  options.in_memory = true;
  auto db = GraphDatabase::Open(options);
  ASSERT_TRUE(db.ok()) << db.status();
  NodeId id;
  {
    auto txn = (*db)->Begin();
    auto created = txn->CreateNode(
        {"Person"}, {{"name", PropertyValue("somebody")},
                     {"age", PropertyValue(int64_t{42})}});
    ASSERT_TRUE(created.ok()) << created.status();
    id = *created;
    ASSERT_TRUE(txn->Commit().ok());
  }
  const std::string age = "age";
  const std::string person = "Person";
  const std::string robot = "Robot";  // No such label.

  auto txn = (*db)->Begin(IsolationLevel::kSnapshotIsolation);
  // Warm-up: the first read loads the node into the object cache.
  ASSERT_TRUE(txn->GetNodeProperty(id, age).ok());

  const size_t before = t_news;
  auto value = txn->GetNodeProperty(id, age);
  auto labelled = txn->NodeHasLabel(id, person);
  const size_t news = t_news - before;

  ASSERT_TRUE(value.ok()) << value.status();
  EXPECT_EQ(value->AsInt(), 42);
  ASSERT_TRUE(labelled.ok()) << labelled.status();
  EXPECT_TRUE(*labelled);
  EXPECT_EQ(news, 0u) << "a cached SI read called operator new";

  // The check above must be able to fail: a read that builds an error
  // message allocates.
  const size_t before_miss = t_news;
  EXPECT_TRUE(txn->GetNodeProperty(id, robot).status().IsNotFound());
  EXPECT_GT(t_news, before_miss);
  ASSERT_TRUE(txn->Commit().ok());
}

// A cached adjacency read allocates its result once: the walk reserves the
// list's size up front and resolves the relationships without a copy.
TEST(ReadAllocations, CachedAdjacencyReadAllocatesOnlyItsResult) {
  DatabaseOptions options;
  options.in_memory = true;
  auto db = GraphDatabase::Open(options);
  ASSERT_TRUE(db.ok()) << db.status();
  NodeId hub;
  {
    auto txn = (*db)->Begin();
    hub = *txn->CreateNode({});
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(txn->CreateRelationship(hub, *txn->CreateNode({}), "KNOWS")
                      .ok());
    }
    ASSERT_TRUE(txn->Commit().ok());
  }

  auto txn = (*db)->Begin(IsolationLevel::kSnapshotIsolation);
  // Warm-up: loads the node, fills its list and loads every relationship.
  ASSERT_EQ(txn->GetRelationships(hub)->size(), 6u);

  const size_t before = t_news;
  auto rels = txn->GetRelationships(hub);
  const size_t news = t_news - before;

  ASSERT_TRUE(rels.ok()) << rels.status();
  EXPECT_EQ(rels->size(), 6u);
  EXPECT_EQ(news, 1u) << "a cached SI adjacency read of 6 relationships";
  ASSERT_TRUE(txn->Commit().ok());
}

}  // namespace
}  // namespace neosi
