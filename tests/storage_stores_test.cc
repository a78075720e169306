// DynamicStore, PropertyStore and TokenStore behaviour.

#include <gtest/gtest.h>

#include "common/coding.h"
#include "storage/dynamic_store.h"
#include "storage/property_store.h"
#include "storage/token_store.h"

namespace neosi {
namespace {

TEST(DynamicStore, SmallBlobSingleBlock) {
  DynamicStore store(std::make_unique<InMemoryFile>());
  ASSERT_TRUE(store.Open().ok());
  auto head = store.WriteBlob(Slice("hello"));
  ASSERT_TRUE(head.ok());
  std::string out;
  ASSERT_TRUE(store.ReadBlob(*head, &out).ok());
  EXPECT_EQ(out, "hello");
}

TEST(DynamicStore, EmptyBlob) {
  DynamicStore store(std::make_unique<InMemoryFile>());
  ASSERT_TRUE(store.Open().ok());
  auto head = store.WriteBlob(Slice(""));
  ASSERT_TRUE(head.ok());
  std::string out = "junk";
  ASSERT_TRUE(store.ReadBlob(*head, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(DynamicStore, LargeBlobChains) {
  DynamicStore store(std::make_unique<InMemoryFile>());
  ASSERT_TRUE(store.Open().ok());
  std::string blob;
  for (int i = 0; i < 5000; ++i) blob.push_back(static_cast<char>(i * 31));
  auto head = store.WriteBlob(Slice(blob));
  ASSERT_TRUE(head.ok());
  std::string out;
  ASSERT_TRUE(store.ReadBlob(*head, &out).ok());
  EXPECT_EQ(out, blob);
  // Blocks used: ceil(5000/54) = 93.
  EXPECT_GE(store.Stats().high_id, 93u);
}

TEST(DynamicStore, FreeReturnsAllBlocks) {
  DynamicStore store(std::make_unique<InMemoryFile>());
  ASSERT_TRUE(store.Open().ok());
  auto head = store.WriteBlob(Slice(std::string(500, 'x')));
  ASSERT_TRUE(head.ok());
  const uint64_t used = store.Stats().high_id - store.Stats().free_records;
  ASSERT_TRUE(store.FreeBlob(*head).ok());
  EXPECT_EQ(store.Stats().free_records, used);
  std::string out;
  EXPECT_FALSE(store.ReadBlob(*head, &out).ok());
}

PropertyStore MakePropStore() {
  return PropertyStore(std::make_unique<InMemoryFile>(),
                       std::make_unique<InMemoryFile>());
}

TEST(PropertyStore, EmptyChain) {
  auto store = MakePropStore();
  ASSERT_TRUE(store.Open().ok());
  auto head = store.WriteChain({});
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(*head, kInvalidPropId);
  PropertyMap out;
  ASSERT_TRUE(store.ReadChain(kInvalidPropId, &out).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(store.FreeChain(kInvalidPropId).ok());
}

TEST(PropertyStore, MixedValuesRoundTrip) {
  auto store = MakePropStore();
  ASSERT_TRUE(store.Open().ok());
  PropertyMap props;
  props[1] = PropertyValue(int64_t{42});
  props[2] = PropertyValue("short");
  props[3] = PropertyValue(std::string(300, 'q'));  // Spills to dynamic.
  props[4] = PropertyValue(true);
  props[5] = PropertyValue(2.75);
  props[6] = PropertyValue();
  auto head = store.WriteChain(props);
  ASSERT_TRUE(head.ok());
  PropertyMap out;
  ASSERT_TRUE(store.ReadChain(*head, &out).ok());
  EXPECT_EQ(out, props);
}

TEST(PropertyStore, FreeChainReleasesOverflow) {
  auto store = MakePropStore();
  ASSERT_TRUE(store.Open().ok());
  PropertyMap props;
  props[1] = PropertyValue(std::string(500, 'x'));
  auto head = store.WriteChain(props);
  ASSERT_TRUE(head.ok());
  EXPECT_GT(store.DynStats().high_id, 0u);
  ASSERT_TRUE(store.FreeChain(*head).ok());
  EXPECT_EQ(store.PropStats().free_records, store.PropStats().high_id);
  EXPECT_EQ(store.DynStats().free_records, store.DynStats().high_id);
}

// The token-only WAL append GetOrCreate makes before publishing an id; these
// tests exercise the store alone, so there is nothing to log.
Status NoLog(uint32_t) { return Status::OK(); }

TEST(TokenStore, GetOrCreateInternsNames) {
  TokenStore store(std::make_unique<InMemoryFile>(), "tokens");
  ASSERT_TRUE(store.Open().ok());
  auto a = store.GetOrCreate("Person", 10, NoLog);
  auto b = store.GetOrCreate("Robot", 20, NoLog);
  auto a2 = store.GetOrCreate("Person", 30, NoLog);
  ASSERT_TRUE(a.ok() && b.ok() && a2.ok());
  EXPECT_EQ(*a, *a2);  // Interned; creation ts unchanged.
  EXPECT_NE(*a, *b);
  EXPECT_EQ(*store.CreatedTs(*a), 10u);
  EXPECT_EQ(*store.NameOf(*b), "Robot");
  EXPECT_EQ(store.size(), 2u);
}

TEST(TokenStore, SnapshotVisibility) {
  TokenStore store(std::make_unique<InMemoryFile>(), "tokens");
  ASSERT_TRUE(store.Open().ok());
  auto id = store.GetOrCreate("Late", 100, NoLog);
  ASSERT_TRUE(id.ok());
  // §4: reader with an older snapshot discards the token.
  EXPECT_TRUE(store.Lookup("Late", 99).status().IsNotFound());
  EXPECT_TRUE(store.Lookup("Late", 100).ok());
  EXPECT_TRUE(store.Lookup("Late").ok());
  EXPECT_FALSE(store.VisibleAt(*id, 50));
  EXPECT_TRUE(store.VisibleAt(*id, 200));
  EXPECT_EQ(store.VisibleTokens(99).size(), 0u);
  EXPECT_EQ(store.VisibleTokens(100).size(), 1u);
}

TEST(TokenStore, RejectsBadNames) {
  TokenStore store(std::make_unique<InMemoryFile>(), "tokens");
  ASSERT_TRUE(store.Open().ok());
  EXPECT_TRUE(store.GetOrCreate("", 1, NoLog).status().IsInvalidArgument());
  EXPECT_TRUE(store.GetOrCreate(std::string(100, 'x'), 1, NoLog)
                  .status()
                  .IsInvalidArgument());
  // Max-length name is fine.
  EXPECT_TRUE(store.GetOrCreate(std::string(54, 'x'), 1, NoLog).ok());
}

TEST(TokenStore, PersistsAcrossReopen) {
  auto file = std::make_unique<InMemoryFile>();
  InMemoryFile* raw = file.get();
  uint32_t person_id;
  std::string bytes;
  {
    TokenStore store(std::move(file), "tokens");
    ASSERT_TRUE(store.Open().ok());
    person_id = *store.GetOrCreate("Person", 7, NoLog);
    ASSERT_TRUE(store.GetOrCreate("Robot", 8, NoLog).ok());
    bytes.resize(raw->Size());
    ASSERT_TRUE(raw->ReadAt(0, bytes.size(), bytes.data()).ok());
  }
  auto file2 = std::make_unique<InMemoryFile>();
  ASSERT_TRUE(file2->WriteAt(0, bytes.data(), bytes.size()).ok());
  TokenStore reopened(std::move(file2), "tokens");
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_EQ(reopened.size(), 2u);
  EXPECT_EQ(*reopened.Lookup("Person"), person_id);
  EXPECT_EQ(*reopened.CreatedTs(person_id), 7u);
}

TEST(TokenStore, UnknownLookupsFail) {
  TokenStore store(std::make_unique<InMemoryFile>(), "tokens");
  ASSERT_TRUE(store.Open().ok());
  EXPECT_TRUE(store.Lookup("nope").status().IsNotFound());
  EXPECT_TRUE(store.NameOf(42).status().IsNotFound());
  EXPECT_TRUE(store.CreatedTs(42).status().IsNotFound());
}

}  // namespace
}  // namespace neosi
