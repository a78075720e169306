// DynamicStore, PropertyStore and TokenStore behaviour, including the
// token table's latch-free lookups racing a creator.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

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

TEST(TokenStore, RestoreGrowsToSparseIdsAndRejectsClashes) {
  TokenStore store(std::make_unique<InMemoryFile>(), "tokens");
  ASSERT_TRUE(store.Open().ok());
  ASSERT_TRUE(store.Restore(3, "three", 1).ok());
  ASSERT_TRUE(store.Restore(1000, "far", 2).ok());
  EXPECT_TRUE(store.Restore(1000, "far", 2).ok());  // Replayed twice.
  EXPECT_TRUE(store.Restore(1000, "other", 2).IsCorruption());
  EXPECT_TRUE(store.Restore(4, "three", 2).IsCorruption());
  EXPECT_EQ(*store.Lookup("three"), 3u);
  EXPECT_EQ(*store.Lookup("far"), 1000u);
  EXPECT_EQ(*store.NameOf(1000), "far");
  EXPECT_TRUE(store.NameOf(999).status().IsNotFound());
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.VisibleTokens(kMaxTimestamp).size(), 2u);
}

// One creator interns 10k names (token i created at ts i + 1, so the table
// is replaced many times) while three readers look names and ids up
// without a latch. Every hit must pair the right id with the right name,
// every name published before a lookup must be found, and a name created
// after a reader's snapshot ts must stay NotFound at that ts.
TEST(TokenStore, LatchFreeLookupsRaceOneCreator) {
  constexpr uint32_t kNames = 10000;
  TokenStore store(std::make_unique<InMemoryFile>(), "tokens");
  ASSERT_TRUE(store.Open().ok());
  auto name_of = [](uint32_t i) { return "name-" + std::to_string(i); };
  std::atomic<uint32_t> published{0};  // Names 0..published-1 exist.
  std::atomic<bool> done{false};
  std::atomic<int> violations{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      uint64_t x = 0x9E3779B97F4A7C15ULL * (r + 1);
      auto next = [&x] { return x = x * 6364136223846793005ULL + 1; };
      while (!done.load(std::memory_order_acquire)) {
        // The snapshot: tokens 0..snap-1 carry created_ts <= snap.
        const uint32_t snap = published.load(std::memory_order_acquire);
        const uint32_t i = static_cast<uint32_t>(next() >> 33) % kNames;
        auto id = store.Lookup(name_of(i), snap);
        if (i < snap) {
          if (!id.ok()) {
            violations.fetch_add(1);
            continue;
          }
          auto name = store.NameOf(*id);
          auto created = store.CreatedTs(*id);
          if (!name.ok() || *name != name_of(i) || !created.ok() ||
              *created != i + 1) {
            violations.fetch_add(1);
          }
        } else if (!id.status().IsNotFound()) {
          violations.fetch_add(1);  // Created after the snapshot ts.
        }
        // An unfiltered lookup may or may not find a racing creation, but a
        // hit is always consistent.
        auto any = store.Lookup(name_of(i));
        if (any.ok() && *store.NameOf(*any) != name_of(i)) {
          violations.fetch_add(1);
        }
      }
    });
  }
  for (uint32_t i = 0; i < kNames; ++i) {
    auto id = store.GetOrCreate(name_of(i), i + 1, NoLog);
    ASSERT_TRUE(id.ok()) << id.status();
    published.store(i + 1, std::memory_order_release);
  }
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();

  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(store.size(), kNames);
  for (uint32_t i = 0; i < kNames; i += 997) {
    auto id = store.Lookup(name_of(i));
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(*store.NameOf(*id), name_of(i));
  }
}

}  // namespace
}  // namespace neosi
