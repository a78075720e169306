// RecordStore: allocation, recycling, persistence, header validation.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/coding.h"
#include "storage/record_store.h"
#include "storage/records.h"

namespace neosi {
namespace {

constexpr uint32_t kTestMagic = 0x54455354;  // "TEST"
constexpr uint32_t kRecSize = 32;

std::unique_ptr<RecordStore> MakeStore() {
  auto store = std::make_unique<RecordStore>(
      std::make_unique<InMemoryFile>(), kRecSize, kTestMagic, "test-store");
  EXPECT_TRUE(store->Open().ok());
  return store;
}

std::string MakeRecord(char fill) {
  std::string rec(kRecSize, fill);
  rec[0] = static_cast<char>(kRecordInUse);
  return rec;
}

TEST(RecordStore, AllocateSequentialIds) {
  auto store = MakeStore();
  for (uint64_t i = 0; i < 10; ++i) {
    auto id = store->Allocate();
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(*id, i);
  }
  EXPECT_EQ(store->high_id(), 10u);
}

TEST(RecordStore, WriteReadRoundTrip) {
  auto store = MakeStore();
  const uint64_t id = *store->Allocate();
  const std::string rec = MakeRecord('x');
  ASSERT_TRUE(store->Write(id, Slice(rec)).ok());
  std::string out;
  ASSERT_TRUE(store->Read(id, &out).ok());
  EXPECT_EQ(out, rec);
  EXPECT_TRUE(store->InUse(id));
}

TEST(RecordStore, WriteWrongSizeRejected) {
  auto store = MakeStore();
  const uint64_t id = *store->Allocate();
  EXPECT_TRUE(store->Write(id, Slice("short")).IsInvalidArgument());
}

TEST(RecordStore, OutOfRangeAccessRejected) {
  auto store = MakeStore();
  std::string out;
  EXPECT_TRUE(store->Read(99, &out).IsOutOfRange());
  EXPECT_TRUE(store->Write(99, Slice(MakeRecord('x'))).IsOutOfRange());
  EXPECT_TRUE(store->Free(99).IsOutOfRange());
  EXPECT_FALSE(store->InUse(99));
}

TEST(RecordStore, FreeRecyclesIds) {
  auto store = MakeStore();
  const uint64_t a = *store->Allocate();
  const uint64_t b = *store->Allocate();
  ASSERT_TRUE(store->Write(a, Slice(MakeRecord('a'))).ok());
  ASSERT_TRUE(store->Write(b, Slice(MakeRecord('b'))).ok());
  ASSERT_TRUE(store->Free(a).ok());
  EXPECT_FALSE(store->InUse(a));
  const uint64_t c = *store->Allocate();
  EXPECT_EQ(c, a);  // Recycled.
  // Recycled record is zeroed.
  std::string out;
  ASSERT_TRUE(store->Read(c, &out).ok());
  EXPECT_EQ(out, std::string(kRecSize, '\0'));
}

TEST(RecordStore, ForEachSkipsFreeRecords) {
  auto store = MakeStore();
  for (int i = 0; i < 5; ++i) {
    const uint64_t id = *store->Allocate();
    ASSERT_TRUE(store->Write(id, Slice(MakeRecord('x'))).ok());
  }
  ASSERT_TRUE(store->Free(2).ok());
  std::vector<uint64_t> seen;
  ASSERT_TRUE(store
                  ->ForEach([&](uint64_t id, const std::string&) {
                    seen.push_back(id);
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(seen, (std::vector<uint64_t>{0, 1, 3, 4}));
}

TEST(RecordStore, ReopenRebuildsFreeListAndHighId) {
  auto file = std::make_unique<InMemoryFile>();
  InMemoryFile* raw = file.get();
  std::string bytes;
  {
    RecordStore store(std::move(file), kRecSize, kTestMagic, "test");
    ASSERT_TRUE(store.Open().ok());
    for (int i = 0; i < 6; ++i) {
      const uint64_t id = *store.Allocate();
      ASSERT_TRUE(store.Write(id, Slice(MakeRecord('x'))).ok());
    }
    ASSERT_TRUE(store.Free(1).ok());
    ASSERT_TRUE(store.Free(4).ok());
    // Snapshot the backing buffer (the store owns and destroys the file).
    bytes.resize(raw->Size());
    ASSERT_TRUE(raw->ReadAt(0, bytes.size(), bytes.data()).ok());
  }
  auto file2 = std::make_unique<InMemoryFile>();
  ASSERT_TRUE(file2->WriteAt(0, bytes.data(), bytes.size()).ok());

  RecordStore reopened(std::move(file2), kRecSize, kTestMagic, "test");
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_EQ(reopened.high_id(), 6u);
  EXPECT_EQ(reopened.Stats().free_records, 2u);
  // Freed ids are handed out again.
  auto a = *reopened.Allocate();
  auto b = *reopened.Allocate();
  EXPECT_TRUE((a == 1 && b == 4) || (a == 4 && b == 1));
}

TEST(RecordStore, BadMagicRejectedOnOpen) {
  auto file = std::make_unique<InMemoryFile>();
  InMemoryFile* raw = file.get();
  std::string bytes;
  {
    RecordStore store(std::move(file), kRecSize, kTestMagic, "test");
    ASSERT_TRUE(store.Open().ok());
    bytes.resize(raw->Size());
    ASSERT_TRUE(raw->ReadAt(0, bytes.size(), bytes.data()).ok());
  }
  auto file2 = std::make_unique<InMemoryFile>();
  ASSERT_TRUE(file2->WriteAt(0, bytes.data(), bytes.size()).ok());
  RecordStore wrong(std::move(file2), kRecSize, 0xBADBAD, "test");
  EXPECT_TRUE(wrong.Open().IsCorruption());
}

TEST(RecordStore, RecordSizeMismatchRejectedOnOpen) {
  auto file = std::make_unique<InMemoryFile>();
  InMemoryFile* raw = file.get();
  std::string bytes;
  {
    RecordStore store(std::move(file), kRecSize, kTestMagic, "test");
    ASSERT_TRUE(store.Open().ok());
    bytes.resize(raw->Size());
    ASSERT_TRUE(raw->ReadAt(0, bytes.size(), bytes.data()).ok());
  }
  auto file2 = std::make_unique<InMemoryFile>();
  ASSERT_TRUE(file2->WriteAt(0, bytes.data(), bytes.size()).ok());
  RecordStore wrong(std::move(file2), kRecSize * 2, kTestMagic, "test");
  EXPECT_TRUE(wrong.Open().IsCorruption());
}

TEST(RecordStore, EnsureAllocatedExtendsAndFillsGaps) {
  auto store = MakeStore();
  ASSERT_TRUE(store->EnsureAllocated(5).ok());
  EXPECT_EQ(store->high_id(), 6u);
  // Ids 0..4 went to the free list; 5 is reserved.
  EXPECT_EQ(store->Stats().free_records, 5u);
  ASSERT_TRUE(store->Write(5, Slice(MakeRecord('x'))).ok());
  // EnsureAllocated of an id on the free list pulls it off.
  ASSERT_TRUE(store->EnsureAllocated(3).ok());
  for (int i = 0; i < 4; ++i) {
    auto id = store->Allocate();
    ASSERT_TRUE(id.ok());
    EXPECT_NE(*id, 3u);
    EXPECT_NE(*id, 5u);
  }
}

TEST(RecordStore, WriteField64TargetsExactBytes) {
  auto store = MakeStore();
  const uint64_t id = *store->Allocate();
  ASSERT_TRUE(store->Write(id, Slice(MakeRecord('a'))).ok());
  ASSERT_TRUE(store->WriteField64(id, 8, 0x1122334455667788ULL).ok());
  std::string out;
  ASSERT_TRUE(store->Read(id, &out).ok());
  // Bytes outside [8, 16) untouched.
  EXPECT_EQ(out[7], 'a');
  EXPECT_EQ(out[16], 'a');
  uint64_t v;
  memcpy(&v, out.data() + 8, 8);
  EXPECT_EQ(v, 0x1122334455667788ULL);
  // Out-of-record offset rejected.
  EXPECT_TRUE(store->WriteField64(id, kRecSize - 4, 1).IsInvalidArgument());
}

TEST(RecordStoreRecords, NodeRecordRoundTrip) {
  NodeRecord rec;
  rec.in_use = true;
  rec.deleted = true;
  rec.first_rel = 77;
  rec.first_prop = 88;
  rec.inline_labels = {1, 2, kEmptyLabelSlot};
  rec.label_overflow = 99;
  rec.commit_ts = 123456;
  char buf[NodeRecord::kSize];
  rec.EncodeTo(buf);
  NodeRecord out;
  ASSERT_TRUE(NodeRecord::DecodeFrom(Slice(buf, sizeof buf), &out).ok());
  EXPECT_TRUE(out.in_use);
  EXPECT_TRUE(out.deleted);
  EXPECT_EQ(out.first_rel, 77u);
  EXPECT_EQ(out.first_prop, 88u);
  EXPECT_EQ(out.inline_labels[0], 1u);
  EXPECT_EQ(out.inline_labels[2], kEmptyLabelSlot);
  EXPECT_EQ(out.label_overflow, 99u);
  EXPECT_EQ(out.commit_ts, 123456u);
}

TEST(RecordStoreRecords, RelationshipRecordRoundTrip) {
  RelationshipRecord rec;
  rec.in_use = true;
  rec.src = 5;
  rec.dst = 9;
  rec.type = 3;
  rec.src_prev = 11;
  rec.src_next = 12;
  rec.dst_prev = 13;
  rec.dst_next = 14;
  rec.first_prop = 15;
  rec.commit_ts = 16;
  char buf[RelationshipRecord::kSize];
  rec.EncodeTo(buf);
  RelationshipRecord out;
  ASSERT_TRUE(
      RelationshipRecord::DecodeFrom(Slice(buf, sizeof buf), &out).ok());
  EXPECT_EQ(out.src, 5u);
  EXPECT_EQ(out.dst, 9u);
  EXPECT_EQ(out.type, 3u);
  EXPECT_EQ(out.src_prev, 11u);
  EXPECT_EQ(out.src_next, 12u);
  EXPECT_EQ(out.dst_prev, 13u);
  EXPECT_EQ(out.dst_next, 14u);
  EXPECT_EQ(out.first_prop, 15u);
  EXPECT_EQ(out.commit_ts, 16u);
  // Chain navigation helpers.
  EXPECT_EQ(out.NextFor(5), 12u);
  EXPECT_EQ(out.NextFor(9), 14u);
  EXPECT_EQ(out.PrevFor(5), 11u);
  EXPECT_EQ(out.PrevFor(9), 13u);
}

TEST(RecordStoreRecords, PointerFieldOffsetsMatchLayout) {
  RelationshipRecord rec;
  rec.in_use = true;
  rec.src_prev = 0xAAAA;
  rec.src_next = 0xBBBB;
  rec.dst_prev = 0xCCCC;
  rec.dst_next = 0xDDDD;
  char buf[RelationshipRecord::kSize];
  rec.EncodeTo(buf);
  EXPECT_EQ(DecodeFixed64(buf + RelationshipRecord::kSrcPrevOffset), 0xAAAAu);
  EXPECT_EQ(DecodeFixed64(buf + RelationshipRecord::kSrcNextOffset), 0xBBBBu);
  EXPECT_EQ(DecodeFixed64(buf + RelationshipRecord::kDstPrevOffset), 0xCCCCu);
  EXPECT_EQ(DecodeFixed64(buf + RelationshipRecord::kDstNextOffset), 0xDDDDu);
}

// Read, Write and high_id take no latch: a reader racing Allocate sees an
// id either unallocated (OutOfRange) or allocated, and once Allocate has
// returned and the record is written, its bytes.
TEST(RecordStore, ReadsRaceAllocateWithoutTheLatch) {
  auto store = MakeStore();
  constexpr uint64_t kRecords = 3000;
  std::atomic<uint64_t> written{0};  // Ids below this hold their record.
  std::atomic<bool> done{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      std::string rec;
      uint64_t probe = 0;
      while (!done.load(std::memory_order_acquire)) {
        const uint64_t ready = written.load(std::memory_order_acquire);
        const uint64_t high = store->high_id();
        if (high < ready) bad.fetch_add(1);
        // An id never allocated reads OutOfRange, never garbage.
        if (!store->Read(kRecords, &rec).IsOutOfRange()) bad.fetch_add(1);
        if (ready == 0) continue;
        const uint64_t id = probe++ % ready;
        if (!store->Read(id, &rec).ok() ||
            rec != MakeRecord(static_cast<char>('a' + id % 26))) {
          bad.fetch_add(1);
        }
        if (!store->InUse(id)) bad.fetch_add(1);
      }
    });
  }
  for (uint64_t i = 0; i < kRecords; ++i) {
    auto id = store->Allocate();
    ASSERT_TRUE(id.ok());
    ASSERT_EQ(*id, i);
    ASSERT_TRUE(
        store->Write(i, Slice(MakeRecord(static_cast<char>('a' + i % 26))))
            .ok());
    written.store(i + 1, std::memory_order_release);
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(store->high_id(), kRecords);
}

}  // namespace
}  // namespace neosi
