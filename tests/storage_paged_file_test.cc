// PagedFile backends: in-memory and POSIX.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "storage/paged_file.h"

namespace neosi {
namespace {

TEST(InMemoryFile, ReadWriteRoundTrip) {
  InMemoryFile file;
  EXPECT_EQ(file.Size(), 0u);
  ASSERT_TRUE(file.WriteAt(0, "hello", 5).ok());
  EXPECT_EQ(file.Size(), 5u);
  char buf[5];
  ASSERT_TRUE(file.ReadAt(0, 5, buf).ok());
  EXPECT_EQ(std::string(buf, 5), "hello");
}

TEST(InMemoryFile, WriteBeyondEndZeroFills) {
  InMemoryFile file;
  ASSERT_TRUE(file.WriteAt(10, "x", 1).ok());
  EXPECT_EQ(file.Size(), 11u);
  char buf[10];
  ASSERT_TRUE(file.ReadAt(0, 10, buf).ok());
  for (int i = 0; i < 10; ++i) EXPECT_EQ(buf[i], '\0') << i;
}

TEST(InMemoryFile, ReadPastEndFails) {
  InMemoryFile file;
  ASSERT_TRUE(file.WriteAt(0, "abc", 3).ok());
  char buf[4];
  EXPECT_TRUE(file.ReadAt(0, 4, buf).IsOutOfRange());
  EXPECT_TRUE(file.ReadAt(3, 1, buf).IsOutOfRange());
}

TEST(InMemoryFile, TruncateShrinksAndGrows) {
  InMemoryFile file;
  ASSERT_TRUE(file.WriteAt(0, "abcdef", 6).ok());
  ASSERT_TRUE(file.Truncate(3).ok());
  EXPECT_EQ(file.Size(), 3u);
  ASSERT_TRUE(file.Truncate(8).ok());
  EXPECT_EQ(file.Size(), 8u);
  char buf[8];
  ASSERT_TRUE(file.ReadAt(0, 8, buf).ok());
  EXPECT_EQ(std::string(buf, 3), "abc");
  EXPECT_EQ(buf[5], '\0');
}

TEST(InMemoryFile, WriteSpanningChunkBoundaryRoundTrips) {
  InMemoryFile file;
  constexpr size_t kChunk = InMemoryFile::kChunkSize;
  std::string data(3 * kChunk / 2, '\0');
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<char>(i * 7);
  const uint64_t offset = kChunk - 100;  // Crosses two boundaries.
  ASSERT_TRUE(file.WriteAt(offset, data.data(), data.size()).ok());
  EXPECT_EQ(file.Size(), offset + data.size());
  std::string back(data.size(), 'x');
  ASSERT_TRUE(file.ReadAt(offset, back.size(), back.data()).ok());
  EXPECT_EQ(back, data);
  // A short read straddling one boundary.
  char pair[2];
  ASSERT_TRUE(file.ReadAt(kChunk - 1, 2, pair).ok());
  EXPECT_EQ(pair[0], data[99]);
  EXPECT_EQ(pair[1], data[100]);
}

TEST(InMemoryFile, RegrowthAfterMidChunkTruncateReadsZeros) {
  InMemoryFile file;
  constexpr size_t kChunk = InMemoryFile::kChunkSize;
  const std::string ones(2 * kChunk + 10, '\1');
  ASSERT_TRUE(file.WriteAt(0, ones.data(), ones.size()).ok());
  const uint64_t cut = kChunk + 123;  // Mid second chunk.
  ASSERT_TRUE(file.Truncate(cut).ok());
  EXPECT_EQ(file.Size(), cut);

  // Regrow by a write past the old end and by Truncate.
  ASSERT_TRUE(file.WriteAt(ones.size() + 5, "z", 1).ok());
  std::string back(ones.size() + 5 - cut, 'x');
  ASSERT_TRUE(file.ReadAt(cut, back.size(), back.data()).ok());
  EXPECT_EQ(back, std::string(back.size(), '\0'));
  ASSERT_TRUE(file.Truncate(cut).ok());
  ASSERT_TRUE(file.Truncate(3 * kChunk).ok());
  back.assign(3 * kChunk - cut, 'x');
  ASSERT_TRUE(file.ReadAt(cut, back.size(), back.data()).ok());
  EXPECT_EQ(back, std::string(back.size(), '\0'));
  // The kept prefix is intact.
  std::string prefix(cut, 'x');
  ASSERT_TRUE(file.ReadAt(0, cut, prefix.data()).ok());
  EXPECT_EQ(prefix, ones.substr(0, cut));
}

TEST(InMemoryFile, ManyAppendsReportExactSize) {
  InMemoryFile file;
  const std::string record(1000, 'r');
  constexpr uint64_t kTotal = 20ull << 20;
  uint64_t size = 0;
  while (size < kTotal) {
    const size_t n = std::min<uint64_t>(record.size(), kTotal - size);
    ASSERT_TRUE(file.WriteAt(size, record.data(), n).ok());
    size += n;
  }
  EXPECT_EQ(file.Size(), kTotal);
  char tail[4];
  ASSERT_TRUE(file.ReadAt(kTotal - 4, 4, tail).ok());
  EXPECT_EQ(std::string(tail, 4), "rrrr");
}

TEST(InMemoryFile, ReadPastEndIsOutOfRangeAcrossChunks) {
  InMemoryFile file;
  constexpr size_t kChunk = InMemoryFile::kChunkSize;
  const std::string data(kChunk + 1, 'd');
  ASSERT_TRUE(file.WriteAt(0, data.data(), data.size()).ok());
  std::string buf(kChunk + 2, 'x');
  EXPECT_TRUE(file.ReadAt(0, kChunk + 2, buf.data()).IsOutOfRange());
  EXPECT_TRUE(file.ReadAt(kChunk + 1, 1, buf.data()).IsOutOfRange());
  EXPECT_TRUE(file.ReadAt(3 * kChunk, 1, buf.data()).IsOutOfRange());
  ASSERT_TRUE(file.Truncate(kChunk - 1).ok());
  EXPECT_TRUE(file.ReadAt(kChunk - 1, 1, buf.data()).IsOutOfRange());
  EXPECT_TRUE(file.ReadAt(0, kChunk - 1, buf.data()).ok());
}

// ---------------------------------------------------------------------------
// Lock-free reads and in-size writes racing growth and each other
// ---------------------------------------------------------------------------

char AppendedByte(uint64_t offset) {
  return static_cast<char>(1 + offset % 251);  // Never zero.
}

TEST(InMemoryFile, ReadersBelowObservedSizeSeeAppendedBytes) {
  InMemoryFile file;
  constexpr uint64_t kTotal = 4ull << 20;
  // Append sizes from one byte to more than a chunk, so appends straddle
  // chunk boundaries and start at every word alignment.
  const size_t kSizes[] = {1, 7, 13, 64, 1000, 4099, 70000};
  std::atomic<bool> done{false};
  std::atomic<uint64_t> bad{0};
  std::thread appender([&] {
    std::string piece;
    uint64_t size = 0;
    for (size_t i = 0; size < kTotal; ++i) {
      piece.resize(std::min<uint64_t>(kSizes[i % 7], kTotal - size));
      for (size_t j = 0; j < piece.size(); ++j) {
        piece[j] = AppendedByte(size + j);
      }
      if (!file.WriteAt(size, piece.data(), piece.size()).ok()) {
        bad.fetch_add(1);
        break;
      }
      size += piece.size();
    }
    done.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      std::string buf;
      uint64_t checked = 0;  // Every byte below it was checked.
      for (bool last = false; !last;) {
        last = done.load();
        const uint64_t size = file.Size();
        buf.resize(size - checked);
        ASSERT_TRUE(file.ReadAt(checked, buf.size(), buf.data()).ok());
        for (size_t j = 0; j < buf.size(); ++j) {
          if (buf[j] != AppendedByte(checked + j)) bad.fetch_add(1);
        }
        checked = size;
      }
      EXPECT_EQ(checked, kTotal);
    });
  }
  appender.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(bad.load(), 0u);
}

TEST(InMemoryFile, DisjointRecordWritersLeaveNeighboursExact) {
  InMemoryFile file;
  // Odd-sized records at an odd base, so neighbours share 8-byte words.
  constexpr uint64_t kBase = 5;
  constexpr size_t kRecord = 13;
  constexpr uint64_t kRecords = 3000;
  constexpr uint32_t kVersions = 100;
  auto fill = [](uint64_t id, uint32_t version) {
    std::string rec(kRecord, '\0');
    for (size_t j = 0; j < kRecord; ++j) {
      rec[j] = static_cast<char>(id * 31 + version * 7 + j);
    }
    return rec;
  };
  for (uint64_t id = 0; id < kRecords; ++id) {
    const std::string rec = fill(id, 0);
    ASSERT_TRUE(file.WriteAt(kBase + id * kRecord, rec.data(), kRecord).ok());
  }
  // Writer w rewrites the ids that are w mod 3, so the two writers' records
  // are neighbours; readers read the ids that are 2 mod 3, which never
  // change.
  std::atomic<uint64_t> bad{0};
  std::vector<std::thread> threads;
  for (uint64_t w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      char back[kRecord];
      for (uint32_t version = 1; version <= kVersions; ++version) {
        for (uint64_t id = w; id < kRecords; id += 3) {
          const std::string rec = fill(id, version);
          const uint64_t at = kBase + id * kRecord;
          ASSERT_TRUE(file.WriteAt(at, rec.data(), kRecord).ok());
          ASSERT_TRUE(file.ReadAt(at, kRecord, back).ok());
          if (std::string(back, kRecord) != rec) bad.fetch_add(1);
        }
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      char back[kRecord];
      for (uint32_t pass = 0; pass < kVersions; ++pass) {
        for (uint64_t id = 2; id < kRecords; id += 3) {
          ASSERT_TRUE(file.ReadAt(kBase + id * kRecord, kRecord, back).ok());
          if (std::string(back, kRecord) != fill(id, 0)) bad.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(file.Size(), kBase + kRecords * kRecord);
  char back[kRecord];
  for (uint64_t id = 0; id < kRecords; ++id) {
    ASSERT_TRUE(file.ReadAt(kBase + id * kRecord, kRecord, back).ok());
    EXPECT_EQ(std::string(back, kRecord), fill(id, id % 3 == 2 ? 0 : kVersions))
        << id;
  }
}

TEST(InMemoryFile, WriteBeyondCapacityFailsCleanly) {
  InMemoryFile file;
  ASSERT_TRUE(file.WriteAt(0, "abc", 3).ok());
  constexpr uint64_t kCap = InMemoryFile::kCapacity;
  EXPECT_TRUE(file.WriteAt(kCap, "x", 1).IsIOError());
  EXPECT_TRUE(file.WriteAt(kCap - 1, "xy", 2).IsIOError());
  EXPECT_TRUE(file.WriteAt(UINT64_MAX, "x", 1).IsIOError());
  EXPECT_TRUE(file.Truncate(kCap + 1).IsIOError());
  EXPECT_EQ(file.Size(), 3u);
  // The file is unharmed and still grows.
  ASSERT_TRUE(file.WriteAt(3, "d", 1).ok());
  char buf[4];
  ASSERT_TRUE(file.ReadAt(0, 4, buf).ok());
  EXPECT_EQ(std::string(buf, 4), "abcd");
}

class PosixFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("neosi_pf_" + std::string(::testing::UnitTest::GetInstance()
                                           ->current_test_info()
                                           ->name()));
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::filesystem::path path_;
};

TEST_F(PosixFileTest, CreatesAndPersists) {
  {
    std::shared_ptr<PagedFile> file;
    ASSERT_TRUE(
        PosixFile::Open(path_.string(), /*create=*/true, &file).ok());
    ASSERT_TRUE(file->WriteAt(0, "durable", 7).ok());
    ASSERT_TRUE(file->Sync().ok());
  }
  std::shared_ptr<PagedFile> reopened;
  ASSERT_TRUE(
      PosixFile::Open(path_.string(), /*create=*/true, &reopened).ok());
  EXPECT_EQ(reopened->Size(), 7u);
  char buf[7];
  ASSERT_TRUE(reopened->ReadAt(0, 7, buf).ok());
  EXPECT_EQ(std::string(buf, 7), "durable");
}

TEST_F(PosixFileTest, SparseWriteAndTruncate) {
  std::shared_ptr<PagedFile> file;
  ASSERT_TRUE(
      PosixFile::Open(path_.string(), /*create=*/true, &file).ok());
  ASSERT_TRUE(file->WriteAt(1000, "tail", 4).ok());
  EXPECT_EQ(file->Size(), 1004u);
  char buf[4];
  ASSERT_TRUE(file->ReadAt(500, 4, buf).ok());  // Hole reads as zeros.
  EXPECT_EQ(std::string(buf, 4), std::string(4, '\0'));
  ASSERT_TRUE(file->Truncate(100).ok());
  EXPECT_EQ(file->Size(), 100u);
  EXPECT_TRUE(file->ReadAt(1000, 4, buf).IsOutOfRange());
}

TEST_F(PosixFileTest, OpenFailsOnBadPath) {
  std::shared_ptr<PagedFile> file;
  EXPECT_TRUE(
      PosixFile::Open("/nonexistent-dir-xyz/file", /*create=*/true, &file)
          .IsIOError());
}

// ---------------------------------------------------------------------------
// Dirty tracking (fuzzy checkpoints sync only files that changed)
// ---------------------------------------------------------------------------

TEST(DirtyTracking, WritesDirtyAndSyncIfDirtyClears) {
  InMemoryFile file;
  EXPECT_FALSE(file.dirty());
  auto r = file.SyncIfDirty();
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);  // Clean: no sync ran.

  ASSERT_TRUE(file.WriteAt(0, "abc", 3).ok());
  EXPECT_TRUE(file.dirty());
  r = file.SyncIfDirty();
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);  // Dirty: sync ran.
  EXPECT_FALSE(file.dirty());

  // Truncate dirties too (it mutates persistent length).
  ASSERT_TRUE(file.Truncate(1).ok());
  EXPECT_TRUE(file.dirty());
}

TEST(DirtyTracking, WriteAfterSyncIfDirtyRedirties) {
  InMemoryFile file;
  ASSERT_TRUE(file.WriteAt(0, "abc", 3).ok());
  ASSERT_TRUE(file.WriteAt(0, "abd", 3).ok());  // Already dirty: no store.
  ASSERT_TRUE(file.SyncIfDirty().ok());
  EXPECT_FALSE(file.dirty());
  ASSERT_TRUE(file.WriteAt(1, "z", 1).ok());  // An in-size write.
  EXPECT_TRUE(file.dirty());
  auto r = file.SyncIfDirty();
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);
}

TEST_F(PosixFileTest, DirtyTrackingAcrossWriteSyncCycles) {
  std::shared_ptr<PagedFile> file;
  ASSERT_TRUE(
      PosixFile::Open(path_.string(), /*create=*/true, &file).ok());
  EXPECT_FALSE(file->dirty());
  ASSERT_TRUE(file->WriteAt(0, "xyz", 3).ok());
  EXPECT_TRUE(file->dirty());
  auto r = file->SyncIfDirty();
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);
  r = file->SyncIfDirty();
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);  // Second checkpoint skips the clean file.
}

}  // namespace
}  // namespace neosi
