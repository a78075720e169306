// PagedFile backends: in-memory and POSIX.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>

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
