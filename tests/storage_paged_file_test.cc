// PagedFile backends: in-memory and POSIX.

#include <gtest/gtest.h>

#include <filesystem>

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
    std::unique_ptr<PagedFile> file;
    ASSERT_TRUE(PosixFile::Open(path_.string(), &file).ok());
    ASSERT_TRUE(file->WriteAt(0, "durable", 7).ok());
    ASSERT_TRUE(file->Sync().ok());
  }
  std::unique_ptr<PagedFile> reopened;
  ASSERT_TRUE(PosixFile::Open(path_.string(), &reopened).ok());
  EXPECT_EQ(reopened->Size(), 7u);
  char buf[7];
  ASSERT_TRUE(reopened->ReadAt(0, 7, buf).ok());
  EXPECT_EQ(std::string(buf, 7), "durable");
}

TEST_F(PosixFileTest, SparseWriteAndTruncate) {
  std::unique_ptr<PagedFile> file;
  ASSERT_TRUE(PosixFile::Open(path_.string(), &file).ok());
  ASSERT_TRUE(file->WriteAt(1000, "tail", 4).ok());
  EXPECT_EQ(file->Size(), 1004u);
  char buf[4];
  ASSERT_TRUE(file->ReadAt(500, 4, buf).ok());  // Hole reads as zeros.
  EXPECT_EQ(std::string(buf, 4), std::string(4, '\0'));
  ASSERT_TRUE(file->Truncate(100).ok());
  EXPECT_EQ(file->Size(), 100u);
  EXPECT_TRUE(file->ReadAt(1000, 4, buf).IsOutOfRange());
}

TEST_F(PosixFileTest, OpenFactorySelectsBackend) {
  std::unique_ptr<PagedFile> mem;
  ASSERT_TRUE(OpenPagedFile("ignored", /*in_memory=*/true, &mem).ok());
  ASSERT_TRUE(mem->WriteAt(0, "m", 1).ok());
  EXPECT_EQ(mem->Size(), 1u);

  std::unique_ptr<PagedFile> disk;
  ASSERT_TRUE(
      OpenPagedFile(path_.string(), /*in_memory=*/false, &disk).ok());
  ASSERT_TRUE(disk->WriteAt(0, "d", 1).ok());
  EXPECT_TRUE(std::filesystem::exists(path_));
}

TEST_F(PosixFileTest, OpenFailsOnBadPath) {
  std::unique_ptr<PagedFile> file;
  EXPECT_TRUE(
      PosixFile::Open("/nonexistent-dir-xyz/file", &file).IsIOError());
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
  std::unique_ptr<PagedFile> file;
  ASSERT_TRUE(PosixFile::Open(path_.string(), &file).ok());
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
