// The database directory: one Dir contract over every backend, and the
// power-loss test the seam exists for.
//
// The contract cases run unchanged on PosixDir, InMemoryDir and the tests'
// CrashDir. The power-loss test opens a database over a CrashDir, commits
// durably through rolling 2 KiB WAL segments and checkpoints that truncate
// the log, loses power (only synced bytes and synced directory entries
// survive), reopens, and checks every acked value against the crash
// harness's shadow model.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "crash_dir.h"
#include "fault_injection.h"
#include "graph/graph_database.h"
#include "storage/dir.h"

namespace neosi {
namespace {

// ---------------------------------------------------------------------------
// Dir contract
// ---------------------------------------------------------------------------

std::filesystem::path ScratchPath() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return std::filesystem::temp_directory_path() /
         ("neosi_dir_" + std::to_string(::getpid()) + "_" +
          info->test_suite_name() + "_" + info->name());
}

struct PosixBackend {
  static std::shared_ptr<Dir> Make(const std::filesystem::path& path) {
    std::filesystem::create_directories(path);
    return std::make_shared<PosixDir>(path.string());
  }
};

struct InMemoryBackend {
  static std::shared_ptr<Dir> Make(const std::filesystem::path&) {
    return std::make_shared<InMemoryDir>();
  }
};

struct CrashBackend {
  static std::shared_ptr<Dir> Make(const std::filesystem::path&) {
    return std::make_shared<CrashDir>();
  }
};

template <typename Backend>
class DirContract : public ::testing::Test {
 protected:
  void SetUp() override {
    std::filesystem::remove_all(path_);
    dir_ = Backend::Make(path_);
  }
  void TearDown() override { std::filesystem::remove_all(path_); }

  void Write(const std::string& name, const std::string& bytes) {
    std::shared_ptr<PagedFile> file;
    ASSERT_TRUE(dir_->Open(name, &file).ok());
    ASSERT_TRUE(file->Truncate(0).ok());
    ASSERT_TRUE(file->WriteAt(0, bytes.data(), bytes.size()).ok());
    ASSERT_TRUE(file->Sync().ok());
  }

  std::string Read(const std::string& name) {
    std::shared_ptr<PagedFile> file;
    Status s = dir_->OpenExisting(name, &file);
    EXPECT_TRUE(s.ok()) << name << ": " << s.ToString();
    if (!s.ok()) return "";
    std::string bytes(file->Size(), '\0');
    EXPECT_TRUE(file->ReadAt(0, bytes.size(), bytes.data()).ok());
    return bytes;
  }

  const std::filesystem::path path_ = ScratchPath();
  std::shared_ptr<Dir> dir_;
};

using Backends = ::testing::Types<PosixBackend, InMemoryBackend, CrashBackend>;
TYPED_TEST_SUITE(DirContract, Backends);

TYPED_TEST(DirContract, OpenCreatesAndOpenExistingDoesNot) {
  std::shared_ptr<PagedFile> file;
  EXPECT_TRUE(this->dir_->OpenExisting("a", &file).IsNotFound());
  EXPECT_FALSE(this->dir_->Exists("a"));
  ASSERT_TRUE(this->dir_->Open("a", &file).ok());
  EXPECT_EQ(file->Size(), 0u);
  EXPECT_TRUE(this->dir_->Exists("a"));
  EXPECT_TRUE(this->dir_->OpenExisting("a", &file).ok());
}

TYPED_TEST(DirContract, RenameReplacesItsTarget) {
  this->Write("from", "new bytes");
  this->Write("to", "old");
  ASSERT_TRUE(this->dir_->Rename("from", "to").ok());
  EXPECT_FALSE(this->dir_->Exists("from"));
  EXPECT_EQ(this->Read("to"), "new bytes");
}

TYPED_TEST(DirContract, ListListsEveryFile) {
  for (const char* name : {"wal.000001", "nodes.store", "replica.cursor"}) {
    this->Write(name, name);
  }
  std::vector<std::string> names;
  ASSERT_TRUE(this->dir_->List(&names).ok());
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"nodes.store", "replica.cursor",
                                             "wal.000001"}));
}

TYPED_TEST(DirContract, BytesSurviveDroppingTheHandle) {
  this->Write("f", "durable");
  EXPECT_EQ(this->Read("f"), "durable");
  std::shared_ptr<PagedFile> again;
  ASSERT_TRUE(this->dir_->Open("f", &again).ok());
  EXPECT_EQ(again->Size(), 7u);
}

TYPED_TEST(DirContract, MissingNameIsNotFound) {
  EXPECT_TRUE(this->dir_->Remove("missing").IsNotFound());
  EXPECT_TRUE(this->dir_->Rename("missing", "other").IsNotFound());
  EXPECT_FALSE(this->dir_->Exists("other"));
  this->Write("present", "x");
  ASSERT_TRUE(this->dir_->Remove("present").ok());
  EXPECT_TRUE(this->dir_->Remove("present").IsNotFound());
}

// ---------------------------------------------------------------------------
// Power loss
// ---------------------------------------------------------------------------

TEST(CrashDir, PowerLossKeepsOnlySyncedBytesAndNames) {
  CrashDir dir;
  std::shared_ptr<PagedFile> kept, lost;
  ASSERT_TRUE(dir.Open("kept", &kept).ok());
  ASSERT_TRUE(kept->WriteAt(0, "synced", 6).ok());
  ASSERT_TRUE(kept->Sync().ok());
  ASSERT_TRUE(dir.SyncDir().ok());
  ASSERT_TRUE(kept->WriteAt(6, "+unsynced", 9).ok());
  ASSERT_TRUE(dir.Open("lost", &lost).ok());
  ASSERT_TRUE(lost->Sync().ok());  // File synced, its name never was.

  auto survivor = dir.PowerLoss();
  std::vector<std::string> names;
  ASSERT_TRUE(survivor->List(&names).ok());
  EXPECT_EQ(names, std::vector<std::string>{"kept"});
  std::shared_ptr<PagedFile> file;
  ASSERT_TRUE(survivor->OpenExisting("kept", &file).ok());
  ASSERT_EQ(file->Size(), 6u);
  char buf[6];
  ASSERT_TRUE(file->ReadAt(0, 6, buf).ok());
  EXPECT_EQ(std::string(buf, 6), "synced");

  // An unsynced rename and unlink are undone too.
  ASSERT_TRUE(dir.Rename("kept", "moved").ok());
  ASSERT_TRUE(dir.Remove("moved").ok());
  ASSERT_TRUE(dir.PowerLoss()->Exists("kept"));
}

/// Parameter: wal_preallocate. Off, a roll builds its segment inline, so the
/// adopted segment's name is durable only through the deferred dir-sync of
/// the next flush.
class PowerLoss : public ::testing::TestWithParam<bool> {};

TEST_P(PowerLoss, AckedCommitsSurviveAcrossRollsAndCheckpoints) {
  fault::CrashLoopHarness::Options harness_options;
  harness_options.keys = 4;
  harness_options.wal_segment_size = 2048;
  harness_options.sync_commits = true;
  harness_options.wal_preallocate = GetParam();
  fault::CrashLoopHarness harness(harness_options);
  const DatabaseOptions options = harness.DbOptions();

  constexpr int kRounds = 6;
  constexpr int kCheckpointEvery = 10;
  int64_t next_value = 1;
  std::shared_ptr<Dir> survivor = std::make_shared<InMemoryDir>();
  for (int round = 0; round < kRounds; ++round) {
    auto dir = std::make_shared<CrashDir>(*survivor);
    auto opened = GraphDatabase::Open(options, dir);
    ASSERT_TRUE(opened.ok()) << "round " << round << ": " << opened.status();
    auto db = std::move(*opened);
    harness.SeedIfNeeded(db.get());
    harness.VerifyRecovered(db.get(), round);
    if (::testing::Test::HasFatalFailure()) return;

    uint64_t key_index = 0;
    auto commit_one = [&] {
      const NodeId key = harness.keys()[key_index++ % harness.keys().size()];
      const int64_t value = next_value++;
      auto txn = db->Begin();
      Status s = txn->SetNodeProperty(key, "v", PropertyValue(value));
      if (s.ok()) s = txn->Commit();
      if (s.ok()) harness.RecordAck(key, value);
      return s;
    };
    auto stats = [&] { return db->Stats().store; };

    const uint64_t deleted_before = stats().wal_segments_deleted;
    for (int i = 1; i <= 8 * kCheckpointEvery; ++i) {
      ASSERT_TRUE(commit_one().ok()) << "round " << round;
      if (i % kCheckpointEvery == 0) {
        ASSERT_TRUE(db->Checkpoint().ok()) << "round " << round;
      }
    }
    // The checkpoints cut the log: some acked values live only in the
    // store files by now.
    ASSERT_GT(stats().wal_segments_deleted, deleted_before)
        << "round " << round;

    // Where the power goes out.
    switch (round % 3) {
      case 0:  // Right after a checkpoint.
        break;
      case 1:  // Mid-segment, some commits past the last checkpoint.
        for (int i = 0; i < 3 + round; ++i) {
          ASSERT_TRUE(commit_one().ok()) << "round " << round;
        }
        break;
      case 2: {  // Right after the first commit in a freshly rolled segment.
        const uint64_t created = stats().wal_segments_created;
        while (stats().wal_segments_created == created) {
          ASSERT_TRUE(commit_one().ok()) << "round " << round;
        }
        break;
      }
    }
    survivor = dir->PowerLoss();
  }
  auto opened = GraphDatabase::Open(options, survivor);
  ASSERT_TRUE(opened.ok()) << opened.status();
  harness.VerifyRecovered(opened->get(), kRounds);
}

INSTANTIATE_TEST_SUITE_P(Preallocate, PowerLoss, ::testing::Bool());

}  // namespace
}  // namespace neosi
