// EIO ("fsyncgate") injection matrix over the commit I/O path.
//
// A crash is not the only way durability breaks: the kernel can REPORT a
// write-back failure from fsync and silently drop the dirty pages, so a
// naive retry gets a clean fsync that never re-wrote the lost data — the
// PostgreSQL fsyncgate failure mode. The Wal's answer is sticky poison:
// the first sync-path EIO fails the in-flight operation before it acks and
// wedges the log until a reopen re-reads what is really on disk.
//
// This suite drives every named EIO point under both isolation levels
// (the SSI commit path brackets the WAL append with extra lock work and
// must observe the identical fail-before-ack contract), kills the process
// image after the poison, and shadow-verifies recovery: an injected EIO may
// fail-before-ack or poison, but must NEVER surface as acked-then-lost.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "fault_injection.h"
#include "graph/graph_database.h"

namespace neosi {
namespace {

namespace fs = std::filesystem;

struct MatrixCase {
  std::string point;
  IsolationLevel isolation;
  bool async_flush;
  bool preallocate = true;
};

std::string CaseTag(const MatrixCase& param) {
  std::string name = param.point;
  for (char& c : name) {
    if (c == '.') c = '_';
  }
  name += param.isolation == IsolationLevel::kSerializable ? "_ssi" : "_si";
  name += param.async_flush ? "_async" : "_inline";
  if (!param.preallocate) name += "_noprealloc";
  return name;
}

std::string CaseName(const testing::TestParamInfo<MatrixCase>& info) {
  return CaseTag(info.param);
}

std::vector<MatrixCase> BuildMatrix() {
  std::vector<MatrixCase> cases;
  for (const std::string& point : fault::AllEioPoints()) {
    for (IsolationLevel isolation : {IsolationLevel::kSnapshotIsolation,
                                     IsolationLevel::kSerializable}) {
      cases.push_back({point, isolation, /*async_flush=*/true});
    }
  }
  // The inline-fsync path (wal_async_flush=false, the E18 baseline) shares
  // the poison machinery but reaches it from the committer's own thread;
  // one point per isolation level keeps the matrix honest without doubling
  // its wall-clock.
  cases.push_back(
      {"wal.sync.fail", IsolationLevel::kSnapshotIsolation, false});
  cases.push_back({"wal.sync.fail", IsolationLevel::kSerializable, false});
  // Without pre-allocation every roll builds its segment inline and then
  // adopts it: the build's and the adoption's directory syncs run on the
  // committer's own thread.
  for (const char* point : {"wal.dirsync.create", "wal.dirsync.rename"}) {
    cases.push_back({point, IsolationLevel::kSnapshotIsolation,
                     /*async_flush=*/false, /*preallocate=*/false});
  }
  return cases;
}

class EioMatrixTest : public testing::TestWithParam<MatrixCase> {};

TEST_P(EioMatrixTest, StickyPoisonNeverLosesAckedCommit) {
  const MatrixCase& param = GetParam();
  fault::CrashLoopHarness::Options options;
  options.isolation = param.isolation;
  options.wal_async_flush = param.async_flush;
  options.wal_preallocate = param.preallocate;
  options.rounds = 4;
  // Every round rolls and retires segments several times, so the armed
  // hit (the first, second or third) is always reached.
  options.wal_segment_size = 512;
  options.txns_per_round = 80;
  fault::CrashLoopHarness harness(
      fs::temp_directory_path() / ("neosi_eio_" + CaseTag(param)), options);
  harness.RunEio(param.point);
}

INSTANTIATE_TEST_SUITE_P(CommitIoPath, EioMatrixTest,
                         testing::ValuesIn(BuildMatrix()), CaseName);

// --- replica cursor sync -----------------------------------------------------

// The replica applier persists its shipping cursor with the same
// fsync-then-ack discipline: an EIO on the cursor file fails RunOnce before
// the new cursor is trusted, and a restart resumes from the last durable
// cursor — replaying a shipped batch twice (idempotent) rather than
// skipping one (lost).
TEST(ReplicaCursorEio, FailedCursorSyncResumesWithoutLoss) {
  const fs::path base = fs::temp_directory_path() / "neosi_eio_replica";
  const fs::path primary_dir = base / "primary";
  const fs::path replica_dir = base / "replica";
  fs::remove_all(base);
  fs::create_directories(primary_dir);
  fs::create_directories(replica_dir);

  DatabaseOptions primary_options;
  primary_options.in_memory = false;
  primary_options.path = primary_dir.string();
  primary_options.background_gc_interval_ms = 0;
  primary_options.checkpoint_interval_ms = 0;
  primary_options.sync_commits = true;
  primary_options.wal_segment_size = 512;
  primary_options.wal_keep_segments = 4;

  DatabaseOptions replica_options;
  replica_options.in_memory = false;
  replica_options.path = replica_dir.string();
  replica_options.replica_of_path = primary_dir.string();
  replica_options.replica_poll_interval_ms = 0;  // Manual RunOnce().
  replica_options.background_gc_interval_ms = 0;
  replica_options.checkpoint_interval_ms = 0;

  auto primary_opened = GraphDatabase::Open(primary_options);
  ASSERT_TRUE(primary_opened.ok()) << primary_opened.status();
  auto primary = std::move(*primary_opened);

  NodeId key;
  {
    auto txn = primary->Begin();
    auto id = txn->CreateNode({}, {{"v", PropertyValue(int64_t{0})}});
    ASSERT_TRUE(id.ok());
    key = *id;
    ASSERT_TRUE(txn->Commit().ok());
  }
  constexpr int64_t kFinal = 24;
  for (int64_t v = 1; v <= kFinal; ++v) {
    auto txn = primary->Begin();
    ASSERT_TRUE(txn->SetNodeProperty(key, "v", PropertyValue(v)).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }

  {
    auto replica_opened = GraphDatabase::Open(replica_options);
    ASSERT_TRUE(replica_opened.ok()) << replica_opened.status();
    auto replica = std::move(*replica_opened);
    fault::CrashPoint eio(replica.get(), "replica.cursor.sync");
    Status s = replica->replica_applier()->RunOnce();
    ASSERT_TRUE(eio.fired()) << "cursor-sync point never reached";
    EXPECT_TRUE(s.IsIOError())
        << "RunOnce must surface the cursor fsync EIO, got " << s.ToString();
    // Kill the replica image with the cursor write in doubt.
  }

  auto replica_opened = GraphDatabase::Open(replica_options);
  ASSERT_TRUE(replica_opened.ok()) << replica_opened.status();
  auto replica = std::move(*replica_opened);
  ASSERT_TRUE(replica->replica_applier()->RunOnce().ok())
      << replica->replica_applier()->last_error();
  {
    TransactionOptions read_opts;
    read_opts.read_only = true;
    auto txn =
        replica->Begin(IsolationLevel::kSnapshotIsolation, read_opts);
    auto got = txn->GetNodeProperty(key, "v");
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->AsInt(), kFinal)
        << "replica lost shipped commits across the failed cursor sync";
  }

  replica.reset();
  primary.reset();
  fs::remove_all(base);
}

// --- token page write --------------------------------------------------------

// A new token's record reaches the log before its id is published. If the
// token's page write then fails, the logged id must still win: the creator
// sees the error, a retry gets the same id without logging the name again,
// and a replica and a reopened primary both restore the token from that
// one record.
TEST(TokenPageEio, FailedPageWriteKeepsTheLoggedId) {
  const fs::path base = fs::temp_directory_path() / "neosi_eio_token";
  const fs::path primary_dir = base / "primary";
  const fs::path replica_dir = base / "replica";
  fs::remove_all(base);
  fs::create_directories(primary_dir);
  fs::create_directories(replica_dir);

  DatabaseOptions primary_options;
  primary_options.in_memory = false;
  primary_options.path = primary_dir.string();
  primary_options.background_gc_interval_ms = 0;
  primary_options.checkpoint_interval_ms = 0;
  primary_options.sync_commits = true;

  DatabaseOptions replica_options;
  replica_options.in_memory = false;
  replica_options.path = replica_dir.string();
  replica_options.replica_of_path = primary_dir.string();
  replica_options.replica_poll_interval_ms = 0;  // Manual RunOnce().
  replica_options.background_gc_interval_ms = 0;
  replica_options.checkpoint_interval_ms = 0;

  auto primary_opened = GraphDatabase::Open(primary_options);
  ASSERT_TRUE(primary_opened.ok()) << primary_opened.status();
  auto primary = std::move(*primary_opened);

  fault::CrashPoint eio(primary.get(), "token.page.write");
  {
    auto txn = primary->Begin();
    auto id = txn->CreateNode({"Item"}, {});
    ASSERT_TRUE(eio.fired()) << "token page write never reached";
    EXPECT_TRUE(id.status().IsIOError()) << id.status();
    ASSERT_TRUE(txn->Abort().ok());
  }
  NodeId item;
  {
    auto txn = primary->Begin();
    auto id = txn->CreateNode({"Item"}, {});
    ASSERT_TRUE(id.ok()) << id.status();
    item = *id;
    ASSERT_TRUE(txn->Commit().ok());
  }
  EXPECT_EQ(eio.hits(), 1u) << "the retry created the token a second time";

  auto expect_item = [&](GraphDatabase* db, const char* who) {
    TransactionOptions read_opts;
    read_opts.read_only = true;
    auto txn = db->Begin(IsolationLevel::kSnapshotIsolation, read_opts);
    auto nodes = txn->GetNodesByLabel("Item");
    ASSERT_TRUE(nodes.ok()) << who << ": " << nodes.status();
    EXPECT_EQ(*nodes, std::vector<NodeId>{item}) << who;
  };
  {
    auto replica_opened = GraphDatabase::Open(replica_options);
    ASSERT_TRUE(replica_opened.ok()) << replica_opened.status();
    auto replica = std::move(*replica_opened);
    ASSERT_TRUE(replica->replica_applier()->RunOnce().ok())
        << replica->replica_applier()->last_error();
    expect_item(replica.get(), "replica");
  }

  primary.reset();  // Kill with the token page never written.
  primary_opened = GraphDatabase::Open(primary_options);
  ASSERT_TRUE(primary_opened.ok()) << primary_opened.status();
  primary = std::move(*primary_opened);
  expect_item(primary.get(), "reopened primary");

  primary.reset();
  fs::remove_all(base);
}

}  // namespace
}  // namespace neosi
