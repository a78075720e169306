// Kill-and-recover testing for the replication pair: the primary or the
// replica dies at a named WAL / checkpoint crash point, restarts, and the
// pair must converge to identical visible state with the shipping cursor
// resuming exactly where durability left off.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "graph/graph_database.h"
#include "fault_injection.h"

namespace neosi {
namespace {

namespace fs = std::filesystem;

struct PairDirs {
  fs::path primary;
  fs::path replica;

  explicit PairDirs(const std::string& tag) {
    const fs::path base = fs::temp_directory_path() / ("neosi_repl_" + tag);
    primary = base / "primary";
    replica = base / "replica";
    fs::remove_all(base);
    fs::create_directories(primary);
    fs::create_directories(replica);
  }
  ~PairDirs() {
    fs::remove_all(primary.parent_path());
  }
};

DatabaseOptions PrimaryOptions(const PairDirs& dirs) {
  DatabaseOptions options;
  options.in_memory = false;
  options.path = dirs.primary.string();
  options.background_gc_interval_ms = 0;  // Deterministic: no daemons.
  options.checkpoint_interval_ms = 0;
  options.sync_commits = true;
  options.wal_segment_size = 512;  // Rotate often.
  // Retain a few extra segments so a replica polling every handful of
  // commits never falls below the truncation cut, while truncation itself
  // still retires segments (the truncate crash points stay reachable).
  options.wal_keep_segments = 4;
  return options;
}

DatabaseOptions ReplicaOptions(const PairDirs& dirs) {
  DatabaseOptions options;
  options.in_memory = false;
  options.path = dirs.replica.string();
  options.replica_of_path = dirs.primary.string();
  options.replica_poll_interval_ms = 0;  // Manual: tests call RunOnce().
  options.background_gc_interval_ms = 0;
  options.checkpoint_interval_ms = 0;
  // Rotate the replica's own wal several times per shipped batch so the
  // local append-path crash points are reliably reachable mid-replay.
  options.wal_segment_size = 256;
  return options;
}

std::unique_ptr<GraphDatabase> MustOpen(const DatabaseOptions& options) {
  auto db = GraphDatabase::Open(options);
  EXPECT_TRUE(db.ok()) << db.status();
  return std::move(*db);
}

std::map<NodeId, std::pair<std::vector<std::string>, NamedProperties>>
Materialize(GraphDatabase* db) {
  std::map<NodeId, std::pair<std::vector<std::string>, NamedProperties>> out;
  TransactionOptions opts;
  opts.read_only = true;
  auto txn = db->Begin(IsolationLevel::kSnapshotIsolation, opts);
  auto nodes = txn->AllNodes();
  EXPECT_TRUE(nodes.ok()) << nodes.status();
  for (NodeId id : *nodes) {
    auto view = txn->GetNode(id);
    EXPECT_TRUE(view.ok()) << view.status();
    out[id] = {view->labels, view->props};
  }
  return out;
}

int CommitBatch(GraphDatabase* primary, int base, int count) {
  int committed = 0;
  for (int i = 0; i < count; ++i) {
    auto txn = primary->Begin();
    auto id = txn->CreateNode(
        {"Item"}, {{"seq", PropertyValue(int64_t{base + i})}});
    if (!id.ok() || !txn->Commit().ok()) break;
    ++committed;
  }
  return committed;
}

TEST(ReplicationCrash, ReplicaRestartResumesFromDurableCursor) {
  PairDirs dirs("resume");
  auto primary = MustOpen(PrimaryOptions(dirs));
  ASSERT_EQ(CommitBatch(primary.get(), 0, 10), 10);

  uint64_t applied_before = 0;
  {
    auto replica = MustOpen(ReplicaOptions(dirs));
    ASSERT_TRUE(replica->replica_applier()->RunOnce().ok());
    applied_before = replica->Stats().replica_records_applied;
    EXPECT_EQ(Materialize(primary.get()), Materialize(replica.get()));
  }  // Replica closes (clean "kill": daemons were never running).

  ASSERT_EQ(CommitBatch(primary.get(), 10, 10), 10);

  auto replica = MustOpen(ReplicaOptions(dirs));
  ASSERT_TRUE(replica->replica_applier()->RunOnce().ok());
  EXPECT_EQ(Materialize(primary.get()), Materialize(replica.get()));
  // The cursor file kept the restart from re-applying the first batch.
  EXPECT_LE(replica->Stats().replica_records_applied, applied_before + 12);
}

TEST(ReplicationCrash, ReplicaDiesAtEachLocalWalPointAndRecovers) {
  // The applier re-logs every shipped record through the replica's own WAL;
  // each of the append-path crash points therefore kills the replica
  // mid-replay. After a restart, local recovery plus the cursor re-ship
  // must converge to the primary's exact state.
  const std::vector<std::string> points = {
      "wal.append.mid_frame",
      "wal.segment.post_create",
      "wal.append.fail_after_roll",
  };
  for (const std::string& point : points) {
    SCOPED_TRACE(point);
    PairDirs dirs("replica_" + point.substr(point.rfind('.') + 1));
    auto primary = MustOpen(PrimaryOptions(dirs));
    ASSERT_EQ(CommitBatch(primary.get(), 0, 30), 30);

    {
      auto replica = MustOpen(ReplicaOptions(dirs));
      fault::CrashPoint crash(replica.get(), point);
      Status s = replica->replica_applier()->RunOnce();
      ASSERT_TRUE(crash.fired()) << "workload never reached " << point;
      ASSERT_FALSE(s.ok()) << "injected crash must fail the pass";
    }  // "kill -9": discard the handle mid-replay.

    auto replica = MustOpen(ReplicaOptions(dirs));
    ASSERT_TRUE(replica->replica_applier()->RunOnce().ok())
        << replica->replica_applier()->last_error();
    EXPECT_EQ(Materialize(primary.get()), Materialize(replica.get()));
  }
}

TEST(ReplicationCrash, PrimaryDiesAtEachPointWhileReplicaTails) {
  // Round-robin every named crash point on the primary while a replica
  // tails between failures: after each primary recovery the pair must agree
  // and the replica's cursor must keep advancing monotonically.
  for (const std::string& point : fault::AllCrashPoints()) {
    SCOPED_TRACE(point);
    PairDirs dirs("primary_" + point.substr(point.rfind('.') + 1));
    auto replica = MustOpen(ReplicaOptions(dirs));

    int seq = 0;
    for (int round = 0; round < 2; ++round) {
      auto primary = MustOpen(PrimaryOptions(dirs));
      // On a fresh store the first two appends log the "Item" and "seq"
      // token creations; the third hit lets a later round commit first.
      fault::CrashPoint crash(primary.get(), point, /*fire_on_hit=*/3);
      for (int i = 0; i < 120 && !crash.fired(); ++i) {
        auto txn = primary->Begin();
        auto id = txn->CreateNode(
            {"Item"}, {{"seq", PropertyValue(int64_t{seq})}});
        if (id.ok() && txn->Commit().ok()) ++seq;
        if (i % 5 == 4) (void)primary->Checkpoint();
        if (i % 3 == 2) {
          // Tail the live primary mid-round, torn tail and all.
          ASSERT_TRUE(replica->replica_applier()->RunOnce().ok())
              << replica->replica_applier()->last_error();
        }
      }
      ASSERT_TRUE(crash.fired()) << "workload never reached " << point;
      primary.reset();  // "kill -9" the primary at the injected point.

      // The primary recovers; the replica ships the surviving history and
      // the two views must be identical (publication hints let the replica
      // hop over any commit timestamp the crash abandoned).
      auto recovered = MustOpen(PrimaryOptions(dirs));
      ASSERT_TRUE(replica->replica_applier()->RunOnce().ok())
          << replica->replica_applier()->last_error();
      EXPECT_EQ(Materialize(recovered.get()), Materialize(replica.get()));
    }
    ASSERT_GT(seq, 0) << "no commit ever succeeded";
  }
}

TEST(ReplicationCrash, PrimaryDiesInATokenAppendWhileReplicaTails) {
  // On a fresh store the first two appends are the token-only records of
  // "Item" and "seq". Tear each one mid-frame while a replica tails: the
  // recovered primary and the replica must agree, and keep agreeing once
  // the recovered primary commits under those tokens.
  for (const uint64_t hit : {1, 2}) {
    SCOPED_TRACE("hit " + std::to_string(hit));
    PairDirs dirs("token_" + std::to_string(hit));
    auto replica = MustOpen(ReplicaOptions(dirs));
    {
      auto primary = MustOpen(PrimaryOptions(dirs));
      fault::CrashPoint crash(primary.get(), "wal.append.mid_frame", hit);
      auto txn = primary->Begin();
      auto id = txn->CreateNode({"Item"}, {{"seq", PropertyValue(int64_t{0})}});
      ASSERT_TRUE(crash.fired()) << "no token append reached the point";
      EXPECT_FALSE(id.ok());
      ASSERT_TRUE(replica->replica_applier()->RunOnce().ok())
          << replica->replica_applier()->last_error();
    }  // "kill -9" the primary with the token record torn.

    auto recovered = MustOpen(PrimaryOptions(dirs));
    ASSERT_TRUE(replica->replica_applier()->RunOnce().ok())
        << replica->replica_applier()->last_error();
    EXPECT_EQ(Materialize(recovered.get()), Materialize(replica.get()));

    ASSERT_EQ(CommitBatch(recovered.get(), 0, 3), 3);
    ASSERT_TRUE(replica->replica_applier()->RunOnce().ok())
        << replica->replica_applier()->last_error();
    EXPECT_EQ(Materialize(recovered.get()), Materialize(replica.get()));
  }
}

TEST(ReplicationCrash, BothSidesRestartRepeatedlyUnderChurn) {
  // Interleaved restarts of both sides with ongoing writes: the invariant
  // is always the same — after one catch-up pass, replica state == primary
  // state, regardless of who died when.
  PairDirs dirs("churn");
  int seq = 0;
  for (int round = 0; round < 4; ++round) {
    auto primary = MustOpen(PrimaryOptions(dirs));
    seq += CommitBatch(primary.get(), seq, 15);
    {
      auto replica = MustOpen(ReplicaOptions(dirs));
      ASSERT_TRUE(replica->replica_applier()->RunOnce().ok());
      EXPECT_EQ(Materialize(primary.get()), Materialize(replica.get()));
    }
    ASSERT_TRUE(primary->Checkpoint().ok());
  }
  auto primary = MustOpen(PrimaryOptions(dirs));
  auto replica = MustOpen(ReplicaOptions(dirs));
  ASSERT_TRUE(replica->replica_applier()->RunOnce().ok());
  EXPECT_EQ(Materialize(primary.get()), Materialize(replica.get()));
  ASSERT_EQ(seq, 60);
}

}  // namespace
}  // namespace neosi
