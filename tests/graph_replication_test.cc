// WAL-shipping read replicas: live tailing, replay-watermark snapshots,
// session monotonic reads, standby conflicts, re-seed errors, and the
// tailer's robustness against segment recycling and torn tails.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "graph/graph_database.h"
#include "storage/dir.h"
#include "storage/replication_source.h"
#include "storage/wal.h"
#include "fault_injection.h"

namespace neosi {
namespace {

DatabaseOptions PrimaryOptions() {
  DatabaseOptions options;
  options.in_memory = true;
  return options;
}

/// Replica of an in-process primary, in MANUAL apply mode (tests drive
/// RunOnce deterministically).
DatabaseOptions ManualReplicaOptions(GraphDatabase* primary) {
  DatabaseOptions options;
  options.in_memory = true;
  options.replica_of = primary->engine().store.dir();
  options.replica_poll_interval_ms = 0;  // Manual: tests call RunOnce().
  return options;
}

std::unique_ptr<GraphDatabase> MustOpen(const DatabaseOptions& options) {
  auto db = GraphDatabase::Open(options);
  EXPECT_TRUE(db.ok()) << db.status();
  return std::move(*db);
}

void CatchUp(GraphDatabase* replica) {
  ASSERT_TRUE(replica->replica_applier()->RunOnce().ok());
}

/// Full visible node state under one snapshot: id -> (labels, props).
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

TEST(Replication, ReplicaTailsLivePrimary) {
  auto primary = MustOpen(PrimaryOptions());
  auto replica = MustOpen(ManualReplicaOptions(primary.get()));

  NodeId alice;
  {
    auto txn = primary->Begin();
    alice = *txn->CreateNode({"Person"}, {{"name", PropertyValue("alice")}});
    ASSERT_TRUE(txn->Commit().ok());
  }
  CatchUp(replica.get());

  auto reader = replica->Begin();
  auto view = reader->GetNode(alice);
  ASSERT_TRUE(view.ok()) << view.status();
  EXPECT_EQ(view->props.at("name").AsString(), "alice");
  EXPECT_TRUE(*reader->NodeHasLabel(alice, "Person"));

  // Watermark bookkeeping: the replica published the primary's history.
  const DatabaseStats stats = replica->Stats();
  EXPECT_TRUE(stats.is_replica);
  EXPECT_GE(stats.replica_applied_ts, 1u);
  EXPECT_GE(stats.replica_records_applied, 1u);
  EXPECT_FALSE(primary->Stats().is_replica);
}

TEST(Replication, UpdatesDeletesAndIndexesShip) {
  auto primary = MustOpen(PrimaryOptions());
  auto replica = MustOpen(ManualReplicaOptions(primary.get()));

  NodeId a, b;
  RelId rel;
  {
    auto txn = primary->Begin();
    a = *txn->CreateNode({"Person"}, {{"name", PropertyValue("a")}});
    b = *txn->CreateNode({"Person"}, {{"name", PropertyValue("b")}});
    rel = *txn->CreateRelationship(a, b, "KNOWS",
                                   {{"since", PropertyValue(int64_t{2016})}});
    ASSERT_TRUE(txn->Commit().ok());
  }
  {
    auto txn = primary->Begin();
    ASSERT_TRUE(txn->SetNodeProperty(a, "name", PropertyValue("a2")).ok());
    ASSERT_TRUE(txn->AddLabel(a, "Admin").ok());
    ASSERT_TRUE(txn->RemoveLabel(b, "Person").ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  CatchUp(replica.get());

  auto reader = replica->Begin();
  EXPECT_EQ(reader->GetNode(a)->props.at("name").AsString(), "a2");
  // Label index replay: membership diffs were stamped at the record's ts.
  auto admins = reader->GetNodesByLabel("Admin");
  ASSERT_TRUE(admins.ok());
  EXPECT_EQ(*admins, std::vector<NodeId>{a});
  auto persons = reader->GetNodesByLabel("Person");
  ASSERT_TRUE(persons.ok());
  EXPECT_EQ(*persons, std::vector<NodeId>{a});
  // Property index replay (old value removed, new value added).
  EXPECT_TRUE(reader->GetNodesByProperty("name", PropertyValue("a"))->empty());
  EXPECT_EQ(*reader->GetNodesByProperty("name", PropertyValue("a2")),
            std::vector<NodeId>{a});
  // Topology ships too.
  auto neighbors = reader->GetNeighbors(a);
  ASSERT_TRUE(neighbors.ok());
  EXPECT_EQ(*neighbors, std::vector<NodeId>{b});
  EXPECT_EQ(reader->GetRelationship(rel)->props.at("since").AsInt(), 2016);

  {
    auto txn = primary->Begin();
    ASSERT_TRUE(txn->DeleteRelationship(rel).ok());
    ASSERT_TRUE(txn->DeleteNode(b).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  CatchUp(replica.get());
  auto reader2 = replica->Begin();
  EXPECT_TRUE(reader2->GetNode(b).status().IsNotFound());
  EXPECT_TRUE(reader2->GetRelationship(rel).status().IsNotFound());
  // The earlier snapshot still sees the pre-delete world (its versions are
  // pinned by its registration).
  EXPECT_TRUE(reader->GetNode(b).ok());
}

TEST(Replication, ReplicaIsReadOnlyWithRetryableStatus) {
  auto primary = MustOpen(PrimaryOptions());
  auto replica = MustOpen(ManualReplicaOptions(primary.get()));

  auto txn = replica->Begin();
  Status s = txn->CreateNode({"Person"}).status();
  EXPECT_TRUE(s.IsReplicaReadOnly()) << s;
  EXPECT_TRUE(s.IsRetryable());

  // Serializable isolation cannot be validated replica-side: first use
  // fails with the same routing status.
  auto ser = replica->Begin(IsolationLevel::kSerializable);
  Status read = ser->GetNode(1).status();
  EXPECT_TRUE(read.IsReplicaReadOnly()) << read;

  // Snapshot and read-committed reads are the replica's job.
  EXPECT_TRUE(
      replica->Begin(IsolationLevel::kSnapshotIsolation)->AllNodes().ok());
  EXPECT_TRUE(
      replica->Begin(IsolationLevel::kReadCommitted)->AllNodes().ok());
}

TEST(Replication, SnapshotsAreTransactionallyConsistent) {
  // Two accounts, constant total; every replica snapshot must see the
  // invariant no matter where replay stands.
  auto primary = MustOpen(PrimaryOptions());
  auto replica = MustOpen(ManualReplicaOptions(primary.get()));

  NodeId x, y;
  {
    auto txn = primary->Begin();
    x = *txn->CreateNode({"Acct"}, {{"bal", PropertyValue(int64_t{500})}});
    y = *txn->CreateNode({"Acct"}, {{"bal", PropertyValue(int64_t{500})}});
    ASSERT_TRUE(txn->Commit().ok());
  }
  for (int i = 0; i < 25; ++i) {
    auto txn = primary->Begin();
    const int64_t bx = txn->GetNodeProperty(x, "bal")->AsInt();
    const int64_t by = txn->GetNodeProperty(y, "bal")->AsInt();
    ASSERT_TRUE(
        txn->SetNodeProperty(x, "bal", PropertyValue(bx - 7)).ok());
    ASSERT_TRUE(
        txn->SetNodeProperty(y, "bal", PropertyValue(by + 7)).ok());
    ASSERT_TRUE(txn->Commit().ok());
    CatchUp(replica.get());

    auto reader = replica->Begin();
    if (reader->NodeExists(x)) {
      const int64_t rx = reader->GetNodeProperty(x, "bal")->AsInt();
      const int64_t ry = reader->GetNodeProperty(y, "bal")->AsInt();
      EXPECT_EQ(rx + ry, 1000) << "snapshot saw a torn transfer";
    }
  }
  EXPECT_EQ(Materialize(primary.get()), Materialize(replica.get()));
}

TEST(Replication, SessionMonotonicReadsAcrossReplicas) {
  auto primary = MustOpen(PrimaryOptions());
  auto fresh = MustOpen(ManualReplicaOptions(primary.get()));
  auto stale = MustOpen(ManualReplicaOptions(primary.get()));

  NodeId id;
  {
    auto txn = primary->Begin();
    id = *txn->CreateNode({"Person"});
    ASSERT_TRUE(txn->Commit().ok());
  }
  CatchUp(fresh.get());  // `stale` deliberately does not run.

  ReplicaSession session;
  auto on_fresh = session.Begin(fresh.get());
  EXPECT_TRUE(on_fresh->GetNode(id).ok());
  const Timestamp floor = session.floor();
  EXPECT_GE(floor, 1u);

  // Routing the session to the lagging replica must NOT travel back in
  // time: once it catches up, the session's snapshot is at or above the
  // floor and sees everything the first read saw.
  CatchUp(stale.get());
  auto on_stale = session.Begin(stale.get());
  EXPECT_GE(on_stale->start_ts(), floor);
  EXPECT_TRUE(on_stale->GetNode(id).ok());

  // Read-your-writes: feed a primary commit timestamp into the floor.
  Timestamp commit_ts;
  {
    auto txn = primary->Begin();
    ASSERT_TRUE(txn->AddLabel(id, "Admin").ok());
    ASSERT_TRUE(txn->Commit().ok());
    commit_ts = txn->commit_ts();
  }
  session.AdvanceFloor(commit_ts);
  CatchUp(fresh.get());
  auto again = session.Begin(fresh.get());
  EXPECT_GE(again->start_ts(), commit_ts);
  EXPECT_TRUE(*again->NodeHasLabel(id, "Admin"));
}

TEST(Replication, ShippedPurgeCancelsConflictingSnapshots) {
  auto primary = MustOpen(PrimaryOptions());
  DatabaseOptions replica_options = ManualReplicaOptions(primary.get());
  replica_options.replica_conflict_grace_ms = 0;  // Cancel immediately.
  auto replica = MustOpen(replica_options);

  NodeId doomed;
  {
    auto txn = primary->Begin();
    doomed = *txn->CreateNode({"Tmp"});
    ASSERT_TRUE(txn->Commit().ok());
  }
  CatchUp(replica.get());

  // A replica snapshot that can still see the node.
  auto old_reader = replica->Begin();
  ASSERT_TRUE(old_reader->GetNode(doomed).ok());

  // Primary deletes and physically reclaims (purge record ships).
  {
    auto txn = primary->Begin();
    ASSERT_TRUE(txn->DeleteNode(doomed).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  const GcStats gc = primary->RunGc();
  ASSERT_GE(gc.tombstones_purged, 1u);
  CatchUp(replica.get());

  const DatabaseStats stats = replica->Stats();
  EXPECT_GE(stats.replica_purges_applied, 1u);
  EXPECT_GE(stats.snapshots_expired_replication, 1u);
  // The standby conflict surfaces as the snapshot-lifecycle status.
  Status s = old_reader->GetNode(doomed).status();
  EXPECT_TRUE(s.IsSnapshotTooOld()) << s;
  // A fresh snapshot simply no longer sees the node.
  EXPECT_TRUE(replica->Begin()->GetNode(doomed).status().IsNotFound());
}

TEST(Replication, EmptyReplicaJoiningMidLifeNeedsRetainedHistory) {
  // A primary that has checkpointed its early segments away cannot seed an
  // empty replica: the gap is detected, reported as Corruption, and the
  // applier parks instead of serving a hole-y history.
  DatabaseOptions primary_options = PrimaryOptions();
  primary_options.wal_segment_size = 512;  // Rotate constantly.
  auto primary = MustOpen(primary_options);
  for (int i = 0; i < 40; ++i) {
    auto txn = primary->Begin();
    ASSERT_TRUE(
        txn->CreateNode({"Bulk"}, {{"i", PropertyValue(int64_t{i})}}).ok());
    ASSERT_TRUE(txn->Commit().ok());
    if (i % 8 == 7) ASSERT_TRUE(primary->Checkpoint().ok());
  }
  ASSERT_GT(primary->engine().store.wal().HeadLsn(), 0u)
      << "test needs retired history";

  auto replica = MustOpen(ManualReplicaOptions(primary.get()));
  Status s = replica->replica_applier()->RunOnce();
  EXPECT_TRUE(s.IsCorruption()) << s;
  EXPECT_NE(s.message().find("re-seed"), std::string::npos) << s;
  EXPECT_TRUE(replica->replica_applier()->last_error().IsCorruption());
}

TEST(Replication, KeepSegmentsWidensTheShippingWindow) {
  // Same churn as above, but the primary retains enough segments for a
  // fresh replica to replay the full history.
  DatabaseOptions primary_options = PrimaryOptions();
  primary_options.wal_segment_size = 512;
  primary_options.wal_keep_segments = 64;
  auto primary = MustOpen(primary_options);
  for (int i = 0; i < 40; ++i) {
    auto txn = primary->Begin();
    ASSERT_TRUE(
        txn->CreateNode({"Bulk"}, {{"i", PropertyValue(int64_t{i})}}).ok());
    ASSERT_TRUE(txn->Commit().ok());
    if (i % 8 == 7) ASSERT_TRUE(primary->Checkpoint().ok());
  }
  auto replica = MustOpen(ManualReplicaOptions(primary.get()));
  CatchUp(replica.get());
  EXPECT_EQ(Materialize(primary.get()), Materialize(replica.get()));
}

// Transactions can commit in a different order than they created their
// tokens in. The replica must keep the primary's ids: the entity ops refer
// to tokens by id.
TEST(Replication, TokensKeepPrimaryIdsWhenCommittedOutOfCreationOrder) {
  auto primary = MustOpen(PrimaryOptions());
  auto replica = MustOpen(ManualReplicaOptions(primary.get()));

  auto first = primary->Begin();
  auto second = primary->Begin();
  ASSERT_TRUE(first->CreateNode({"First"}, {{"a", PropertyValue("1")}}).ok());
  ASSERT_TRUE(second->CreateNode({"Second"}, {{"b", PropertyValue("2")}}).ok());
  ASSERT_TRUE(second->Commit().ok());
  ASSERT_TRUE(first->Commit().ok());
  CatchUp(replica.get());

  EXPECT_EQ(Materialize(primary.get()), Materialize(replica.get()));
  EXPECT_EQ(*replica->engine().store.labels().Lookup("First"),
            *primary->engine().store.labels().Lookup("First"));
}

// Tokens are never rolled back: once a creator has published a token's id,
// any writer may name it, even after the creator aborts. The creation must
// therefore reach the log on its own, or the replica holds an id it cannot
// name.
TEST(Replication, TokenOfAnAbortedCreatorShipsBeforeItsFirstUse) {
  auto primary = MustOpen(PrimaryOptions());
  auto replica = MustOpen(ManualReplicaOptions(primary.get()));

  NodeId node;
  {
    auto txn = primary->Begin();
    node = *txn->CreateNode({"Person"});
    ASSERT_TRUE(txn->Commit().ok());
  }
  {
    auto creator = primary->Begin();
    ASSERT_TRUE(creator->AddLabel(node, "Fresh").ok());
    ASSERT_TRUE(creator->Abort().ok());
  }
  {
    auto user = primary->Begin();
    ASSERT_TRUE(user->AddLabel(node, "Fresh").ok());
    ASSERT_TRUE(user->Commit().ok());
  }
  CatchUp(replica.get());

  auto reader = replica->Begin();
  auto view = reader->GetNode(node);
  ASSERT_TRUE(view.ok()) << view.status();
  EXPECT_EQ(view->labels, (std::vector<std::string>{"Person", "Fresh"}));
  auto fresh = reader->GetNodesByLabel("Fresh");
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_EQ(*fresh, std::vector<NodeId>{node});
}

TEST(Replication, DaemonModeFollowsConcurrentWriters) {
  // Live mode: the applier daemon tails while writer threads churn the
  // primary over many tiny segments — the adoption-race and torn-tail
  // paths get exercised for real here.
  DatabaseOptions primary_options = PrimaryOptions();
  primary_options.wal_segment_size = 1024;
  primary_options.wal_keep_segments = 1024;  // Never outrun the tailer.
  auto primary = MustOpen(primary_options);

  DatabaseOptions replica_options = ManualReplicaOptions(primary.get());
  replica_options.replica_poll_interval_ms = 1;
  auto replica = MustOpen(replica_options);

  constexpr int kWriters = 3;
  constexpr int kTxnsPerWriter = 40;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&primary, w] {
      for (int i = 0; i < kTxnsPerWriter; ++i) {
        auto txn = primary->Begin();
        auto id = txn->CreateNode(
            {"W" + std::to_string(w)},
            {{"i", PropertyValue(int64_t{i})}});
        if (!id.ok() || !txn->Commit().ok()) {
          ADD_FAILURE() << "writer failed";
          return;
        }
      }
    });
  }
  for (auto& t : writers) t.join();

  ASSERT_TRUE(replica->replica_applier()->WaitCaughtUp(30000))
      << replica->replica_applier()->last_error();
  EXPECT_EQ(Materialize(primary.get()), Materialize(replica.get()));
  const DatabaseStats stats = replica->Stats();
  EXPECT_EQ(stats.replica_applied_ts, primary->Stats().last_committed);
}

TEST(Replication, ReplicaKeepsServingAfterPrimaryCloses) {
  auto primary = MustOpen(PrimaryOptions());
  auto replica = MustOpen(ManualReplicaOptions(primary.get()));
  NodeId id;
  {
    auto txn = primary->Begin();
    id = *txn->CreateNode({"Person"});
    ASSERT_TRUE(txn->Commit().ok());
  }
  CatchUp(replica.get());
  primary.reset();  // The shared in-memory Dir outlives the primary.
  EXPECT_TRUE(replica->Begin()->GetNode(id).ok());
  CatchUp(replica.get());  // Polling a quiescent source stays clean.
}

// ---------------------------------------------------------------------------
// Tailer robustness at the ReplicationSource level (deterministic byte-level
// scenarios a live primary only produces probabilistically).
// ---------------------------------------------------------------------------

class TailerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_shared<InMemoryDir>();
    WalOptions options;
    options.segment_size = 256;  // Tiny: every few records rotate.
    wal_ = std::make_unique<Wal>(dir_, options);
    ASSERT_TRUE(wal_->Open().ok());
  }

  WalRecord MakeRecord(Timestamp ts) {
    WalRecord record;
    record.txn_id = ts;
    record.commit_ts = ts;
    record.ops.push_back(WalOp::CreateNode(ts, {}, {}));
    return record;
  }

  std::shared_ptr<InMemoryDir> dir_;
  std::unique_ptr<Wal> wal_;
};

TEST_F(TailerTest, ShipsAcrossRotationsAndTracksCursor) {
  ReplicationSource source(dir_);
  Lsn cursor = 0;
  std::vector<ShippedRecord> shipped;
  for (Timestamp ts = 1; ts <= 50; ++ts) {
    ASSERT_TRUE(wal_->Append(MakeRecord(ts)).ok());
  }
  ASSERT_GT(wal_->SegmentCount(), 1u);
  ASSERT_TRUE(source.Poll(cursor, &shipped, &cursor).ok());
  ASSERT_EQ(shipped.size(), 50u);
  for (size_t i = 0; i < shipped.size(); ++i) {
    EXPECT_EQ(shipped[i].record.commit_ts, i + 1);
    if (i > 0) EXPECT_GT(shipped[i].lsn, shipped[i - 1].lsn);
  }
  // Incremental polls ship only the delta.
  std::vector<ShippedRecord> more;
  ASSERT_TRUE(source.Poll(cursor, &more, &cursor).ok());
  EXPECT_TRUE(more.empty());
  ASSERT_TRUE(wal_->Append(MakeRecord(51)).ok());
  ASSERT_TRUE(source.Poll(cursor, &more, &cursor).ok());
  ASSERT_EQ(more.size(), 1u);
  EXPECT_EQ(more[0].record.commit_ts, 51u);
}

TEST_F(TailerTest, TornTailInNewestSegmentShipsCleanPrefixOnly) {
  for (Timestamp ts = 1; ts <= 5; ++ts) {
    ASSERT_TRUE(wal_->Append(MakeRecord(ts)).ok());
  }
  // Corrupt the last frame's payload bytes in the newest segment — exactly
  // what a torn in-flight append looks like to a tailer.
  std::vector<std::string> names;
  ASSERT_TRUE(dir_->List(&names).ok());
  uint64_t newest = 0;
  std::string newest_name;
  for (const auto& name : names) {
    if (name.rfind("wal.", 0) == 0 && name >= newest_name) {
      newest_name = name;
      newest = 1;
    }
  }
  ASSERT_EQ(newest, 1u);
  std::shared_ptr<PagedFile> file;
  ASSERT_TRUE(dir_->OpenExisting(newest_name, &file).ok());
  const uint64_t size = file->Size();
  ASSERT_GT(size, 4u);
  const char garbage[4] = {'\x5a', '\x5a', '\x5a', '\x5a'};
  ASSERT_TRUE(file->WriteAt(size - 4, garbage, 4).ok());

  ReplicationSource source(dir_);
  Lsn cursor = 0;
  std::vector<ShippedRecord> shipped;
  ASSERT_TRUE(source.Poll(cursor, &shipped, &cursor).ok());
  // The torn record is withheld, everything before it ships.
  ASSERT_FALSE(shipped.empty());
  EXPECT_LT(shipped.size(), 5u);
  for (const auto& s : shipped) EXPECT_LT(s.record.commit_ts, 5u);
}

TEST_F(TailerTest, CursorBelowRetainedHistoryIsCorruption) {
  for (Timestamp ts = 1; ts <= 40; ++ts) {
    ASSERT_TRUE(wal_->Append(MakeRecord(ts)).ok());
  }
  // Retire every full segment below the stable cursor (checkpoint path).
  ASSERT_TRUE(wal_->TruncatePrefix(wal_->StableLsn()).ok());
  ASSERT_GT(wal_->HeadLsn(), 0u);

  ReplicationSource source(dir_);
  Lsn cursor = 0;
  std::vector<ShippedRecord> shipped;
  Status s = source.Poll(0, &shipped, &cursor);
  EXPECT_TRUE(s.IsCorruption()) << s;
  // From the oldest RETAINED base the walk is clean.
  shipped.clear();
  cursor = wal_->HeadLsn();
  EXPECT_TRUE(source.Poll(cursor, &shipped, &cursor).ok());
}

TEST_F(TailerTest, RetiredSegmentsBelowTheCursorAreNeverRead) {
  // Ship several segments, then retire them under the tailer: its cursor
  // is already past them, so later polls read only the live chain.
  for (Timestamp ts = 1; ts <= 50; ++ts) {
    ASSERT_TRUE(wal_->Append(MakeRecord(ts)).ok());
  }
  ReplicationSource source(dir_);
  Lsn cursor = 0;
  std::vector<ShippedRecord> shipped;
  ASSERT_TRUE(source.Poll(cursor, &shipped, &cursor).ok());
  const size_t total = shipped.size();
  ASSERT_EQ(total, 50u);

  // Truncate the prefix (unlinking the retired files) and keep appending:
  // subsequent polls ship only new records and never trip on the gone
  // files.
  ASSERT_TRUE(wal_->TruncatePrefix(wal_->StableLsn()).ok());
  ASSERT_TRUE(wal_->Append(MakeRecord(51)).ok());
  std::vector<ShippedRecord> more;
  ASSERT_TRUE(source.Poll(cursor, &more, &cursor).ok());
  ASSERT_EQ(more.size(), 1u);
  EXPECT_EQ(more[0].record.commit_ts, 51u);
}

}  // namespace
}  // namespace neosi
