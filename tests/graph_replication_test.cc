// WAL-shipping read replicas: live tailing, replay-watermark snapshots,
// session monotonic reads, standby conflicts, re-seed errors, and the
// tailer's robustness against segment recycling and torn tails.

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/coding.h"
#include "graph/graph_database.h"
#include "storage/dir.h"
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
// Tailer robustness at the Wal::Tail level (deterministic byte-level
// scenarios a live primary only produces probabilistically).
// ---------------------------------------------------------------------------

WalRecord MakeRecord(Timestamp ts) {
  WalRecord record;
  record.txn_id = ts;
  record.commit_ts = ts;
  record.ops.push_back(WalOp::CreateNode(ts, {}, {}));
  return record;
}

class TailerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_shared<InMemoryDir>();
    WalOptions options;
    options.segment_size = 256;  // Tiny: every few records rotate.
    wal_ = std::make_unique<Wal>(dir_, options);
    ASSERT_TRUE(wal_->Open().ok());
  }

  std::shared_ptr<InMemoryDir> dir_;
  std::unique_ptr<Wal> wal_;
};

TEST_F(TailerTest, ShipsAcrossRotationsAndTracksCursor) {
  Lsn cursor = 0;
  std::vector<ShippedRecord> shipped;
  for (Timestamp ts = 1; ts <= 50; ++ts) {
    ASSERT_TRUE(wal_->Append(MakeRecord(ts)).ok());
  }
  ASSERT_GT(wal_->SegmentCount(), 1u);
  ASSERT_TRUE(Wal::Tail(*dir_, cursor, &shipped, &cursor).ok());
  ASSERT_EQ(shipped.size(), 50u);
  for (size_t i = 0; i < shipped.size(); ++i) {
    EXPECT_EQ(shipped[i].record.commit_ts, i + 1);
    if (i > 0) EXPECT_GT(shipped[i].lsn, shipped[i - 1].lsn);
  }
  // Incremental polls ship only the delta.
  std::vector<ShippedRecord> more;
  ASSERT_TRUE(Wal::Tail(*dir_, cursor, &more, &cursor).ok());
  EXPECT_TRUE(more.empty());
  ASSERT_TRUE(wal_->Append(MakeRecord(51)).ok());
  ASSERT_TRUE(Wal::Tail(*dir_, cursor, &more, &cursor).ok());
  ASSERT_EQ(more.size(), 1u);
  EXPECT_EQ(more[0].record.commit_ts, 51u);
}

TEST_F(TailerTest, RetiredSegmentsBelowTheCursorAreNeverRead) {
  // Ship several segments, then retire them under the tailer: its cursor
  // is already past them, so later polls read only the live chain.
  for (Timestamp ts = 1; ts <= 50; ++ts) {
    ASSERT_TRUE(wal_->Append(MakeRecord(ts)).ok());
  }
  Lsn cursor = 0;
  std::vector<ShippedRecord> shipped;
  ASSERT_TRUE(Wal::Tail(*dir_, cursor, &shipped, &cursor).ok());
  const size_t total = shipped.size();
  ASSERT_EQ(total, 50u);

  // Truncate the prefix (unlinking the retired files) and keep appending:
  // subsequent polls ship only new records and never trip on the gone
  // files.
  ASSERT_TRUE(wal_->TruncatePrefix(wal_->StableLsn()).ok());
  ASSERT_TRUE(wal_->Append(MakeRecord(51)).ok());
  std::vector<ShippedRecord> more;
  ASSERT_TRUE(Wal::Tail(*dir_, cursor, &more, &cursor).ok());
  ASSERT_EQ(more.size(), 1u);
  EXPECT_EQ(more[0].record.commit_ts, 51u);
}

// ---------------------------------------------------------------------------
// One table over both WAL readers. Each row damages a chain of tiny
// segments the way a crash or a racing primary can, then states what the
// replica's Wal::Tail does and what recovery's ReadFrom does after a
// reopen. Tail never changes a name or a byte of the primary's Dir.
// ---------------------------------------------------------------------------

using DirBytes = std::map<std::string, std::string>;

/// Every file in `dir`, with its bytes.
DirBytes DirContents(Dir& dir) {
  DirBytes out;
  std::vector<std::string> names;
  EXPECT_TRUE(dir.List(&names).ok());
  for (const std::string& name : names) {
    std::shared_ptr<PagedFile> file;
    EXPECT_TRUE(dir.OpenExisting(name, &file).ok()) << name;
    std::string bytes(file->Size(), '\0');
    EXPECT_TRUE(file->ReadAt(0, bytes.size(), bytes.data()).ok()) << name;
    out[name] = std::move(bytes);
  }
  return out;
}

/// A primary chain of 50 records over 256-byte segments, and what a clean
/// poll read from it before any damage.
struct Chain {
  std::shared_ptr<InMemoryDir> dir = std::make_shared<InMemoryDir>();
  std::vector<ShippedRecord> records;
  Lsn end = 0;  ///< One past the last record.

  /// Segment names, oldest first (the indices are zero-padded).
  std::vector<std::string> Segments() const {
    std::vector<std::string> out;
    for (const auto& [name, bytes] : DirContents(*dir)) out.push_back(name);
    return out;
  }

  std::shared_ptr<PagedFile> File(const std::string& name) const {
    std::shared_ptr<PagedFile> file;
    EXPECT_TRUE(dir->OpenExisting(name, &file).ok()) << name;
    return file;
  }

  /// Timestamps of the clean records in [from, below); *next is one past
  /// the last of them (`from` when there is none).
  std::vector<Timestamp> Between(Lsn from, Lsn below, Lsn* next) const {
    std::vector<Timestamp> out;
    *next = from;
    for (size_t i = 0; i < records.size(); ++i) {
      if (records[i].lsn < from || records[i].lsn >= below) continue;
      out.push_back(records[i].record.commit_ts);
      *next = i + 1 < records.size() ? records[i + 1].lsn : end;
    }
    return out;
  }
};

/// Where a row leaves the readers.
struct Damaged {
  Lsn tail_from = 0;             ///< Cursor Tail polls from.
  Lsn head = 0;                  ///< First record recovery replays.
  Lsn clean_below = kInvalidId;  ///< A clean read stops below this LSN.
};

struct ReaderRow {
  const char* name;
  /// Damages the chain while its Wal is still open.
  std::function<Damaged(Chain&, Wal&)> damage;
  bool tail_corrupt;
  bool recovery_corrupt;
  /// Optional checks after both readers ran: `before` is the Dir as the
  /// damage left it, `shipped` is Tail's batch.
  std::function<void(const Chain&, const Damaged&, const DirBytes& before,
                     const std::vector<ShippedRecord>& shipped)>
      check;
};

std::vector<Timestamp> Timestamps(const std::vector<ShippedRecord>& batch) {
  std::vector<Timestamp> out;
  for (const auto& shipped : batch) out.push_back(shipped.record.commit_ts);
  return out;
}

const std::vector<ReaderRow>& ReaderRows() {
  static const std::vector<ReaderRow> rows = {
      {"torn newest tail",
       [](Chain& chain, Wal&) {
         // Garbage over the last frame's payload: a torn in-flight append.
         auto file = chain.File(chain.Segments().back());
         const char garbage[4] = {'\x5a', '\x5a', '\x5a', '\x5a'};
         EXPECT_TRUE(file->WriteAt(file->Size() - 4, garbage, 4).ok());
         return Damaged{0, 0, chain.records.back().lsn};
       },
       false, false,
       [](const Chain& chain, const Damaged&, const DirBytes& before,
          const std::vector<ShippedRecord>& shipped) {
         // The torn record is withheld, everything before it ships.
         ASSERT_FALSE(shipped.empty());
         EXPECT_LT(shipped.size(), chain.records.size());
         for (const auto& s : shipped) {
           EXPECT_LT(s.record.commit_ts,
                     chain.records.back().record.commit_ts);
         }
         // Only recovery truncates: the reopen cut the torn frame off.
         const std::string newest = before.rbegin()->first;
         EXPECT_EQ(chain.File(newest)->Size(),
                   before.at(newest).size() -
                       (chain.end - chain.records.back().lsn));
       }},
      {"flipped byte in an older segment",
       [](Chain& chain, Wal&) {
         auto file = chain.File(chain.Segments().front());
         char byte = 0;
         const uint64_t at = Wal::kSegmentHeaderSize + 8;  // First payload.
         EXPECT_TRUE(file->ReadAt(at, 1, &byte).ok());
         byte = static_cast<char>(byte ^ 0xff);
         EXPECT_TRUE(file->WriteAt(at, &byte, 1).ok());
         return Damaged{};
       },
       true, true, nullptr},
      {"CRC-valid frame that does not decode, newest segment",
       [](Chain& chain, Wal&) {
         // What a record format this build does not know looks like: the
         // frame is whole and its CRC holds, the payload is no WalRecord.
         auto file = chain.File(chain.Segments().back());
         const char payload[1] = {'\x80'};  // An unfinished varint.
         char frame[9];
         EncodeFixed32(frame, 1);
         EncodeFixed32(frame + 4, Crc32c(payload, 1));
         frame[8] = payload[0];
         EXPECT_TRUE(file->WriteAt(file->Size(), frame, sizeof frame).ok());
         return Damaged{};
       },
       true, true, nullptr},
      {"headerless newest segment",
       [](Chain& chain, Wal&) {
         // A crash mid-adoption: the next chain name exists, its header
         // never landed.
         const std::string name = Wal::SegmentName(
             std::stoull(chain.Segments().back().substr(4)) + 1);
         std::shared_ptr<PagedFile> file;
         EXPECT_TRUE(chain.dir->Open(name, &file).ok());
         EXPECT_TRUE(file->WriteAt(0, "NWS", 3).ok());
         return Damaged{};
       },
       false, false,
       [](const Chain& chain, const Damaged&, const DirBytes& before,
          const std::vector<ShippedRecord>&) {
         // Tail skipped it; the reopen discarded it.
         const std::string husk = before.rbegin()->first;
         EXPECT_EQ(before.at(husk).size(), 3u);
         EXPECT_FALSE(chain.dir->Exists(husk));
       }},
      {"cursor below the head",
       [](Chain&, Wal& wal) {
         // Retire every full segment below the stable cursor (the
         // checkpoint path); the replica's cursor 0 is history now.
         EXPECT_TRUE(wal.TruncatePrefix(wal.StableLsn()).ok());
         EXPECT_GT(wal.HeadLsn(), 0u);
         // Recovery replays from the oldest retained segment's base.
         const Lsn next = wal.NextLsn();
         return Damaged{0, next - (wal.PhysOf(next) - Wal::kSegmentHeaderSize)};
       },
       true, false,
       [](const Chain& chain, const Damaged& damaged, const DirBytes&,
          const std::vector<ShippedRecord>&) {
         // From the oldest RETAINED base the walk is clean.
         std::vector<ShippedRecord> shipped;
         Lsn next = 0;
         ASSERT_TRUE(
             Wal::Tail(*chain.dir, damaged.head, &shipped, &next).ok());
         Lsn want_next = 0;
         EXPECT_EQ(Timestamps(shipped),
                   chain.Between(damaged.head, kInvalidId, &want_next));
         EXPECT_EQ(next, chain.end);
       }},
      {"stale successor its predecessor grew past",
       [](Chain& chain, Wal&) {
         // What an undone roll whose Remove failed leaves: the successor's
         // name and header, no frames, and the predecessor appending on
         // past that base. Frames carry no LSN, so the successor's frames
         // moved onto the predecessor are valid frames there.
         const std::vector<std::string> names = chain.Segments();
         auto pred = chain.File(names[names.size() - 2]);
         auto succ = chain.File(names.back());
         std::string frames(succ->Size() - Wal::kSegmentHeaderSize, '\0');
         EXPECT_TRUE(succ->ReadAt(Wal::kSegmentHeaderSize, frames.size(),
                                  frames.data())
                         .ok());
         EXPECT_TRUE(
             pred->WriteAt(pred->Size(), frames.data(), frames.size()).ok());
         EXPECT_TRUE(succ->Truncate(Wal::kSegmentHeaderSize).ok());
         // Tail ships the predecessor up to the successor's base.
         return Damaged{0, 0, chain.end - frames.size()};
       },
       false, true, nullptr},
  };
  return rows;
}

TEST(WalReaders, DamagedChainTable) {
  WalOptions options;
  options.segment_size = 256;  // Tiny: every few records rotate.
  for (const ReaderRow& row : ReaderRows()) {
    SCOPED_TRACE(row.name);
    Chain chain;
    Damaged damaged;
    {
      Wal wal(chain.dir, options);
      ASSERT_TRUE(wal.Open().ok());
      for (Timestamp ts = 1; ts <= 50; ++ts) {
        ASSERT_TRUE(wal.Append(MakeRecord(ts)).ok());
      }
      ASSERT_GT(wal.SegmentCount(), 2u);
      ASSERT_TRUE(Wal::Tail(*chain.dir, 0, &chain.records, &chain.end).ok());
      ASSERT_EQ(chain.records.size(), 50u);
      damaged = row.damage(chain, wal);
    }

    // The replica's tailer.
    const DirBytes before = DirContents(*chain.dir);
    std::vector<ShippedRecord> shipped;
    Lsn next = 0;
    Status tailed = Wal::Tail(*chain.dir, damaged.tail_from, &shipped, &next);
    EXPECT_EQ(DirContents(*chain.dir), before) << "Tail changed the Dir";
    Lsn want_next = 0;
    const std::vector<Timestamp> want_tail =
        chain.Between(damaged.tail_from, damaged.clean_below, &want_next);
    if (row.tail_corrupt) {
      EXPECT_TRUE(tailed.IsCorruption()) << tailed;
    } else {
      ASSERT_TRUE(tailed.ok()) << tailed;
      EXPECT_EQ(Timestamps(shipped), want_tail);
      EXPECT_EQ(next, want_next);
    }

    // Recovery: reopen, replay from the head.
    Wal reopened(chain.dir, options);
    Status recovered = reopened.Open();
    std::vector<Timestamp> replayed;
    if (recovered.ok()) {
      recovered = reopened.ReadAll([&](const WalRecord& record) {
        replayed.push_back(record.commit_ts);
        return Status::OK();
      });
    }
    if (row.recovery_corrupt) {
      EXPECT_TRUE(recovered.IsCorruption()) << recovered;
    } else {
      ASSERT_TRUE(recovered.ok()) << recovered;
      EXPECT_EQ(replayed,
                chain.Between(damaged.head, damaged.clean_below, &want_next));
    }
    if (row.check) row.check(chain, damaged, before, shipped);
  }
}

}  // namespace
}  // namespace neosi
