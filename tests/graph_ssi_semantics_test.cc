// Serializable Snapshot Isolation semantics, anchored on PostgreSQL's
// serializable-parallel.spec — the read-only transaction anomaly example
// from "A Read-Only Transaction Anomaly Under Snapshot Isolation" (O'Neil
// et al.). Bank accounts X and Y are nodes; three sessions:
//
//   s1: reads Y, writes Y=20, commits.
//   s2: reads X and Y, later writes X=-11.
//   s3: read-only, reads X and Y.
//
// Permutation 1 (no s3 read):  s2rx s2ry s1ry s1wy s1c s2wx s2c s3c
//   -> all three commit (the rw-edge s2->s1 alone is not dangerous).
// Permutation 2 (s3 observes s1): s2rx s2ry s1ry s1wy s1c s3r s3c s2wx
//   -> s3 saw Y=20 but not s2's X write, closing the cycle
//      s2 -rw-> s1 -wr-> s3 -rw-> s2; exactly s2 must abort with
//      SerializationFailure. Under plain SI both permutations commit —
//      that contrast is asserted here too.
//
// One modeling note: PostgreSQL takes a transaction's snapshot at its
// first statement, not at BEGIN — s3's snapshot postdates s1's commit in
// permutation 2 because s3r runs after s1c. neosi takes the snapshot at
// Begin(), so each session Begins at its first step to replay the spec
// faithfully.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <iterator>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "graph/graph_database.h"
#include "sync_points.h"

namespace neosi {
namespace {

std::unique_ptr<GraphDatabase> OpenDb() {
  DatabaseOptions options;
  options.in_memory = true;
  auto db = GraphDatabase::Open(options);
  EXPECT_TRUE(db.ok()) << db.status();
  return std::move(*db);
}

struct Accounts {
  NodeId x = kInvalidNodeId;
  NodeId y = kInvalidNodeId;
};

Accounts SetupBank(GraphDatabase& db) {
  Accounts accounts;
  auto txn = db.Begin();
  accounts.x = *txn->CreateNode({"Account"},
                                {{"balance", PropertyValue(int64_t{0})}});
  accounts.y = *txn->CreateNode({"Account"},
                                {{"balance", PropertyValue(int64_t{0})}});
  EXPECT_TRUE(txn->Commit().ok());
  return accounts;
}

int64_t Balance(Transaction& txn, NodeId account) {
  auto v = txn.GetNodeProperty(account, "balance");
  EXPECT_TRUE(v.ok()) << v.status();
  return v.ok() ? v->AsInt() : -1;
}

// permutation "s2rx" "s2ry" "s1ry" "s1wy" "s1c" "s2wx" "s2c" "s3c"
TEST(SsiSemantics, SpecPermutationWithoutS3ReadAllCommit) {
  auto db = OpenDb();
  const Accounts acc = SetupBank(*db);

  auto s2 = db->Begin(IsolationLevel::kSerializable);
  EXPECT_EQ(Balance(*s2, acc.x), 0);  // s2rx
  EXPECT_EQ(Balance(*s2, acc.y), 0);  // s2ry

  auto s1 = db->Begin(IsolationLevel::kSerializable);
  EXPECT_EQ(Balance(*s1, acc.y), 0);  // s1ry
  ASSERT_TRUE(                        // s1wy
      s1->SetNodeProperty(acc.y, "balance", PropertyValue(int64_t{20})).ok());
  ASSERT_TRUE(s1->Commit().ok());     // s1c

  // s2wx: s2's only rw-antidependency is OUT to the already-committed s1;
  // with no in-edge there is no dangerous structure — the write and the
  // commit must both succeed.
  ASSERT_TRUE(
      s2->SetNodeProperty(acc.x, "balance", PropertyValue(int64_t{-11})).ok());
  ASSERT_TRUE(s2->Commit().ok());     // s2c

  auto s3 = db->Begin(IsolationLevel::kSerializable);
  ASSERT_TRUE(s3->Commit().ok());     // s3c (never read anything)

  auto check = db->Begin();
  EXPECT_EQ(Balance(*check, acc.x), -11);
  EXPECT_EQ(Balance(*check, acc.y), 20);
  EXPECT_EQ(db->Stats().ssi_aborts_pivot, 0u);
  EXPECT_EQ(db->Stats().ssi_aborts_doomed, 0u);
}

// permutation "s2rx" "s2ry" "s1ry" "s1wy" "s1c" "s3r" "s3c" "s2wx"
TEST(SsiSemantics, SpecPermutationWithS3ReadAbortsExactlyS2) {
  auto db = OpenDb();
  const Accounts acc = SetupBank(*db);

  auto s2 = db->Begin(IsolationLevel::kSerializable);
  EXPECT_EQ(Balance(*s2, acc.x), 0);  // s2rx
  EXPECT_EQ(Balance(*s2, acc.y), 0);  // s2ry

  auto s1 = db->Begin(IsolationLevel::kSerializable);
  EXPECT_EQ(Balance(*s1, acc.y), 0);  // s1ry
  ASSERT_TRUE(                        // s1wy
      s1->SetNodeProperty(acc.y, "balance", PropertyValue(int64_t{20})).ok());
  ASSERT_TRUE(s1->Commit().ok());     // s1c

  // s3r: begun after s1's commit, so it observes Y=20 — but can never
  // observe s2's X write. Its SIREAD marker on X outlives its commit.
  auto s3 = db->Begin(IsolationLevel::kSerializable);
  EXPECT_EQ(Balance(*s3, acc.x), 0);
  EXPECT_EQ(Balance(*s3, acc.y), 20);
  ASSERT_TRUE(s3->Commit().ok());     // s3c

  // s2wx: the write gives s2 an in-edge from the committed s3 on top of
  // its out-edge to the committed s1 — and s3 committed after s1, so s2 is
  // a dangerous pivot and must abort HERE, with a retryable
  // SerializationFailure.
  Status s = s2->SetNodeProperty(acc.x, "balance", PropertyValue(int64_t{-11}));
  EXPECT_TRUE(s.IsSerializationFailure()) << s;
  EXPECT_TRUE(s.IsRetryable());
  EXPECT_FALSE(s2->IsActive());

  // Exactly s2 aborted: s1's and s3's effects stand, X was never written.
  auto check = db->Begin();
  EXPECT_EQ(Balance(*check, acc.x), 0);
  EXPECT_EQ(Balance(*check, acc.y), 20);
  EXPECT_EQ(db->Stats().ssi_aborts_pivot, 1u);

  // And the retry succeeds: the history minus s2 plus its rerun is serial.
  auto retry = db->Begin(IsolationLevel::kSerializable);
  EXPECT_EQ(Balance(*retry, acc.x), 0);
  EXPECT_EQ(Balance(*retry, acc.y), 20);
  ASSERT_TRUE(
      retry->SetNodeProperty(acc.x, "balance", PropertyValue(int64_t{-11}))
          .ok());
  ASSERT_TRUE(retry->Commit().ok());
}

// The same two permutations under plain kSnapshotIsolation: everything
// commits — the anomaly this suite exists to kill is SI-legal, and SSI
// must not change SI's behavior.
TEST(SsiSemantics, BothSpecPermutationsCommitUnderSnapshotIsolation) {
  for (const bool with_s3_read : {false, true}) {
    auto db = OpenDb();
    const Accounts acc = SetupBank(*db);

    auto s2 = db->Begin(IsolationLevel::kSnapshotIsolation);
    EXPECT_EQ(Balance(*s2, acc.x), 0);
    EXPECT_EQ(Balance(*s2, acc.y), 0);

    auto s1 = db->Begin(IsolationLevel::kSnapshotIsolation);
    EXPECT_EQ(Balance(*s1, acc.y), 0);
    ASSERT_TRUE(
        s1->SetNodeProperty(acc.y, "balance", PropertyValue(int64_t{20}))
            .ok());
    ASSERT_TRUE(s1->Commit().ok());

    if (with_s3_read) {
      auto s3 = db->Begin(IsolationLevel::kSnapshotIsolation);
      EXPECT_EQ(Balance(*s3, acc.x), 0);
      EXPECT_EQ(Balance(*s3, acc.y), 20);  // The anomalous observation.
      ASSERT_TRUE(s3->Commit().ok());
    }

    ASSERT_TRUE(
        s2->SetNodeProperty(acc.x, "balance", PropertyValue(int64_t{-11}))
            .ok());
    ASSERT_TRUE(s2->Commit().ok());

    auto check = db->Begin();
    EXPECT_EQ(Balance(*check, acc.x), -11);
    EXPECT_EQ(Balance(*check, acc.y), 20);
    // SI never touches the tracker at all.
    EXPECT_EQ(db->Stats().ssi_tracked_txns, 0u);
  }
}

// --- Safe snapshots ---------------------------------------------------------

// A read-only serializable transaction whose snapshot sees no concurrent
// read-write serializable transaction skips tracking entirely: it can
// never observe a dangerous structure, so it must run abort-free.
TEST(SsiSemantics, ReadOnlySafeSnapshotSkipsTrackingAndNeverAborts) {
  auto db = OpenDb();
  const Accounts acc = SetupBank(*db);

  TransactionOptions ro;
  ro.read_only = true;
  auto reader = db->Begin(IsolationLevel::kSerializable, ro);
  EXPECT_EQ(Balance(*reader, acc.x), 0);
  EXPECT_EQ(Balance(*reader, acc.y), 0);

  // Writes are rejected up front — the safe-snapshot promise depends on it.
  Status w =
      reader->SetNodeProperty(acc.x, "balance", PropertyValue(int64_t{1}));
  EXPECT_TRUE(w.IsFailedPrecondition()) << w;
  EXPECT_TRUE(reader->CreateNode({"Account"}).status().IsFailedPrecondition());

  ASSERT_TRUE(reader->Commit().ok());
  const DatabaseStats stats = db->Stats();
  EXPECT_GE(stats.ssi_safe_snapshots, 1u);
  EXPECT_EQ(stats.ssi_aborts_pivot, 0u);
  EXPECT_EQ(stats.ssi_aborts_doomed, 0u);
}

// With a read-write serializable transaction in flight, the read-only
// transaction's snapshot is NOT safe — it must be tracked (it could be the
// s3 of a read-only anomaly) but stays write-rejected.
TEST(SsiSemantics, ReadOnlyUnsafeSnapshotFallsBackToTracking) {
  auto db = OpenDb();
  const Accounts acc = SetupBank(*db);

  auto writer = db->Begin(IsolationLevel::kSerializable);
  EXPECT_EQ(Balance(*writer, acc.x), 0);

  TransactionOptions ro;
  ro.read_only = true;
  auto reader = db->Begin(IsolationLevel::kSerializable, ro);
  EXPECT_EQ(Balance(*reader, acc.y), 0);
  EXPECT_TRUE(reader
                  ->SetNodeProperty(acc.y, "balance", PropertyValue(int64_t{1}))
                  .IsFailedPrecondition());
  ASSERT_TRUE(reader->Commit().ok());
  ASSERT_TRUE(writer->Commit().ok());

  const DatabaseStats stats = db->Stats();
  EXPECT_EQ(stats.ssi_safe_snapshots, 0u);
  EXPECT_GE(stats.ssi_tracked_txns, 2u);
}

// The safe-snapshot acceptance property under churn: a stream of read-only
// serializable transactions interleaved with non-serializable writers (SI
// writers are invisible to the tracker) completes with zero
// SerializationFailure aborts and every snapshot safe.
TEST(SsiSemantics, SafeSnapshotReadOnlyStreamNeverSeesSerializationFailure) {
  auto db = OpenDb();
  const Accounts acc = SetupBank(*db);

  TransactionOptions ro;
  ro.read_only = true;
  for (int i = 0; i < 50; ++i) {
    {
      auto writer = db->Begin(IsolationLevel::kSnapshotIsolation);
      ASSERT_TRUE(writer
                      ->SetNodeProperty(acc.x, "balance",
                                        PropertyValue(int64_t{i}))
                      .ok());
      ASSERT_TRUE(writer->Commit().ok());
    }
    auto reader = db->Begin(IsolationLevel::kSerializable, ro);
    EXPECT_EQ(Balance(*reader, acc.x), i);
    Status s = reader->Commit();
    ASSERT_TRUE(s.ok()) << s;
    ASSERT_FALSE(s.IsSerializationFailure());
  }
  const DatabaseStats stats = db->Stats();
  EXPECT_EQ(stats.ssi_safe_snapshots, 50u);
  EXPECT_EQ(stats.ssi_aborts_pivot, 0u);
  EXPECT_EQ(stats.ssi_aborts_doomed, 0u);
}

// --- Deterministic write skew under SSI -------------------------------------

// The classic two-account constraint (x + y >= 0, both withdraw): under SI
// both commit and the constraint breaks; under SSI the second committer
// must fail with a retryable SerializationFailure.
TEST(SsiSemantics, WriteSkewSecondCommitterAborts) {
  auto db = OpenDb();
  const Accounts acc = SetupBank(*db);
  {
    auto txn = db->Begin();
    ASSERT_TRUE(
        txn->SetNodeProperty(acc.x, "balance", PropertyValue(int64_t{50}))
            .ok());
    ASSERT_TRUE(
        txn->SetNodeProperty(acc.y, "balance", PropertyValue(int64_t{50}))
            .ok());
    ASSERT_TRUE(txn->Commit().ok());
  }

  auto t1 = db->Begin(IsolationLevel::kSerializable);
  auto t2 = db->Begin(IsolationLevel::kSerializable);
  ASSERT_EQ(Balance(*t1, acc.x) + Balance(*t1, acc.y), 100);
  ASSERT_EQ(Balance(*t2, acc.x) + Balance(*t2, acc.y), 100);
  // Each withdraws 100 from "its" account, justified by the joint balance.
  ASSERT_TRUE(
      t1->SetNodeProperty(acc.x, "balance", PropertyValue(int64_t{-50})).ok());
  ASSERT_TRUE(
      t2->SetNodeProperty(acc.y, "balance", PropertyValue(int64_t{-50})).ok());

  // First committer wins; it dooms the other side of the 2-cycle.
  ASSERT_TRUE(t1->Commit().ok());
  Status s = t2->Commit();
  EXPECT_TRUE(s.IsSerializationFailure()) << s;
  EXPECT_TRUE(s.IsRetryable());

  // The constraint survived.
  auto check = db->Begin();
  EXPECT_GE(Balance(*check, acc.x) + Balance(*check, acc.y), 0);
  EXPECT_GE(db->Stats().ssi_aborts_doomed, 1u);
}

// --- Predicate write skew, once per index scan ------------------------------

// Predicate (index-range) reads carry SIREAD markers too. Two doctors are
// on call; each transaction scans for the on-call set, sees both, and takes
// one doctor off — write skew through a predicate read instead of an entity
// read. Under SI both commit and nobody stays on call; under SSI exactly
// one of the two commits. Label scans, node-property equality and ranges,
// and rel-property equality share one index-range marker path; each scan
// must close the structure.
enum class IndexScan { kLabel, kNodeEquality, kNodeRange, kRelEquality };

class PredicateWriteSkew
    : public ::testing::TestWithParam<std::tuple<IndexScan, IsolationLevel>> {
 protected:
  void SetUp() override {
    db_ = OpenDb();
    auto txn = db_->Begin();
    for (int doctor = 0; doctor < 2; ++doctor) {
      switch (scan()) {
        case IndexScan::kLabel:
          ASSERT_TRUE(txn->CreateNode({"OnCall"}).ok());
          break;
        case IndexScan::kNodeEquality:
          ASSERT_TRUE(txn->CreateNode({}, {{"on_call", PropertyValue(true)}})
                          .ok());
          break;
        case IndexScan::kNodeRange:
          ASSERT_TRUE(
              txn->CreateNode({}, {{"shift", PropertyValue(int64_t{5})}})
                  .ok());
          break;
        case IndexScan::kRelEquality: {
          auto ward = txn->CreateNode({});
          auto doc = txn->CreateNode({});
          ASSERT_TRUE(ward.ok() && doc.ok());
          const NamedProperties on_call{{"on_call", PropertyValue(true)}};
          ASSERT_TRUE(
              txn->CreateRelationship(*doc, *ward, "COVERS", on_call).ok());
          break;
        }
      }
    }
    ASSERT_TRUE(txn->Commit().ok());
  }

  IndexScan scan() const { return std::get<0>(GetParam()); }
  IsolationLevel isolation() const { return std::get<1>(GetParam()); }

  /// The on-call set, through this case's index scan.
  Result<std::vector<uint64_t>> OnCall(Transaction& txn) const {
    switch (scan()) {
      case IndexScan::kLabel:
        return txn.GetNodesByLabel("OnCall");
      case IndexScan::kNodeEquality:
        return txn.GetNodesByProperty("on_call", PropertyValue(true));
      case IndexScan::kNodeRange:
        return txn.GetNodesByPropertyRange("shift", PropertyValue(int64_t{1}),
                                           PropertyValue(int64_t{9}));
      case IndexScan::kRelEquality:
        return txn.GetRelsByProperty("on_call", PropertyValue(true));
    }
    return Status::Internal("unknown scan");
  }

  /// Moves `id` out of the on-call set.
  Status TakeOff(Transaction& txn, uint64_t id) const {
    switch (scan()) {
      case IndexScan::kLabel:
        return txn.RemoveLabel(id, "OnCall");
      case IndexScan::kNodeEquality:
        return txn.SetNodeProperty(id, "on_call", PropertyValue(false));
      case IndexScan::kNodeRange:
        return txn.SetNodeProperty(id, "shift", PropertyValue(int64_t{20}));
      case IndexScan::kRelEquality:
        return txn.SetRelProperty(id, "on_call", PropertyValue(false));
    }
    return Status::Internal("unknown scan");
  }

  std::unique_ptr<GraphDatabase> db_;
};

TEST_P(PredicateWriteSkew, OnlySerializableKeepsSomeoneOnCall) {
  auto t1 = db_->Begin(isolation());
  auto t2 = db_->Begin(isolation());
  auto seen_1 = OnCall(*t1);
  auto seen_2 = OnCall(*t2);
  ASSERT_TRUE(seen_1.ok()) << seen_1.status();
  ASSERT_TRUE(seen_2.ok()) << seen_2.status();
  ASSERT_EQ(seen_1->size(), 2u);
  ASSERT_EQ(seen_2->size(), 2u);

  // Each sees a colleague still on call and takes a different doctor off.
  Status s1 = TakeOff(*t1, (*seen_1)[0]);
  Status s2 = TakeOff(*t2, (*seen_2)[1]);
  if (s1.ok()) s1 = t1->Commit();
  if (s2.ok()) s2 = t2->Commit();

  auto check = db_->Begin();
  auto left = OnCall(*check);
  ASSERT_TRUE(left.ok()) << left.status();
  if (isolation() == IsolationLevel::kSerializable) {
    ASSERT_NE(s1.ok(), s2.ok()) << s1 << " / " << s2;
    const Status& failed = s1.ok() ? s2 : s1;
    EXPECT_TRUE(failed.IsSerializationFailure()) << failed;
    EXPECT_EQ(left->size(), 1u);
  } else {
    EXPECT_TRUE(s1.ok()) << s1;
    EXPECT_TRUE(s2.ok()) << s2;
    EXPECT_TRUE(left->empty());
  }
}

std::string CaseName(
    const ::testing::TestParamInfo<PredicateWriteSkew::ParamType>& info) {
  static const char* const kScans[] = {"Label", "NodeEquality", "NodeRange",
                                       "RelEquality"};
  return std::string(kScans[static_cast<int>(std::get<0>(info.param))]) +
         (std::get<1>(info.param) == IsolationLevel::kSerializable
              ? "Serializable"
              : "SnapshotIsolation");
}

INSTANTIATE_TEST_SUITE_P(
    SsiSemantics, PredicateWriteSkew,
    ::testing::Combine(::testing::Values(IndexScan::kLabel,
                                         IndexScan::kNodeEquality,
                                         IndexScan::kNodeRange,
                                         IndexScan::kRelEquality),
                       ::testing::Values(IsolationLevel::kSerializable,
                                         IsolationLevel::kSnapshotIsolation)),
    CaseName);

// --- Safe-snapshot / commit-publication race --------------------------------

// A read-write serializable commit finishes the SSI tracker (dropping the
// active-peer count) strictly before the oracle publishes its commit
// timestamp. A read-only serializable transaction that Begins inside that
// window gets a snapshot PREDATING the commit while seeing zero active
// peers — its snapshot is concurrent with the commit and must NOT be
// deemed safe. The stall hook parks the committer exactly in the window.
TEST(SsiSemantics, ReadOnlyBeginningBeforeCommitPublicationIsNotSafe) {
  auto db = OpenDb();
  const Accounts acc = SetupBank(*db);
  ArmedPoints points(db.get());
  points.Park("commit.pre_publish");
  std::thread committer([&] {
    auto w = db->Begin(IsolationLevel::kSerializable);
    EXPECT_TRUE(
        w->SetNodeProperty(acc.x, "balance", PropertyValue(int64_t{10})).ok());
    EXPECT_TRUE(w->Commit().ok());  // Parks after tracker-finish,
  });                               // before publication.
  ASSERT_TRUE(points.WaitFor("commit.pre_publish"));

  const uint64_t safe_before = db->Stats().ssi_safe_snapshots;
  TransactionOptions ro;
  ro.read_only = true;
  auto reader = db->Begin(IsolationLevel::kSerializable, ro);
  // The snapshot predates the stalled commit...
  EXPECT_EQ(Balance(*reader, acc.x), 0);
  // ...so it was NOT taken on the safe-snapshot fast path: the reader is
  // tracked and can still be the s3 of a read-only anomaly.
  EXPECT_EQ(db->Stats().ssi_safe_snapshots, safe_before);

  points.Release("commit.pre_publish");
  committer.join();
  ASSERT_TRUE(reader->Commit().ok());

  // Once the commit is published, fresh read-only snapshots cover it and
  // the fast path reopens.
  auto reader2 = db->Begin(IsolationLevel::kSerializable, ro);
  EXPECT_EQ(Balance(*reader2, acc.x), 10);
  EXPECT_EQ(db->Stats().ssi_safe_snapshots, safe_before + 1);
}

// --- Writeless commits and writers' commit windows -------------------------

// A commit without write targets takes no commit mutex, but it must not
// decide inside a writer's window. The read-only-anomaly shape: O commits;
// W read O's old value (W --rw--> O) and writes X; R, whose snapshot
// includes O, reads X while W is parked inside its window, after W's
// pre-commit rescan, so only W's post-stamp rescan links R --rw--> W and
// dooms R. R's commit must wait for that rescan and then fail.
TEST(SsiSemantics, WritelessCommitWaitsOutAnOpenWindowAndFails) {
  auto db = OpenDb();
  const Accounts acc = SetupBank(*db);

  auto w = db->Begin(IsolationLevel::kSerializable);
  EXPECT_EQ(Balance(*w, acc.y), 0);
  {
    auto o = db->Begin(IsolationLevel::kSerializable);
    ASSERT_TRUE(
        o->SetNodeProperty(acc.y, "balance", PropertyValue(int64_t{20})).ok());
    ASSERT_TRUE(o->Commit().ok());
  }
  TransactionOptions ro;
  ro.read_only = true;
  auto r = db->Begin(IsolationLevel::kSerializable, ro);
  ASSERT_TRUE(
      w->SetNodeProperty(acc.x, "balance", PropertyValue(int64_t{-11})).ok());

  ArmedPoints points(db.get());
  points.Park("commit.pre_apply");
  std::thread writer([&] { EXPECT_TRUE(w->Commit().ok()); });
  ASSERT_TRUE(points.WaitFor("commit.pre_apply"));

  // W's write is not stamped yet: R reads the old X, and O's Y.
  EXPECT_EQ(Balance(*r, acc.x), 0);
  EXPECT_EQ(Balance(*r, acc.y), 20);
  std::atomic<bool> released{false};
  std::atomic<bool> r_done{false};
  bool returned_after_release = false;
  Status r_status;
  std::thread reader([&] {
    r_status = r->Commit();
    returned_after_release = released.load();
    r_done = true;
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (db->Stats().ssi_writeless_window_waits == 0 && !r_done &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  released = true;
  points.Release("commit.pre_apply");
  writer.join();
  reader.join();

  EXPECT_TRUE(returned_after_release);
  EXPECT_TRUE(r_status.IsSerializationFailure()) << r_status;
  const DatabaseStats stats = db->Stats();
  EXPECT_EQ(stats.ssi_writeless_window_waits, 1u);
  EXPECT_EQ(stats.ssi_aborts_doomed, 1u);
  auto check = db->Begin();
  EXPECT_EQ(Balance(*check, acc.x), -11);
}

// With no writer inside a window, a writeless commit neither waits nor
// takes the commit mutex.
TEST(SsiSemantics, WritelessCommitOutsideAnyWindowTakesTheFastPath) {
  auto db = OpenDb();
  const Accounts acc = SetupBank(*db);
  auto t = db->Begin(IsolationLevel::kSerializable);
  EXPECT_EQ(Balance(*t, acc.x), 0);
  ASSERT_TRUE(t->Commit().ok());
  const DatabaseStats stats = db->Stats();
  EXPECT_EQ(stats.ssi_tracked_txns, 1u);
  EXPECT_EQ(stats.ssi_writeless_commits, 1u);
  EXPECT_EQ(stats.ssi_writeless_window_waits, 0u);
}

// --- Durable commits that fail store-apply ----------------------------------

// Once the WAL commit record is durable the transaction IS committed —
// recovery will replay it — even if applying to the in-memory stores then
// fails. Its SSI record must be published as committed too: peers that saw
// its SIREAD markers would otherwise treat the rw-antidependency as gone
// and commit over a dangerous structure.
TEST(SsiSemantics, DurableCommitWithFailedStoreApplyStillGatesPeers) {
  auto db = OpenDb();
  const Accounts acc = SetupBank(*db);
  NodeId z;
  {
    auto setup = db->Begin();
    z = *setup->CreateNode({"Account"},
                           {{"balance", PropertyValue(int64_t{0})}});
    ASSERT_TRUE(setup->Commit().ok());
  }

  // w will be the pivot: snapshot predates both commits below.
  auto w = db->Begin(IsolationLevel::kSerializable);

  // p reads X (SIREAD marker) and writes Y.
  auto p = db->Begin(IsolationLevel::kSerializable);
  EXPECT_EQ(Balance(*p, acc.x), 0);
  ASSERT_TRUE(
      p->SetNodeProperty(acc.y, "balance", PropertyValue(int64_t{7})).ok());

  // o writes Z and commits first (the out-neighbor of the pivot).
  {
    auto o = db->Begin(IsolationLevel::kSerializable);
    ASSERT_TRUE(
        o->SetNodeProperty(z, "balance", PropertyValue(int64_t{5})).ok());
    ASSERT_TRUE(o->Commit().ok());
  }

  // p's commit record reaches the WAL, then store-apply "crashes". The
  // commit is durable; Commit reports IOError but p is committed.
  ArmedPoints points(db.get());
  points.Fail("commit.pre_apply", /*nth=*/1);
  Status ps = p->Commit();
  EXPECT_TRUE(ps.IsIOError()) << ps;
  // Destroying p must not flip its SSI record to aborted.
  p.reset();

  // w reads Z under its old snapshot (rw out-edge w -> o, o committed
  // first) and then overwrites X, which committed-p read (rw in-edge
  // p -> w): w is a pivot between two committed peers and must fail.
  EXPECT_EQ(Balance(*w, z), 0);
  Status s = w->SetNodeProperty(acc.x, "balance", PropertyValue(int64_t{1}));
  if (s.ok()) s = w->Commit();
  EXPECT_TRUE(s.IsSerializationFailure()) << s;
}

// --- Equal-value no-op writes -----------------------------------------------

// Setting a property to the value it already has leaves no WAL op, no new
// version, and — critically — no SSI write footprint: a write that changes
// nothing cannot create an rw-antidependency, so a "write skew" made of
// two no-op writes must commit on both sides.
TEST(SsiSemantics, EqualValueNoOpWritesLeaveNoSsiFootprint) {
  auto db = OpenDb();
  const Accounts acc = SetupBank(*db);

  auto t1 = db->Begin(IsolationLevel::kSerializable);
  auto t2 = db->Begin(IsolationLevel::kSerializable);
  EXPECT_EQ(Balance(*t1, acc.x), 0);
  EXPECT_EQ(Balance(*t1, acc.y), 0);
  EXPECT_EQ(Balance(*t2, acc.x), 0);
  EXPECT_EQ(Balance(*t2, acc.y), 0);
  // The classic skew shape, except both writes re-store the present value.
  ASSERT_TRUE(
      t1->SetNodeProperty(acc.x, "balance", PropertyValue(int64_t{0})).ok());
  ASSERT_TRUE(
      t2->SetNodeProperty(acc.y, "balance", PropertyValue(int64_t{0})).ok());

  ASSERT_TRUE(t1->Commit().ok());
  Status s = t2->Commit();
  EXPECT_TRUE(s.ok()) << s;

  const DatabaseStats stats = db->Stats();
  EXPECT_EQ(stats.ssi_aborts_pivot, 0u);
  EXPECT_EQ(stats.ssi_aborts_doomed, 0u);
}

// --- Reads that name a token the snapshot cannot see -----------------------

// A read that names a property key, label or relationship type no snapshot
// version carries is still a read of the entity (or the adjacency): it must
// leave its SIREAD marker, or a later writer that introduces the token slips
// past it. Each schedule is write skew: T1 reads the missing token on `n`
// and writes `m`; T2 reads `m` and writes the token onto `n`. Serializable
// lets at most one of them commit, and the loser fails retryably.
class UnknownTokenReadSkew : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = OpenDb();
    auto txn = db_->Begin();
    n_ = *txn->CreateNode({}, {{"balance", PropertyValue(int64_t{0})}});
    m_ = *txn->CreateNode({}, {{"balance", PropertyValue(int64_t{0})}});
    k_ = *txn->CreateNode({});
    ASSERT_TRUE(txn->Commit().ok());
  }

  /// Runs T1's read of `n` (via `t1_read`), T1's write of `m`, T2's read of
  /// `m` and T2's write onto `n` (via `t2_write`), then commits T1 and T2.
  /// Returns how many committed; every failure must be retryable.
  template <typename Read, typename Write>
  int RunSkew(Read t1_read, Write t2_write) {
    auto t1 = db_->Begin(IsolationLevel::kSerializable);
    auto t2 = db_->Begin(IsolationLevel::kSerializable);
    t1_read(*t1);
    EXPECT_TRUE(
        t1->SetNodeProperty(m_, "balance", PropertyValue(int64_t{1})).ok());
    EXPECT_EQ(Balance(*t2, m_), 0);
    Status write = t2_write(*t2);
    int committed = 0;
    for (Transaction* txn : {t1.get(), t2.get()}) {
      Status s = txn == t2.get() && !write.ok() ? write : txn->Commit();
      if (s.ok()) {
        ++committed;
      } else {
        EXPECT_TRUE(s.IsSerializationFailure()) << s;
      }
    }
    return committed;
  }

  std::unique_ptr<GraphDatabase> db_;
  NodeId n_ = kInvalidNodeId;
  NodeId m_ = kInvalidNodeId;
  NodeId k_ = kInvalidNodeId;
};

TEST_F(UnknownTokenReadSkew, PropertyReadOfAMissingKey) {
  const int committed = RunSkew(
      [&](Transaction& t1) {
        EXPECT_TRUE(t1.GetNodeProperty(n_, "flag").status().IsNotFound());
      },
      [&](Transaction& t2) {
        return t2.SetNodeProperty(n_, "flag", PropertyValue(true));
      });
  EXPECT_EQ(committed, 1);
}

TEST_F(UnknownTokenReadSkew, LabelTestOfAMissingLabel) {
  const int committed = RunSkew(
      [&](Transaction& t1) {
        auto has = t1.NodeHasLabel(n_, "VIP");
        ASSERT_TRUE(has.ok()) << has.status();
        EXPECT_FALSE(*has);
      },
      [&](Transaction& t2) { return t2.AddLabel(n_, "VIP"); });
  EXPECT_EQ(committed, 1);
}

// The index scans key their marker by the name, so a scan of a name no
// token carries yet still meets the write that creates the token.
TEST_F(UnknownTokenReadSkew, LabelScanOfAMissingLabel) {
  const int committed = RunSkew(
      [&](Transaction& t1) {
        auto vips = t1.GetNodesByLabel("VIP");
        ASSERT_TRUE(vips.ok()) << vips.status();
        EXPECT_TRUE(vips->empty());
      },
      [&](Transaction& t2) { return t2.AddLabel(n_, "VIP"); });
  EXPECT_EQ(committed, 1);
}

TEST_F(UnknownTokenReadSkew, PropertyScanOfAMissingKey) {
  const int committed = RunSkew(
      [&](Transaction& t1) {
        auto flagged = t1.GetNodesByProperty("flag", PropertyValue(true));
        ASSERT_TRUE(flagged.ok()) << flagged.status();
        EXPECT_TRUE(flagged->empty());
      },
      [&](Transaction& t2) {
        return t2.SetNodeProperty(n_, "flag", PropertyValue(true));
      });
  EXPECT_EQ(committed, 1);
}

// T2 creates the label after T1's snapshot and commits before T1 scans it.
// T1's scan must still see T2's entry as a conflict-out, or T1 commits as
// the pivot of T2 --rw--> T1 (via m) --rw--> T2 (via the label).
TEST_F(UnknownTokenReadSkew, LabelScanOfALabelCreatedAfterTheSnapshot) {
  auto t1 = db_->Begin(IsolationLevel::kSerializable);
  // An unrelated commit moves T2's snapshot, and so the token it creates,
  // past T1's.
  auto bump = db_->Begin();
  ASSERT_TRUE(bump->SetNodeProperty(k_, "tick", PropertyValue(true)).ok());
  ASSERT_TRUE(bump->Commit().ok());
  auto t2 = db_->Begin(IsolationLevel::kSerializable);
  EXPECT_EQ(Balance(*t2, m_), 0);
  ASSERT_TRUE(t2->AddLabel(n_, "VIP").ok());
  ASSERT_TRUE(t2->Commit().ok());

  auto vips = t1->GetNodesByLabel("VIP");
  ASSERT_TRUE(vips.ok()) << vips.status();
  EXPECT_TRUE(vips->empty());
  Status s = t1->SetNodeProperty(m_, "balance", PropertyValue(int64_t{1}));
  if (s.ok()) s = t1->Commit();
  EXPECT_TRUE(s.IsSerializationFailure()) << s;
}

// Run with and without the type already named by some relationship: the
// outcome must not depend on whether the reader's snapshot knows the type.
class UnknownRelTypeReadSkew
    : public UnknownTokenReadSkew,
      public ::testing::WithParamInterface<bool> {};

TEST_P(UnknownRelTypeReadSkew, TypedAdjacencyReadOfAMissingType) {
  if (GetParam()) {
    auto txn = db_->Begin();
    ASSERT_TRUE(txn->CreateRelationship(m_, k_, "BLOCKS").ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  const int committed = RunSkew(
      [&](Transaction& t1) {
        auto rels = t1.GetRelationships(n_, Direction::kBoth, "BLOCKS");
        ASSERT_TRUE(rels.ok()) << rels.status();
        EXPECT_TRUE(rels->empty());
      },
      [&](Transaction& t2) {
        return t2.CreateRelationship(n_, k_, "BLOCKS").status();
      });
  EXPECT_EQ(committed, 1);
}

INSTANTIATE_TEST_SUITE_P(TypeKnown, UnknownRelTypeReadSkew, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "TypeExists" : "TypeMissing";
                         });


// --- Every public read leaves a marker --------------------------------------

// Each public read of Transaction, in a fresh read-write serializable
// transaction, must leave at least one SIREAD marker whatever it is pointed
// at: a known name, a name no token carries, an id never allocated, or an
// entity that was deleted. A read that leaves none is a write-skew hole.
enum class ReadCase { kKnownName, kUnknownName, kMissingId, kDeletedEntity };
constexpr const char* kReadCaseNames[] = {"KnownName", "UnknownName",
                                         "MissingId", "DeletedEntity"};

/// What one row's read is pointed at.
struct ReadArgs {
  NodeId node = kInvalidNodeId;
  RelId rel = kInvalidRelId;
  std::string label, node_key, rel_key, type;
};

struct PublicRead {
  const char* name;
  void (*read)(Transaction&, const ReadArgs&);
};

constexpr PublicRead kPublicReads[] = {
    {"GetNode", [](Transaction& t, const ReadArgs& a) {
       (void)t.GetNode(a.node);
     }},
    {"GetRelationship", [](Transaction& t, const ReadArgs& a) {
       (void)t.GetRelationship(a.rel);
     }},
    {"GetNodeProperty", [](Transaction& t, const ReadArgs& a) {
       (void)t.GetNodeProperty(a.node, a.node_key);
     }},
    {"GetRelProperty", [](Transaction& t, const ReadArgs& a) {
       (void)t.GetRelProperty(a.rel, a.rel_key);
     }},
    {"NodeHasLabel", [](Transaction& t, const ReadArgs& a) {
       (void)t.NodeHasLabel(a.node, a.label);
     }},
    {"NodeExists", [](Transaction& t, const ReadArgs& a) {
       (void)t.NodeExists(a.node);
     }},
    {"RelExists", [](Transaction& t, const ReadArgs& a) {
       (void)t.RelExists(a.rel);
     }},
    {"AllNodes", [](Transaction& t, const ReadArgs&) {
       (void)t.AllNodes();
     }},
    {"GetNodesByLabel", [](Transaction& t, const ReadArgs& a) {
       (void)t.GetNodesByLabel(a.label);
     }},
    {"GetNodesByProperty", [](Transaction& t, const ReadArgs& a) {
       (void)t.GetNodesByProperty(a.node_key, PropertyValue(int64_t{1}));
     }},
    {"GetNodesByPropertyRange", [](Transaction& t, const ReadArgs& a) {
       (void)t.GetNodesByPropertyRange(a.node_key, PropertyValue(int64_t{0}),
                                       PropertyValue(int64_t{9}));
     }},
    {"GetRelsByProperty", [](Transaction& t, const ReadArgs& a) {
       (void)t.GetRelsByProperty(a.rel_key, PropertyValue(int64_t{1}));
     }},
    {"GetRelationships", [](Transaction& t, const ReadArgs& a) {
       (void)t.GetRelationships(a.node, Direction::kBoth);
     }},
    {"GetRelationshipsTyped", [](Transaction& t, const ReadArgs& a) {
       (void)t.GetRelationships(a.node, Direction::kBoth, a.type);
     }},
    {"GetNeighbors", [](Transaction& t, const ReadArgs& a) {
       (void)t.GetNeighbors(a.node, Direction::kBoth, a.type);
     }},
    {"Degree", [](Transaction& t, const ReadArgs& a) {
       (void)t.Degree(a.node);
     }},
};

class EveryReadLeavesAMarker
    : public ::testing::TestWithParam<std::tuple<size_t, ReadCase>> {
 protected:
  void SetUp() override {
    db_ = OpenDb();
    auto txn = db_->Begin();
    node_ = *txn->CreateNode({"Person"}, {{"age", PropertyValue(int64_t{1})}});
    const NodeId peer = *txn->CreateNode({});
    rel_ = *txn->CreateRelationship(node_, peer, "KNOWS",
                                    {{"weight", PropertyValue(int64_t{1})}});
    // The deleted entities alone carried the "Gone"/"gone"/"GONE" names.
    deleted_node_ =
        *txn->CreateNode({"Gone"}, {{"gone", PropertyValue(int64_t{1})}});
    deleted_rel_ = *txn->CreateRelationship(
        peer, peer, "GONE", {{"gone", PropertyValue(int64_t{1})}});
    ASSERT_TRUE(txn->Commit().ok());
    auto del = db_->Begin();
    ASSERT_TRUE(del->DeleteRelationship(deleted_rel_).ok());
    ASSERT_TRUE(del->DeleteNode(deleted_node_).ok());
    ASSERT_TRUE(del->Commit().ok());
  }

  ReadArgs ArgsFor(ReadCase c) const {
    constexpr uint64_t kNeverAllocated = 1'000'000;
    switch (c) {
      case ReadCase::kKnownName:
        return {node_, rel_, "Person", "age", "weight", "KNOWS"};
      case ReadCase::kUnknownName:
        return {node_, rel_, "Ghost", "ghost", "ghost", "GHOST"};
      case ReadCase::kMissingId:
        return {kNeverAllocated, kNeverAllocated, "Person", "age", "weight",
                "KNOWS"};
      case ReadCase::kDeletedEntity:
        return {deleted_node_, deleted_rel_, "Gone", "gone", "gone", "GONE"};
    }
    return {};
  }

  std::unique_ptr<GraphDatabase> db_;
  NodeId node_ = kInvalidNodeId;
  RelId rel_ = kInvalidRelId;
  NodeId deleted_node_ = kInvalidNodeId;
  RelId deleted_rel_ = kInvalidRelId;
};

TEST_P(EveryReadLeavesAMarker, InEachCase) {
  const auto [row, read_case] = GetParam();
  auto txn = db_->Begin(IsolationLevel::kSerializable);
  kPublicReads[row].read(*txn, ArgsFor(read_case));
  EXPECT_GE(db_->engine().ssi.MarkerCount(txn->id()), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    ReadSurface, EveryReadLeavesAMarker,
    ::testing::Combine(::testing::Range<size_t>(0, std::size(kPublicReads)),
                       ::testing::Values(ReadCase::kKnownName,
                                         ReadCase::kUnknownName,
                                         ReadCase::kMissingId,
                                         ReadCase::kDeletedEntity)),
    [](const auto& info) {
      return std::string(kPublicReads[std::get<0>(info.param)].name) + "_" +
             kReadCaseNames[static_cast<int>(std::get<1>(info.param))];
    });

// A pruned transaction record takes its SIREAD markers with it: the next
// tracked Begin releases them and erases every key left without a marker,
// so the table's size follows the concurrent serializable transactions,
// not the history.

/// Creates `n` nodes carrying v=0 in one SI transaction.
std::vector<NodeId> CreateNodes(GraphDatabase& db, size_t n) {
  std::vector<NodeId> nodes;
  auto txn = db.Begin();
  for (size_t i = 0; i < n; ++i) {
    nodes.push_back(*txn->CreateNode({}, {{"v", PropertyValue(int64_t{0})}}));
  }
  EXPECT_TRUE(txn->Commit().ok());
  return nodes;
}

TEST(SsiMarkers, PrunedTransactionsLeaveNoMarkers) {
  constexpr size_t kTxns = 1000;
  auto db = OpenDb();
  const std::vector<NodeId> nodes = CreateNodes(*db, 2 * kTxns);
  for (size_t i = 0; i < kTxns; ++i) {
    auto txn = db->Begin(IsolationLevel::kSerializable);
    ASSERT_TRUE(txn->GetNodeProperty(nodes[i], "v").ok());
    ASSERT_TRUE(txn->SetNodeProperty(nodes[kTxns + i], "v",
                                     PropertyValue(int64_t(i)))
                    .ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  auto last = db->Begin(IsolationLevel::kSerializable);
  const DatabaseStats stats = db->Stats();
  EXPECT_LE(stats.ssi_marker_keys, 16u);
  EXPECT_LE(stats.ssi_registry_records, 16u);
}

TEST(SsiMarkers, CommittedReaderKeepsMarkersWhileAPeerIsActive) {
  auto db = OpenDb();
  const std::vector<NodeId> nodes = CreateNodes(*db, 3);

  // S is older than R and still active when R commits: R's markers are
  // what a later write by S (or a peer of S) must still find.
  auto s = db->Begin(IsolationLevel::kSerializable);
  ASSERT_TRUE(s->GetNodeProperty(nodes[2], "v").ok());
  auto r = db->Begin(IsolationLevel::kSerializable);
  const TxnId r_id = r->id();
  ASSERT_TRUE(r->GetNodeProperty(nodes[0], "v").ok());
  ASSERT_TRUE(r->SetNodeProperty(nodes[1], "v", PropertyValue(int64_t{1})).ok());
  ASSERT_TRUE(r->Commit().ok());

  for (int i = 0; i < 3; ++i) {
    auto later = db->Begin(IsolationLevel::kSerializable);
    ASSERT_TRUE(later->Commit().ok());
    EXPECT_GE(db->engine().ssi.MarkerCount(r_id), 1u) << "begin " << i;
  }

  ASSERT_TRUE(s->Commit().ok());
  auto after = db->Begin(IsolationLevel::kSerializable);
  EXPECT_EQ(db->engine().ssi.MarkerCount(r_id), 0u);
}

TEST(SsiMarkers, AbortedTransactionReleasesItsMarkers) {
  auto db = OpenDb();
  const std::vector<NodeId> nodes = CreateNodes(*db, 4);
  auto txn = db->Begin(IsolationLevel::kSerializable);
  const TxnId id = txn->id();
  for (NodeId node : nodes) ASSERT_TRUE(txn->GetNodeProperty(node, "v").ok());
  EXPECT_EQ(db->engine().ssi.MarkerCount(id), nodes.size());
  ASSERT_TRUE(txn->Abort().ok());

  auto next = db->Begin(IsolationLevel::kSerializable);
  EXPECT_EQ(db->engine().ssi.MarkerCount(id), 0u);
  EXPECT_EQ(db->Stats().ssi_marker_keys, 0u);
}

}  // namespace
}  // namespace neosi
