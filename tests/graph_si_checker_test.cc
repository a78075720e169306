// Black-box snapshot-isolation history checking over the EMBEDDED API:
// record multi-threaded read/write histories — txn id, snapshot timestamp,
// commit timestamp, read set, write set — and verify the SI axioms (and,
// under kSerializable, DSG acyclicity) from the recorded history alone.
// The checkers themselves live in si_checker.h, shared with the wire-level
// suite (server_si_checker_test.cc) which records the same histories
// through socket clients.
//
// With PR 1's staged commit pipeline (parallel application, out-of-order
// completion, ordered publication) and the asynchronous watermark-paced GC
// racing the workload, these axioms are exactly the contract the engine
// must keep.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "common/random.h"
#include "fault_injection.h"
#include "graph/graph_database.h"
#include "si_checker.h"

namespace neosi {
namespace {

using sichecker::DsgChecker;
using sichecker::MakeValue;
using sichecker::SiHistoryChecker;
using sichecker::TxnRecord;


/// Runs `threads` workers for `txns_per_thread` transactions each over
/// `keys`, recording complete histories. A fraction of transactions abort
/// deliberately (their writes must never be read), and a fraction issue an
/// intermediate write (overwritten before commit; must never be read).
/// `thread_offset` shifts the value-encoding thread ids so that several
/// history batches over one database (e.g. before and after a crash
/// recovery) never collide on values. Under kSerializable a transaction may
/// additionally abort with SerializationFailure at any step; it is simply
/// recorded as aborted (the DSG checker below only examines committed
/// transactions).
std::vector<TxnRecord> RecordHistory(
    GraphDatabase& db, const std::vector<NodeId>& keys, int threads,
    int txns_per_thread, int thread_offset = 0,
    IsolationLevel isolation = IsolationLevel::kSnapshotIsolation) {
  std::mutex history_mu;
  std::vector<TxnRecord> history;
  std::vector<std::thread> workers;
  for (int worker = 0; worker < threads; ++worker) {
    workers.emplace_back([&, t = worker + thread_offset] {
      std::vector<TxnRecord> local;
      Random rng(t * 6151 + 17);
      for (int i = 0; i < txns_per_thread; ++i) {
        auto txn = db.Begin(isolation);
        TxnRecord rec;
        rec.id = txn->id();
        rec.snapshot_ts = txn->start_ts();

        // Read 1-3 keys first (before any own write), then write 1-2.
        const int reads = 1 + static_cast<int>(rng.Uniform(3));
        bool failed = false;
        for (int r = 0; r < reads && !failed; ++r) {
          const NodeId key = keys[rng.Uniform(keys.size())];
          if (rec.reads.count(key)) continue;
          auto value = txn->GetNodeProperty(key, "v");
          if (!value.ok()) {
            failed = true;
            break;
          }
          rec.reads[key] = value->AsInt();
        }
        const int writes = 1 + static_cast<int>(rng.Uniform(2));
        for (int w = 0; w < writes && !failed; ++w) {
          const NodeId key = keys[rng.Uniform(keys.size())];
          if (rng.Uniform(8) == 0) {
            // Intermediate write, overwritten below: invisible to everyone.
            const int64_t tmp = MakeValue(t, i, 99);
            if (!txn->SetNodeProperty(key, "v", PropertyValue(tmp)).ok()) {
              failed = true;
              break;
            }
            rec.intermediate_writes.push_back(tmp);
          }
          const int64_t value = MakeValue(t, i, w);
          if (!txn->SetNodeProperty(key, "v", PropertyValue(value)).ok()) {
            failed = true;
            break;
          }
          rec.writes[key] = value;
        }

        if (failed || !txn->IsActive()) {
          // Conflict abort: the engine already rolled back.
          rec.committed = false;
        } else if (rng.Uniform(10) == 0) {
          txn->Abort();
          rec.committed = false;
        } else {
          Status s = txn->Commit();
          rec.committed = s.ok();
          rec.commit_ts = txn->commit_ts();
        }
        local.push_back(std::move(rec));
      }
      std::lock_guard<std::mutex> guard(history_mu);
      for (auto& rec : local) history.push_back(std::move(rec));
    });
  }
  for (auto& t : workers) t.join();
  return history;
}

std::unique_ptr<GraphDatabase> OpenDb(uint64_t gc_interval_ms,
                                      uint64_t gc_backlog_threshold) {
  DatabaseOptions options;
  options.in_memory = true;
  options.background_gc_interval_ms = gc_interval_ms;
  options.gc_backlog_threshold = gc_backlog_threshold;
  auto db = GraphDatabase::Open(options);
  EXPECT_TRUE(db.ok()) << db.status();
  return std::move(*db);
}

/// Seeds the counters and returns (keys, the setup record): the setup
/// transaction participates in the history so initial reads attribute.
std::pair<std::vector<NodeId>, TxnRecord> Seed(GraphDatabase& db, int keys) {
  std::vector<NodeId> out;
  auto txn = db.Begin();
  TxnRecord rec;
  rec.id = txn->id();
  rec.snapshot_ts = txn->start_ts();
  for (int i = 0; i < keys; ++i) {
    const NodeId id = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{0})}});
    rec.writes[id] = 0;
    out.push_back(id);
  }
  EXPECT_TRUE(txn->Commit().ok());
  rec.committed = true;
  rec.commit_ts = txn->commit_ts();
  return {out, rec};
}

// ---------------------------------------------------------------------------
// The suite
// ---------------------------------------------------------------------------

TEST(SiChecker, MultiThreadedHistoryIsSnapshotIsolated) {
  // GC daemon racing the workload: interval + nudges, the PR's default path.
  auto db = OpenDb(/*gc_interval_ms=*/1, /*gc_backlog_threshold=*/8);
  auto [keys, seed] = Seed(*db, 8);
  auto history = RecordHistory(*db, keys, /*threads=*/4,
                               /*txns_per_thread=*/200);
  history.push_back(seed);

  size_t committed = 0;
  for (const auto& rec : history) committed += rec.committed ? 1 : 0;
  ASSERT_GT(committed, 100u) << "workload too contended to be meaningful";

  SiHistoryChecker checker(std::move(history));
  const auto violations = checker.Check();
  for (const auto& v : violations) ADD_FAILURE() << v;
  EXPECT_TRUE(violations.empty());
}

// The SI axioms must hold while the GC worker drains every shard of the
// list concurrently with the workload, nudged almost every commit: any
// watermark bug (a drain past a live snapshot) would surface as a stale or
// impossible read in the history.
TEST(SiChecker, ShardedGcDrainHistoryIsSnapshotIsolated) {
  auto db = OpenDb(/*gc_interval_ms=*/1, /*gc_backlog_threshold=*/4);
  auto [keys, seed] = Seed(*db, 16);  // Keys spread across the shards.
  // One batch lasts ~20 ms, which a loaded host can pass without ever
  // scheduling the one GC thread: record batches (one history, distinct
  // values per batch) until the worker has reclaimed during the run.
  std::vector<TxnRecord> history;
  for (int batch = 0;
       batch < 20 && db->gc_daemon()->versions_pruned() == 0; ++batch) {
    auto recorded = RecordHistory(*db, keys, /*threads=*/4,
                                  /*txns_per_thread=*/200,
                                  /*thread_offset=*/4 * batch);
    history.insert(history.end(), recorded.begin(), recorded.end());
  }
  history.push_back(seed);

  size_t committed = 0;
  for (const auto& rec : history) committed += rec.committed ? 1 : 0;
  ASSERT_GT(committed, 100u) << "workload too contended to be meaningful";

  SiHistoryChecker checker(std::move(history));
  const auto violations = checker.Check();
  for (const auto& v : violations) ADD_FAILURE() << v;
  EXPECT_TRUE(violations.empty());
  // The worker really did reclaim during the run.
  EXPECT_GT(db->gc_daemon()->versions_pruned(), 0u)
      << "passes " << db->gc_daemon()->passes() << ", idle skips "
      << db->gc_daemon()->idle_skips();
}

TEST(SiChecker, HighContentionSingleKeyHistoryIsSnapshotIsolated) {
  // One hot key maximizes write-write conflicts and GC churn on one chain.
  auto db = OpenDb(/*gc_interval_ms=*/1, /*gc_backlog_threshold=*/4);
  auto [keys, seed] = Seed(*db, 1);
  auto history = RecordHistory(*db, keys, /*threads=*/4,
                               /*txns_per_thread=*/150);
  history.push_back(seed);

  SiHistoryChecker checker(std::move(history));
  const auto violations = checker.Check();
  for (const auto& v : violations) ADD_FAILURE() << v;
  EXPECT_TRUE(violations.empty());
}

// The SI axioms must survive the full durability stack: a multi-threaded
// history recorded while the WAL rotates through many segments and the
// checkpoint daemon truncates concurrently, then a crash injected MID-
// ROTATION (at the segment-creation crash point), recovery, and a second
// history on the recovered store. The recovery itself participates in the
// checked history as a read-only transaction: its reads must be the newest
// committed writes — exactly recovery exactness, phrased as axiom A2.
TEST(SiChecker, HistorySpansRotationDaemonCheckpointAndMidRotationCrash) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("neosi_si_rotation_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);

  DatabaseOptions options;
  options.in_memory = false;
  options.path = dir.string();
  options.background_gc_interval_ms = 1;
  options.gc_backlog_threshold = 8;
  options.checkpoint_interval_ms = 1;
  options.checkpoint_wal_threshold = 512;
  options.wal_segment_size = 512;  // Rotation every few commits.

  std::vector<TxnRecord> history;
  std::vector<NodeId> keys;
  {
    auto opened = GraphDatabase::Open(options);
    ASSERT_TRUE(opened.ok()) << opened.status();
    auto db = std::move(*opened);
    auto [seeded_keys, seed] = Seed(*db, 6);
    keys = seeded_keys;
    history.push_back(seed);

    // The checkpoint daemon must run while the history records, and a
    // loaded host may not schedule it within one round: record rounds
    // (values clear of the crash writer's 8 and the post-recovery 16, 17)
    // until it has checkpointed.
    for (int round = 0; round < 20; ++round) {
      auto recorded = RecordHistory(*db, keys, /*threads=*/4,
                                    /*txns_per_thread=*/150,
                                    /*thread_offset=*/32 + 4 * round);
      for (auto& rec : recorded) history.push_back(std::move(rec));
      const GraphStoreStats store = db->Stats().store;
      if (store.checkpoint_markers + store.checkpoints >= 1) break;
    }

    // The workload really did span rotation and concurrent checkpoints.
    const DatabaseStats stats = db->Stats();
    ASSERT_GT(stats.store.wal_segments_created, 1u);
    ASSERT_GE(stats.store.checkpoint_markers + stats.store.checkpoints, 1u);

    // Crash in the middle of a segment rotation: arm the post-create crash
    // point and commit until it fires (the doomed commit fails exactly as
    // if the process died with the new segment created but unused).
    fault::CrashPoint crash(db.get(), "wal.segment.post_create");
    for (int i = 0; i < 400 && !crash.fired(); ++i) {
      auto txn = db->Begin(IsolationLevel::kSnapshotIsolation);
      TxnRecord rec;
      rec.id = txn->id();
      rec.snapshot_ts = txn->start_ts();
      const NodeId key = keys[static_cast<size_t>(i) % keys.size()];
      const int64_t value = MakeValue(/*thread=*/8, /*seq=*/i);
      ASSERT_TRUE(txn->SetNodeProperty(key, "v", PropertyValue(value)).ok());
      Status s = txn->Commit();
      rec.committed = s.ok();
      if (s.ok()) {
        rec.commit_ts = txn->commit_ts();
        rec.writes[key] = value;
      } else {
        // Died at the crash point before its record reached the log: the
        // write must never be observed.
        rec.writes[key] = value;
      }
      history.push_back(std::move(rec));
    }
    ASSERT_TRUE(crash.fired()) << "rotation crash point never reached";
    // Kill: destroy the database without any clean-shutdown work.
  }

  // Recover with daemons off (deterministic), read every key: the recovery
  // read joins the history as a read-only transaction and axiom A2 demands
  // it observe exactly the newest committed write per key.
  options.background_gc_interval_ms = 0;
  options.checkpoint_interval_ms = 0;
  auto opened = GraphDatabase::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status();
  auto db = std::move(*opened);
  {
    auto reader = db->Begin(IsolationLevel::kSnapshotIsolation);
    TxnRecord recovery_read;
    recovery_read.id = reader->id();
    recovery_read.snapshot_ts = reader->start_ts();
    recovery_read.committed = false;  // Read-only; reads still checked.
    for (NodeId key : keys) {
      auto value = reader->GetNodeProperty(key, "v");
      ASSERT_TRUE(value.ok());
      recovery_read.reads[key] = value->AsInt();
    }
    history.push_back(std::move(recovery_read));
  }

  // And the recovered store still produces SI histories (value space
  // shifted past every pre-crash writer's).
  auto post = RecordHistory(*db, keys, /*threads=*/2, /*txns_per_thread=*/50,
                            /*thread_offset=*/16);
  for (auto& rec : post) history.push_back(std::move(rec));

  SiHistoryChecker checker(std::move(history));
  const auto violations = checker.Check();
  for (const auto& v : violations) ADD_FAILURE() << v;
  EXPECT_TRUE(violations.empty());
  fs::remove_all(dir);
}

// A5: write skew — each transaction reads BOTH keys and writes the OTHER
// one. SI permits both to commit (disjoint write sets); the checker must
// accept the resulting history, because it is not an SI violation.
TEST(SiChecker, WriteSkewIsPermittedAndPassesTheChecker) {
  auto db = OpenDb(/*gc_interval_ms=*/50, /*gc_backlog_threshold=*/1024);
  auto [keys, seed] = Seed(*db, 2);
  const NodeId a = keys[0], b = keys[1];

  auto t1 = db->Begin(IsolationLevel::kSnapshotIsolation);
  auto t2 = db->Begin(IsolationLevel::kSnapshotIsolation);

  TxnRecord r1, r2;
  r1.id = t1->id();
  r1.snapshot_ts = t1->start_ts();
  r2.id = t2->id();
  r2.snapshot_ts = t2->start_ts();

  r1.reads[a] = t1->GetNodeProperty(a, "v")->AsInt();
  r1.reads[b] = t1->GetNodeProperty(b, "v")->AsInt();
  r2.reads[a] = t2->GetNodeProperty(a, "v")->AsInt();
  r2.reads[b] = t2->GetNodeProperty(b, "v")->AsInt();

  ASSERT_TRUE(t1->SetNodeProperty(a, "v", PropertyValue(int64_t{111})).ok());
  r1.writes[a] = 111;
  ASSERT_TRUE(t2->SetNodeProperty(b, "v", PropertyValue(int64_t{222})).ok());
  r2.writes[b] = 222;

  // Both commit: the classic SI anomaly.
  ASSERT_TRUE(t1->Commit().ok());
  r1.committed = true;
  r1.commit_ts = t1->commit_ts();
  ASSERT_TRUE(t2->Commit().ok());
  r2.committed = true;
  r2.commit_ts = t2->commit_ts();

  std::vector<TxnRecord> history{seed, r1, r2};
  SiHistoryChecker checker(std::move(history));
  const auto violations = checker.Check();
  for (const auto& v : violations) ADD_FAILURE() << v;
  EXPECT_TRUE(violations.empty());

  // And it really was write skew: each transaction read the other's key at
  // its pre-commit value while both overlapped.
  EXPECT_EQ(r1.reads.at(b), 0);
  EXPECT_EQ(r2.reads.at(a), 0);
}

// Checker self-test: a fabricated lost-update history MUST be rejected —
// otherwise the suite above proves nothing.
TEST(SiChecker, CheckerRejectsFabricatedLostUpdate) {
  TxnRecord w1, w2;
  w1.id = 1;
  w1.snapshot_ts = 10;
  w1.commit_ts = 20;
  w1.committed = true;
  w1.writes[7] = 100;
  w2.id = 2;
  w2.snapshot_ts = 15;  // Overlaps [10,20] and also writes key 7.
  w2.commit_ts = 25;
  w2.committed = true;
  w2.writes[7] = 200;
  SiHistoryChecker checker({w1, w2});
  EXPECT_FALSE(checker.Check().empty());
}

// Checker self-test: a stale read (older than the newest committed write at
// the snapshot) must be rejected.
TEST(SiChecker, CheckerRejectsFabricatedStaleRead) {
  TxnRecord w1, w2, r;
  w1.id = 1;
  w1.snapshot_ts = 1;
  w1.commit_ts = 2;
  w1.committed = true;
  w1.writes[7] = 100;
  w2.id = 2;
  w2.snapshot_ts = 3;
  w2.commit_ts = 4;
  w2.committed = true;
  w2.writes[7] = 200;
  r.id = 3;
  r.snapshot_ts = 5;  // Should see 200...
  r.committed = true;
  r.commit_ts = 6;
  r.reads[7] = 100;  // ...but observed the overwritten 100.
  SiHistoryChecker checker({w1, w2, r});
  EXPECT_FALSE(checker.Check().empty());
}

// Checker self-test: reading an aborted write must be rejected.
TEST(SiChecker, CheckerRejectsFabricatedAbortedRead) {
  TxnRecord w, r;
  w.id = 1;
  w.snapshot_ts = 1;
  w.committed = false;  // Aborted.
  w.writes[7] = 100;
  r.id = 2;
  r.snapshot_ts = 5;
  r.committed = true;
  r.commit_ts = 6;
  r.reads[7] = 100;
  SiHistoryChecker checker({w, r});
  EXPECT_FALSE(checker.Check().empty());
}


/// Keys one RecordHistory transaction can mark: each of its at most 3
/// reads and 2 writes touches one key.
constexpr uint64_t kMaxMarkedKeysPerTxn = 3 + 2;

/// Once a serializable history has finished, one more tracked Begin
/// releases the SIREAD markers of every pruned transaction: the marker
/// table may then hold no more than `threads` concurrent transactions
/// could have marked.
void ExpectMarkersReleased(GraphDatabase& db, int threads) {
  auto txn = db.Begin(IsolationLevel::kSerializable);
  EXPECT_LE(db.Stats().ssi_marker_keys, threads * kMaxMarkedKeysPerTxn);
}

// Recorded kSerializable histories must be FULLY serializable (DSG acyclic)
// on top of satisfying every SI axiom — with the GC daemon racing the
// workload exactly like the SI suites above.
TEST(DsgChecker, SerializableHistoryIsFullySerializable) {
  auto db = OpenDb(/*gc_interval_ms=*/1, /*gc_backlog_threshold=*/8);
  auto [keys, seed] = Seed(*db, 8);
  auto history = RecordHistory(*db, keys, /*threads=*/4,
                               /*txns_per_thread=*/200, /*thread_offset=*/0,
                               IsolationLevel::kSerializable);
  history.push_back(seed);

  size_t committed = 0;
  for (const auto& rec : history) committed += rec.committed ? 1 : 0;
  ASSERT_GT(committed, 50u) << "workload too contended to be meaningful";

  SiHistoryChecker si_checker(history);
  for (const auto& v : si_checker.Check()) ADD_FAILURE() << v;

  DsgChecker dsg(std::move(history));
  const auto cycle = dsg.FindCycle();
  EXPECT_FALSE(cycle.has_value()) << *cycle;
  ExpectMarkersReleased(*db, /*threads=*/4);
}

// Over 256 keys the history marks far more keys than the bound above, so
// the bound holds only because pruned transactions release their markers.
TEST(DsgChecker, WideSerializableHistoryReleasesItsMarkers) {
  auto db = OpenDb(/*gc_interval_ms=*/1, /*gc_backlog_threshold=*/8);
  auto [keys, seed] = Seed(*db, 256);
  auto history = RecordHistory(*db, keys, /*threads=*/4,
                               /*txns_per_thread=*/100, /*thread_offset=*/0,
                               IsolationLevel::kSerializable);
  history.push_back(seed);

  SiHistoryChecker si_checker(history);
  for (const auto& v : si_checker.Check()) ADD_FAILURE() << v;

  DsgChecker dsg(std::move(history));
  const auto cycle = dsg.FindCycle();
  EXPECT_FALSE(cycle.has_value()) << *cycle;
  ExpectMarkersReleased(*db, /*threads=*/4);
}

// Same property on one hot key, where every transaction conflicts and the
// pivot/doomed abort machinery fires constantly.
TEST(DsgChecker, HighContentionSerializableHistoryIsFullySerializable) {
  auto db = OpenDb(/*gc_interval_ms=*/1, /*gc_backlog_threshold=*/4);
  auto [keys, seed] = Seed(*db, 2);
  auto history = RecordHistory(*db, keys, /*threads=*/4,
                               /*txns_per_thread=*/150, /*thread_offset=*/0,
                               IsolationLevel::kSerializable);
  history.push_back(seed);

  DsgChecker dsg(std::move(history));
  const auto cycle = dsg.FindCycle();
  EXPECT_FALSE(cycle.has_value()) << *cycle;

  // The tracker really was engaged.
  const DatabaseStats stats = db->Stats();
  EXPECT_GT(stats.ssi_tracked_txns, 0u);
  ExpectMarkersReleased(*db, /*threads=*/4);
}

// A LIVE write-skew history recorded under SI: the SI checker must accept
// it (axiom A5) while the DSG checker must reject it — the two checkers
// bracket exactly the gap between SI and full serializability.
TEST(DsgChecker, LiveSiWriteSkewCyclesInDsgButPassesSiChecker) {
  auto db = OpenDb(/*gc_interval_ms=*/50, /*gc_backlog_threshold=*/1024);
  auto [keys, seed] = Seed(*db, 2);
  const NodeId a = keys[0], b = keys[1];

  auto t1 = db->Begin(IsolationLevel::kSnapshotIsolation);
  auto t2 = db->Begin(IsolationLevel::kSnapshotIsolation);
  TxnRecord r1, r2;
  r1.id = t1->id();
  r1.snapshot_ts = t1->start_ts();
  r2.id = t2->id();
  r2.snapshot_ts = t2->start_ts();
  r1.reads[a] = t1->GetNodeProperty(a, "v")->AsInt();
  r1.reads[b] = t1->GetNodeProperty(b, "v")->AsInt();
  r2.reads[a] = t2->GetNodeProperty(a, "v")->AsInt();
  r2.reads[b] = t2->GetNodeProperty(b, "v")->AsInt();
  ASSERT_TRUE(t1->SetNodeProperty(a, "v", PropertyValue(int64_t{111})).ok());
  r1.writes[a] = 111;
  ASSERT_TRUE(t2->SetNodeProperty(b, "v", PropertyValue(int64_t{222})).ok());
  r2.writes[b] = 222;
  ASSERT_TRUE(t1->Commit().ok());
  r1.committed = true;
  r1.commit_ts = t1->commit_ts();
  ASSERT_TRUE(t2->Commit().ok());
  r2.committed = true;
  r2.commit_ts = t2->commit_ts();

  std::vector<TxnRecord> history{seed, r1, r2};
  SiHistoryChecker si_checker(history);
  EXPECT_TRUE(si_checker.Check().empty());
  DsgChecker dsg(std::move(history));
  EXPECT_TRUE(dsg.FindCycle().has_value());
}

// Checker self-test: the fabricated write-skew shape (each reads both keys,
// writes the other, disjoint write sets, overlapping intervals) passes
// every SI axiom yet must cycle: T1 -rw-> T2 -rw-> T1.
TEST(DsgChecker, CheckerDetectsFabricatedWriteSkewCycle) {
  TxnRecord seed, t1, t2;
  seed.id = 1;
  seed.snapshot_ts = 1;
  seed.commit_ts = 2;
  seed.committed = true;
  seed.writes[7] = 0;
  seed.writes[8] = 0;
  t1.id = 2;
  t1.snapshot_ts = 3;
  t1.commit_ts = 10;
  t1.committed = true;
  t1.reads[7] = 0;
  t1.reads[8] = 0;
  t1.writes[7] = 111;
  t2.id = 3;
  t2.snapshot_ts = 4;
  t2.commit_ts = 11;
  t2.committed = true;
  t2.reads[7] = 0;
  t2.reads[8] = 0;
  t2.writes[8] = 222;

  std::vector<TxnRecord> history{seed, t1, t2};
  SiHistoryChecker si_checker(history);
  EXPECT_TRUE(si_checker.Check().empty()) << "write skew IS SI-legal";
  DsgChecker dsg(std::move(history));
  EXPECT_TRUE(dsg.FindCycle().has_value());
}

// Checker self-test: the read-only transaction anomaly (ROAnom, the
// serializable-parallel.spec shape). T2 reads X,Y and later writes X; T1
// writes Y and commits first; read-only T3 then observes Y=20 but X=0.
// Every SI axiom holds, yet T2 -rw-> T1 -wr-> T3 -rw-> T2 must cycle.
TEST(DsgChecker, CheckerDetectsFabricatedReadOnlyAnomalyCycle) {
  TxnRecord seed, t1, t2, t3;
  seed.id = 1;
  seed.snapshot_ts = 1;
  seed.commit_ts = 2;
  seed.committed = true;
  seed.writes[7] = 0;  // X
  seed.writes[8] = 0;  // Y
  t2.id = 2;
  t2.snapshot_ts = 3;
  t2.commit_ts = 30;  // Commits LAST.
  t2.committed = true;
  t2.reads[7] = 0;
  t2.reads[8] = 0;
  t2.writes[7] = -11;
  t1.id = 3;
  t1.snapshot_ts = 4;
  t1.commit_ts = 10;
  t1.committed = true;
  t1.reads[8] = 0;
  t1.writes[8] = 20;
  t3.id = 4;  // Read-only: observes t1's commit but not t2's.
  t3.snapshot_ts = 15;
  t3.commit_ts = 16;
  t3.committed = true;
  t3.reads[7] = 0;
  t3.reads[8] = 20;

  std::vector<TxnRecord> history{seed, t1, t2, t3};
  SiHistoryChecker si_checker(history);
  EXPECT_TRUE(si_checker.Check().empty()) << "ROAnom IS SI-legal";
  DsgChecker dsg(std::move(history));
  EXPECT_TRUE(dsg.FindCycle().has_value());
}

// Checker self-test negative control: a genuinely serial history must NOT
// cycle (guards against a checker that rejects everything).
TEST(DsgChecker, CheckerAcceptsSerialHistory) {
  TxnRecord seed, t1, t2;
  seed.id = 1;
  seed.snapshot_ts = 1;
  seed.commit_ts = 2;
  seed.committed = true;
  seed.writes[7] = 0;
  t1.id = 2;
  t1.snapshot_ts = 3;
  t1.commit_ts = 4;
  t1.committed = true;
  t1.reads[7] = 0;
  t1.writes[7] = 100;
  t2.id = 3;
  t2.snapshot_ts = 5;
  t2.commit_ts = 6;
  t2.committed = true;
  t2.reads[7] = 100;
  t2.writes[7] = 200;

  DsgChecker dsg({seed, t1, t2});
  EXPECT_FALSE(dsg.FindCycle().has_value());
}

}  // namespace
}  // namespace neosi
