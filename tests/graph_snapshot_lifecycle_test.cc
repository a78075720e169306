// Snapshot lifecycle (snapshot-too-old policy) + the GC drain of the
// sharded list.
//
// The retention hazard: one long-lived snapshot pins the reclamation
// watermark, so under sustained writes the version backlog grows without
// bound. The lifecycle policy bounds it: the GC daemon's expiry sweep marks
// over-age (snapshot_max_age_ms) or watermark-pinning-under-pressure
// (snapshot_expire_backlog) snapshots expired; the watermark advances past
// them immediately and the victims fail their next read or commit with
// Status::SnapshotTooOld. The GC worker then drains the released backlog
// from every shard of the list in one pass.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "graph/graph_database.h"
#include "sync_points.h"

namespace neosi {
namespace {

std::unique_ptr<GraphDatabase> OpenDb(DatabaseOptions options) {
  options.in_memory = true;
  auto db = GraphDatabase::Open(options);
  EXPECT_TRUE(db.ok()) << db.status();
  return std::move(*db);
}

void AwaitBacklogBelow(GraphDatabase& db, size_t below,
                       std::chrono::seconds deadline_s =
                           std::chrono::seconds(5)) {
  const auto deadline = std::chrono::steady_clock::now() + deadline_s;
  while (db.engine().gc_list.backlog() >= below &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

// ---------------------------------------------------------------------------
// Snapshot-too-old policy
// ---------------------------------------------------------------------------

// The headline scenario: a reader sleeps past snapshot_max_age_ms while a
// writer churns versions. The daemon expires the reader, the watermark
// advances past it, the backlog drains, and the reader's next read fails
// with SnapshotTooOld.
TEST(SnapshotLifecycle, LongReaderIsEvictedAndBacklogDrains) {
  DatabaseOptions options;
  options.background_gc_interval_ms = 5;
  options.gc_backlog_threshold = 8;
  options.snapshot_max_age_ms = 50;
  auto db = OpenDb(options);

  NodeId id;
  {
    auto txn = db->Begin();
    id = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{0})}});
    ASSERT_TRUE(txn->Commit().ok());
  }

  auto reader = db->Begin(IsolationLevel::kSnapshotIsolation);
  ASSERT_EQ(reader->GetNodeProperty(id, "v")->AsInt(), 0);

  for (int i = 1; i <= 100; ++i) {
    auto txn = db->Begin();
    ASSERT_TRUE(txn->SetNodeProperty(id, "v", PropertyValue(int64_t{i})).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }

  // "The reader falls asleep": outlive snapshot_max_age_ms.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  // The watermark advanced past the expired reader and the backlog drained
  // WITHOUT the reader doing anything (no read, no abort).
  AwaitBacklogBelow(*db, 1);
  EXPECT_EQ(db->engine().gc_list.backlog(), 0u);
  EXPECT_TRUE(db->engine().active_txns.IsExpired(reader->id()));

  // The reader's next read reports the eviction...
  auto read = reader->GetNodeProperty(id, "v");
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsSnapshotTooOld()) << read.status();
  EXPECT_TRUE(read.status().IsRetryable());
  EXPECT_EQ(reader->state(), TxnState::kAborted);

  // ...and the per-cause counters attribute it.
  const DatabaseStats stats = db->Stats();
  EXPECT_GE(stats.snapshots_expired_age, 1u);
  EXPECT_GE(stats.snapshot_too_old_aborts, 1u);

  // A restarted transaction reads the newest state.
  EXPECT_EQ(db->Begin()->GetNodeProperty(id, "v")->AsInt(), 100);
}

// Backlog-pressure trigger with age expiry OFF: the pinning snapshot is
// evicted as soon as the backlog crosses snapshot_expire_backlog (after the
// grace period), long before any age limit.
TEST(SnapshotLifecycle, BacklogPressureEvictsPinningSnapshot) {
  DatabaseOptions options;
  options.background_gc_interval_ms = 5;
  options.gc_backlog_threshold = 8;
  options.snapshot_max_age_ms = 0;       // Age expiry disabled.
  options.snapshot_expire_backlog = 64;  // Pressure trigger only.
  auto db = OpenDb(options);

  NodeId id;
  {
    auto txn = db->Begin();
    id = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{0})}});
    ASSERT_TRUE(txn->Commit().ok());
  }
  auto pinner = db->Begin(IsolationLevel::kSnapshotIsolation);
  ASSERT_EQ(pinner->GetNodeProperty(id, "v")->AsInt(), 0);

  // Outlive the eviction grace period, then push the backlog over the
  // trigger.
  std::this_thread::sleep_for(ActiveTxnTable::kBacklogExpiryGrace +
                              std::chrono::milliseconds(10));
  for (int i = 1; i <= 200; ++i) {
    auto txn = db->Begin();
    ASSERT_TRUE(txn->SetNodeProperty(id, "v", PropertyValue(int64_t{i})).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }

  AwaitBacklogBelow(*db, 64);
  EXPECT_LT(db->engine().gc_list.backlog(), 64u);
  EXPECT_TRUE(db->engine().active_txns.IsExpired(pinner->id()));

  auto read = pinner->GetNodeProperty(id, "v");
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsSnapshotTooOld()) << read.status();

  const DatabaseStats stats = db->Stats();
  EXPECT_GE(stats.snapshots_expired_backlog, 1u);
  EXPECT_EQ(stats.snapshots_expired_age, 0u);
}

// Policy OFF (the default): the pinned backlog grows with every update and
// the reader keeps its snapshot forever — the exact hazard the policy
// exists to bound (contrast with LongReaderIsEvictedAndBacklogDrains).
TEST(SnapshotLifecycle, PolicyOffPreservesPinnedSnapshots) {
  DatabaseOptions options;
  options.background_gc_interval_ms = 5;
  options.gc_backlog_threshold = 8;
  auto db = OpenDb(options);

  NodeId id;
  {
    auto txn = db->Begin();
    id = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{0})}});
    ASSERT_TRUE(txn->Commit().ok());
  }
  auto reader = db->Begin(IsolationLevel::kSnapshotIsolation);
  for (int i = 1; i <= 50; ++i) {
    auto txn = db->Begin();
    ASSERT_TRUE(txn->SetNodeProperty(id, "v", PropertyValue(int64_t{i})).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  // Nothing was reclaimed and the old snapshot still reads its version.
  EXPECT_GE(db->engine().gc_list.backlog(), 50u);
  EXPECT_FALSE(db->engine().active_txns.IsExpired(reader->id()));
  EXPECT_EQ(reader->GetNodeProperty(id, "v")->AsInt(), 0);
  EXPECT_EQ(db->Stats().snapshot_too_old_aborts, 0u);
}

// An expired WRITER must release its locks when the eviction surfaces at
// commit: a blocked competitor gets through immediately afterwards.
TEST(SnapshotLifecycle, ExpiredCommitAbortsAndReleasesLocks) {
  DatabaseOptions options;
  options.background_gc_interval_ms = 5;
  options.snapshot_max_age_ms = 40;
  auto db = OpenDb(options);

  NodeId a, b;
  {
    auto txn = db->Begin();
    a = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{0})}});
    b = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{0})}});
    ASSERT_TRUE(txn->Commit().ok());
  }

  auto writer = db->Begin(IsolationLevel::kSnapshotIsolation);
  ASSERT_TRUE(writer->SetNodeProperty(a, "v", PropertyValue(int64_t{1})).ok());
  ASSERT_TRUE(writer->SetNodeProperty(b, "v", PropertyValue(int64_t{1})).ok());

  // Sleep past the age limit; the daemon marks the writer expired while it
  // still holds long write locks on a and b.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  ASSERT_TRUE(db->engine().active_txns.IsExpired(writer->id()));

  Status commit = writer->Commit();
  ASSERT_FALSE(commit.ok());
  EXPECT_TRUE(commit.IsSnapshotTooOld()) << commit;
  EXPECT_EQ(writer->state(), TxnState::kAborted);

  // The locks are gone: a competitor writes both entities without waiting
  // (no-wait policy would abort on any residual lock).
  auto competitor = db->Begin(IsolationLevel::kSnapshotIsolation);
  EXPECT_TRUE(
      competitor->SetNodeProperty(a, "v", PropertyValue(int64_t{2})).ok());
  EXPECT_TRUE(
      competitor->SetNodeProperty(b, "v", PropertyValue(int64_t{2})).ok());
  EXPECT_TRUE(competitor->Commit().ok());
  EXPECT_EQ(db->Begin()->GetNodeProperty(a, "v")->AsInt(), 2);
}

// Read-committed transactions read the newest committed state, which
// expiry-driven reclamation never removes. Since the epoch-read-path
// change an RC registration never pins the watermark at all, so the
// lifecycle sweep has nothing to expire: a long-lived RC transaction is
// never marked, never aborted with SnapshotTooOld, and never holds the
// watermark below the oracle.
TEST(SnapshotLifecycle, ReadCommittedSurvivesExpiry) {
  DatabaseOptions options;
  options.background_gc_interval_ms = 5;
  options.snapshot_max_age_ms = 30;
  auto db = OpenDb(options);

  NodeId id;
  {
    auto txn = db->Begin();
    id = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{7})}});
    ASSERT_TRUE(txn->Commit().ok());
  }
  auto rc = db->Begin(IsolationLevel::kReadCommitted);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // Not a victim: a non-pinning registration is invisible to the sweep.
  EXPECT_FALSE(db->engine().active_txns.IsExpired(rc->id()));
  // Not a pin: the watermark sits at the oracle's read timestamp even
  // though this RC transaction started long ago and is still open.
  EXPECT_EQ(db->Watermark(), db->engine().oracle.ReadTs());
  auto read = rc->GetNodeProperty(id, "v");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->AsInt(), 7);
  EXPECT_TRUE(rc->Commit().ok());
}

// The lifecycle policy's backlog-pressure pass also ignores RC
// registrations: with an RC reader as the only open transaction, a
// threshold-crossing backlog drains on its own (the RC entry was never
// the pin), and the reader keeps observing the newest committed value
// throughout — never SnapshotTooOld.
TEST(SnapshotLifecycle, ReadCommittedNeverPinsBacklogNorExpires) {
  DatabaseOptions options;
  options.background_gc_interval_ms = 2;
  options.gc_backlog_threshold = 8;
  options.snapshot_max_age_ms = 20;
  options.snapshot_expire_backlog = 16;
  auto db = OpenDb(options);

  NodeId id;
  {
    auto txn = db->Begin();
    id = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{0})}});
    ASSERT_TRUE(txn->Commit().ok());
  }
  auto rc = db->Begin(IsolationLevel::kReadCommitted);
  int64_t last_seen = 0;
  for (int i = 1; i <= 64; ++i) {
    {
      auto w = db->Begin(IsolationLevel::kSnapshotIsolation);
      ASSERT_TRUE(w->SetNodeProperty(id, "v", PropertyValue(int64_t{i})).ok());
      ASSERT_TRUE(w->Commit().ok());
    }
    auto read = rc->GetNodeProperty(id, "v");
    ASSERT_TRUE(read.ok()) << read.status();  // never SnapshotTooOld
    EXPECT_GE(read->AsInt(), last_seen);      // RC: monotone latest-committed
    last_seen = read->AsInt();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_FALSE(db->engine().active_txns.IsExpired(rc->id()));
  EXPECT_EQ(db->engine().active_txns.snapshots_expired_age(), 0u);
  EXPECT_EQ(db->engine().active_txns.snapshots_expired_backlog(), 0u);
  // The backlog drained past the open RC reader.
  Timestamp deadline_checks = 0;
  while (db->engine().gc_list.backlog() > 0 && deadline_checks < 500) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ++deadline_checks;
  }
  EXPECT_EQ(db->engine().gc_list.backlog(), 0u);
  EXPECT_TRUE(rc->GetNodeProperty(id, "v").ok());
  EXPECT_TRUE(rc->Commit().ok());
}

// ---------------------------------------------------------------------------
// Race windows of the lock-free active-transaction table
// ---------------------------------------------------------------------------

NodeId CreateCounter(GraphDatabase& db) {
  auto txn = db.Begin();
  const NodeId id = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{0})}});
  EXPECT_TRUE(txn->Commit().ok());
  return id;
}

// A Begin parked between reading the oracle's read timestamp and publishing
// it holds a registering slot, which the watermark skips. An overwrite
// committed inside that window and the GC pass after it reclaim the version
// the parked timestamp would read, so the Begin's confirming re-read must
// carry its snapshot past the overwrite: the watermark taken during the
// park is at most the reader's start ts, and the reader reads the state at
// that start ts.
TEST(SnapshotLifecycle, BeginParkedBeforePublishNeverTrailsTheWatermark) {
  DatabaseOptions options;
  options.background_gc_interval_ms = 0;  // GC passes run by hand.
  auto db = OpenDb(options);
  const NodeId id = CreateCounter(*db);
  auto writer = db->Begin();
  ASSERT_TRUE(writer->SetNodeProperty(id, "v", PropertyValue(int64_t{1})).ok());

  ArmedPoints points(db.get());
  points.Park("txn.begin.pre_publish");
  std::unique_ptr<Transaction> reader;
  std::thread begin([&] { reader = db->Begin(); });
  EXPECT_TRUE(points.WaitFor("txn.begin.pre_publish"));
  const Timestamp parked_read_ts = db->engine().oracle.ReadTs();

  EXPECT_TRUE(writer->Commit().ok());
  EXPECT_GT(writer->commit_ts(), parked_read_ts);
  const GcStats gc = db->RunGc();
  EXPECT_GE(gc.versions_pruned, 1u);  // The pre-overwrite version is gone.
  const Timestamp watermark_in_park = db->Watermark();

  points.Release("txn.begin.pre_publish");
  begin.join();
  ASSERT_NE(reader, nullptr);
  EXPECT_LE(watermark_in_park, reader->start_ts());
  EXPECT_GE(reader->start_ts(), writer->commit_ts());
  auto read = reader->GetNodeProperty(id, "v");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->AsInt(), 1);
  EXPECT_TRUE(reader->Commit().ok());
}

// An age sweep parked between judging a slot and marking it: the victim
// ends and a new transaction re-claims the slot (a Begin on the same thread
// probes from the same hint). The mark is a CAS on the owner word the sweep
// judged, so the new owner is never marked and no counter moves.
TEST(SnapshotLifecycle, ExpirySweepNeverMarksARecycledSlot) {
  DatabaseOptions options;
  options.background_gc_interval_ms = 0;  // Sweeps run by hand.
  auto db = OpenDb(options);
  const NodeId id = CreateCounter(*db);
  ActiveTxnTable& table = db->engine().active_txns;
  auto victim = db->Begin();

  ArmedPoints points(db.get());
  points.Park("snapshot.expire.pre_mark");
  std::thread sweep([&] {
    // An hour from now every open snapshot is over a 1 ms age limit.
    table.ExpireSnapshots(
        std::chrono::steady_clock::now() + std::chrono::hours(1),
        /*max_age_ms=*/1, /*backlog_pressure=*/false);
  });
  EXPECT_TRUE(points.WaitFor("snapshot.expire.pre_mark"));
  EXPECT_TRUE(victim->Commit().ok());
  auto fresh = db->Begin();
  EXPECT_EQ(table.ActiveCount(), 1u);
  points.Release("snapshot.expire.pre_mark");
  sweep.join();

  EXPECT_FALSE(table.IsExpired(fresh->id()));
  EXPECT_EQ(table.snapshots_expired_age(), 0u);
  auto read = fresh->GetNodeProperty(id, "v");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_TRUE(fresh->Commit().ok());
}

// ---------------------------------------------------------------------------
// GC drain of the sharded list
// ---------------------------------------------------------------------------

// Multi-entity churn across every shard: the GC worker must drain the
// whole backlog, the chains must end at length 1, and the aggregate
// accounting (backlog == appended - reclaimed) must hold.
TEST(ShardedGc, DrainsAcrossShardsUnderConcurrentWriters) {
  DatabaseOptions options;
  options.background_gc_interval_ms = 2;
  options.gc_backlog_threshold = 16;
  auto db = OpenDb(options);

  std::vector<NodeId> nodes;
  {
    auto txn = db->Begin();
    for (int i = 0; i < 64; ++i) {
      nodes.push_back(*txn->CreateNode({}, {{"v", PropertyValue(int64_t{0})}}));
    }
    ASSERT_TRUE(txn->Commit().ok());
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < 250; ++i) {
        auto txn = db->Begin();
        Status s = txn->SetNodeProperty(nodes[(w * 250 + i) % nodes.size()],
                                        "v", PropertyValue(int64_t{i}));
        if (s.ok()) s = txn->Commit();
        if (!s.ok() && !s.IsRetryable()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Quiescence = the POST-state (backlog empty AND every chain pruned to
  // one version), not a single gauge read: the aggregate gauge can dip to
  // zero while a drain pass is still pruning what it popped.
  const auto& list = db->engine().gc_list;
  const auto drained = [&] {
    if (list.backlog() != 0) return false;
    for (NodeId id : nodes) {
      auto node = db->engine().cache->PeekNode(id);
      if (node == nullptr || node->chain.Length() != 1) return false;
    }
    return true;
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!drained() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(drained());
  EXPECT_EQ(list.backlog(), list.total_appended() - list.total_reclaimed());
  EXPECT_GT(db->gc_daemon()->versions_pruned(), 0u);
}

// Tombstone purges across shards: a node and its relationships hash to
// different shards, and one pass pops them all, so every rel must purge
// before its endpoint node (any node still chained is deferred and
// retried), and every entity must end purged.
TEST(ShardedGc, CrossShardTombstonePurgesConverge) {
  DatabaseOptions options;
  options.background_gc_interval_ms = 2;
  options.gc_backlog_threshold = 4;
  auto db = OpenDb(options);

  // A hub node with many spokes maximizes cross-shard rel/node splits.
  std::vector<NodeId> hubs;
  std::vector<NodeId> spokes;
  std::vector<RelId> rels;
  {
    auto txn = db->Begin();
    for (int h = 0; h < 8; ++h) {
      const NodeId hub = *txn->CreateNode({"Hub"});
      hubs.push_back(hub);
      for (int s = 0; s < 4; ++s) {
        const NodeId spoke = *txn->CreateNode({"Spoke"});
        spokes.push_back(spoke);
        rels.push_back(*txn->CreateRelationship(hub, spoke, "LINK"));
      }
    }
    ASSERT_TRUE(txn->Commit().ok());
  }
  {
    auto txn = db->Begin();
    for (RelId r : rels) ASSERT_TRUE(txn->DeleteRelationship(r).ok());
    for (NodeId h : hubs) ASSERT_TRUE(txn->DeleteNode(h).ok());
    for (NodeId s : spokes) ASSERT_TRUE(txn->DeleteNode(s).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }

  // True quiescence is the PURGE counter, not the backlog gauge: the
  // gauge drops to zero at the pop, before the pass has purged (or
  // re-appended a deferred node), so a backlog()==0 read can race an
  // in-flight pass.
  const size_t expected = hubs.size() + spokes.size() + rels.size();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (db->gc_daemon()->tombstones_purged() < expected &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(db->gc_daemon()->tombstones_purged(), expected);
  for (NodeId h : hubs) EXPECT_FALSE(db->engine().store.NodeInUse(h));
  for (NodeId s : spokes) EXPECT_FALSE(db->engine().store.NodeInUse(s));
  for (RelId r : rels) EXPECT_FALSE(db->engine().store.RelInUse(r));
  AwaitBacklogBelow(*db, 1);
  EXPECT_EQ(db->engine().gc_list.backlog(), 0u);
}

// The daemon runs the very pass a manual RunGc() runs: the same backlog,
// reclaimed either way, prunes the same versions and ends in the same
// state.
TEST(ShardedGc, ManualPassAndDaemonStayEquivalent) {
  for (const bool daemon : {false, true}) {
    DatabaseOptions options;
    // Daemon on: nothing wakes it but the explicit Nudge() below.
    options.background_gc_interval_ms = daemon ? 60000 : 0;
    options.gc_backlog_threshold = 0;
    auto db = OpenDb(options);
    ASSERT_EQ(db->gc_daemon() != nullptr, daemon);

    std::vector<NodeId> nodes;
    {
      auto txn = db->Begin();
      for (int i = 0; i < 16; ++i) {
        nodes.push_back(
            *txn->CreateNode({}, {{"v", PropertyValue(int64_t{0})}}));
      }
      ASSERT_TRUE(txn->Commit().ok());
    }
    for (int round = 1; round <= 3; ++round) {
      auto txn = db->Begin();
      for (NodeId id : nodes) {
        ASSERT_TRUE(
            txn->SetNodeProperty(id, "v", PropertyValue(int64_t{round})).ok());
      }
      ASSERT_TRUE(txn->Commit().ok());
    }
    ASSERT_EQ(db->engine().gc_list.backlog(), 48u);

    uint64_t pruned = 0;
    if (daemon) {
      db->gc_daemon()->Nudge();
      // The counter lands after the pass has pruned: quiescence.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (db->gc_daemon()->versions_pruned() < 48u &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      pruned = db->gc_daemon()->versions_pruned();
    } else {
      pruned = db->RunGc().versions_pruned;
    }
    EXPECT_EQ(pruned, 48u) << (daemon ? "daemon" : "manual");
    EXPECT_EQ(db->engine().gc_list.backlog(), 0u);
    for (NodeId id : nodes) {
      EXPECT_EQ(db->engine().cache->PeekNode(id)->chain.Length(), 1u);
    }
    EXPECT_EQ(db->Begin()->GetNodeProperty(nodes[0], "v")->AsInt(), 3);
  }
}

// Expiry + the GC drain together under concurrent load: pinned readers
// keep starting while writers churn; the policy keeps evicting them, so
// the backlog high-water stays bounded and the system ends fully drained.
TEST(ShardedGc, PolicyBoundsBacklogUnderPinningReaders) {
  DatabaseOptions options;
  options.background_gc_interval_ms = 2;
  options.gc_backlog_threshold = 32;
  options.snapshot_max_age_ms = 20;
  auto db = OpenDb(options);

  std::vector<NodeId> nodes;
  {
    auto txn = db->Begin();
    for (int i = 0; i < 32; ++i) {
      nodes.push_back(*txn->CreateNode({}, {{"v", PropertyValue(int64_t{0})}}));
    }
    ASSERT_TRUE(txn->Commit().ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<int> evicted_readers{0};
  std::thread reader([&] {
    while (!stop.load()) {
      auto txn = db->Begin(IsolationLevel::kSnapshotIsolation);
      (void)txn->GetNodeProperty(nodes[0], "v");
      std::this_thread::sleep_for(std::chrono::milliseconds(40));
      auto again = txn->GetNodeProperty(nodes[0], "v");
      if (!again.ok() && again.status().IsSnapshotTooOld()) {
        evicted_readers.fetch_add(1);
      }
    }
  });
  // Duration-based write churn: the run must span MANY eviction cycles
  // (snapshot_max_age_ms = 20) for "bounded" to mean anything — a burst
  // that finishes inside one cycle legitimately peaks at its own size.
  const auto write_deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(400);
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; std::chrono::steady_clock::now() < write_deadline;
           ++i) {
        auto txn = db->Begin();
        Status s = txn->SetNodeProperty(nodes[(w * 997 + i) % nodes.size()],
                                        "v", PropertyValue(int64_t{i}));
        if (s.ok()) (void)txn->Commit();
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  reader.join();

  EXPECT_GE(evicted_readers.load(), 1);
  AwaitBacklogBelow(*db, 1);
  EXPECT_EQ(db->engine().gc_list.backlog(), 0u);
  const DatabaseStats stats = db->Stats();
  EXPECT_GE(stats.snapshots_expired_age, 1u);
  // Bounded: the peak backlog stayed well below the total version volume
  // (policy off, the pinning readers would have pinned ~everything:
  // high-water ≈ appended). On a machine too slow to generate judgeable
  // churn in the window (e.g. sanitizer builds on a loaded runner), skip
  // rather than fail — low churn is a property of the box, not a bug.
  if (stats.gc_appended <= 1000u) {
    GTEST_SKIP() << "write churn too small to judge the bound (appended="
                 << stats.gc_appended << ")";
  }
  EXPECT_LT(stats.gc_backlog_high_water, stats.gc_appended / 2);
}

}  // namespace
}  // namespace neosi
