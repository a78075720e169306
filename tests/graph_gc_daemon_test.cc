// Background GC daemon: watermark pacing, backlog nudges, lifecycle.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>

#include "graph/graph_database.h"
#include "hang_watchdog.h"

namespace neosi {
namespace {

// Waits until the backlog is below `below` and `counted` holds. A pass pops
// its batch before it prunes and counts it, so a test that asserts a
// pass's counters waits for them too.
void AwaitDrained(
    GraphDatabase& db, size_t below = 1,
    const std::function<bool()>& counted = [] { return true; }) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while ((db.engine().gc_list.backlog() >= below || !counted()) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

TEST(GcDaemon, CollectsInBackground) {
  DatabaseOptions options;
  options.in_memory = true;
  options.background_gc_interval_ms = 5;  // Fast daemon.
  options.gc_backlog_threshold = 0;       // Interval pacing only.
  auto db = std::move(*GraphDatabase::Open(options));
  ASSERT_NE(db->gc_daemon(), nullptr);
  EXPECT_TRUE(db->gc_daemon()->running());

  NodeId id;
  {
    auto txn = db->Begin();
    id = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{0})}});
    ASSERT_TRUE(txn->Commit().ok());
  }
  for (int i = 1; i <= 50; ++i) {
    auto txn = db->Begin();
    ASSERT_TRUE(txn->SetNodeProperty(id, "v", PropertyValue(int64_t{i})).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  // The daemon reclaims the superseded versions without any explicit call.
  AwaitDrained(*db, /*below=*/1,
               [&] { return db->gc_daemon()->versions_pruned() >= 50; });
  EXPECT_EQ(db->engine().gc_list.backlog(), 0u);
  EXPECT_GT(db->gc_daemon()->passes(), 0u);
  EXPECT_GE(db->gc_daemon()->versions_pruned(), 50u);
  auto node = db->engine().cache->PeekNode(id);
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->chain.Length(), 1u);
}

TEST(GcDaemon, NudgeTriggersImmediatePass) {
  DatabaseOptions options;
  options.in_memory = true;
  options.background_gc_interval_ms = 60000;  // Effectively never on its own.
  options.gc_backlog_threshold = 0;           // Manual nudges only.
  auto db = std::move(*GraphDatabase::Open(options));
  NodeId id;
  {
    auto txn = db->Begin();
    id = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{0})}});
    ASSERT_TRUE(txn->Commit().ok());
  }
  {
    auto txn = db->Begin();
    ASSERT_TRUE(txn->SetNodeProperty(id, "v", PropertyValue(int64_t{1})).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  ASSERT_EQ(db->engine().gc_list.backlog(), 1u);
  db->gc_daemon()->Nudge();
  AwaitDrained(*db);
  EXPECT_EQ(db->engine().gc_list.backlog(), 0u);
}

// Commit publication must nudge the daemon as soon as the backlog crosses
// the threshold — with a 60 s interval, a completed pass proves the nudge
// path fired without waiting for the timer.
TEST(GcDaemon, BacklogThresholdNudgeFiresWithoutInterval) {
  DatabaseOptions options;
  options.in_memory = true;
  options.background_gc_interval_ms = 60000;
  options.gc_backlog_threshold = 4;
  auto db = std::move(*GraphDatabase::Open(options));
  NodeId id;
  {
    auto txn = db->Begin();
    id = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{0})}});
    ASSERT_TRUE(txn->Commit().ok());
  }
  for (int i = 1; i <= 8; ++i) {
    auto txn = db->Begin();
    ASSERT_TRUE(txn->SetNodeProperty(id, "v", PropertyValue(int64_t{i})).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  AwaitDrained(*db, /*below=*/4,
               [&] { return db->gc_daemon()->nudge_passes() >= 1; });
  EXPECT_LT(db->engine().gc_list.backlog(), 4u);
  EXPECT_GE(db->gc_daemon()->nudge_passes(), 1u);
  EXPECT_EQ(db->gc_daemon()->interval_passes(), 0u);
  EXPECT_GE(db->engine().gc_list.backlog_high_water(), 4u);
}

// No pass may prune a version still visible at the current watermark: an
// open snapshot pins everything it can read, however hard the daemon is
// driven.
TEST(GcDaemon, NeverReclaimsAboveTheWatermark) {
  DatabaseOptions options;
  options.in_memory = true;
  options.background_gc_interval_ms = 1;  // Aggressive.
  options.gc_backlog_threshold = 1;       // Nudge on every commit.
  auto db = std::move(*GraphDatabase::Open(options));
  NodeId id;
  {
    auto txn = db->Begin();
    id = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{7})}});
    ASSERT_TRUE(txn->Commit().ok());
  }

  auto pinned = db->Begin(IsolationLevel::kSnapshotIsolation);
  ASSERT_EQ(pinned->GetNodeProperty(id, "v")->AsInt(), 7);

  for (int i = 0; i < 20; ++i) {
    auto txn = db->Begin();
    ASSERT_TRUE(
        txn->SetNodeProperty(id, "v", PropertyValue(int64_t{100 + i})).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  // Give the daemon ample opportunity to misbehave.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // Every wakeup found nothing reclaimable below the watermark (skipped) or
  // ran a pass that pruned nothing; either way nothing was reclaimed.
  EXPECT_GT(db->gc_daemon()->idle_skips() + db->gc_daemon()->passes(), 0u);
  EXPECT_EQ(db->gc_daemon()->versions_pruned(), 0u);

  // The pinned snapshot's version (obsolete_since > its start_ts) survives;
  // every entry is still parked above the watermark.
  EXPECT_EQ(pinned->GetNodeProperty(id, "v")->AsInt(), 7);
  EXPECT_GE(db->engine().gc_list.backlog(), 20u);
  const Timestamp watermark =
      db->engine().active_txns.Watermark(db->engine().oracle.ReadTs());
  EXPECT_GT(db->engine().gc_list.OldestObsoleteSince(), watermark);

  // Releasing the snapshot lifts the watermark; the backlog drains.
  ASSERT_TRUE(pinned->Abort().ok());
  db->gc_daemon()->Nudge();
  AwaitDrained(*db);
  EXPECT_EQ(db->engine().gc_list.backlog(), 0u);
  EXPECT_EQ(db->Begin()->GetNodeProperty(id, "v")->AsInt(), 119);
}

// A pinned episode suppresses commit nudges (re-arm) — but once the pin
// releases, the daemon's short retry cadence must drain the backlog
// promptly on its own, without a manual nudge or a fresh commit, even
// when the regular interval is effectively infinite.
TEST(GcDaemon, ReclaimsPromptlyAfterPinReleaseWithoutNudge) {
  DatabaseOptions options;
  options.in_memory = true;
  options.background_gc_interval_ms = 60000;  // Only nudges/retries matter.
  options.gc_backlog_threshold = 2;
  auto db = std::move(*GraphDatabase::Open(options));
  NodeId id;
  {
    auto txn = db->Begin();
    id = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{0})}});
    ASSERT_TRUE(txn->Commit().ok());
  }
  auto pinned = db->Begin(IsolationLevel::kSnapshotIsolation);
  ASSERT_EQ(pinned->GetNodeProperty(id, "v")->AsInt(), 0);
  for (int i = 1; i <= 6; ++i) {
    auto txn = db->Begin();
    ASSERT_TRUE(txn->SetNodeProperty(id, "v", PropertyValue(int64_t{i})).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  // The nudge fired into a pinned skip and re-armed; backlog is parked.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_EQ(db->engine().gc_list.backlog(), 6u);

  // Release the pin with an ABORT (no commit follows, so no fresh nudge):
  // the daemon's pinned-retry cadence alone must drain within the deadline.
  ASSERT_TRUE(pinned->Abort().ok());
  AwaitDrained(*db);
  EXPECT_EQ(db->engine().gc_list.backlog(), 0u);
  EXPECT_EQ(db->Begin()->GetNodeProperty(id, "v")->AsInt(), 6);
}

// Stop() during an in-flight pass joins cleanly: the pass finishes, state
// stays consistent, and a restart resumes reclamation.
TEST(GcDaemon, StopDuringInFlightPassIsClean) {
  DatabaseOptions options;
  options.in_memory = true;
  options.background_gc_interval_ms = 60000;
  options.gc_backlog_threshold = 0;
  auto db = std::move(*GraphDatabase::Open(options));
  NodeId id;
  {
    auto txn = db->Begin();
    id = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{0})}});
    ASSERT_TRUE(txn->Commit().ok());
  }
  for (int i = 1; i <= 2000; ++i) {
    auto txn = db->Begin();
    ASSERT_TRUE(txn->SetNodeProperty(id, "v", PropertyValue(int64_t{i})).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  ASSERT_EQ(db->engine().gc_list.backlog(), 2000u);
  db->gc_daemon()->Nudge();  // Kick a large pass off...
  db->gc_daemon()->Stop();   // ...and stop while it may be mid-drain.
  EXPECT_FALSE(db->gc_daemon()->running());

  // Accounting stayed coherent whether or not the pass ran to completion.
  const auto& list = db->engine().gc_list;
  EXPECT_EQ(list.backlog(),
            list.total_appended() - list.total_reclaimed());

  db->gc_daemon()->Start();
  EXPECT_TRUE(db->gc_daemon()->running());
  db->gc_daemon()->Nudge();
  AwaitDrained(*db);
  EXPECT_EQ(db->engine().gc_list.backlog(), 0u);
  EXPECT_EQ(db->Begin()->GetNodeProperty(id, "v")->AsInt(), 2000);
}

TEST(GcDaemon, StopIsIdempotentAndDestructorSafe) {
  DatabaseOptions options;
  options.in_memory = true;
  options.background_gc_interval_ms = 5;
  auto db = std::move(*GraphDatabase::Open(options));
  db->gc_daemon()->Stop();
  db->gc_daemon()->Stop();
  EXPECT_FALSE(db->gc_daemon()->running());
  db->gc_daemon()->Start();
  EXPECT_TRUE(db->gc_daemon()->running());
  // Destructor stops it again.
}

// Two threads stopping the daemon at once must both return, and the daemon
// must restart cleanly after every round.
TEST(GcDaemon, ConcurrentStopsNeverHang) {
  DatabaseOptions options;
  options.in_memory = true;
  options.background_gc_interval_ms = 1;
  auto db = std::move(*GraphDatabase::Open(options));
  GcDaemon* daemon = db->gc_daemon();
  RunWithHangWatchdog(std::chrono::seconds(60), [&] {
    for (int i = 0; i < 500; ++i) {
      daemon->Start();
      std::thread a([&] { daemon->Stop(); });
      std::thread b([&] { daemon->Stop(); });
      a.join();
      b.join();
      ASSERT_FALSE(daemon->running()) << "round " << i;
    }
  });
}

TEST(GcDaemon, OnByDefaultOffWhenIntervalZero) {
  DatabaseOptions defaults;
  defaults.in_memory = true;
  auto db = std::move(*GraphDatabase::Open(defaults));
  ASSERT_NE(db->gc_daemon(), nullptr);  // Async GC is the default path.
  EXPECT_TRUE(db->gc_daemon()->running());

  DatabaseOptions off;
  off.in_memory = true;
  off.background_gc_interval_ms = 0;
  auto manual = std::move(*GraphDatabase::Open(off));
  EXPECT_EQ(manual->gc_daemon(), nullptr);
}

TEST(GcDaemon, SafeUnderConcurrentLoad) {
  DatabaseOptions options;
  options.in_memory = true;
  options.background_gc_interval_ms = 1;  // Aggressive.
  options.gc_backlog_threshold = 8;       // Plus constant nudging.
  auto db = std::move(*GraphDatabase::Open(options));
  std::vector<NodeId> nodes;
  {
    auto txn = db->Begin();
    for (int i = 0; i < 8; ++i) {
      nodes.push_back(
          *txn->CreateNode({}, {{"v", PropertyValue(int64_t{0})}}));
    }
    ASSERT_TRUE(txn->Commit().ok());
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&, w] {
      for (int i = 0; i < 300; ++i) {
        auto txn = db->Begin();
        Status s = txn->SetNodeProperty(nodes[(w * 300 + i) % nodes.size()],
                                        "v", PropertyValue(int64_t{i}));
        if (s.ok()) s = txn->Commit();
        if (!s.ok() && !s.IsRetryable()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : workers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace neosi
