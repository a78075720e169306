// Deterministic admission-control tests. All pressure is constructed by
// hand: the GC daemon is OFF, so the backlog gauge moves only when this
// test churns versions, and drains only when this test calls RunGc() — no
// timing dependence. The contract under test, per cause:
//
//   * Backlog over snapshot_expire_backlog  => NEW wire Begins shed with
//     retryable Busy (admission_shed_backlog), or admitted after a bounded
//     delay if the backlog drains meanwhile (admission_delayed).
//   * max_sessions open wire transactions   => NEW Begins shed immediately
//     (admission_shed_sessions).
//   * Established sessions are NEVER aborted by admission: while the door
//     is shut, a session that got in earlier keeps reading and commits,
//     and snapshots_expired_* stay untouched.

#include <gtest/gtest.h>

#include <thread>

#include "graph/graph_database.h"
#include "server/client.h"
#include "server/server.h"
#include "sync_points.h"

namespace neosi {
namespace {

constexpr uint64_t kBacklogThreshold = 16;

std::unique_ptr<GraphDatabase> OpenPressureDb() {
  DatabaseOptions options;  // In-memory.
  options.background_gc_interval_ms = 0;  // All drains are explicit RunGc().
  options.checkpoint_interval_ms = 0;
  options.snapshot_expire_backlog = kBacklogThreshold;
  auto db = GraphDatabase::Open(options);
  EXPECT_TRUE(db.ok()) << db.status();
  return std::move(*db);
}

/// Commits one node with v=0 — the churn target.
NodeId SeedChurnNode(GraphDatabase& db) {
  auto txn = db.Begin();
  NodeId key = *txn->CreateNode({"Churn"}, {{"v", PropertyValue(int64_t{0})}});
  EXPECT_TRUE(txn->Commit().ok());
  return key;
}

/// Churns the node's property via the embedded API until the GC backlog
/// gauge exceeds the admission threshold.
void ChurnPastThreshold(GraphDatabase& db, NodeId key) {
  for (int64_t i = 0; i < 4 * static_cast<int64_t>(kBacklogThreshold) &&
                      db.engine().gc_list.backlog() <= kBacklogThreshold + 4;
       ++i) {
    auto txn = db.Begin();
    EXPECT_TRUE(txn->SetNodeProperty(key, "v", PropertyValue(i)).ok());
    EXPECT_TRUE(txn->Commit().ok());
  }
  EXPECT_GT(db.engine().gc_list.backlog(), kBacklogThreshold);
}

TEST(ServerAdmission, BacklogShedsOnlyNewBeginsAndReopensAfterDrain) {
  auto db = OpenPressureDb();
  ServerOptions server_options;
  server_options.workers = 2;
  server_options.admission_delay_ms = 1;  // Shed fast: nothing will drain.
  auto server = std::move(*Server::Start(db.get(), server_options));
  const NodeId key = SeedChurnNode(*db);

  // An ESTABLISHED session begins before any pressure exists (but after
  // the churn target: its snapshot must see v=0 and none of the churn).
  Client established;
  ASSERT_TRUE(established.Connect("127.0.0.1", server->port()).ok());
  ASSERT_TRUE(established.Begin().ok());

  ChurnPastThreshold(*db, key);

  // Door shut: every NEW Begin is shed with retryable Busy.
  Client newcomer;
  ASSERT_TRUE(newcomer.Connect("127.0.0.1", server->port()).ok());
  for (int i = 0; i < 3; ++i) {
    auto begin = newcomer.Begin();
    ASSERT_FALSE(begin.ok());
    EXPECT_TRUE(begin.status().IsBusy()) << begin.status();
    EXPECT_TRUE(begin.status().IsRetryable());
  }
  DatabaseStats stats = db->Stats();
  EXPECT_GE(stats.admission_shed_backlog, 3u);
  EXPECT_EQ(stats.admission_shed_sessions, 0u);

  // The established session sailed through the whole episode: its snapshot
  // was never admission-aborted, it still reads, and it commits.
  auto value = established.GetNodeProperty(key, "v");
  EXPECT_TRUE(value.ok()) << value.status();
  EXPECT_EQ(value->AsInt(), 0) << "snapshot must predate the churn";
  auto committed = established.Commit();
  EXPECT_TRUE(committed.ok()) << committed.status();
  stats = db->Stats();
  EXPECT_EQ(stats.snapshots_expired_backlog, 0u);
  EXPECT_EQ(stats.snapshots_expired_age, 0u);
  EXPECT_EQ(stats.snapshot_too_old_aborts, 0u);

  // Drain (the established commit released the watermark pin) — the door
  // must reopen.
  db->RunGc();
  ASSERT_LE(db->engine().gc_list.backlog(), kBacklogThreshold);
  auto reopened = newcomer.Begin();
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_TRUE(newcomer.Commit().ok() || newcomer.Rollback().ok());
  EXPECT_GT(db->Stats().admission_admitted, 0u);
  server->Stop();
}

// The delay path: a Begin arriving under backlog pressure that DRAINS
// within admission_delay_ms is admitted (counted admission_delayed), not
// shed — the door opens for the waiter.
TEST(ServerAdmission, BeginDelayedThroughDrainIsAdmittedNotShed) {
  auto db = OpenPressureDb();
  ServerOptions server_options;
  server_options.workers = 2;
  server_options.admission_delay_ms = 2000;  // Plenty of patience.
  auto server = std::move(*Server::Start(db.get(), server_options));

  ChurnPastThreshold(*db, SeedChurnNode(*db));

  // Drain the backlog once the Begin is PROVABLY in the admission window
  // (its arrival at the delay point makes this race-free).
  ArmedPoints points(db.get());
  points.Count("admission.delay");
  std::thread drainer([&db, &points] {
    EXPECT_TRUE(points.WaitFor("admission.delay"));
    db->RunGc();
  });

  Client waiter;
  ASSERT_TRUE(waiter.Connect("127.0.0.1", server->port()).ok());
  auto begin = waiter.Begin();
  drainer.join();

  ASSERT_TRUE(begin.ok()) << begin.status();
  const DatabaseStats stats = db->Stats();
  EXPECT_GE(stats.admission_delayed, 1u);
  EXPECT_EQ(stats.admission_shed_backlog, 0u);
  EXPECT_TRUE(waiter.Rollback().ok());
  server->Stop();
}

// The idle sweep reaps only sessions waiting for a request: a Begin parked
// in the admission delay for many idle timeouts keeps its session, while
// an idle session beside it is reaped and counted exactly once.
TEST(ServerAdmission, IdleSweepSparesSessionParkedInAdmission) {
  auto db = OpenPressureDb();
  ServerOptions server_options;
  server_options.workers = 2;
  server_options.idle_timeout_ms = 20;
  server_options.admission_delay_ms = 2000;
  auto server = std::move(*Server::Start(db.get(), server_options));
  ChurnPastThreshold(*db, SeedChurnNode(*db));

  ArmedPoints points(db.get());
  points.Park("admission.delay");
  Client busy;
  ASSERT_TRUE(busy.Connect("127.0.0.1", server->port()).ok());
  Result<Client::BeginInfo> begin = Status::Aborted("begin never replied");
  std::thread beginner([&] { begin = busy.Begin(); });
  ASSERT_TRUE(points.WaitFor("admission.delay"));

  Client idle;
  ASSERT_TRUE(idle.Connect("127.0.0.1", server->port()).ok());
  for (int i = 0; i < 200 && server->idle_drops() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server->idle_drops(), 1u);
  // Park well past the timeout: ten more sweeps must leave it alone.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(server->idle_drops(), 1u);
  EXPECT_EQ(server->sessions(), 1u);
  EXPECT_FALSE(idle.Ping().ok()) << "the idle session was dropped";

  db->RunGc();  // The parked Begin is admitted once the backlog drained.
  points.Release("admission.delay");
  beginner.join();
  ASSERT_TRUE(begin.ok()) << begin.status();
  EXPECT_GE(db->Stats().admission_delayed, 1u);
  server->Stop();
}

TEST(ServerAdmission, MaxSessionsShedsNewBeginsUntilASlotFrees) {
  DatabaseOptions db_options;
  db_options.background_gc_interval_ms = 0;
  auto db = std::move(*GraphDatabase::Open(db_options));
  ServerOptions server_options;
  server_options.workers = 2;
  server_options.max_sessions = 2;
  auto server = std::move(*Server::Start(db.get(), server_options));

  Client first, second, third;
  ASSERT_TRUE(first.Connect("127.0.0.1", server->port()).ok());
  ASSERT_TRUE(second.Connect("127.0.0.1", server->port()).ok());
  ASSERT_TRUE(third.Connect("127.0.0.1", server->port()).ok());

  ASSERT_TRUE(first.Begin().ok());
  ASSERT_TRUE(second.Begin().ok());

  // Both slots held: the third session's Begin is shed...
  auto shed = third.Begin();
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsBusy()) << shed.status();
  EXPECT_GE(db->Stats().admission_shed_sessions, 1u);

  // ...while the slot HOLDERS are untouched: both commit fine.
  ASSERT_TRUE(first.CreateNode({"Holder"}).ok());
  EXPECT_TRUE(first.Commit().ok());
  EXPECT_TRUE(second.Rollback().ok());

  // Slots freed: the shed client's retry gets in.
  auto retry = third.Begin();
  ASSERT_TRUE(retry.ok()) << retry.status();
  EXPECT_TRUE(third.Rollback().ok());
  server->Stop();
}

}  // namespace
}  // namespace neosi
