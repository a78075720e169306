// Commit pipeline: ordered publication under concurrent, out-of-order
// commit completion.
//
// The staged pipeline lets many writers apply concurrently; the only
// ordering guarantee is the oracle watermark — a snapshot's start timestamp
// never exceeds a timestamp below which some commit is still mid-apply.
// These stress tests hammer that invariant: if the watermark ever exposed a
// gap, a reader would observe a HALF-APPLIED commit (some entities of a
// committed transaction visible, others not). A table test then walks every
// exit of Commit() against the same checks.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/random.h"
#include "graph/graph_database.h"
#include "sync_points.h"

namespace neosi {
namespace {

std::unique_ptr<GraphDatabase> OpenDb(
    ConflictPolicy policy = ConflictPolicy::kFirstUpdaterWinsWait) {
  DatabaseOptions options;
  options.in_memory = true;
  options.conflict_policy = policy;
  options.background_gc_interval_ms = 0;  // Pipeline assertions, no daemon.
  auto db = GraphDatabase::Open(options);
  EXPECT_TRUE(db.ok()) << db.status();
  return std::move(*db);
}

// Each writer owns a disjoint group of nodes and commits the same value to
// every node of its group in one transaction. Commits across writers
// complete out of order (different group sizes and scheduling); readers
// continuously snapshot one group and require all of its nodes to agree —
// any mixed read is a half-applied commit leaking through the watermark.
TEST(CommitPipeline, SnapshotNeverObservesHalfAppliedCommit) {
  auto db = OpenDb();

  constexpr int kWriters = 4;
  constexpr int kReaders = 3;
  constexpr int kGroupSize = 8;
  constexpr int kCommitsPerWriter = 400;

  std::vector<std::vector<NodeId>> groups(kWriters);
  {
    auto txn = db->Begin();
    for (int w = 0; w < kWriters; ++w) {
      for (int i = 0; i < kGroupSize; ++i) {
        groups[w].push_back(
            *txn->CreateNode({}, {{"v", PropertyValue(int64_t{0})}}));
      }
    }
    ASSERT_TRUE(txn->Commit().ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<int> torn_reads{0};
  std::atomic<int> reads_done{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Random rng(r * 31 + 7);
      while (!stop.load(std::memory_order_relaxed)) {
        const auto& group = groups[rng.Uniform(kWriters)];
        auto txn = db->Begin(IsolationLevel::kSnapshotIsolation);
        int64_t first = -1;
        bool torn = false;
        for (size_t i = 0; i < group.size(); ++i) {
          auto v = txn->GetNodeProperty(group[i], "v");
          if (!v.ok()) {
            torn = true;  // All nodes exist from the start: must be readable.
            break;
          }
          if (i == 0) {
            first = v->AsInt();
          } else if (v->AsInt() != first) {
            torn = true;
            break;
          }
        }
        if (torn) torn_reads.fetch_add(1);
        reads_done.fetch_add(1);
        (void)txn->Abort();
      }
    });
  }

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 1; i <= kCommitsPerWriter; ++i) {
        auto txn = db->Begin(IsolationLevel::kSnapshotIsolation);
        bool ok = true;
        for (NodeId node : groups[w]) {
          if (!txn->SetNodeProperty(node, "v",
                                    PropertyValue(int64_t{i}))
                   .ok()) {
            ok = false;
            break;
          }
        }
        // Disjoint groups: writes never conflict, commits must succeed.
        if (ok) {
          EXPECT_TRUE(txn->Commit().ok());
        } else {
          ADD_FAILURE() << "write on private group failed";
          (void)txn->Abort();
        }
      }
    });
  }

  for (auto& t : writers) t.join();
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(torn_reads.load(), 0)
      << "a snapshot observed a half-applied commit";
  EXPECT_GT(reads_done.load(), 0);

  // Quiesced: the watermark must have caught up to every allocated
  // timestamp (no commit slot was leaked on any path).
  EXPECT_EQ(db->engine().oracle.ReadTs(),
            db->engine().oracle.LastAllocatedCommitTs());
  EXPECT_EQ(db->engine().oracle.PendingPublishCount(), 0u);

  // Every group must end at its writer's final value.
  auto txn = db->Begin();
  for (int w = 0; w < kWriters; ++w) {
    for (NodeId node : groups[w]) {
      auto v = txn->GetNodeProperty(node, "v");
      ASSERT_TRUE(v.ok());
      EXPECT_EQ(v->AsInt(), kCommitsPerWriter);
    }
  }
}

// Cross-entity invariant under CONFLICTING writers: concurrent transfers
// between accounts keep the total constant in every snapshot, with commit
// retries, aborts and out-of-order completions all in play.
TEST(CommitPipeline, ConservedTotalUnderConflictingOutOfOrderCommits) {
  auto db = OpenDb(ConflictPolicy::kFirstCommitterWins);

  constexpr int kAccounts = 16;
  constexpr int64_t kInitial = 1000;
  constexpr int kTransfersPerWriter = 300;
  constexpr int kWriters = 4;

  std::vector<NodeId> accounts;
  {
    auto txn = db->Begin();
    for (int i = 0; i < kAccounts; ++i) {
      accounts.push_back(
          *txn->CreateNode({}, {{"balance", PropertyValue(kInitial)}}));
    }
    ASSERT_TRUE(txn->Commit().ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<int> torn_audits{0};

  std::thread auditor([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto txn = db->Begin(IsolationLevel::kSnapshotIsolation);
      int64_t total = 0;
      bool ok = true;
      for (NodeId account : accounts) {
        auto v = txn->GetNodeProperty(account, "balance");
        if (!v.ok()) {
          ok = false;
          break;
        }
        total += v->AsInt();
      }
      if (ok && total != kAccounts * kInitial) torn_audits.fetch_add(1);
      (void)txn->Abort();
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Random rng(w * 7919 + 1);
      int done = 0;
      while (done < kTransfersPerWriter) {
        const NodeId from = accounts[rng.Uniform(kAccounts)];
        const NodeId to = accounts[rng.Uniform(kAccounts)];
        if (from == to) continue;
        auto txn = db->Begin(IsolationLevel::kSnapshotIsolation);
        auto a = txn->GetNodeProperty(from, "balance");
        auto b = txn->GetNodeProperty(to, "balance");
        if (!a.ok() || !b.ok() ||
            !txn->SetNodeProperty(from, "balance",
                                  PropertyValue(a->AsInt() - 1))
                 .ok() ||
            !txn->SetNodeProperty(to, "balance",
                                  PropertyValue(b->AsInt() + 1))
                 .ok()) {
          (void)txn->Abort();
          continue;  // Conflict: retry.
        }
        if (txn->Commit().ok()) ++done;  // Commit conflict: retry too.
      }
    });
  }

  for (auto& t : writers) t.join();
  stop.store(true);
  auditor.join();

  EXPECT_EQ(torn_audits.load(), 0)
      << "an audit observed a half-applied transfer";

  // Watermark caught up even though many commits aborted mid-pipeline.
  EXPECT_EQ(db->engine().oracle.ReadTs(),
            db->engine().oracle.LastAllocatedCommitTs());
  EXPECT_EQ(db->engine().oracle.PendingPublishCount(), 0u);

  auto txn = db->Begin();
  int64_t total = 0;
  for (NodeId account : accounts) {
    total += (*txn->GetNodeProperty(account, "balance")).AsInt();
  }
  EXPECT_EQ(total, kAccounts * kInitial);
}


// One row per exit of Commit(), each under SI and Serializable. Whatever the
// exit, the oracle gets back every timestamp it handed out. The WAL pin
// outlives the commit only when its record reached the log but not the
// store. A failure after the append is a fail-stop: the record is durable
// but memory does not show it, so every later write commit fails until a
// reopen replays it.
TEST(CommitPipeline, EveryCommitExitFollowsItsStageRule) {
  struct Row {
    const char* name;
    const char* point;  // The sync point failed; null for none.
    uint64_t nth;       // Which arrival fails (0: every one).
    size_t pins_kept;   // WAL pins the commit leaves behind.
  };
  const Row rows[] = {
      {"read-only", nullptr, 0, 0},
      {"append failure", "wal.sync.fail", 0, 0},
      {"pre-apply failure", "commit.pre_apply", 1, 1},
      {"store-apply failure", "commit.apply.op", 2, 1},
  };
  for (IsolationLevel isolation :
       {IsolationLevel::kSnapshotIsolation, IsolationLevel::kSerializable}) {
    for (const Row& row : rows) {
      SCOPED_TRACE(std::string(row.name) +
                   (isolation == IsolationLevel::kSerializable
                        ? " / serializable"
                        : " / snapshot isolation"));
      DatabaseOptions options;
      options.in_memory = true;
      options.sync_commits = true;
      options.background_gc_interval_ms = 0;
      options.checkpoint_interval_ms = 0;
      auto db = std::move(*GraphDatabase::Open(options));
      NodeId a, b;
      {
        auto txn = db->Begin();
        a = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{1})}});
        b = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{1})}});
        ASSERT_TRUE(txn->Commit().ok());
      }
      const TimestampOracle& oracle = db->engine().oracle;
      const Wal& wal = db->engine().store.wal();
      const Timestamp allocated = oracle.LastAllocatedCommitTs();
      const size_t pins = wal.PinnedCount();
      {
        ArmedPoints points(db.get());
        if (row.point != nullptr) points.Fail(row.point, row.nth);
        auto txn = db->Begin(isolation);
        ASSERT_TRUE(txn->GetNodeProperty(a, "v").ok());
        if (row.point != nullptr) {
          ASSERT_TRUE(
              txn->SetNodeProperty(a, "v", PropertyValue(int64_t{2})).ok());
          ASSERT_TRUE(
              txn->SetNodeProperty(b, "v", PropertyValue(int64_t{2})).ok());
        }
        Status s = txn->Commit();
        if (row.point == nullptr) {
          EXPECT_TRUE(s.ok()) << s;
        } else {
          EXPECT_TRUE(s.IsIOError()) << s;
        }
      }
      EXPECT_EQ(oracle.ReadTs(), oracle.LastAllocatedCommitTs());
      EXPECT_EQ(oracle.PendingPublishCount(), 0u);
      EXPECT_EQ(wal.PinnedCount(), pins + row.pins_kept);
      if (row.point == nullptr) {
        EXPECT_EQ(oracle.LastAllocatedCommitTs(), allocated);
      }

      auto next = db->Begin(isolation);
      ASSERT_TRUE(
          next->SetNodeProperty(b, "v", PropertyValue(int64_t{3})).ok());
      Status s = next->Commit();
      if (row.point == nullptr) {
        EXPECT_TRUE(s.ok()) << s;
      } else {
        EXPECT_TRUE(s.IsIOError()) << s;
      }
    }
  }
}

}  // namespace
}  // namespace neosi
