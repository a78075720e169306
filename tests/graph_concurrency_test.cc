// Multithreaded property tests: invariants that must hold under arbitrary
// interleavings — snapshot stability, write-write exclusion, conserved
// totals, GC safety under load.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "graph/graph_database.h"
#include "workload/bank.h"
#include "workload/driver.h"

namespace neosi {
namespace {

std::unique_ptr<GraphDatabase> OpenDb(
    ConflictPolicy policy = ConflictPolicy::kFirstUpdaterWinsWait,
    uint64_t gc_interval_ms = 0, uint64_t gc_backlog_threshold = 0) {
  DatabaseOptions options;
  options.in_memory = true;
  options.conflict_policy = policy;
  options.background_gc_interval_ms = gc_interval_ms;
  options.gc_backlog_threshold = gc_backlog_threshold;
  auto db = GraphDatabase::Open(options);
  EXPECT_TRUE(db.ok()) << db.status();
  return std::move(*db);
}

// Property: under SI, the total of all account balances observed by ANY
// audit equals the invariant total, no matter how many transfers race.
TEST(Concurrency, SiAuditAlwaysSeesConservedTotal) {
  auto db = OpenDb();
  auto bank = *BuildBank(*db, 32, 100);
  std::atomic<bool> stop{false};
  std::atomic<int> torn_audits{0};

  std::thread auditor([&] {
    while (!stop.load()) {
      auto total = Audit(*db, bank, IsolationLevel::kSnapshotIsolation);
      if (total.ok() && *total != bank.ExpectedTotal()) {
        torn_audits.fetch_add(1);
      }
    }
  });

  DriverResult result = RunForDuration(4, 300, [&](int t, uint64_t op) {
    Random rng(t * 7919 + op);
    return Transfer(*db, bank, rng.Uniform(32), rng.Uniform(32),
                    static_cast<int64_t>(rng.Uniform(10)),
                    IsolationLevel::kSnapshotIsolation);
  });
  stop.store(true);
  auditor.join();

  EXPECT_EQ(torn_audits.load(), 0) << "SI audit observed a torn total";
  EXPECT_GT(result.committed, 0u);
  EXPECT_EQ(result.errors, 0u);
  // Final state conserves the total.
  EXPECT_EQ(*Audit(*db, bank, IsolationLevel::kSnapshotIsolation),
            bank.ExpectedTotal());
}

// Property: two concurrent committed transactions never both updated the
// same entity (the SI write rule, §3). We count per-entity committed
// updates via a version counter and verify monotonic single-step growth.
// Stats() sums every cached chain's footprint under the chain latch while
// writers rewrite their uncommitted head's data without it: the footprint
// must not read an uncommitted version's contents (TSan checks).
TEST(Concurrency, StatsPollingRacesUncommittedWrites) {
  auto db = OpenDb();
  std::vector<NodeId> nodes;
  {
    auto txn = db->Begin(IsolationLevel::kSnapshotIsolation);
    for (int i = 0; i < 4; ++i) nodes.push_back(*txn->CreateNode({"N"}));
    ASSERT_TRUE(txn->Commit().ok());
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (NodeId node : nodes) {
    writers.emplace_back([&db, &stop, node] {
      for (int round = 0; !stop.load(); ++round) {
        auto txn = db->Begin(IsolationLevel::kSnapshotIsolation);
        for (int i = 0; i < 16; ++i) {
          const std::string value(static_cast<size_t>(1 + (round + i) % 64),
                                  'x');
          ASSERT_TRUE(
              txn->SetNodeProperty(node, "p", PropertyValue(value)).ok());
        }
        ASSERT_TRUE(txn->Commit().ok());
      }
    });
  }
  uint64_t polls = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
  while (std::chrono::steady_clock::now() < deadline) {
    EXPECT_GT(db->Stats().cache.approx_bytes, 0u);
    ++polls;
  }
  stop.store(true);
  for (auto& writer : writers) writer.join();
  EXPECT_GT(polls, 0u);
}

TEST(Concurrency, WriteWriteExclusionUnderAllPolicies) {
  for (ConflictPolicy policy : {ConflictPolicy::kFirstUpdaterWinsNoWait,
                                ConflictPolicy::kFirstUpdaterWinsWait,
                                ConflictPolicy::kFirstCommitterWins}) {
    auto db = OpenDb(policy);
    NodeId id;
    {
      auto txn = db->Begin();
      id = *txn->CreateNode({}, {{"count", PropertyValue(int64_t{0})}});
      ASSERT_TRUE(txn->Commit().ok());
    }
    // Each committed transaction increments the counter read from its own
    // snapshot. Lost updates would make the final count < commits.
    DriverResult result = RunForOps(4, 50, [&](int, uint64_t) {
      auto txn = db->Begin(IsolationLevel::kSnapshotIsolation);
      auto v = txn->GetNodeProperty(id, "count");
      NEOSI_RETURN_IF_ERROR(v.status());
      NEOSI_RETURN_IF_ERROR(
          txn->SetNodeProperty(id, "count", PropertyValue(v->AsInt() + 1)));
      return txn->Commit();
    });
    auto reader = db->Begin();
    const int64_t final_count = reader->GetNodeProperty(id, "count")->AsInt();
    EXPECT_EQ(final_count, static_cast<int64_t>(result.committed))
        << "lost update detected under policy "
        << ConflictPolicyToString(policy);
    EXPECT_EQ(result.committed, 200u);  // RunForOps retries to quota.
  }
}

// Property: a snapshot reader re-reading the same scan while writers churn
// always sees the identical result set.
TEST(Concurrency, SnapshotScansAreStableUnderChurn) {
  auto db = OpenDb();
  {
    auto txn = db->Begin();
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(txn->CreateNode({"Init"}).ok());
    }
    ASSERT_TRUE(txn->Commit().ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<int> instabilities{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        auto txn = db->Begin(IsolationLevel::kSnapshotIsolation);
        auto first = txn->GetNodesByLabel("Init");
        if (!first.ok()) continue;
        for (int i = 0; i < 5; ++i) {
          auto again = txn->GetNodesByLabel("Init");
          if (!again.ok() || *again != *first) {
            instabilities.fetch_add(1);
          }
        }
      }
    });
  }

  RunForDuration(2, 300, [&](int t, uint64_t op) {
    auto txn = db->Begin();
    Random rng(t * 31 + op);
    if (rng.Bernoulli(0.5)) {
      NEOSI_RETURN_IF_ERROR(txn->CreateNode({"Init"}).status());
    } else {
      auto nodes = txn->GetNodesByLabel("Init");
      NEOSI_RETURN_IF_ERROR(nodes.status());
      if (!nodes->empty()) {
        const NodeId victim = (*nodes)[rng.Uniform(nodes->size())];
        Status s = txn->DeleteNode(victim);
        if (!s.ok() && !s.IsRetryable() && !s.IsNotFound() &&
            !s.IsFailedPrecondition()) {
          return s;
        }
        if (s.IsRetryable()) return s;
      }
    }
    return txn->Commit();
  });
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(instabilities.load(), 0);
}

// Property: GC running concurrently with snapshot readers never removes a
// version a reader still needs (reads never fail, values never regress).
TEST(Concurrency, GcIsSafeUnderConcurrentReaders) {
  auto db = OpenDb(ConflictPolicy::kFirstUpdaterWinsWait,
                   /*gc_interval_ms=*/1, /*gc_backlog_threshold=*/16);
  NodeId id;
  {
    auto txn = db->Begin();
    id = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{0})}});
    ASSERT_TRUE(txn->Commit().ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<int> read_failures{0};
  std::atomic<int> regressions{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        auto txn = db->Begin(IsolationLevel::kSnapshotIsolation);
        auto v1 = txn->GetNodeProperty(id, "v");
        if (!v1.ok()) {
          read_failures.fetch_add(1);
          continue;
        }
        std::this_thread::yield();
        auto v2 = txn->GetNodeProperty(id, "v");
        if (!v2.ok()) {
          read_failures.fetch_add(1);
        } else if (v2->AsInt() != v1->AsInt()) {
          regressions.fetch_add(1);
        }
      }
    });
  }

  std::thread gc_thread([&] {
    while (!stop.load()) {
      db->RunGc();
      std::this_thread::yield();
    }
  });

  RunForOps(1, 500, [&](int, uint64_t op) {
    auto txn = db->Begin();
    NEOSI_RETURN_IF_ERROR(txn->SetNodeProperty(
        id, "v", PropertyValue(static_cast<int64_t>(op))));
    return txn->Commit();
  });
  stop.store(true);
  for (auto& t : readers) t.join();
  gc_thread.join();

  EXPECT_EQ(read_failures.load(), 0);
  EXPECT_EQ(regressions.load(), 0);
}

// Property: with the snapshot-too-old policy expiring snapshots out from
// under readers as aggressively as it can, a mid-walk reader still never
// observes reclaimed memory — the epoch guard keeps retired versions alive
// until the walk exits. Logically an SI reader either sees its stable
// snapshot or fails CLEANLY with SnapshotTooOld (never a torn value, never
// a crash); an RC reader is exempt from expiry entirely and observes a
// monotone latest-committed sequence. ASan/TSan runs of this test turn any
// reclaim-under-reader into a hard failure.
TEST(Concurrency, EpochProtectedReadersNeverSeeReclaimedVersions) {
  DatabaseOptions options;
  options.in_memory = true;
  options.background_gc_interval_ms = 1;
  options.gc_backlog_threshold = 8;
  options.snapshot_max_age_ms = 10;
  options.snapshot_expire_backlog = 64;
  auto opened = GraphDatabase::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status();
  auto db = std::move(*opened);

  NodeId id;
  {
    auto txn = db->Begin();
    id = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{0})}});
    ASSERT_TRUE(txn->Commit().ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};

  // SI readers: read twice per snapshot. Each read either succeeds with
  // the same stable value or the snapshot has expired — any other outcome
  // (torn pair, non-SnapshotTooOld error) is a violation.
  std::vector<std::thread> si_readers;
  for (int r = 0; r < 2; ++r) {
    si_readers.emplace_back([&] {
      while (!stop.load()) {
        auto txn = db->Begin(IsolationLevel::kSnapshotIsolation);
        auto v1 = txn->GetNodeProperty(id, "v");
        if (!v1.ok()) {
          if (!v1.status().IsSnapshotTooOld()) violations.fetch_add(1);
          continue;
        }
        std::this_thread::yield();  // widen the expiry window mid-snapshot
        auto v2 = txn->GetNodeProperty(id, "v");
        if (!v2.ok()) {
          if (!v2.status().IsSnapshotTooOld()) violations.fetch_add(1);
        } else if (v2->AsInt() != v1->AsInt()) {
          violations.fetch_add(1);  // snapshot instability
        }
      }
    });
  }

  // RC readers: never expired, never SnapshotTooOld; values are the
  // latest-committed counter, so per-thread observations never decrease.
  // The short RC read lock CAN lose a wait-die conflict against the writer
  // (a clean retryable abort) — only expiry leaking into RC, or a
  // non-retryable error, is a violation.
  std::vector<std::thread> rc_readers;
  for (int r = 0; r < 2; ++r) {
    rc_readers.emplace_back([&] {
      int64_t last = -1;
      while (!stop.load()) {
        auto txn = db->Begin(IsolationLevel::kReadCommitted);
        auto v = txn->GetNodeProperty(id, "v");
        if (!v.ok()) {
          if (v.status().IsSnapshotTooOld() || !v.status().IsRetryable()) {
            violations.fetch_add(1);
          }
          continue;
        }
        if (v->AsInt() < last) violations.fetch_add(1);
        last = v->AsInt();
      }
    });
  }

  RunForOps(1, 600, [&](int, uint64_t op) {
    auto txn = db->Begin(IsolationLevel::kSnapshotIsolation);
    Status s = txn->SetNodeProperty(id, "v",
                                    PropertyValue(static_cast<int64_t>(op)));
    if (s.ok()) s = txn->Commit();
    // The writer's own snapshot can be expired under this policy; that is
    // a clean retryable outcome, not a failure of the property.
    if (!s.ok() && !s.IsRetryable()) return s;
    return Status::OK();
  });
  stop.store(true);
  for (auto& t : si_readers) t.join();
  for (auto& t : rc_readers) t.join();

  EXPECT_EQ(violations.load(), 0);
  // The epoch machinery actually exercised: pruning a superseded version
  // retires it through limbo. Under extreme load every churn commit above
  // can expire before committing (a clean retryable abort each time),
  // leaving nothing to reclaim — so guarantee a superseded version exists
  // by writing until one has been retired (two committed writes suffice
  // once the readers are gone and the watermark can advance).
  for (int i = 0; db->Stats().epoch_retired == 0 && i < 1000; ++i) {
    auto txn = db->Begin(IsolationLevel::kSnapshotIsolation);
    Status s = txn->SetNodeProperty(id, "v", PropertyValue(int64_t{i}));
    if (s.ok()) s = txn->Commit();
    ASSERT_TRUE(s.ok() || s.IsRetryable()) << s;
    db->RunGc();
  }
  EXPECT_GT(db->Stats().epoch_retired, 0u);
}

// Structural churn: concurrent edge creation/deletion with traversals and
// GC; the graph must stay structurally consistent (no corruption statuses).
TEST(Concurrency, StructuralChurnStaysConsistent) {
  auto db = OpenDb(ConflictPolicy::kFirstUpdaterWinsWait,
                   /*gc_interval_ms=*/1, /*gc_backlog_threshold=*/32);
  std::vector<NodeId> nodes;
  {
    auto txn = db->Begin();
    for (int i = 0; i < 20; ++i) nodes.push_back(*txn->CreateNode({"Hub"}));
    ASSERT_TRUE(txn->Commit().ok());
  }
  std::atomic<int> corruption{0};

  DriverResult result = RunForDuration(4, 400, [&](int t, uint64_t op) {
    Random rng(t * 104729 + op);
    auto txn = db->Begin();
    const NodeId a = nodes[rng.Uniform(nodes.size())];
    const NodeId b = nodes[rng.Uniform(nodes.size())];
    if (rng.Bernoulli(0.6)) {
      auto rel = txn->CreateRelationship(a, b, "LINK");
      if (!rel.ok()) return rel.status();
    } else {
      auto rels = txn->GetRelationships(a);
      if (!rels.ok()) return rels.status();
      if (!rels->empty()) {
        Status s = txn->DeleteRelationship((*rels)[rng.Uniform(rels->size())]);
        if (s.IsCorruption() || s.IsInternal()) corruption.fetch_add(1);
        if (!s.ok() && !s.IsNotFound()) return s;
      }
    }
    Status s = txn->Commit();
    if (s.IsCorruption() || s.IsInternal()) corruption.fetch_add(1);
    return s;
  });

  EXPECT_EQ(corruption.load(), 0);
  EXPECT_EQ(result.errors, 0u);
  EXPECT_GT(result.committed, 0u);

  // Post-churn: quiesce, GC everything, and verify chain integrity by
  // walking every node's chain.
  db->RunGc();
  auto txn = db->Begin();
  for (NodeId n : nodes) {
    auto rels = txn->GetRelationships(n);
    ASSERT_TRUE(rels.ok()) << rels.status();
    for (RelId r : *rels) {
      auto view = txn->GetRelationship(r);
      ASSERT_TRUE(view.ok()) << view.status();
      EXPECT_TRUE(view->src == n || view->dst == n);
    }
  }
}

// Deadlock handling: opposite-order lock acquisition must resolve via
// wait-die (one side gets a retryable status), never hang.
TEST(Concurrency, OppositeOrderWritesNeverHang) {
  auto db = OpenDb(ConflictPolicy::kFirstUpdaterWinsWait);
  NodeId a, b;
  {
    auto txn = db->Begin();
    a = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{0})}});
    b = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{0})}});
    ASSERT_TRUE(txn->Commit().ok());
  }
  DriverResult result = RunForOps(2, 100, [&](int t, uint64_t) {
    auto txn = db->Begin();
    const NodeId first = t == 0 ? a : b;
    const NodeId second = t == 0 ? b : a;
    NEOSI_RETURN_IF_ERROR(
        txn->SetNodeProperty(first, "v", PropertyValue(int64_t{1})));
    NEOSI_RETURN_IF_ERROR(
        txn->SetNodeProperty(second, "v", PropertyValue(int64_t{1})));
    return txn->Commit();
  });
  EXPECT_EQ(result.committed, 200u);
  EXPECT_EQ(result.errors, 0u);
}

// A younger writer that dies in LockEndpoints on its second endpoint must
// free the first: the abort releases every shard the transaction marked,
// including the one whose lock it did get before dying.
TEST(Concurrency, WriterDyingOnSecondEndpointFreesTheFirst) {
  auto db = OpenDb(ConflictPolicy::kFirstUpdaterWinsNoWait);
  NodeId lo, hi;
  {
    auto txn = db->Begin();
    lo = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{0})}});
    hi = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{0})}});
    ASSERT_TRUE(txn->Commit().ok());
  }
  if (lo > hi) std::swap(lo, hi);

  auto older = db->Begin();
  ASSERT_TRUE(older->SetNodeProperty(hi, "v", PropertyValue(int64_t{1})).ok());
  auto younger = db->Begin();
  ASSERT_GT(younger->id(), older->id());
  // Endpoints lock low then high: `lo` is taken, then wait-die kills the
  // younger writer on `hi`, held by the older one.
  EXPECT_TRUE(younger->CreateRelationship(lo, hi, "R").status().IsDeadlock());

  // No-wait: this write aborts at once if `lo` was left locked.
  auto third = db->Begin();
  ASSERT_TRUE(third->SetNodeProperty(lo, "v", PropertyValue(int64_t{2})).ok());
  EXPECT_TRUE(third->Commit().ok());
  EXPECT_TRUE(older->Commit().ok());
}

}  // namespace
}  // namespace neosi
