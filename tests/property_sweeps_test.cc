// Parameterized property sweeps: randomized operation sequences checked
// against a simple in-memory oracle model, swept over seeds, isolation
// levels and conflict policies (TEST_P / INSTANTIATE_TEST_SUITE_P).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "common/random.h"
#include "fault_injection.h"
#include "graph/graph_database.h"
#include "workload/driver.h"

namespace neosi {
namespace {

// --------------------------------------------------------------------------
// Sweep 1: serial equivalence. A single-threaded stream of random
// transactions (some committed, some aborted) must leave the database in
// exactly the state of an oracle model that applies only the committed ones.
// --------------------------------------------------------------------------

struct ModelNode {
  std::set<std::string> labels;
  std::map<std::string, int64_t> props;
};

class SerialEquivalenceSweep
    : public ::testing::TestWithParam<std::tuple<uint64_t, ConflictPolicy>> {
};

TEST_P(SerialEquivalenceSweep, CommittedStateMatchesOracle) {
  const uint64_t seed = std::get<0>(GetParam());
  const ConflictPolicy policy = std::get<1>(GetParam());

  DatabaseOptions options;
  options.in_memory = true;
  options.conflict_policy = policy;
  options.background_gc_interval_ms = 1;  // Exercise GC during the sweep.
  options.gc_backlog_threshold = 16;
  auto db = std::move(*GraphDatabase::Open(options));

  std::map<NodeId, ModelNode> model;
  std::vector<NodeId> live;
  Random rng(seed);
  const std::vector<std::string> label_pool = {"A", "B", "C"};
  const std::vector<std::string> key_pool = {"x", "y", "z"};

  for (int round = 0; round < 200; ++round) {
    auto txn = db->Begin(IsolationLevel::kSnapshotIsolation);
    // Stage 1..3 random mutations, mirrored into a candidate model.
    std::map<NodeId, ModelNode> candidate = model;
    std::vector<NodeId> candidate_live = live;
    bool ok = true;
    const int ops = 1 + rng.Uniform(3);
    for (int op = 0; op < ops && ok; ++op) {
      const uint64_t kind = rng.Uniform(6);
      if (kind == 0 || candidate_live.empty()) {
        const std::string& label = label_pool[rng.Uniform(label_pool.size())];
        auto id = txn->CreateNode({label});
        ASSERT_TRUE(id.ok()) << id.status();
        candidate[*id].labels.insert(label);
        candidate_live.push_back(*id);
      } else if (kind == 1) {
        const NodeId id = candidate_live[rng.Uniform(candidate_live.size())];
        const std::string& key = key_pool[rng.Uniform(key_pool.size())];
        // A small value range, so sets often repeat a value or collide with
        // another node's entry under the same index key.
        const int64_t value = static_cast<int64_t>(rng.Uniform(8));
        ASSERT_TRUE(txn->SetNodeProperty(id, key, PropertyValue(value)).ok());
        candidate[id].props[key] = value;
      } else if (kind == 2) {
        const NodeId id = candidate_live[rng.Uniform(candidate_live.size())];
        const std::string& label = label_pool[rng.Uniform(label_pool.size())];
        ASSERT_TRUE(txn->AddLabel(id, label).ok());
        candidate[id].labels.insert(label);
      } else if (kind == 3) {
        const NodeId id = candidate_live[rng.Uniform(candidate_live.size())];
        const std::string& key = key_pool[rng.Uniform(key_pool.size())];
        ASSERT_TRUE(txn->RemoveNodeProperty(id, key).ok());
        candidate[id].props.erase(key);
      } else if (kind == 4) {
        const NodeId id = candidate_live[rng.Uniform(candidate_live.size())];
        const std::string& label = label_pool[rng.Uniform(label_pool.size())];
        ASSERT_TRUE(txn->RemoveLabel(id, label).ok());
        candidate[id].labels.erase(label);
      } else {
        const size_t idx = rng.Uniform(candidate_live.size());
        const NodeId id = candidate_live[idx];
        Status s = txn->DeleteNode(id);
        ASSERT_TRUE(s.ok()) << s;
        candidate.erase(id);
        candidate_live.erase(candidate_live.begin() + idx);
      }
    }
    // Commit ~70% of rounds; abort the rest.
    if (rng.Bernoulli(0.7)) {
      ASSERT_TRUE(txn->Commit().ok());
      model = std::move(candidate);
      live = std::move(candidate_live);
    } else {
      ASSERT_TRUE(txn->Abort().ok());
    }
  }

  // Final state must equal the oracle: same node set, labels, properties.
  auto reader = db->Begin();
  auto all = reader->AllNodes();
  ASSERT_TRUE(all.ok());
  std::vector<NodeId> expected_ids;
  for (const auto& [id, node] : model) expected_ids.push_back(id);
  std::sort(expected_ids.begin(), expected_ids.end());
  EXPECT_EQ(*all, expected_ids);

  for (const auto& [id, node] : model) {
    auto view = reader->GetNode(id);
    ASSERT_TRUE(view.ok()) << "node " << id << ": " << view.status();
    std::set<std::string> got_labels(view->labels.begin(),
                                     view->labels.end());
    EXPECT_EQ(got_labels, node.labels) << "node " << id;
    ASSERT_EQ(view->props.size(), node.props.size()) << "node " << id;
    for (const auto& [key, value] : node.props) {
      ASSERT_TRUE(view->props.count(key));
      EXPECT_EQ(view->props.at(key).AsInt(), value);
    }
  }

  // Index consistency: every label and property lookup returns exactly the
  // oracle's nodes — no lost entry, and no stale one left behind by a
  // removal, an overwrite, a delete or an abort.
  for (const std::string& label : label_pool) {
    std::vector<NodeId> expected;
    for (const auto& [id, node] : model) {
      if (node.labels.count(label)) expected.push_back(id);
    }
    auto by_label = reader->GetNodesByLabel(label);
    ASSERT_TRUE(by_label.ok());
    EXPECT_EQ(*by_label, expected) << "label " << label;
  }
  for (const std::string& key : key_pool) {
    std::vector<NodeId> with_key;
    for (const auto& [id, node] : model) {
      if (node.props.count(key)) with_key.push_back(id);
    }
    auto scanned = reader->GetNodesByPropertyRange(key, std::nullopt,
                                                   std::nullopt);
    ASSERT_TRUE(scanned.ok());
    std::sort(scanned->begin(), scanned->end());
    EXPECT_EQ(*scanned, with_key) << "property " << key;
    for (int64_t value = 0; value < 8; ++value) {
      std::vector<NodeId> expected;
      for (const auto& [id, node] : model) {
        auto it = node.props.find(key);
        if (it != node.props.end() && it->second == value) {
          expected.push_back(id);
        }
      }
      auto by_value = reader->GetNodesByProperty(key, PropertyValue(value));
      ASSERT_TRUE(by_value.ok());
      EXPECT_EQ(*by_value, expected) << "property " << key << "=" << value;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, SerialEquivalenceSweep,
    ::testing::Combine(
        ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u),
        ::testing::Values(ConflictPolicy::kFirstUpdaterWinsWait,
                          ConflictPolicy::kFirstUpdaterWinsNoWait,
                          ConflictPolicy::kFirstCommitterWins)));

// --------------------------------------------------------------------------
// Sweep 2: snapshot stability under concurrent churn, parameterized by
// (seed, reader count). Every repeated read inside an SI transaction must
// be identical.
// --------------------------------------------------------------------------

class SnapshotStabilitySweep
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {};

TEST_P(SnapshotStabilitySweep, RepeatedReadsIdentical) {
  const uint64_t seed = std::get<0>(GetParam());
  const int readers = std::get<1>(GetParam());

  DatabaseOptions options;
  options.in_memory = true;
  options.background_gc_interval_ms = 1;
  options.gc_backlog_threshold = 8;
  auto db = std::move(*GraphDatabase::Open(options));
  std::vector<NodeId> nodes;
  {
    auto txn = db->Begin();
    for (int i = 0; i < 16; ++i) {
      nodes.push_back(
          *txn->CreateNode({"S"}, {{"v", PropertyValue(int64_t{0})}}));
    }
    ASSERT_TRUE(txn->Commit().ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      Random rng(seed * 100 + r);
      while (!stop.load()) {
        auto txn = db->Begin(IsolationLevel::kSnapshotIsolation);
        const NodeId id = nodes[rng.Uniform(nodes.size())];
        auto v1 = txn->GetNodeProperty(id, "v");
        auto l1 = txn->GetNodesByLabel("S");
        if (!v1.ok() || !l1.ok()) continue;
        for (int i = 0; i < 3; ++i) {
          auto v2 = txn->GetNodeProperty(id, "v");
          auto l2 = txn->GetNodesByLabel("S");
          if (!v2.ok() || v2->AsInt() != v1->AsInt()) violations.fetch_add(1);
          if (!l2.ok() || *l2 != *l1) violations.fetch_add(1);
        }
      }
    });
  }

  RunForOps(2, 200, [&](int t, uint64_t op) {
    Random rng(seed * 7919 + t * 31 + op);
    auto txn = db->Begin();
    const NodeId id = nodes[rng.Uniform(nodes.size())];
    NEOSI_RETURN_IF_ERROR(txn->SetNodeProperty(
        id, "v", PropertyValue(static_cast<int64_t>(op))));
    return txn->Commit();
  });
  stop.store(true);
  for (auto& t : threads) t.join();
  EXPECT_EQ(violations.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotStabilitySweep,
                         ::testing::Combine(::testing::Values(11u, 22u, 33u),
                                            ::testing::Values(1, 4)));

// --------------------------------------------------------------------------
// Sweep 3: crash-recovery equivalence, parameterized by seed and crash
// point. Commits up to the crash must survive; the crashed transaction must
// be atomic (all-or-nothing).
// --------------------------------------------------------------------------

class RecoverySweep
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("neosi_sweep_" + std::to_string(std::get<0>(GetParam())) + "_" +
            std::to_string(std::get<1>(GetParam())));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  DatabaseOptions DiskOptions() {
    DatabaseOptions options;
    options.in_memory = false;
    options.path = dir_.string();
    return options;
  }
  std::filesystem::path dir_;
};

TEST_P(RecoverySweep, CommittedSurvivesCrashedIsAtomic) {
  const uint64_t seed = std::get<0>(GetParam());
  const int crash_after_ops = std::get<1>(GetParam());

  std::map<NodeId, int64_t> committed_model;
  std::vector<NodeId> crash_txn_nodes;
  {
    auto db = std::move(*GraphDatabase::Open(DiskOptions()));
    Random rng(seed);
    for (int round = 0; round < 30; ++round) {
      auto txn = db->Begin();
      auto id = txn->CreateNode(
          {"R"}, {{"v", PropertyValue(static_cast<int64_t>(round))}});
      ASSERT_TRUE(id.ok());
      ASSERT_TRUE(txn->Commit().ok());
      committed_model[*id] = round;
    }
    // The next commit's store apply dies after `crash_after_ops` writes.
    fault::CrashPoint crash(db.get(), "commit.apply.op", crash_after_ops + 1);
    auto txn = db->Begin();
    for (int i = 0; i < 5; ++i) {
      auto id = txn->CreateNode(
          {"Crash"}, {{"v", PropertyValue(static_cast<int64_t>(100 + i))}});
      ASSERT_TRUE(id.ok());
      crash_txn_nodes.push_back(*id);
    }
    Status s = txn->Commit();
    EXPECT_TRUE(s.IsIOError()) << s;
  }

  auto db = std::move(*GraphDatabase::Open(DiskOptions()));
  auto reader = db->Begin();
  // Every pre-crash commit intact.
  for (const auto& [id, v] : committed_model) {
    auto got = reader->GetNodeProperty(id, "v");
    ASSERT_TRUE(got.ok()) << "node " << id;
    EXPECT_EQ(got->AsInt(), v);
  }
  // The crashed transaction is atomic: ALL its nodes recovered (the WAL
  // record was durable before the store apply began).
  auto crash_nodes = reader->GetNodesByLabel("Crash");
  ASSERT_TRUE(crash_nodes.ok());
  EXPECT_EQ(crash_nodes->size(), crash_txn_nodes.size());
}

INSTANTIATE_TEST_SUITE_P(Grid, RecoverySweep,
                         ::testing::Combine(::testing::Values(5u, 6u, 7u),
                                            ::testing::Values(0, 1, 3)));

// --------------------------------------------------------------------------
// Sweep 4: GC equivalence — running GC at random points must never change
// any observable state, across seeds and collector kinds.
// --------------------------------------------------------------------------

class GcEquivalenceSweep
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {};

TEST_P(GcEquivalenceSweep, GcNeverChangesObservableState) {
  const uint64_t seed = std::get<0>(GetParam());
  const bool use_vacuum = std::get<1>(GetParam());

  DatabaseOptions options;
  options.in_memory = true;
  options.background_gc_interval_ms = 0;  // Manual GC only.
  auto db = std::move(*GraphDatabase::Open(options));

  std::map<NodeId, int64_t> model;
  std::vector<NodeId> live;
  Random rng(seed);
  for (int round = 0; round < 150; ++round) {
    auto txn = db->Begin();
    const uint64_t kind = rng.Uniform(3);
    if (kind == 0 || live.empty()) {
      auto id = txn->CreateNode({}, {{"v", PropertyValue(int64_t{0})}});
      ASSERT_TRUE(id.ok());
      ASSERT_TRUE(txn->Commit().ok());
      model[*id] = 0;
      live.push_back(*id);
    } else if (kind == 1) {
      const NodeId id = live[rng.Uniform(live.size())];
      const int64_t v = static_cast<int64_t>(rng.Uniform(999));
      ASSERT_TRUE(txn->SetNodeProperty(id, "v", PropertyValue(v)).ok());
      ASSERT_TRUE(txn->Commit().ok());
      model[id] = v;
    } else {
      const size_t idx = rng.Uniform(live.size());
      ASSERT_TRUE(txn->DeleteNode(live[idx]).ok());
      ASSERT_TRUE(txn->Commit().ok());
      model.erase(live[idx]);
      live.erase(live.begin() + idx);
    }
    if (round % 10 == 9) {
      if (use_vacuum) {
        db->RunVacuum();
      } else {
        db->RunGc();
      }
      // Model check after every collection.
      auto reader = db->Begin();
      auto all = reader->AllNodes();
      ASSERT_TRUE(all.ok());
      ASSERT_EQ(all->size(), model.size()) << "round " << round;
      for (const auto& [id, v] : model) {
        auto got = reader->GetNodeProperty(id, "v");
        ASSERT_TRUE(got.ok()) << "node " << id << " round " << round;
        EXPECT_EQ(got->AsInt(), v);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, GcEquivalenceSweep,
                         ::testing::Combine(::testing::Values(42u, 43u, 44u,
                                                              45u),
                                            ::testing::Bool()));

// --------------------------------------------------------------------------
// Sweep 5: blob-leak audit. Crash recovery deliberately leaks overflow
// blobs (freeing through stale chain pointers is unsafe); the reopen-time
// audit must measure that leak, report zero on clean reopens, and the leak
// must stay FLAT across clean restarts — only crashes may grow it.
// --------------------------------------------------------------------------

TEST(BlobLeakAudit, CleanReopensAreLeakFreeAndCrashLeakStaysBounded) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "neosi_blob_audit";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  DatabaseOptions options;
  options.in_memory = false;
  options.path = dir.string();
  options.background_gc_interval_ms = 0;
  options.checkpoint_interval_ms = 0;

  // Values past the inline payload spill to the dynamic store.
  const std::string big(256, 'x');
  NodeId key;
  {
    auto db = std::move(*GraphDatabase::Open(options));
    auto txn = db->Begin();
    auto id = txn->CreateNode({}, {{"v", PropertyValue(big + "0")}});
    ASSERT_TRUE(id.ok());
    key = *id;
    ASSERT_TRUE(txn->Commit().ok());
    for (int i = 1; i <= 8; ++i) {
      auto update = db->Begin();
      ASSERT_TRUE(update
                      ->SetNodeProperty(key, "v",
                                        PropertyValue(big + std::to_string(i)))
                      .ok());
      ASSERT_TRUE(update->Commit().ok());
    }
    // Clean shutdown: checkpoint empties the replay suffix, so the reopen
    // below suppresses no frees and must find zero leaked blocks.
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  {
    auto db = std::move(*GraphDatabase::Open(options));
    EXPECT_EQ(db->Stats().store.dyn_leaked_blocks, 0u);
    // Crash scenario: more overflow updates, then die with the suffix
    // unckeckpointed — the reopen replays them with frees suppressed, and
    // the swept orphan chains' blobs become the bounded leak.
    for (int i = 9; i <= 16; ++i) {
      auto update = db->Begin();
      ASSERT_TRUE(update
                      ->SetNodeProperty(key, "v",
                                        PropertyValue(big + std::to_string(i)))
                      .ok());
      ASSERT_TRUE(update->Commit().ok());
    }
    // No checkpoint: destroy == kill.
  }
  uint64_t leaked_after_crash = 0;
  {
    auto db = std::move(*GraphDatabase::Open(options));
    leaked_after_crash = db->Stats().store.dyn_leaked_blocks;
    EXPECT_GT(leaked_after_crash, 0u)
        << "replaying overflow updates must leak the superseded blobs";
    // Bound: at most the blocks of the replayed updates' superseded blobs
    // (8 updates, each value fits a handful of 64-byte blocks).
    EXPECT_LE(leaked_after_crash, 8u * 8u);
    // The recovered value is the last acked one.
    auto reader = db->Begin();
    auto got = reader->GetNodeProperty(key, "v");
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->AsString(), big + "16");
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  {
    // Clean restart after the crash: the historical leak persists (the
    // audit is a measure, not a repair) but must not GROW.
    auto db = std::move(*GraphDatabase::Open(options));
    EXPECT_EQ(db->Stats().store.dyn_leaked_blocks, leaked_after_crash);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace neosi
