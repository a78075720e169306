// Durability & crash recovery: WAL replay, torn tails, crash injection
// around store application, checkpointing. These tests use on-disk mode.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "graph/graph_database.h"
#include "sync_points.h"

namespace neosi {
namespace {

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("neosi_rec_" +
            std::to_string(::testing::UnitTest::GetInstance()
                               ->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  DatabaseOptions DiskOptions() {
    DatabaseOptions options;
    options.in_memory = false;
    options.path = dir_.string();
    options.background_gc_interval_ms = 0;  // Deterministic: no daemons.
    options.checkpoint_interval_ms = 0;
    return options;
  }

  std::filesystem::path dir_;
};

TEST_F(RecoveryTest, CommittedDataSurvivesReopen) {
  NodeId a, b;
  RelId rel;
  {
    auto db = std::move(*GraphDatabase::Open(DiskOptions()));
    auto txn = db->Begin();
    a = *txn->CreateNode({"Person"}, {{"name", PropertyValue("alice")}});
    b = *txn->CreateNode({"Person"}, {{"name", PropertyValue("bob")}});
    rel = *txn->CreateRelationship(a, b, "KNOWS",
                                   {{"w", PropertyValue(int64_t{3})}});
    ASSERT_TRUE(txn->Commit().ok());
  }
  auto db = std::move(*GraphDatabase::Open(DiskOptions()));
  auto reader = db->Begin();
  EXPECT_EQ(reader->GetNodeProperty(a, "name")->AsString(), "alice");
  EXPECT_EQ(reader->GetRelProperty(rel, "w")->AsInt(), 3);
  auto rels = reader->GetRelationships(a, Direction::kOutgoing);
  ASSERT_TRUE(rels.ok());
  ASSERT_EQ(rels->size(), 1u);
  // Indexes rebuilt.
  EXPECT_EQ(reader->GetNodesByLabel("Person")->size(), 2u);
  EXPECT_EQ(reader->GetNodesByProperty("name", PropertyValue("bob"))->size(),
            1u);
}

// The WAL's zero fill ahead of its cursor shows in the stats: none in
// memory, where the fill is a no-op, and on disk at most one fill window
// beyond the log it was written for. Either way the data reopens intact.
TEST_F(RecoveryTest, WalZeroFillStaysWithinOneWindowOfTheLog) {
  for (const bool in_memory : {true, false}) {
    DatabaseOptions options = DiskOptions();
    options.in_memory = in_memory;
    NodeId id;
    {
      auto db = std::move(*GraphDatabase::Open(options));
      for (int64_t i = 1; i <= 200; ++i) {
        auto txn = db->Begin();
        id = *txn->CreateNode({"Fill"}, {{"v", PropertyValue(i)}});
        ASSERT_TRUE(txn->Commit().ok());
      }
      const GraphStoreStats stats = db->Stats().store;
      if (in_memory) {
        EXPECT_EQ(stats.wal_zero_filled_bytes, 0u);
        continue;
      }
      EXPECT_GT(stats.wal_zero_filled_bytes, 0u);
      EXPECT_LE(stats.wal_zero_filled_bytes,
                stats.wal_next_lsn + Wal::kZeroFillWindow);
    }
    auto db = std::move(*GraphDatabase::Open(options));
    auto reader = db->Begin();
    EXPECT_EQ(reader->GetNodesByLabel("Fill")->size(), 200u);
    EXPECT_EQ(reader->GetNodeProperty(id, "v")->AsInt(), 200);
  }
}

TEST_F(RecoveryTest, UncommittedDataDoesNotSurvive) {
  {
    auto db = std::move(*GraphDatabase::Open(DiskOptions()));
    auto txn = db->Begin();
    ASSERT_TRUE(txn->CreateNode({"Keep"}).ok());
    ASSERT_TRUE(txn->Commit().ok());
    auto doomed = db->Begin();
    ASSERT_TRUE(doomed->CreateNode({"Doomed"}).ok());
    // No commit; the process "dies" (db destructor aborts it anyway, but
    // even a hard kill would leave no WAL record).
  }
  auto db = std::move(*GraphDatabase::Open(DiskOptions()));
  auto reader = db->Begin();
  EXPECT_EQ(reader->GetNodesByLabel("Keep")->size(), 1u);
  EXPECT_TRUE(reader->GetNodesByLabel("Doomed")->empty());
}

TEST_F(RecoveryTest, CrashBeforeStoreApplyIsRepairedFromWal) {
  NodeId id;
  {
    auto db = std::move(*GraphDatabase::Open(DiskOptions()));
    {
      auto txn = db->Begin();
      id = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{1})}});
      ASSERT_TRUE(txn->Commit().ok());
    }
    ArmedPoints points(db.get());
    points.Fail("commit.pre_apply");
    auto txn = db->Begin();
    ASSERT_TRUE(txn->SetNodeProperty(id, "v", PropertyValue(int64_t{2})).ok());
    Status s = txn->Commit();
    EXPECT_TRUE(s.IsIOError()) << s;  // Simulated crash; WAL has the record.
  }
  // Reopen: replay must apply the update even though the store never saw it.
  auto db = std::move(*GraphDatabase::Open(DiskOptions()));
  auto reader = db->Begin();
  EXPECT_EQ(reader->GetNodeProperty(id, "v")->AsInt(), 2);
}

TEST_F(RecoveryTest, CrashMidStoreApplyIsRepairedFromWal) {
  NodeId a, b;
  {
    auto db = std::move(*GraphDatabase::Open(DiskOptions()));
    {
      auto txn = db->Begin();
      a = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{1})}});
      b = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{1})}});
      ASSERT_TRUE(txn->Commit().ok());
    }
    // Crash after exactly one of the two store writes.
    ArmedPoints points(db.get());
    points.Fail("commit.apply.op", /*nth=*/2);
    auto txn = db->Begin();
    ASSERT_TRUE(txn->SetNodeProperty(a, "v", PropertyValue(int64_t{2})).ok());
    ASSERT_TRUE(txn->SetNodeProperty(b, "v", PropertyValue(int64_t{2})).ok());
    EXPECT_TRUE(txn->Commit().IsIOError());
  }
  auto db = std::move(*GraphDatabase::Open(DiskOptions()));
  auto reader = db->Begin();
  // Atomicity across the crash: both updates present (WAL replay repaired
  // the missing one).
  EXPECT_EQ(reader->GetNodeProperty(a, "v")->AsInt(), 2);
  EXPECT_EQ(reader->GetNodeProperty(b, "v")->AsInt(), 2);
}

// A commit that fails after its record was appended is durable (recovery
// replays it) but never reached memory. Until a reopen, no later commit may
// build on the state that record overwrites: T2 reads x=1 after T1's failed
// commit logged x=2, and committing T2's x=11 would lose T1's update once
// replay applies both.
TEST_F(RecoveryTest, CommitFailingAfterItsAppendStopsLaterCommits) {
  NodeId x;
  {
    auto db = std::move(*GraphDatabase::Open(DiskOptions()));
    {
      auto txn = db->Begin();
      x = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{1})}});
      ASSERT_TRUE(txn->Commit().ok());
    }
    {
      ArmedPoints points(db.get());
      points.Fail("commit.pre_apply", /*nth=*/1);
      auto t1 = db->Begin();
      ASSERT_TRUE(t1->SetNodeProperty(x, "v", PropertyValue(int64_t{2})).ok());
      Status s = t1->Commit();
      EXPECT_TRUE(s.IsIOError()) << s;
    }
    auto t2 = db->Begin();
    auto v = t2->GetNodeProperty(x, "v");
    ASSERT_TRUE(v.ok()) << v.status();
    ASSERT_TRUE(
        t2->SetNodeProperty(x, "v", PropertyValue(v->AsInt() + 10)).ok());
    Status s = t2->Commit();
    EXPECT_TRUE(s.IsIOError()) << s;
  }
  auto db = std::move(*GraphDatabase::Open(DiskOptions()));
  auto reader = db->Begin();
  EXPECT_EQ(reader->GetNodeProperty(x, "v")->AsInt(), 2);
}

TEST_F(RecoveryTest, CrashDuringRelCreationRepairsChains) {
  NodeId a, b;
  {
    auto db = std::move(*GraphDatabase::Open(DiskOptions()));
    {
      auto txn = db->Begin();
      a = *txn->CreateNode({});
      b = *txn->CreateNode({});
      ASSERT_TRUE(txn->Commit().ok());
    }
    ArmedPoints points(db.get());
    points.Fail("commit.pre_apply");
    auto txn = db->Begin();
    ASSERT_TRUE(txn->CreateRelationship(a, b, "KNOWS").ok());
    EXPECT_TRUE(txn->Commit().IsIOError());
  }
  auto db = std::move(*GraphDatabase::Open(DiskOptions()));
  auto reader = db->Begin();
  auto rels = reader->GetRelationships(a, Direction::kOutgoing);
  ASSERT_TRUE(rels.ok());
  ASSERT_EQ(rels->size(), 1u);
  auto view = reader->GetRelationship((*rels)[0]);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->dst, b);
}

TEST_F(RecoveryTest, TornWalTailIsDiscarded) {
  NodeId id;
  std::filesystem::path wal_path;
  {
    auto db = std::move(*GraphDatabase::Open(DiskOptions()));
    auto txn = db->Begin();
    id = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{1})}});
    ASSERT_TRUE(txn->Commit().ok());
    // The newest WAL segment file is where a torn append would land.
    wal_path =
        dir_ / db->engine().store.wal().SegmentNameOf(
                   db->engine().store.wal().NextLsn());
  }
  // Append garbage to simulate a torn write.
  {
    FILE* f = fopen(wal_path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char garbage[] = "\x37\x00\x00\x00garbage-torn-frame";
    fwrite(garbage, 1, sizeof(garbage), f);
    fclose(f);
  }
  auto db = std::move(*GraphDatabase::Open(DiskOptions()));
  auto reader = db->Begin();
  EXPECT_EQ(reader->GetNodeProperty(id, "v")->AsInt(), 1);
}

TEST_F(RecoveryTest, CheckpointTruncatesWalAndPreservesData) {
  NodeId id;
  {
    auto db = std::move(*GraphDatabase::Open(DiskOptions()));
    auto txn = db->Begin();
    id = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{5})}});
    ASSERT_TRUE(txn->Commit().ok());
    EXPECT_GT(db->engine().store.wal().SizeBytes(), 0u);
    ASSERT_TRUE(db->Checkpoint().ok());
    EXPECT_EQ(db->engine().store.wal().SizeBytes(), 0u);
  }
  auto db = std::move(*GraphDatabase::Open(DiskOptions()));
  auto reader = db->Begin();
  EXPECT_EQ(reader->GetNodeProperty(id, "v")->AsInt(), 5);
}

TEST_F(RecoveryTest, TimestampsResumeAboveRecoveredMax) {
  Timestamp before;
  {
    auto db = std::move(*GraphDatabase::Open(DiskOptions()));
    for (int i = 0; i < 5; ++i) {
      auto txn = db->Begin();
      ASSERT_TRUE(txn->CreateNode({}).ok());
      ASSERT_TRUE(txn->Commit().ok());
    }
    before = db->engine().oracle.ReadTs();
  }
  auto db = std::move(*GraphDatabase::Open(DiskOptions()));
  EXPECT_GE(db->engine().oracle.ReadTs(), before);
  // New commits get strictly newer timestamps.
  auto txn = db->Begin();
  ASSERT_TRUE(txn->CreateNode({}).ok());
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_GT(db->engine().oracle.ReadTs(), before);
}

TEST_F(RecoveryTest, DeletesSurviveRecovery) {
  NodeId keep, gone;
  {
    auto db = std::move(*GraphDatabase::Open(DiskOptions()));
    {
      auto txn = db->Begin();
      keep = *txn->CreateNode({"K"});
      gone = *txn->CreateNode({"G"});
      ASSERT_TRUE(txn->Commit().ok());
    }
    auto txn = db->Begin();
    ASSERT_TRUE(txn->DeleteNode(gone).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  auto db = std::move(*GraphDatabase::Open(DiskOptions()));
  auto reader = db->Begin();
  EXPECT_TRUE(reader->GetNode(keep).ok());
  EXPECT_TRUE(reader->GetNode(gone).status().IsNotFound());
  EXPECT_TRUE(reader->GetNodesByLabel("G")->empty());
}

TEST_F(RecoveryTest, GcPurgesSurviveRecovery) {
  NodeId a, b;
  RelId rel;
  {
    auto db = std::move(*GraphDatabase::Open(DiskOptions()));
    {
      auto txn = db->Begin();
      a = *txn->CreateNode({});
      b = *txn->CreateNode({});
      rel = *txn->CreateRelationship(a, b, "R");
      ASSERT_TRUE(txn->Commit().ok());
    }
    {
      auto txn = db->Begin();
      ASSERT_TRUE(txn->DeleteRelationship(rel).ok());
      ASSERT_TRUE(txn->Commit().ok());
    }
    db->RunGc();
    ASSERT_FALSE(db->engine().store.RelInUse(rel));
  }
  auto db = std::move(*GraphDatabase::Open(DiskOptions()));
  EXPECT_FALSE(db->engine().store.RelInUse(rel));
  auto reader = db->Begin();
  EXPECT_TRUE(reader->GetRelationships(a)->empty());
  EXPECT_TRUE(reader->GetRelationships(b)->empty());
}

// Fuzzy checkpoint vs in-flight commit: a commit parked between its WAL
// append and its store apply PINS its record's lsn. Checkpoint() must NOT
// block on it — it truncates only the prefix below the pin, writes a
// marker, and completes while the commit is still in flight. The pinned
// record survives the truncation and recovery still replays it.
TEST_F(RecoveryTest, CheckpointDoesNotBlockOnInFlightCommit) {
  NodeId id;
  {
    auto options = DiskOptions();
    options.sync_commits = true;  // Through the group committer.
    auto db = std::move(*GraphDatabase::Open(options));
    {
      auto txn = db->Begin();
      id = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{0})}});
      ASSERT_TRUE(txn->Commit().ok());
    }

    // Park the next commit between its WAL append and its store apply.
    ArmedPoints points(db.get());
    points.Park("commit.pre_apply");
    std::atomic<bool> commit_acked{false};
    std::thread committer([&] {
      auto txn = db->Begin();
      ASSERT_TRUE(
          txn->SetNodeProperty(id, "v", PropertyValue(int64_t{42})).ok());
      ASSERT_TRUE(txn->Commit().ok());
      commit_acked.store(true);
    });
    points.WaitFor("commit.pre_apply");
    ASSERT_GE(points.Arrivals("commit.pre_apply"), 1u);

    // The checkpoint completes while the commit is still parked — no
    // drain, no stall — and must leave the unapplied record in the log.
    ASSERT_TRUE(db->Checkpoint().ok());
    EXPECT_FALSE(commit_acked.load());
    EXPECT_GT(db->engine().store.wal().SizeBytes(), 0u)
        << "checkpoint truncated a pinned (unapplied) commit record";
    EXPECT_GE(db->engine().store.wal().PinnedCount(), 1u);
    const auto stats = db->engine().store.Stats();
    EXPECT_GE(stats.checkpoint_markers, 1u);

    // Release: the commit applies and acks; a later checkpoint may then
    // truncate past it.
    points.Release("commit.pre_apply");
    committer.join();
    EXPECT_TRUE(commit_acked.load());
    ASSERT_TRUE(db->Checkpoint().ok());
    EXPECT_EQ(db->engine().store.wal().SizeBytes(), 0u);
  }
  // Reopen: the commit that raced the checkpoint survived.
  auto db = std::move(*GraphDatabase::Open(DiskOptions()));
  auto reader = db->Begin();
  EXPECT_EQ(reader->GetNodeProperty(id, "v")->AsInt(), 42);
}

// The other direction of the same race: commits must keep completing while
// a checkpoint is in progress (parked mid-checkpoint via the stall hook).
// This is the whole point of the fuzzy checkpoint — no commit stall.
TEST_F(RecoveryTest, CommitsCompleteDuringInProgressCheckpoint) {
  auto options = DiskOptions();
  options.sync_commits = true;
  auto db = std::move(*GraphDatabase::Open(options));
  NodeId id;
  {
    auto txn = db->Begin();
    id = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{0})}});
    ASSERT_TRUE(txn->Commit().ok());
  }

  // Park the checkpoint after its store sync, before its marker write.
  ArmedPoints points(db.get());
  points.Park("checkpoint.pre_marker");
  std::atomic<bool> checkpoint_done{false};
  std::thread checkpointer([&] {
    ASSERT_TRUE(db->Checkpoint().ok());
    checkpoint_done.store(true);
  });
  points.WaitFor("checkpoint.pre_marker");
  ASSERT_GE(points.Arrivals("checkpoint.pre_marker"), 1u);

  // Full durable commits complete while the checkpoint is mid-flight.
  for (int i = 1; i <= 5; ++i) {
    auto txn = db->Begin();
    ASSERT_TRUE(
        txn->SetNodeProperty(id, "v", PropertyValue(int64_t{i})).ok());
    ASSERT_TRUE(txn->Commit().ok())
        << "commit " << i << " blocked behind an in-progress checkpoint";
  }
  EXPECT_FALSE(checkpoint_done.load());

  points.Release("checkpoint.pre_marker");
  checkpointer.join();
  EXPECT_TRUE(checkpoint_done.load());
  auto reader = db->Begin();
  EXPECT_EQ(reader->GetNodeProperty(id, "v")->AsInt(), 5);
}

// Crash injected between the marker write and the prefix truncation: the
// log still holds the whole prefix plus the marker. Recovery must replay
// from the marker's stable LSN and reproduce the pre-crash committed state
// (including the commit whose record was appended but never store-applied).
TEST_F(RecoveryTest, CrashBetweenMarkerAndTruncationRecovers) {
  NodeId applied, unapplied;
  {
    auto db = std::move(*GraphDatabase::Open(DiskOptions()));
    {
      auto txn = db->Begin();
      applied = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{1})}});
      unapplied = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{1})}});
      ASSERT_TRUE(txn->Commit().ok());
    }
    // This commit reaches the WAL but "crashes" before the store apply; its
    // lsn stays pinned, so the checkpoint's stable LSN stops below it. The
    // checkpoint runs while the commit is parked there: once the commit
    // fails, the log refuses every later append, the marker's included.
    ArmedPoints points(db.get());
    points.Park("commit.pre_apply");
    points.Fail("commit.pre_apply", /*nth=*/1);
    std::thread committer([&] {
      auto txn = db->Begin();
      ASSERT_TRUE(
          txn->SetNodeProperty(unapplied, "v", PropertyValue(int64_t{7}))
              .ok());
      EXPECT_TRUE(txn->Commit().IsIOError());
    });
    EXPECT_TRUE(points.WaitFor("commit.pre_apply"));

    // Checkpoint crashes after writing + syncing the marker, before
    // truncating the prefix.
    points.Fail("checkpoint.post_marker");
    EXPECT_TRUE(db->Checkpoint().IsIOError());
    const auto stats = db->engine().store.Stats();
    EXPECT_GE(stats.checkpoint_markers, 1u);
    EXPECT_EQ(stats.checkpoints, 0u);  // Truncation never happened.

    points.Release("commit.pre_apply");
    committer.join();
  }
  // Reopen: replay starts from the marker's stable LSN; the pinned
  // (unapplied) record above it is replayed, the synced prefix below it is
  // skipped — and the state matches everything ever acked.
  auto db = std::move(*GraphDatabase::Open(DiskOptions()));
  auto reader = db->Begin();
  EXPECT_EQ(reader->GetNodeProperty(applied, "v")->AsInt(), 1);
  EXPECT_EQ(reader->GetNodeProperty(unapplied, "v")->AsInt(), 7);
}

// Stress the same race: writers hammer group commits while checkpoints run
// concurrently; after reopen EVERY acked commit must be recovered.
TEST_F(RecoveryTest, CheckpointRacingGroupCommitsLosesNoAckedCommit) {
  constexpr int kWriters = 4;
  constexpr int kCommitsPerWriter = 60;
  std::vector<NodeId> nodes(kWriters);
  // acked[w] = highest value writer w saw acknowledged.
  std::array<std::atomic<int64_t>, kWriters> acked{};
  {
    auto options = DiskOptions();
    options.sync_commits = true;
    auto db = std::move(*GraphDatabase::Open(options));
    {
      auto txn = db->Begin();
      for (int w = 0; w < kWriters; ++w) {
        nodes[w] =
            *txn->CreateNode({}, {{"v", PropertyValue(int64_t{-1})}});
      }
      ASSERT_TRUE(txn->Commit().ok());
    }
    std::atomic<bool> stop{false};
    std::thread checkpointer([&] {
      while (!stop.load()) {
        ASSERT_TRUE(db->Checkpoint().ok());
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        for (int i = 0; i < kCommitsPerWriter; ++i) {
          auto txn = db->Begin();
          ASSERT_TRUE(txn->SetNodeProperty(nodes[w], "v",
                                           PropertyValue(int64_t{i}))
                          .ok());
          ASSERT_TRUE(txn->Commit().ok());
          acked[w].store(i);
        }
      });
    }
    for (auto& t : writers) t.join();
    stop.store(true);
    checkpointer.join();
  }
  auto db = std::move(*GraphDatabase::Open(DiskOptions()));
  auto reader = db->Begin();
  for (int w = 0; w < kWriters; ++w) {
    EXPECT_EQ(reader->GetNodeProperty(nodes[w], "v")->AsInt(),
              acked[w].load())
        << "writer " << w << ": an acked commit vanished across reopen";
  }
}

// Replay crossing many WAL segment files: with no checkpoint ever taken,
// recovery must discover, order and walk the whole chain.
TEST_F(RecoveryTest, ReplaySpansManySegments) {
  auto options = DiskOptions();
  options.wal_segment_size = 512;
  NodeId id;
  {
    auto db = std::move(*GraphDatabase::Open(options));
    auto txn = db->Begin();
    id = *txn->CreateNode({}, {{"v", PropertyValue(int64_t{0})}});
    ASSERT_TRUE(txn->Commit().ok());
    for (int i = 1; i <= 200; ++i) {
      auto update = db->Begin();
      ASSERT_TRUE(
          update->SetNodeProperty(id, "v", PropertyValue(int64_t{i})).ok());
      ASSERT_TRUE(update->Commit().ok());
    }
    ASSERT_GT(db->engine().store.wal().SegmentCount(), 2u);
  }
  int segment_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    segment_files += name.rfind("wal.", 0) == 0 ? 1 : 0;
  }
  EXPECT_GT(segment_files, 2);
  auto db = std::move(*GraphDatabase::Open(options));
  auto reader = db->Begin();
  EXPECT_EQ(reader->GetNodeProperty(id, "v")->AsInt(), 200);
  EXPECT_GT(db->engine().store.wal().SegmentCount(), 2u);
}

TEST_F(RecoveryTest, TokensSurviveRecovery) {
  {
    auto db = std::move(*GraphDatabase::Open(DiskOptions()));
    auto txn = db->Begin();
    ASSERT_TRUE(txn->CreateNode({"Alpha", "Beta"},
                                {{"key1", PropertyValue(int64_t{1})}})
                    .ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  auto db = std::move(*GraphDatabase::Open(DiskOptions()));
  EXPECT_TRUE(db->engine().store.labels().Lookup("Alpha").ok());
  EXPECT_TRUE(db->engine().store.labels().Lookup("Beta").ok());
  EXPECT_TRUE(db->engine().store.prop_keys().Lookup("key1").ok());
}

// A created-then-deleted entity is annihilated at commit: every one of its
// WAL ops — including the full-state kNodeState/kRelState ops — must be
// dropped from the commit record, because its id goes straight back to the
// free list. A leaked state op would be replayed against whatever live
// entity later recycled the id, resurrecting the dead entity's payload on
// top of it.
TEST_F(RecoveryTest, AnnihilatedEntityLeavesNoStateInWalReplay) {
  NodeId keep, doomed, reused;
  {
    auto db = std::move(*GraphDatabase::Open(DiskOptions()));
    {
      auto txn = db->Begin();
      keep = *txn->CreateNode({"Keep"}, {{"name", PropertyValue("keep")}});
      doomed = *txn->CreateNode({});
      // Pile full-state ops onto the doomed entities before killing them.
      ASSERT_TRUE(
          txn->SetNodeProperty(doomed, "secret", PropertyValue(int64_t{99}))
              .ok());
      ASSERT_TRUE(txn->AddLabel(doomed, "Dead").ok());
      RelId tmp = *txn->CreateRelationship(keep, doomed, "TMP",
                                           {{"w", PropertyValue(int64_t{1})}});
      ASSERT_TRUE(
          txn->SetRelProperty(tmp, "w", PropertyValue(int64_t{2})).ok());
      ASSERT_TRUE(txn->DeleteRelationship(tmp).ok());
      ASSERT_TRUE(txn->DeleteNode(doomed).ok());
      ASSERT_TRUE(txn->Commit().ok());
    }
    {
      // The annihilated node's id is back on the free list; the next
      // creation recycles it. A surviving kNodeState op for the old id
      // would now target this live node during replay.
      auto txn = db->Begin();
      reused = *txn->CreateNode({"Fresh"}, {{"name", PropertyValue("fresh")}});
      ASSERT_TRUE(txn->Commit().ok());
    }
    EXPECT_EQ(reused, doomed);
  }
  // Reopen: full WAL replay (no checkpoint was ever taken).
  auto db = std::move(*GraphDatabase::Open(DiskOptions()));
  auto reader = db->Begin();
  EXPECT_EQ(reader->GetNodeProperty(keep, "name")->AsString(), "keep");
  EXPECT_EQ(reader->GetNodeProperty(reused, "name")->AsString(), "fresh");
  // Nothing of the annihilated node leaked onto the recycled id.
  EXPECT_TRUE(reader->GetNodeProperty(reused, "secret").status().IsNotFound());
  EXPECT_TRUE(reader->GetNodesByLabel("Dead")->empty());
  auto rels = reader->GetRelationships(keep, Direction::kOutgoing);
  ASSERT_TRUE(rels.ok());
  EXPECT_TRUE(rels->empty());
}

// A commit record carries exactly one op per written entity, holding the
// entity's final state, however many writes the transaction made to it: an
// update is one kNodeState, a create-then-update one kCreateNode, and an
// update-then-delete one kDeleteNode.
TEST_F(RecoveryTest, CommitRecordHoldsOneFinalStateOpPerEntity) {
  auto db = std::move(*GraphDatabase::Open(DiskOptions()));
  NodeId existing, doomed, created;
  {
    auto txn = db->Begin();
    existing = *txn->CreateNode({"Seed"});
    doomed = *txn->CreateNode({});
    ASSERT_TRUE(txn->Commit().ok());
  }
  auto commit = [&](auto&& body) {
    auto txn = db->Begin();
    body(*txn);
    EXPECT_TRUE(txn->Commit().ok());
    return txn->id();
  };
  const TxnId update = commit([&](Transaction& txn) {
    for (const char* key : {"a", "b", "c"}) {
      ASSERT_TRUE(txn.SetNodeProperty(existing, key, PropertyValue(key)).ok());
    }
    ASSERT_TRUE(txn.AddLabel(existing, "Extra").ok());
  });
  const TxnId create = commit([&](Transaction& txn) {
    created = *txn.CreateNode({"New"});
    ASSERT_TRUE(
        txn.SetNodeProperty(created, "a", PropertyValue(int64_t{7})).ok());
  });
  const TxnId remove = commit([&](Transaction& txn) {
    ASSERT_TRUE(
        txn.SetNodeProperty(doomed, "a", PropertyValue(int64_t{5})).ok());
    ASSERT_TRUE(txn.DeleteNode(doomed).ok());
  });

  std::map<TxnId, std::vector<WalOp>> entity_ops;
  ASSERT_TRUE(db->engine()
                  .store.wal()
                  .ReadAll([&](const WalRecord& record) {
                    for (const WalOp& op : record.ops) {
                      if (op.type != WalOpType::kCreateToken) {
                        entity_ops[record.txn_id].push_back(op);
                      }
                    }
                    return Status::OK();
                  })
                  .ok());
  auto label = [&](const char* name) {
    return *db->engine().store.labels().Lookup(name);
  };
  auto key = [&](const char* name) {
    return *db->engine().store.prop_keys().Lookup(name);
  };

  ASSERT_EQ(entity_ops[update].size(), 1u);
  const WalOp& state = entity_ops[update][0];
  EXPECT_EQ(state.type, WalOpType::kNodeState);
  EXPECT_EQ(state.id, existing);
  EXPECT_EQ(state.labels,
            (std::vector<LabelId>{label("Seed"), label("Extra")}));
  EXPECT_EQ(state.props, (PropertyMap{{key("a"), PropertyValue("a")},
                                      {key("b"), PropertyValue("b")},
                                      {key("c"), PropertyValue("c")}}));

  ASSERT_EQ(entity_ops[create].size(), 1u);
  const WalOp& fresh = entity_ops[create][0];
  EXPECT_EQ(fresh.type, WalOpType::kCreateNode);
  EXPECT_EQ(fresh.id, created);
  EXPECT_EQ(fresh.labels, std::vector<LabelId>{label("New")});
  EXPECT_EQ(fresh.props, (PropertyMap{{key("a"), PropertyValue(int64_t{7})}}));

  ASSERT_EQ(entity_ops[remove].size(), 1u);
  EXPECT_EQ(entity_ops[remove][0].type, WalOpType::kDeleteNode);
  EXPECT_EQ(entity_ops[remove][0].id, doomed);
}

}  // namespace
}  // namespace neosi
