// Deterministic crash-point fault injection over the segmented WAL /
// checkpoint / recovery stack (see tests/fault_injection.h for the
// harness): kill the store at every named crash point in a loop, recover,
// and assert the recovered state equals the shadow model of acked commits.
// Also proves the tentpole property of segment rotation — the on-disk WAL
// footprint under sustained write load stays bounded by whole-segment
// unlinking alone, with no reliance on filesystem hole punching.

#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "fault_injection.h"
#include "graph/graph_database.h"

namespace neosi {
namespace {

std::filesystem::path TempDir(const std::string& tag) {
  return std::filesystem::temp_directory_path() /
         ("neosi_fault_" + tag + "_" + std::to_string(::getpid()));
}

// --- one kill-and-recover loop per named crash point -----------------------

TEST(FaultInjection, CrashAtMidAppendRecovers) {
  fault::CrashLoopHarness harness(TempDir("mid_append"));
  harness.Run("wal.append.mid_frame");
}

TEST(FaultInjection, CrashAfterSegmentCreateRecovers) {
  // Smaller segments than the default harness config: the workload must
  // actually reach the roll path several times per round.
  fault::CrashLoopHarness::Options options;
  options.wal_segment_size = 512;
  options.txns_per_round = 60;
  fault::CrashLoopHarness harness(TempDir("segment_create"), options);
  harness.Run("wal.segment.post_create");
}

TEST(FaultInjection, CrashOnWriteFailureAfterRollRecovers) {
  fault::CrashLoopHarness::Options options;
  options.wal_segment_size = 512;
  options.txns_per_round = 60;
  fault::CrashLoopHarness harness(TempDir("fail_after_roll"), options);
  harness.Run("wal.append.fail_after_roll");
}

TEST(FaultInjection, CrashBeforeSegmentUnlinkRecovers) {
  fault::CrashLoopHarness harness(TempDir("pre_unlink"));
  harness.Run("wal.truncate.pre_unlink");
}

TEST(FaultInjection, CrashBeforeCheckpointMarkerRecovers) {
  fault::CrashLoopHarness harness(TempDir("pre_marker"));
  harness.Run("checkpoint.pre_marker");
}

TEST(FaultInjection, CrashAfterCheckpointMarkerRecovers) {
  fault::CrashLoopHarness harness(TempDir("post_marker"));
  harness.Run("checkpoint.post_marker");
}

TEST(FaultInjection, EveryNamedCrashPointIsReachable) {
  // Guard against the harness silently testing nothing: each named point
  // must actually fire at least once under its tuned workload.
  for (const std::string& point : fault::AllCrashPoints()) {
    fault::CrashLoopHarness::Options options;
    options.rounds = 2;
    options.txns_per_round = 60;
    options.wal_segment_size = 512;
    fault::CrashLoopHarness harness(TempDir("reach_" + point), options);
    auto opened = GraphDatabase::Open(harness.DbOptions());
    ASSERT_TRUE(opened.ok());
    auto db = std::move(*opened);
    harness.SeedIfNeeded(db.get());
    fault::CrashPoint crash(db.get(), point);
    for (int i = 0; i < 200 && !crash.fired(); ++i) {
      auto txn = db->Begin();
      ASSERT_TRUE(txn->SetNodeProperty(harness.keys()[0], "v",
                                       PropertyValue(int64_t{i}))
                      .ok());
      (void)txn->Commit();
      if ((i + 1) % 5 == 0) (void)db->Checkpoint();
    }
    EXPECT_TRUE(crash.fired()) << "crash point never reached: " << point;
  }
}

// --- the tentpole acceptance: bounded disk footprint, no hole punching -----

// Sustained multi-writer load with the checkpoint daemon enabled and tiny
// segments: the physical WAL footprint (sum of wal.* file sizes — the thing
// PUNCH_HOLE used to be needed for on hole-less backends) must stay bounded
// by ~(live bytes + 2 * wal_segment_size) the whole time, because dead
// whole segments are unlinked outright. The shadow model then proves no
// acked commit was traded away for the bound.
TEST(FaultInjection, SustainedWriteDiskFootprintStaysBounded) {
  constexpr uint64_t kSegmentSize = 4096;
  constexpr int kWriters = 3;
  constexpr int kCommitsPerWriter = 1500;

  fault::CrashLoopHarness::Options harness_options;
  harness_options.keys = kWriters;
  harness_options.wal_segment_size = kSegmentSize;
  harness_options.sync_commits = false;
  fault::CrashLoopHarness harness(TempDir("footprint"), harness_options);

  std::array<std::atomic<int64_t>, kWriters> acked{};
  uint64_t disk_high_water = 0;
  int64_t dead_high_water = 0;
  uint64_t segments_deleted = 0;
  {
    DatabaseOptions options = harness.DbOptions();
    options.checkpoint_interval_ms = 1;  // Daemon paces the reclamation.
    options.checkpoint_wal_threshold = kSegmentSize / 2;
    auto db = std::move(*GraphDatabase::Open(options));
    harness.SeedIfNeeded(db.get());

    std::atomic<bool> stop{false};
    std::thread sampler([&] {
      while (!stop.load(std::memory_order_acquire)) {
        // Bracketed read: the directory scan races appends (which grow
        // both live and disk) and truncations (which shrink both), so
        // subtract the LARGER of the live gauges taken around it — appends
        // landing mid-scan cancel out instead of counting as dead bytes.
        const uint64_t live_before = db->engine().store.wal().SizeBytes();
        const uint64_t disk = harness.WalDiskBytes();
        const uint64_t live_after = db->engine().store.wal().SizeBytes();
        const uint64_t live = std::max(live_before, live_after);
        disk_high_water = std::max(disk_high_water, disk);
        dead_high_water =
            std::max(dead_high_water,
                     static_cast<int64_t>(disk) - static_cast<int64_t>(live));
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        const NodeId key = harness.keys()[w];
        for (int i = 1; i <= kCommitsPerWriter; ++i) {
          auto txn = db->Begin();
          ASSERT_TRUE(
              txn->SetNodeProperty(key, "v", PropertyValue(int64_t{i})).ok());
          ASSERT_TRUE(txn->Commit().ok());
          acked[w].store(i, std::memory_order_release);
        }
      });
    }
    for (auto& t : writers) t.join();
    stop.store(true, std::memory_order_release);
    sampler.join();
    disk_high_water = std::max(disk_high_water, harness.WalDiskBytes());

    const DatabaseStats stats = db->Stats();
    segments_deleted = stats.store.wal_segments_deleted;
    // Reclamation really was whole-segment unlinks, at volume: the workload
    // wrote far more log than the bound, so dozens of segments came and
    // went.
    EXPECT_GT(segments_deleted, 10u);

    // Quiesced, one checkpoint empties the live log; the footprint
    // collapses to the single active segment.
    ASSERT_TRUE(db->Checkpoint().ok());
    EXPECT_EQ(db->engine().store.wal().SizeBytes(), 0u);
    EXPECT_EQ(db->engine().store.wal().SegmentCount(), 1u);
    EXPECT_LE(harness.WalDiskBytes(), kSegmentSize);
  }

  // The acceptance bound: on-disk footprint <= live bytes + ~2 segments.
  // Dead bytes beyond the live log are exactly the already-checkpointed
  // prefix of the oldest retained segment (a whole dead segment is
  // unlinked the moment truncation sees it) plus per-segment headers — a
  // CONSTANT, independent of how much log the workload ever wrote
  // (~hundreds of KiB in this run) and of how far the daemon lags on the
  // live side. The pre-rotation WAL's extent grew with total volume on any
  // backend without PUNCH_HOLE; this is the gap rotation closes.
  EXPECT_LE(dead_high_water, static_cast<int64_t>(2 * kSegmentSize))
      << "dead WAL bytes grew past the rotation bound";
  EXPECT_GT(disk_high_water, 0u);

  // And none of it cost an acked commit: reopen and check the shadow.
  for (int w = 0; w < kWriters; ++w) {
    harness.RecordAck(harness.keys()[w], acked[w].load());
  }
  auto db = std::move(*GraphDatabase::Open(harness.DbOptions()));
  harness.VerifyRecovered(db.get(), /*round=*/0);
}

}  // namespace
}  // namespace neosi
