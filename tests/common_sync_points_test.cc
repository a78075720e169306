// SyncPoints and the test-side ArmedPoints: the catalogue, each action
// (fail, park, order, count, wait), arm-time rejection of names the engine
// never checks, and the rule that a point armed on one database never sees
// another database's arrivals.

#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>

#include "common/sync_points.h"
#include "fault_injection.h"
#include "graph/graph_database.h"
#include "sync_points.h"

namespace neosi {
namespace {

TEST(SyncPoints, DisarmedRegistryPassesEveryPoint) {
  SyncPoints registry;
  for (const SyncPointInfo& info : kSyncPoints) {
    EXPECT_TRUE(registry.Check(info.name).ok()) << info.name;
  }
}

TEST(SyncPoints, CatalogueNamesAreUniqueAndFeedTheMatrices) {
  std::set<std::string> names;
  for (const SyncPointInfo& info : kSyncPoints) {
    EXPECT_TRUE(names.insert(info.name).second) << info.name;
    EXPECT_EQ(ArmedPoints::Find(info.name), &info);
  }
  EXPECT_EQ(fault::AllCrashPoints().size(), 6u);
  EXPECT_EQ(fault::AllEioPoints().size(), 5u);
  for (const std::string& point : fault::AllCrashPoints()) {
    EXPECT_EQ(ArmedPoints::Find(point)->kind, SyncPointKind::kCrash);
  }
  for (const std::string& point : fault::AllEioPoints()) {
    EXPECT_EQ(ArmedPoints::Find(point)->kind, SyncPointKind::kEio);
  }
}

TEST(SyncPoints, FailsTheNthArrivalOrEveryArrival) {
  SyncPoints registry;
  ArmedPoints points(&registry);
  points.Fail("commit.apply.op", /*nth=*/2);
  points.Fail("wal.sync.fail");
  EXPECT_TRUE(registry.Check("commit.apply.op").ok());
  EXPECT_FALSE(points.Fired("commit.apply.op"));
  EXPECT_TRUE(registry.Check("commit.apply.op").IsIOError());
  EXPECT_TRUE(points.Fired("commit.apply.op"));
  EXPECT_TRUE(registry.Check("commit.apply.op").ok());
  EXPECT_EQ(points.Arrivals("commit.apply.op"), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(registry.Check("wal.sync.fail").IsIOError());
  }
  // A point nobody armed is neither failed nor counted.
  EXPECT_TRUE(registry.Check("wal.dirsync.unlink").ok());
  EXPECT_EQ(points.Arrivals("wal.dirsync.unlink"), 0u);
}

TEST(SyncPoints, ParkHoldsEveryArrivalUntilReleased) {
  SyncPoints registry;
  ArmedPoints points(&registry);
  points.Park("commit.pre_publish");
  std::atomic<int> passed{0};
  std::thread first([&] {
    EXPECT_TRUE(registry.Check("commit.pre_publish").ok());
    passed.fetch_add(1);
  });
  std::thread second([&] {
    EXPECT_TRUE(registry.Check("commit.pre_publish").ok());
    passed.fetch_add(1);
  });
  ASSERT_TRUE(points.WaitFor("commit.pre_publish", 2));
  EXPECT_EQ(passed.load(), 0);
  points.Release("commit.pre_publish");
  first.join();
  second.join();
  EXPECT_EQ(passed.load(), 2);
  // Released: later arrivals pass straight through.
  EXPECT_TRUE(registry.Check("commit.pre_publish").ok());
}

TEST(SyncPoints, OrderedPointWaitsForItsPredecessor) {
  SyncPoints registry;
  ArmedPoints points(&registry);
  points.Order("lock.wait", "commit.pre_publish");
  std::atomic<bool> passed{false};
  std::thread successor([&] {
    EXPECT_TRUE(registry.Check("commit.pre_publish").ok());
    passed.store(true);
  });
  ASSERT_TRUE(points.WaitFor("commit.pre_publish"));
  EXPECT_FALSE(passed.load());
  EXPECT_TRUE(registry.Check("lock.wait").ok());
  successor.join();
  EXPECT_TRUE(passed.load());
}

TEST(SyncPoints, WaitForGivesUpAtItsDeadline) {
  SyncPoints registry;
  ArmedPoints points(&registry);
  EXPECT_FALSE(points.WaitFor("lock.wait", 1, std::chrono::milliseconds(1)));
  EXPECT_TRUE(registry.Check("lock.wait").ok());
  EXPECT_TRUE(points.WaitFor("lock.wait", 1, std::chrono::milliseconds(1)));
}

TEST(SyncPoints, DestroyingTheArmingReleasesParkedThreads) {
  SyncPoints registry;
  auto points = std::make_unique<ArmedPoints>(&registry);
  points->Park("commit.pre_apply");
  points->Fail("commit.pre_apply");
  Status seen = Status::IOError("not reached");
  std::thread parked([&] { seen = registry.Check("commit.pre_apply"); });
  ASSERT_TRUE(points->WaitFor("commit.pre_apply"));
  points.reset();
  parked.join();
  EXPECT_TRUE(seen.ok()) << seen;
  EXPECT_TRUE(registry.Check("commit.pre_apply").ok());
}

TEST(SyncPoints, ArmingAMisspelledPointFails) {
  SyncPoints registry;
  ArmedPoints points(&registry);
  EXPECT_NONFATAL_FAILURE(points.Fail("wal.apend.mid_frame"),
                          "unknown sync point \"wal.apend.mid_frame\"");
  EXPECT_NONFATAL_FAILURE(points.Park("checkpoint.premarker"),
                          "unknown sync point");
  // A schedule point has no failure path at its site.
  EXPECT_NONFATAL_FAILURE(points.Fail("lock.wait"), "cannot fail");
}

// A primary and its replica in one process: each owns its registry, so a
// point armed on the replica's WAL counts only the replica's own appends
// (the applier re-logging shipped records), never the primary's.
TEST(SyncPoints, APointStaysOnItsDatabase) {
  namespace fs = std::filesystem;
  const fs::path base = fs::temp_directory_path() / "neosi_sync_points_pair";
  fs::remove_all(base);
  fs::create_directories(base / "primary");
  fs::create_directories(base / "replica");

  DatabaseOptions primary_options;
  primary_options.in_memory = false;
  primary_options.path = (base / "primary").string();
  primary_options.background_gc_interval_ms = 0;
  primary_options.checkpoint_interval_ms = 0;
  DatabaseOptions replica_options = primary_options;
  replica_options.path = (base / "replica").string();
  replica_options.replica_of_path = primary_options.path;
  replica_options.replica_poll_interval_ms = 0;  // Tests call RunOnce().
  {
    auto primary = std::move(*GraphDatabase::Open(primary_options));
    auto replica = std::move(*GraphDatabase::Open(replica_options));
    ArmedPoints on_primary(primary.get());
    ArmedPoints on_replica(replica.get());
    on_primary.Count("wal.append.mid_frame");
    on_replica.Count("wal.append.mid_frame");

    for (int i = 0; i < 3; ++i) {
      auto txn = primary->Begin();
      ASSERT_TRUE(txn->CreateNode({"Item"}).ok());
      ASSERT_TRUE(txn->Commit().ok());
    }
    const uint64_t primary_appends =
        on_primary.Arrivals("wal.append.mid_frame");
    EXPECT_GE(primary_appends, 3u);
    EXPECT_EQ(on_replica.Arrivals("wal.append.mid_frame"), 0u);

    ASSERT_TRUE(replica->replica_applier()->RunOnce().ok());
    EXPECT_GE(on_replica.Arrivals("wal.append.mid_frame"), 3u);
    EXPECT_EQ(on_primary.Arrivals("wal.append.mid_frame"), primary_appends);
  }
  fs::remove_all(base);
}

}  // namespace
}  // namespace neosi
