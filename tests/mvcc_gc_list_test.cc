// GcList: the §4 timestamp-sorted reclamation queue.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "mvcc/gc_list.h"

namespace neosi {
namespace {

GcEntry Entry(uint64_t id, Timestamp obsolete_since) {
  GcEntry entry;
  entry.key = EntityKey::Node(id);
  entry.obsolete_since = obsolete_since;
  return entry;
}

TEST(GcList, PopsOnlyReclaimablePrefix) {
  GcList list;
  for (Timestamp ts : {10, 20, 30, 40}) list.Append(Entry(ts, ts));
  auto popped = list.PopReclaimable(25);
  ASSERT_EQ(popped.size(), 2u);
  EXPECT_EQ(popped[0].obsolete_since, 10u);
  EXPECT_EQ(popped[1].obsolete_since, 20u);
  EXPECT_EQ(list.backlog(), 2u);
  EXPECT_EQ(list.OldestObsoleteSince(), 30u);
}

TEST(GcList, WatermarkBoundaryIsInclusive) {
  GcList list;
  list.Append(Entry(1, 100));
  // A version superseded AT the watermark is reclaimable: a snapshot with
  // start_ts == 100 reads the superseding version, not this one.
  EXPECT_EQ(list.PopReclaimable(100).size(), 1u);
}

TEST(GcList, EmptyListBehaviour) {
  GcList list;
  EXPECT_TRUE(list.PopReclaimable(kMaxTimestamp).empty());
  EXPECT_EQ(list.backlog(), 0u);
  EXPECT_EQ(list.OldestObsoleteSince(), kMaxTimestamp);
}

TEST(GcList, MaxBatchLimitsPop) {
  GcList list;
  for (Timestamp ts = 1; ts <= 10; ++ts) list.Append(Entry(ts, ts));
  EXPECT_EQ(list.PopReclaimable(100, 3).size(), 3u);
  EXPECT_EQ(list.backlog(), 7u);
  EXPECT_EQ(list.PopReclaimable(100).size(), 7u);
}

TEST(GcList, CountersTrackTraffic) {
  GcList list;
  for (Timestamp ts = 1; ts <= 5; ++ts) list.Append(Entry(ts, ts));
  list.PopReclaimable(3);
  EXPECT_EQ(list.total_appended(), 5u);
  EXPECT_EQ(list.total_reclaimed(), 3u);
}

TEST(ShardedGcList, RoutesByEntityKeyAndKeepsShardOrder) {
  ShardedGcList list(4);
  ASSERT_EQ(list.shard_count(), 4u);
  // Out-of-order arrivals across many entities: each lands in its entity's
  // shard, and each shard stays timestamp-sorted.
  for (uint64_t id = 0; id < 32; ++id) {
    for (Timestamp ts : {30, 10, 20}) list.Append(Entry(id, ts + id));
  }
  EXPECT_EQ(list.backlog(), 96u);
  const auto popped = list.PopReclaimable(1000);
  ASSERT_EQ(popped.size(), 96u);
  EXPECT_EQ(list.backlog(), 0u);
  // PopReclaimable concatenates the shards in index order: the shard of
  // each entry never decreases, and within one shard obsolete_since never
  // decreases.
  for (size_t i = 1; i < popped.size(); ++i) {
    const size_t prev_shard = list.ShardOf(popped[i - 1].key);
    const size_t shard = list.ShardOf(popped[i].key);
    ASSERT_LE(prev_shard, shard) << "entry " << i;
    if (prev_shard == shard) {
      EXPECT_LE(popped[i - 1].obsolete_since, popped[i].obsolete_since)
          << "entry " << i;
    }
  }
  // One entity's entries come out in timestamp order.
  std::vector<Timestamp> entity7;
  for (const GcEntry& e : popped) {
    if (e.key == EntityKey::Node(7)) entity7.push_back(e.obsolete_since);
  }
  EXPECT_EQ(entity7, (std::vector<Timestamp>{17, 27, 37}));
}

TEST(ShardedGcList, AggregateGaugesSpanShards) {
  ShardedGcList list(8);
  for (uint64_t id = 0; id < 64; ++id) list.Append(Entry(id, id + 1));
  EXPECT_EQ(list.backlog(), 64u);
  EXPECT_GE(list.backlog_high_water(), 64u);
  EXPECT_EQ(list.total_appended(), 64u);
  EXPECT_EQ(list.OldestObsoleteSince(), 1u);

  // Global pop honours the watermark across every shard.
  auto popped = list.PopReclaimable(32);
  EXPECT_EQ(popped.size(), 32u);
  EXPECT_EQ(list.backlog(), 32u);
  EXPECT_EQ(list.total_reclaimed(), 32u);
  EXPECT_EQ(list.OldestObsoleteSince(), 33u);
  for (const GcEntry& e : popped) EXPECT_LE(e.obsolete_since, 32u);
}

TEST(ShardedGcList, ShardCountClampsToAtLeastOne) {
  ShardedGcList list(0);
  EXPECT_EQ(list.shard_count(), 1u);
  list.Append(Entry(1, 1));
  EXPECT_EQ(list.PopReclaimable(1).size(), 1u);
  ShardedGcList capped(1 << 20);
  EXPECT_EQ(capped.shard_count(), ShardedGcList::kMaxShards);
}

TEST(ShardedGcList, MaxBatchSpansShards) {
  ShardedGcList list(4);
  for (uint64_t id = 0; id < 16; ++id) list.Append(Entry(id, 1));
  EXPECT_EQ(list.PopReclaimable(1, 5).size(), 5u);
  EXPECT_EQ(list.backlog(), 11u);
  EXPECT_EQ(list.PopReclaimable(1).size(), 11u);
}

// Commit threads append concurrently while the one GC worker drains every
// shard: nothing is lost or popped twice, and the gauges settle.
TEST(ShardedGcList, ConcurrentAppendersAndOneDrainerStayConsistent) {
  ShardedGcList list(4);
  std::atomic<Timestamp> next_ts{1};
  std::atomic<uint64_t> reclaimed{0};
  std::atomic<int> appenders_left{4};

  std::vector<std::thread> appenders;
  for (int a = 0; a < 4; ++a) {
    appenders.emplace_back([&, a] {
      for (uint64_t i = 0; i < 5000; ++i) {
        const Timestamp ts = next_ts.fetch_add(1);
        list.Append(Entry(/*id=*/(a * 5000 + i) % 97, ts));
      }
      appenders_left.fetch_sub(1);
    });
  }
  std::thread drainer([&] {
    while (appenders_left.load() > 0 || list.backlog() > 0) {
      reclaimed.fetch_add(list.PopReclaimable(next_ts.load()).size());
    }
  });
  for (auto& t : appenders) t.join();
  drainer.join();
  EXPECT_EQ(reclaimed.load(), 20000u);
  EXPECT_EQ(list.backlog(), 0u);
  EXPECT_EQ(list.total_appended(), 20000u);
  EXPECT_EQ(list.total_reclaimed(), 20000u);
  EXPECT_GE(list.backlog_high_water(), 1u);
}

TEST(GcList, ConcurrentAppendersAndCollector) {
  GcList list;
  std::atomic<Timestamp> next_ts{1};
  std::atomic<uint64_t> reclaimed{0};
  std::atomic<bool> stop{false};

  // Single appender preserves the monotonicity contract (commit timestamps
  // are handed out under the commit lock in the engine).
  std::thread appender([&] {
    for (int i = 0; i < 20000; ++i) {
      const Timestamp ts = next_ts.fetch_add(1);
      list.Append(Entry(ts, ts));
    }
    stop.store(true);
  });
  std::thread collector([&] {
    while (!stop.load() || list.backlog() > 0) {
      reclaimed.fetch_add(list.PopReclaimable(next_ts.load()).size());
    }
  });
  appender.join();
  collector.join();
  EXPECT_EQ(reclaimed.load(), 20000u);
  EXPECT_EQ(list.backlog(), 0u);
}

}  // namespace
}  // namespace neosi
