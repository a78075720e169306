// TimestampOracle and ActiveTxnTable.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <new>
#include <thread>
#include <vector>

#include "txn/active_txn_table.h"
#include "txn/timestamp_oracle.h"

namespace {
// operator new calls made by this thread (RegistrationAllocatesNothing).
thread_local size_t t_news = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_news;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace neosi {
namespace {

TEST(TimestampOracle, StartsEmpty) {
  TimestampOracle oracle;
  EXPECT_EQ(oracle.ReadTs(), 0u);
  EXPECT_EQ(oracle.LastAllocatedCommitTs(), 0u);
}

TEST(TimestampOracle, CommitTimestampsMonotonic) {
  TimestampOracle oracle;
  Timestamp prev = 0;
  for (int i = 0; i < 100; ++i) {
    const Timestamp ts = oracle.NextCommitTs();
    EXPECT_GT(ts, prev);
    prev = ts;
  }
}

TEST(TimestampOracle, ReadTsLagsUntilPublish) {
  TimestampOracle oracle;
  const Timestamp ts = oracle.NextCommitTs();
  EXPECT_EQ(oracle.ReadTs(), 0u);  // Not yet applied.
  oracle.FinishCommit(ts);
  EXPECT_EQ(oracle.ReadTs(), ts);
}

TEST(TimestampOracle, OutOfOrderFinishPublishesInOrder) {
  TimestampOracle oracle;
  const Timestamp t1 = oracle.NextCommitTs();
  const Timestamp t2 = oracle.NextCommitTs();
  const Timestamp t3 = oracle.NextCommitTs();
  oracle.FinishCommit(t3);
  EXPECT_EQ(oracle.ReadTs(), 0u);  // t1, t2 still in flight.
  EXPECT_EQ(oracle.PendingPublishCount(), 1u);
  oracle.FinishCommit(t1);
  EXPECT_EQ(oracle.ReadTs(), t1);  // t2 still gates t3.
  oracle.FinishCommit(t2);
  EXPECT_EQ(oracle.ReadTs(), t3);  // Gap closed: watermark jumps to t3.
  EXPECT_EQ(oracle.PendingPublishCount(), 0u);
}

TEST(TimestampOracle, ConcurrentFinishersNeverExposeAGap) {
  TimestampOracle oracle;
  constexpr int kPerThread = 2000;
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        const Timestamp ts = oracle.NextCommitTs();
        // The watermark can never have reached our unfinished timestamp.
        EXPECT_LT(oracle.ReadTs(), ts);
        oracle.FinishCommit(ts);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(oracle.ReadTs(), Timestamp{kPerThread * kThreads});
  EXPECT_EQ(oracle.PendingPublishCount(), 0u);
}

// Commit-wait batching: waiters park on per-timestamp slots, and a
// watermark advance wakes ONLY the waiters it satisfies. Finishing t1 must
// release the t1 waiter while t2/t3 stay parked; finishing t3 (watermark
// still gated by t2) must release nobody.
TEST(TimestampOracle, WatermarkAdvanceWakesOnlySatisfiedWaiters) {
  TimestampOracle oracle;
  const Timestamp t1 = oracle.NextCommitTs();
  const Timestamp t2 = oracle.NextCommitTs();
  const Timestamp t3 = oracle.NextCommitTs();

  std::atomic<bool> done1{false}, done2{false}, done3{false};
  std::thread w1([&] {
    oracle.WaitUntilPublished(t1);
    done1.store(true);
  });
  std::thread w2([&] {
    oracle.WaitUntilPublished(t2);
    done2.store(true);
  });
  std::thread w3([&] {
    oracle.WaitUntilPublished(t3);
    done3.store(true);
  });

  // All three must be parked, each on its own slot.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (oracle.WaitingSlotCount() < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(oracle.WaitingSlotCount(), 3u);

  oracle.FinishCommit(t1);
  while (!done1.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(done1.load());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(done2.load());
  EXPECT_FALSE(done3.load());
  EXPECT_EQ(oracle.WaitingSlotCount(), 2u);  // t1's slot retired.

  // t3 finishes but t2 still gates the watermark: nobody wakes.
  oracle.FinishCommit(t3);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(done2.load());
  EXPECT_FALSE(done3.load());
  EXPECT_EQ(oracle.WaitingSlotCount(), 2u);

  // t2 closes the gap: watermark jumps to t3, both remaining waiters wake.
  oracle.FinishCommit(t2);
  w1.join();
  w2.join();
  w3.join();
  EXPECT_TRUE(done2.load());
  EXPECT_TRUE(done3.load());
  EXPECT_EQ(oracle.WaitingSlotCount(), 0u);
  EXPECT_EQ(oracle.ReadTs(), t3);
}

TEST(TimestampOracle, RestartWakesParkedWaiters) {
  TimestampOracle oracle;
  const Timestamp ts = oracle.NextCommitTs();
  std::atomic<bool> done{false};
  std::thread waiter([&] {
    oracle.WaitUntilPublished(ts);
    done.store(true);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (oracle.WaitingSlotCount() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  oracle.Restart(ts);  // Recovery publishes everything up to ts.
  waiter.join();
  EXPECT_TRUE(done.load());
  EXPECT_EQ(oracle.WaitingSlotCount(), 0u);
}

TEST(TimestampOracle, RestartResumesAboveRecoveredMax) {
  TimestampOracle oracle;
  oracle.Restart(500);
  EXPECT_EQ(oracle.ReadTs(), 500u);
  EXPECT_EQ(oracle.NextCommitTs(), 501u);
}

TEST(TimestampOracle, TxnIdsUnique) {
  TimestampOracle oracle;
  std::atomic<uint64_t> sum{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) sum.fetch_add(oracle.NextTxnId());
    });
  }
  for (auto& t : threads) t.join();
  // Sum of 1..4000 if every id was handed out exactly once.
  EXPECT_EQ(sum.load(), 4000ull * 4001 / 2);
}

// A registration whose start timestamp is the constant `ts`.
ActiveTxnTable::Slot* RegisterAt(ActiveTxnTable& table, TxnId txn,
                                 Timestamp ts) {
  return table.RegisterAtomic(txn, [ts] { return ts; });
}

TEST(ActiveTxnTable, WatermarkIsMinActiveStart) {
  ActiveTxnTable table;
  EXPECT_EQ(table.Watermark(99), 99u);  // Empty -> fallback.
  ActiveTxnTable::Slot* first = RegisterAt(table, 1, 50);
  ActiveTxnTable::Slot* second = RegisterAt(table, 2, 30);
  ActiveTxnTable::Slot* third = RegisterAt(table, 3, 70);
  EXPECT_EQ(table.Watermark(99), 30u);
  table.Unregister(second);
  EXPECT_EQ(table.Watermark(99), 50u);
  table.Unregister(first);
  table.Unregister(third);
  EXPECT_EQ(table.Watermark(99), 99u);
}

TEST(ActiveTxnTable, RegisterAtomicUsesSource) {
  ActiveTxnTable table;
  const ActiveTxnTable::Slot* slot =
      table.RegisterAtomic(7, [] { return Timestamp{42}; });
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(slot->start_ts(), 42u);
  EXPECT_FALSE(slot->expired());
  EXPECT_TRUE(table.IsActive(7));
  EXPECT_EQ(table.Watermark(100), 42u);
}

// The start ts is the one a read after publication confirmed: a source
// that moves while the registration publishes moves the snapshot with it.
TEST(ActiveTxnTable, RegisterAtomicRepublishesUntilTheSourceHolds) {
  ActiveTxnTable table;
  Timestamp read_ts = 10;
  const ActiveTxnTable::Slot* slot = table.RegisterAtomic(1, [&] {
    const Timestamp ts = read_ts;
    if (read_ts < 12) ++read_ts;  // Two commits publish mid-registration.
    return ts;
  });
  EXPECT_EQ(slot->start_ts(), 12u);
  EXPECT_EQ(table.Watermark(100), 12u);
}

TEST(ActiveTxnTable, AgeExpiryAdvancesWatermarkAndSetsFlag) {
  ActiveTxnTable table;
  const auto before = std::chrono::steady_clock::now();
  const ActiveTxnTable::Slot* slot = RegisterAt(table, 1, 10);
  RegisterAt(table, 2, 60);
  const auto after = std::chrono::steady_clock::now();

  // Nothing is old enough yet: expiry is a no-op.
  auto outcome = table.ExpireSnapshots(before, /*max_age_ms=*/1000,
                                       /*backlog_pressure=*/false);
  EXPECT_EQ(outcome.expired_by_age, 0u);
  EXPECT_EQ(table.Watermark(100), 10u);

  const auto later = after + std::chrono::milliseconds(30);
  outcome = table.ExpireSnapshots(later, /*max_age_ms=*/20,
                                  /*backlog_pressure=*/false);
  EXPECT_EQ(outcome.expired_by_age, 2u);
  EXPECT_TRUE(slot->expired());
  EXPECT_TRUE(table.IsExpired(1));
  EXPECT_TRUE(table.IsExpired(2));
  // Expired registrations no longer pin the watermark...
  EXPECT_EQ(table.Watermark(100), 100u);
  // ...but they still count as registered until the victim unregisters.
  EXPECT_EQ(table.ActiveCount(), 2u);
  EXPECT_EQ(table.snapshots_expired_age(), 2u);

  // Idempotent: a second sweep finds no fresh victims.
  outcome = table.ExpireSnapshots(later, 20, false);
  EXPECT_EQ(outcome.expired_by_age, 0u);
  EXPECT_EQ(table.snapshots_expired_age(), 2u);
}

TEST(ActiveTxnTable, BacklogPressureEvictsOnlyOldestCohort) {
  ActiveTxnTable table;
  const auto before = std::chrono::steady_clock::now();
  const ActiveTxnTable::Slot* pinner = RegisterAt(table, 1, 10);
  RegisterAt(table, 2, 10);  // Same cohort (same start ts).
  RegisterAt(table, 3, 60);  // Younger snapshot: must survive.
  const auto after = std::chrono::steady_clock::now();

  // Inside the grace period nothing is evicted.
  auto outcome = table.ExpireSnapshots(before, /*max_age_ms=*/0,
                                       /*backlog_pressure=*/true);
  EXPECT_EQ(outcome.expired_by_backlog, 0u);

  const auto later = after + ActiveTxnTable::kBacklogExpiryGrace +
                     std::chrono::milliseconds(5);
  outcome = table.ExpireSnapshots(later, 0, true);
  EXPECT_EQ(outcome.expired_by_backlog, 2u);
  EXPECT_TRUE(pinner->expired());
  EXPECT_TRUE(table.IsExpired(2));
  EXPECT_FALSE(table.IsExpired(3));
  EXPECT_EQ(table.Watermark(100), 60u);  // Advanced to the survivor.
  EXPECT_EQ(table.snapshots_expired_backlog(), 2u);

  // Without pressure, age disabled: the survivor is never touched.
  outcome = table.ExpireSnapshots(later, 0, false);
  EXPECT_EQ(outcome.expired_by_backlog, 0u);
  EXPECT_FALSE(table.IsExpired(3));
}

TEST(ActiveTxnTable, TracksActiveSet) {
  ActiveTxnTable table;
  ActiveTxnTable::Slot* five = RegisterAt(table, 5, 1);
  RegisterAt(table, 9, 2);
  EXPECT_EQ(table.ActiveCount(), 2u);
  EXPECT_TRUE(table.IsActive(5));
  EXPECT_TRUE(table.IsActive(9));
  EXPECT_FALSE(table.IsActive(6));
  table.Unregister(five);
  EXPECT_EQ(table.ActiveCount(), 1u);
  EXPECT_FALSE(table.IsActive(5));
}

TEST(ActiveTxnTable, RegistrationAllocatesNothing) {
  ActiveTxnTable table;
  TimestampOracle oracle;
  const size_t news_before = t_news;
  ActiveTxnTable::Slot* slot =
      table.RegisterAtomic(1, [&oracle] { return oracle.ReadTs(); });
  table.Unregister(slot);
  EXPECT_EQ(t_news, news_before);
}

// 4 threads hold 5,000 transactions open between them, far past the first
// chunk of slots, then free them oldest first, while a scanner samples the
// watermark. Each holder publishes the start ts of its oldest open
// transaction after registering it and before freeing it, so a value the
// scanner reads unchanged before and after a sample was open throughout
// that sample: the sample must not exceed it.
TEST(ActiveTxnTable, OverflowChunksKeepWatermarkBelowOpenSnapshots) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1250;
  ActiveTxnTable table;
  std::atomic<Timestamp> clock{1};
  const std::function<Timestamp()> read_ts = [&] { return clock.load(); };
  std::array<std::atomic<Timestamp>, kThreads> oldest;
  for (auto& ts : oldest) ts.store(kMaxTimestamp);
  std::atomic<int> holding{0};
  std::atomic<bool> release{false};
  std::atomic<bool> done{false};

  std::vector<std::thread> holders;
  for (int t = 0; t < kThreads; ++t) {
    holders.emplace_back([&, t] {
      std::vector<ActiveTxnTable::Slot*> open;
      for (int i = 0; i < kPerThread; ++i) {
        open.push_back(table.RegisterAtomic(
            static_cast<TxnId>(t * kPerThread + i + 1), read_ts));
        if (i == 0) oldest[t].store(open[0]->start_ts());
        clock.fetch_add(1);  // Per-holder start ts strictly increase.
      }
      holding.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
      for (size_t i = 0; i < open.size(); ++i) {
        oldest[t].store(i + 1 < open.size() ? open[i + 1]->start_ts()
                                            : kMaxTimestamp);
        table.Unregister(open[i]);
      }
    });
  }

  uint64_t samples = 0;
  uint64_t violations = 0;
  std::thread scanner([&] {
    while (!done.load()) {
      std::array<Timestamp, kThreads> open_before;
      for (int t = 0; t < kThreads; ++t) open_before[t] = oldest[t].load();
      const Timestamp fallback = clock.load();
      const Timestamp mark = table.Watermark(fallback);
      for (int t = 0; t < kThreads; ++t) {
        if (open_before[t] != kMaxTimestamp &&
            oldest[t].load() == open_before[t] && mark > open_before[t]) {
          ++violations;
        }
      }
      ++samples;
    }
  });

  while (holding.load() < kThreads) std::this_thread::yield();
  EXPECT_EQ(table.ActiveCount(), size_t{kThreads * kPerThread});
  release.store(true);
  for (auto& t : holders) t.join();
  done.store(true);
  scanner.join();

  EXPECT_EQ(violations, 0u);
  EXPECT_GT(samples, 0u);
  EXPECT_EQ(table.ActiveCount(), 0u);
  EXPECT_EQ(table.Watermark(clock.load()), clock.load());
}

}  // namespace
}  // namespace neosi
