// LockManager: shared/exclusive semantics, reentrancy, upgrade, wait-die,
// no-wait conflicts, and release by the caller's shard mask.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <bit>
#include <thread>
#include <utility>

#include "txn/lock_manager.h"

namespace neosi {
namespace {

const EntityKey kA = EntityKey::Node(1);
const EntityKey kB = EntityKey::Node(2);

/// A LockManager plus each test transaction's shard mask, indexed by txn id
/// (a mask is touched only by its own transaction's thread). ReleaseAll
/// hands the mask over and clears it, as a transaction's commit does.
struct Locks {
  explicit Locks(uint64_t timeout_ms = 10000) : lm(nullptr, timeout_ms) {}

  Status AcquireShared(TxnId txn, const EntityKey& key) {
    return lm.AcquireShared(txn, key, &masks.at(txn));
  }
  Status AcquireExclusive(TxnId txn, const EntityKey& key, bool wait) {
    return lm.AcquireExclusive(txn, key, wait, &masks.at(txn));
  }
  void Release(TxnId txn, const EntityKey& key) { lm.Release(txn, key); }
  void ReleaseAll(TxnId txn) {
    lm.ReleaseAll(txn, std::exchange(masks.at(txn), 0));
  }
  TxnId ExclusiveHolder(const EntityKey& key) const {
    return lm.ExclusiveHolder(key);
  }
  LockManagerStats Stats() const { return lm.Stats(); }

  LockManager lm;
  std::array<uint64_t, 16> masks{};
};

/// The first node key after `key` whose lock lives in another shard.
EntityKey KeyInOtherShard(const EntityKey& key) {
  const std::hash<EntityKey> hash;
  for (uint64_t id = key.id + 1;; ++id) {
    const EntityKey other = EntityKey::Node(id);
    if (hash(other) % 64 != hash(key) % 64) return other;
  }
}

TEST(LockManager, SharedLocksCoexist) {
  Locks lm;
  EXPECT_TRUE(lm.AcquireShared(1, kA).ok());
  EXPECT_TRUE(lm.AcquireShared(2, kA).ok());
  EXPECT_TRUE(lm.AcquireShared(3, kA).ok());
  lm.ReleaseAll(1);
  lm.ReleaseAll(2);
  lm.ReleaseAll(3);
}

TEST(LockManager, ExclusiveExcludesEverything) {
  Locks lm;
  ASSERT_TRUE(lm.AcquireExclusive(1, kA, /*wait=*/false).ok());
  EXPECT_TRUE(lm.AcquireExclusive(2, kA, /*wait=*/false).IsAborted());
  EXPECT_EQ(lm.ExclusiveHolder(kA), 1u);
  lm.ReleaseAll(1);
  EXPECT_TRUE(lm.AcquireExclusive(2, kA, /*wait=*/false).ok());
  lm.ReleaseAll(2);
}

TEST(LockManager, ExclusiveIsReentrant) {
  Locks lm;
  ASSERT_TRUE(lm.AcquireExclusive(1, kA, false).ok());
  ASSERT_TRUE(lm.AcquireExclusive(1, kA, false).ok());
  lm.Release(1, kA);
  // Still held once.
  EXPECT_EQ(lm.ExclusiveHolder(kA), 1u);
  lm.Release(1, kA);
  EXPECT_EQ(lm.ExclusiveHolder(kA), kNoTxn);
}

TEST(LockManager, SharedThenExclusiveUpgradeWhenSoleHolder) {
  Locks lm;
  ASSERT_TRUE(lm.AcquireShared(1, kA).ok());
  EXPECT_TRUE(lm.AcquireExclusive(1, kA, false).ok());
  EXPECT_EQ(lm.ExclusiveHolder(kA), 1u);
  lm.ReleaseAll(1);
}

TEST(LockManager, SharedBlocksExclusiveNoWait) {
  Locks lm;
  ASSERT_TRUE(lm.AcquireShared(1, kA).ok());
  EXPECT_TRUE(lm.AcquireExclusive(2, kA, false).IsAborted());
  lm.ReleaseAll(1);
}

TEST(LockManager, ShortReadLockReleaseUnblocksWriter) {
  Locks lm;
  ASSERT_TRUE(lm.AcquireShared(2, kA).ok());
  std::atomic<bool> acquired{false};
  // Txn 1 is OLDER than holder 2 -> wait-die lets it wait.
  std::thread writer([&] {
    EXPECT_TRUE(lm.AcquireExclusive(1, kA, true).ok());
    acquired.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired.load());
  lm.Release(2, kA);  // Short read lock released.
  writer.join();
  EXPECT_TRUE(acquired.load());
  lm.ReleaseAll(1);
}

TEST(LockManager, WaitDieYoungerRequesterDies) {
  Locks lm;
  // Txn 1 (older) holds; txn 2 (younger) must die instead of waiting.
  ASSERT_TRUE(lm.AcquireExclusive(1, kA, true).ok());
  EXPECT_TRUE(lm.AcquireExclusive(2, kA, true).IsDeadlock());
  // Shared acquisition by a younger txn also dies.
  EXPECT_TRUE(lm.AcquireShared(3, kA).IsDeadlock());
  lm.ReleaseAll(1);
}

TEST(LockManager, WaitDieOlderRequesterWaits) {
  Locks lm;
  ASSERT_TRUE(lm.AcquireExclusive(5, kA, true).ok());
  std::atomic<bool> acquired{false};
  std::thread older([&] {
    EXPECT_TRUE(lm.AcquireExclusive(3, kA, true).ok());
    acquired.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired.load());
  lm.ReleaseAll(5);
  older.join();
  EXPECT_TRUE(acquired.load());
  lm.ReleaseAll(3);
}

TEST(LockManager, OppositeOrderDeadlockResolvedByWaitDie) {
  Locks lm;
  ASSERT_TRUE(lm.AcquireExclusive(1, kA, true).ok());
  ASSERT_TRUE(lm.AcquireExclusive(2, kB, true).ok());
  // Txn 2 (younger) requests A held by older txn 1: dies immediately.
  EXPECT_TRUE(lm.AcquireExclusive(2, kA, true).IsDeadlock());
  lm.ReleaseAll(2);
  // Txn 1 now gets B.
  EXPECT_TRUE(lm.AcquireExclusive(1, kB, true).ok());
  lm.ReleaseAll(1);
}

TEST(LockManager, TimeoutBackstopFires) {
  Locks lm(/*timeout_ms=*/50);
  ASSERT_TRUE(lm.AcquireExclusive(7, kA, true).ok());
  // Older txn 3 waits... and times out because 7 never releases.
  const auto t0 = std::chrono::steady_clock::now();
  Status s = lm.AcquireExclusive(3, kA, true);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_TRUE(s.IsDeadlock());
  EXPECT_GE(elapsed, 45);
  lm.ReleaseAll(7);
}

TEST(LockManager, ReleaseAllDropsEverything) {
  Locks lm;
  ASSERT_TRUE(lm.AcquireShared(1, kA).ok());
  ASSERT_TRUE(lm.AcquireExclusive(1, kB, false).ok());
  lm.ReleaseAll(1);
  EXPECT_TRUE(lm.AcquireExclusive(2, kA, false).ok());
  EXPECT_TRUE(lm.AcquireExclusive(2, kB, false).ok());
  lm.ReleaseAll(2);
}

TEST(LockManager, StatsCountConflicts) {
  Locks lm;
  ASSERT_TRUE(lm.AcquireExclusive(1, kA, false).ok());
  (void)lm.AcquireExclusive(2, kA, false);  // no-wait conflict
  (void)lm.AcquireExclusive(2, kA, true);   // wait-die abort
  LockManagerStats stats = lm.Stats();
  EXPECT_EQ(stats.exclusive_acquired, 1u);
  EXPECT_EQ(stats.nowait_conflicts, 1u);
  EXPECT_EQ(stats.wait_die_aborts, 1u);
  lm.ReleaseAll(1);
}

TEST(LockManager, ReleaseAllFreesLocksInEveryMarkedShard) {
  Locks lm;
  const EntityKey other = KeyInOtherShard(kA);
  ASSERT_TRUE(lm.AcquireExclusive(1, kA, false).ok());
  ASSERT_TRUE(lm.AcquireShared(1, other).ok());
  EXPECT_EQ(std::popcount(lm.masks[1]), 2);
  lm.ReleaseAll(1);
  EXPECT_EQ(lm.ExclusiveHolder(kA), kNoTxn);
  EXPECT_TRUE(lm.AcquireExclusive(2, kA, false).ok());
  EXPECT_TRUE(lm.AcquireExclusive(2, other, false).ok());
  lm.ReleaseAll(2);
}

TEST(LockManager, EmptyMaskReleasesNothing) {
  Locks lm;
  ASSERT_TRUE(lm.AcquireExclusive(1, kA, false).ok());
  lm.ReleaseAll(2);  // Txn 2 locked nothing: its mask is empty.
  EXPECT_EQ(lm.ExclusiveHolder(kA), 1u);
  // Even a full mask releases only the named transaction's locks.
  lm.lm.ReleaseAll(2, ~uint64_t{0});
  EXPECT_EQ(lm.ExclusiveHolder(kA), 1u);
  EXPECT_TRUE(lm.AcquireExclusive(3, kA, false).IsAborted());
  lm.ReleaseAll(1);
}

TEST(LockManager, FailedNoWaitAttemptThenAbortLeavesKeyLockable) {
  Locks lm;
  ASSERT_TRUE(lm.AcquireExclusive(1, kA, false).ok());
  EXPECT_TRUE(lm.AcquireExclusive(2, kA, false).IsAborted());
  // The shard bit is set before the attempt, so the loser's abort visits
  // the shard — and must not free the winner's lock.
  EXPECT_NE(lm.masks[2], 0u);
  lm.ReleaseAll(2);
  EXPECT_EQ(lm.ExclusiveHolder(kA), 1u);
  lm.ReleaseAll(1);
  EXPECT_TRUE(lm.AcquireExclusive(3, kA, false).ok());
  lm.ReleaseAll(3);
}

TEST(LockManager, ManyThreadsMutualExclusion) {
  LockManager lm;
  std::atomic<int> inside{0};
  std::atomic<int> max_inside{0};
  std::atomic<uint64_t> acquisitions{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 2000; ++i) {
        const TxnId txn = static_cast<TxnId>(t * 100000 + i + 1);
        uint64_t mask = 0;
        if (lm.AcquireExclusive(txn, kA, false, &mask).ok()) {
          const int now = inside.fetch_add(1) + 1;
          int prev_max = max_inside.load();
          while (now > prev_max &&
                 !max_inside.compare_exchange_weak(prev_max, now)) {
          }
          acquisitions.fetch_add(1);
          inside.fetch_sub(1);
        }
        lm.ReleaseAll(txn, mask);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(max_inside.load(), 1) << "two txns inside an exclusive section";
  EXPECT_GT(acquisitions.load(), 0u);
}

}  // namespace
}  // namespace neosi
