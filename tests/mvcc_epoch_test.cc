// EpochManager: the reclamation domain behind the latch-free read path.
// Covers enter/exit bookkeeping, min-epoch advance, deferred-free ordering
// through a VersionChain, retired objects (cache entries) and nested
// guards, destructor cleanup, slot-exhaustion progress, and a torn-reader
// stress that races latch-free walks against
// prune/retire/drain cycles (the sanitizer jobs run this one hot).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "mvcc/epoch.h"
#include "mvcc/version_chain.h"

namespace neosi {
namespace {

VersionData Data(int64_t v) {
  VersionData data;
  data.props[1] = PropertyValue(v);
  return data;
}

int64_t ValueOf(const Version* v) {
  return v->data.props.at(1).AsInt();
}

TEST(EpochManager, EnterExitPublishesAndClearsTheSlot) {
  EpochManager epochs(4);
  EXPECT_EQ(epochs.slot_count(), 4u);
  EXPECT_EQ(epochs.MinActiveEpoch(), UINT64_MAX) << "no reader entered";
  {
    EpochManager::Guard guard(&epochs);
    EXPECT_EQ(epochs.MinActiveEpoch(), epochs.current_epoch());
  }
  EXPECT_EQ(epochs.MinActiveEpoch(), UINT64_MAX) << "guard exit frees the slot";
}

TEST(EpochManager, MinActiveEpochTracksTheOldestEnteredReader) {
  EpochManager epochs(4);
  const uint64_t e0 = epochs.current_epoch();
  EpochManager::Guard old_reader(&epochs);  // pinned at e0
  epochs.BumpEpoch();
  epochs.BumpEpoch();
  EXPECT_EQ(epochs.current_epoch(), e0 + 2);
  // The old reader holds the minimum down at its entry epoch.
  EXPECT_EQ(epochs.MinActiveEpoch(), e0);
  {
    EpochManager::Guard young_reader(&epochs);  // enters at e0 + 2
    EXPECT_EQ(epochs.MinActiveEpoch(), e0);
  }
  EXPECT_EQ(epochs.MinActiveEpoch(), e0);
}

/// Counts its own destruction (stands in for a retired cache entry).
struct Counted {
  explicit Counted(std::atomic<int>* destroyed) : destroyed(destroyed) {}
  ~Counted() { destroyed->fetch_add(1); }
  std::atomic<int>* const destroyed;
};

/// A chain holding versions committed at 10 and 20 (values 10 and 20).
void CommitTwo(VersionChain* chain) {
  ASSERT_TRUE(chain->InstallUncommitted(1, Data(10)).ok());
  ASSERT_TRUE(chain->CommitHead(1, 10).ok());
  ASSERT_TRUE(chain->InstallUncommitted(2, Data(20)).ok());
  auto superseded = chain->CommitHead(2, 20);
  ASSERT_TRUE(superseded.ok());
  ASSERT_TRUE(*superseded);
}

TEST(EpochManager, DrainFreesOnlyEntriesNoEnteredReaderCanReach) {
  EpochManager epochs(4);
  VersionChain chain(&epochs);
  CommitTwo(&chain);

  auto reader = std::make_unique<EpochManager::Guard>(&epochs);
  const Version* old = chain.Visible(10);  // Borrowed under `reader`.
  ASSERT_NE(old, nullptr);
  ASSERT_EQ(chain.PruneSupersededUpTo(20), 1u);  // retires into limbo
  EXPECT_EQ(epochs.limbo_size(), 1u);
  EXPECT_EQ(epochs.total_retired(), 1u);

  // The reader entered BEFORE the retirement's epoch was surpassed, so no
  // amount of bumping lets the drain free the version under it.
  epochs.BumpEpoch();
  EXPECT_EQ(epochs.Drain(), 0u);
  EXPECT_EQ(epochs.total_freed(), 0u);
  EXPECT_EQ(epochs.limbo_size(), 1u);
  EXPECT_EQ(ValueOf(old), 10) << "the borrowed version is still readable";

  // Reader exits; the next bump+drain reclaims it.
  reader.reset();
  epochs.BumpEpoch();
  EXPECT_EQ(epochs.Drain(), 1u);
  EXPECT_EQ(epochs.limbo_size(), 0u);
  EXPECT_EQ(epochs.total_freed(), 1u);
}

TEST(EpochManager, RetireesStampedAtTheCurrentEpochSurviveSameEpochDrain) {
  EpochManager epochs(2);
  VersionChain chain(&epochs);
  CommitTwo(&chain);
  {
    // A reader entered at the CURRENT epoch: a drain without a bump must
    // not free anything retired at that same epoch (stamp < min fails).
    EpochManager::Guard reader(&epochs);
    const Version* old = chain.Visible(10);
    ASSERT_EQ(chain.PruneSupersededUpTo(20), 1u);
    EXPECT_EQ(epochs.Drain(), 0u);
    EXPECT_EQ(epochs.total_freed(), 0u);
    EXPECT_EQ(ValueOf(old), 10);
  }
  // No reader at all: everything in limbo is free game.
  EXPECT_EQ(epochs.Drain(), 1u);
  EXPECT_EQ(epochs.total_freed(), 1u);
}

TEST(EpochManager, DestructorFreesOutstandingLimbo) {
  // A retired version suffix and a retired object, parked in limbo and
  // never drained. The counter sees the object freed; the leak checker of
  // the ASan build sees the versions.
  std::atomic<int> destroyed{0};
  {
    EpochManager epochs(2);
    VersionChain chain(&epochs);
    CommitTwo(&chain);
    ASSERT_EQ(chain.PruneSupersededUpTo(20), 1u);
    epochs.Retire(std::make_unique<Counted>(&destroyed));
    EXPECT_EQ(epochs.limbo_size(), 2u);
    EXPECT_EQ(destroyed.load(), 0);  // parked in limbo, never drained
  }
  EXPECT_EQ(destroyed.load(), 1) << "manager teardown must free limbo";
}

TEST(EpochManager, PruneRetiresTheSuffixAsOneEntryWithLinksIntact) {
  EpochManager epochs(4);
  VersionChain chain(&epochs);
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(chain.InstallUncommitted(i, Data(i * 10)).ok());
    auto superseded = chain.CommitHead(i, i * 10);
    ASSERT_TRUE(superseded.ok());
  }
  ASSERT_EQ(chain.Length(), 5u);

  // A reader standing at the head BEFORE the prune: after the prune severs
  // the suffix, the reader's walk down `older` still traverses retired
  // versions (interior links intact) — observable here as a snapshot read
  // at ts 20 continuing to resolve.
  EpochManager::Guard reader(&epochs);
  auto old_visible = chain.Visible(20);
  ASSERT_NE(old_visible, nullptr);
  EXPECT_EQ(ValueOf(old_visible), 20);

  EXPECT_EQ(chain.PruneSupersededUpTo(50), 4u);
  EXPECT_EQ(chain.Length(), 1u);
  // One limbo entry for the whole severed suffix.
  EXPECT_EQ(epochs.limbo_size(), 1u);
  // The retired suffix is still walkable from the borrowed version: the
  // reader's guard keeps the limbo from freeing it.
  const Version* v = old_visible;
  int64_t expected = 20;
  while (v != nullptr) {
    EXPECT_EQ(v->data.props.at(1).AsInt(), expected);
    expected -= 10;
    v = v->older.load(std::memory_order_acquire);
  }
  EXPECT_EQ(expected, 0) << "walked 20 -> 10 -> end";
}

TEST(EpochManager, RetiredObjectOutlivesEveryOlderGuard) {
  EpochManager epochs(4);
  std::atomic<int> destroyed{0};
  {
    EpochManager::Guard outer(&epochs);
    {
      // Nested on the same manager: claims no slot, and its exit does not
      // release the outer guard's pin.
      EpochManager::Guard nested(&epochs);
      epochs.Retire(std::make_unique<Counted>(&destroyed));
    }
    EXPECT_EQ(epochs.limbo_size(), 1u) << "a retired object counts as limbo";
    epochs.BumpEpoch();
    EXPECT_EQ(epochs.Drain(), 0u);
    EXPECT_EQ(destroyed.load(), 0) << "freed under a guard older than it";
  }

  // Another thread's guard, entered before the second retirement, pins
  // that object (but not the first); a guard entered later pins neither.
  std::atomic<int> phase{0};
  std::thread old_reader([&] {
    EpochManager::Guard guard(&epochs);
    phase.store(1);
    while (phase.load() != 2) std::this_thread::yield();
  });
  while (phase.load() != 1) std::this_thread::yield();
  epochs.Retire(std::make_unique<Counted>(&destroyed));
  epochs.BumpEpoch();
  {
    EpochManager::Guard young_reader(&epochs);
    EXPECT_EQ(epochs.Drain(), 1u);
    EXPECT_EQ(destroyed.load(), 1);
  }
  phase.store(2);
  old_reader.join();
  EXPECT_EQ(epochs.Drain(), 1u);
  EXPECT_EQ(destroyed.load(), 2);
  EXPECT_EQ(epochs.limbo_size(), 0u);
  EXPECT_EQ(epochs.total_freed(), epochs.total_retired());
}

TEST(EpochManager, NestedGuardsShareOneSlot) {
  EpochManager epochs(1);  // A second claimed slot would spin forever.
  EpochManager::Guard outer(&epochs);
  EpochManager::Guard nested(&epochs);
  { EpochManager::Guard deeper(&epochs); }
  EXPECT_EQ(epochs.MinActiveEpoch(), epochs.current_epoch());
}

TEST(EpochManager, SlotExhaustionStallsEntryButMakesProgress) {
  // 2 slots, 4 threads: entry must spin-wait, not fail or crash.
  EpochManager epochs(2);
  std::atomic<int> completed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        EpochManager::Guard guard(&epochs);
      }
      completed.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(completed.load(), 4);
  EXPECT_EQ(epochs.MinActiveEpoch(), UINT64_MAX);
}

// The core memory-safety property, stressed: latch-free readers walk the
// chain while a writer commits new versions, prunes superseded ones and
// drives bump+drain cycles. ASan/TSan turn any reclaim-under-reader into a
// hard failure; without sanitizers the value checks still catch torn state.
TEST(EpochManager, TornReaderStressNeverObservesReclaimedMemory) {
  EpochManager epochs;  // auto-sized
  VersionChain chain(&epochs);
  ASSERT_TRUE(chain.InstallUncommitted(1, Data(1)).ok());
  ASSERT_TRUE(chain.CommitHead(1, 1).ok());

  std::atomic<bool> stop{false};
  std::atomic<Timestamp> newest_ts{1};
  std::atomic<int> violations{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const Timestamp ts = newest_ts.load(std::memory_order_acquire);
        // The versions below are borrowed: valid while this guard is held.
        EpochManager::Guard guard(&epochs);
        const Version* v = chain.Visible(ts);
        if (v == nullptr) {
          // Legitimate: the writer may have pruned past this (stale) ts
          // between our newest_ts load and the walk. Not a safety issue —
          // engine-level reads re-check the expiry flag in that window.
          continue;
        }
        // Data is immutable post-commit: value must equal its commit ts.
        if (ValueOf(v) != static_cast<int64_t>(
                              v->commit_ts.load(std::memory_order_acquire))) {
          violations.fetch_add(1);
        }
        const Version* latest = chain.LatestCommitted();
        if (latest == nullptr || ValueOf(latest) < ValueOf(v)) {
          violations.fetch_add(1);
        }
      }
    });
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(100);
  TxnId txn = 2;
  Timestamp ts = 2;
  while (std::chrono::steady_clock::now() < deadline) {
    ASSERT_TRUE(chain.InstallUncommitted(txn, Data(ts)).ok());
    ASSERT_TRUE(chain.CommitHead(txn, ts).ok());
    newest_ts.store(ts, std::memory_order_release);
    ++txn;
    ++ts;
    if (ts % 8 == 0) {
      // Everything older than the newest committed version is prunable
      // (these readers read at newest_ts); retire + tick the epoch.
      chain.PruneSupersededUpTo(ts);
      epochs.BumpEpoch();
      epochs.Drain();
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0);

  // Quiesce: with readers gone, the backlog drains to nothing.
  chain.PruneSupersededUpTo(ts);
  epochs.BumpEpoch();
  EXPECT_GT(epochs.total_retired(), 0u);
  epochs.Drain();
  EXPECT_EQ(epochs.limbo_size(), 0u);
  EXPECT_EQ(epochs.total_freed(), epochs.total_retired());
}

}  // namespace
}  // namespace neosi
