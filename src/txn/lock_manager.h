// Entity lock manager.
//
// Stock Neo4j (the paper's baseline) implements read committed with SHORT
// shared read locks and LONG exclusive write locks. The paper's SI removes
// the read locks entirely and repurposes the long write locks to detect
// write-write conflicts (§4). This lock manager serves both modes:
//
//   * read committed   : AcquireShared around each read (released right
//                        after), AcquireExclusive held to commit.
//   * snapshot isolation: AcquireExclusive only, with wait or no-wait
//                        behaviour per the configured ConflictPolicy.
//
// Deadlocks among waiters are prevented with wait-die (older transactions
// wait, younger ones abort with Status::Deadlock), plus a timeout backstop.
//
// The caller owns a 64-bit mask of the shards its transaction touched: every
// acquisition sets its shard's bit (before the attempt, so a transaction that
// dies midway still releases what it took), and ReleaseAll visits only the
// set bits. A transaction that took no lock — every SI reader — never touches
// the manager at commit or abort.

#ifndef NEOSI_TXN_LOCK_MANAGER_H_
#define NEOSI_TXN_LOCK_MANAGER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace neosi {

/// Counters exposed for tests and experiment E4.
struct LockManagerStats {
  uint64_t shared_acquired = 0;
  uint64_t exclusive_acquired = 0;
  uint64_t waits = 0;            ///< Acquisitions that had to block.
  uint64_t nowait_conflicts = 0; ///< Immediate aborts (first-updater no-wait).
  uint64_t wait_die_aborts = 0;  ///< Younger waiter killed by wait-die.
  uint64_t timeouts = 0;         ///< Timeout backstop fired.
  /// LIVE gauge: acquisitions blocked right now (tests synchronize on it to
  /// act while a transaction provably waits for a lock).
  uint64_t waiting = 0;
};

/// Sharded table of per-entity reader/writer locks.
class LockManager {
 public:
  explicit LockManager(uint64_t timeout_ms = 10000);

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Shared (read) lock; blocks while another transaction holds the
  /// exclusive lock. Reentrant. Wait-die applies while blocked. Sets the
  /// key's shard bit in `*shards` (txn's mask) before the attempt.
  Status AcquireShared(TxnId txn, const EntityKey& key, uint64_t* shards);

  /// Exclusive (write) lock. Reentrant; upgrades a sole shared holding.
  /// With wait=false, returns Status::Aborted immediately when any other
  /// transaction holds the lock (first-updater-wins no-wait). With
  /// wait=true, blocks under wait-die until available. Sets the key's
  /// shard bit in `*shards` (txn's mask) before the attempt.
  Status AcquireExclusive(TxnId txn, const EntityKey& key, bool wait,
                          uint64_t* shards);

  /// Releases one lock held by txn on key (short read locks). The shard's
  /// bit stays set in txn's mask; ReleaseAll skips a shard it finds empty.
  void Release(TxnId txn, const EntityKey& key);

  /// Releases everything txn holds (commit/abort), visiting only the shards
  /// whose bits are set in `shards`. An empty mask returns at once.
  void ReleaseAll(TxnId txn, uint64_t shards);

  /// The transaction currently holding key exclusively (kNoTxn if none).
  TxnId ExclusiveHolder(const EntityKey& key) const;

  LockManagerStats Stats() const;

 private:
  struct LockState {
    TxnId exclusive = kNoTxn;
    uint32_t exclusive_count = 0;  // Reentrancy depth.
    std::unordered_map<TxnId, uint32_t> shared;  // Holder -> depth.

    bool Free() const { return exclusive == kNoTxn && shared.empty(); }
    bool OnlySharedHolderIs(TxnId txn) const {
      return exclusive == kNoTxn && shared.size() == 1 &&
             shared.begin()->first == txn;
    }
  };

  // Counters are bumped under `mu` but read by Stats() without it.
  struct Shard {
    std::mutex mu;
    std::condition_variable cv;
    std::unordered_map<EntityKey, LockState> locks;
    // Keys held per transaction, for ReleaseAll.
    std::unordered_map<TxnId, std::unordered_map<EntityKey, uint32_t>> held;
    std::atomic<uint64_t> shared_acquired{0};
    std::atomic<uint64_t> exclusive_acquired{0};
    std::atomic<uint64_t> waits{0};
    std::atomic<uint64_t> nowait_conflicts{0};
    std::atomic<uint64_t> wait_die_aborts{0};
    std::atomic<uint64_t> timeouts{0};
    std::atomic<uint64_t> waiting{0};
  };

  /// Blocks on the shard's condition variable, counted in `waiting`.
  static std::cv_status Wait(Shard& shard, std::unique_lock<std::mutex>& lock,
                             std::chrono::steady_clock::time_point deadline);

  static constexpr size_t kShardCount = 64;
  static_assert(kShardCount == 64, "one shard per bit of a uint64_t mask");

  static size_t ShardIndex(const EntityKey& key) {
    return std::hash<EntityKey>{}(key) % kShardCount;
  }
  Shard& ShardFor(const EntityKey& key) const {
    return shards_[ShardIndex(key)];
  }
  /// The key's shard, after setting its bit in `*shards`.
  Shard& MarkShard(const EntityKey& key, uint64_t* shards) const {
    const size_t i = ShardIndex(key);
    *shards |= uint64_t{1} << i;
    return shards_[i];
  }

  /// True when `txn` must die instead of waiting (some conflicting holder is
  /// older, i.e. has a smaller txn id).
  static bool MustDie(TxnId txn, const LockState& state);

  mutable std::vector<Shard> shards_;
  const uint64_t timeout_ms_;
};

}  // namespace neosi

#endif  // NEOSI_TXN_LOCK_MANAGER_H_
