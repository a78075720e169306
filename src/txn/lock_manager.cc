#include "txn/lock_manager.h"

#include <bit>
#include <chrono>

namespace neosi {

LockManager::LockManager(uint64_t timeout_ms)
    : shards_(kShardCount), timeout_ms_(timeout_ms) {}

bool LockManager::MustDie(TxnId txn, const LockState& state) {
  // Wait-die: a requester may only wait for YOUNGER holders (larger ids).
  // If any conflicting holder is older, the requester dies.
  if (state.exclusive != kNoTxn && state.exclusive < txn) return true;
  for (const auto& [holder, depth] : state.shared) {
    if (holder != txn && holder < txn) return true;
  }
  return false;
}

Status LockManager::AcquireShared(TxnId txn, const EntityKey& key,
                                  uint64_t* shards) {
  Shard& shard = MarkShard(key, shards);
  std::unique_lock<std::mutex> lock(shard.mu);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms_);
  bool waited = false;
  for (;;) {
    LockState& state = shard.locks[key];
    if (state.exclusive == kNoTxn || state.exclusive == txn) {
      ++state.shared[txn];
      ++shard.held[txn][key];
      shard.shared_acquired.fetch_add(1, std::memory_order_relaxed);
      if (waited) shard.waits.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }
    if (state.exclusive < txn) {
      shard.wait_die_aborts.fetch_add(1, std::memory_order_relaxed);
      return Status::Deadlock("wait-die: shared lock on " + key.ToString() +
                              " held by older txn " +
                              std::to_string(state.exclusive));
    }
    waited = true;
    if (Wait(shard, lock, deadline) == std::cv_status::timeout) {
      shard.timeouts.fetch_add(1, std::memory_order_relaxed);
      return Status::Deadlock("lock timeout (shared) on " + key.ToString());
    }
  }
}

std::cv_status LockManager::Wait(
    Shard& shard, std::unique_lock<std::mutex>& lock,
    std::chrono::steady_clock::time_point deadline) {
  shard.waiting.fetch_add(1, std::memory_order_relaxed);
  const std::cv_status woke = shard.cv.wait_until(lock, deadline);
  shard.waiting.fetch_sub(1, std::memory_order_relaxed);
  return woke;
}

Status LockManager::AcquireExclusive(TxnId txn, const EntityKey& key,
                                     bool wait, uint64_t* shards) {
  Shard& shard = MarkShard(key, shards);
  std::unique_lock<std::mutex> lock(shard.mu);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms_);
  bool waited = false;
  for (;;) {
    LockState& state = shard.locks[key];
    const bool reentrant = state.exclusive == txn;
    const bool free_for_txn =
        state.Free() || reentrant || state.OnlySharedHolderIs(txn);
    if (free_for_txn) {
      if (!reentrant && state.OnlySharedHolderIs(txn)) {
        // Upgrade: drop the shared holding, keep bookkeeping depth.
        state.shared.clear();
      }
      state.exclusive = txn;
      ++state.exclusive_count;
      ++shard.held[txn][key];
      shard.exclusive_acquired.fetch_add(1, std::memory_order_relaxed);
      if (waited) shard.waits.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }

    if (!wait) {
      shard.nowait_conflicts.fetch_add(1, std::memory_order_relaxed);
      return Status::Aborted("write-write conflict on " + key.ToString() +
                             " (first-updater-wins, no-wait)");
    }
    if (MustDie(txn, state)) {
      shard.wait_die_aborts.fetch_add(1, std::memory_order_relaxed);
      return Status::Deadlock("wait-die: exclusive lock on " +
                              key.ToString() + " held by older txn");
    }
    waited = true;
    if (Wait(shard, lock, deadline) == std::cv_status::timeout) {
      shard.timeouts.fetch_add(1, std::memory_order_relaxed);
      return Status::Deadlock("lock timeout (exclusive) on " +
                              key.ToString());
    }
  }
}

void LockManager::Release(TxnId txn, const EntityKey& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.locks.find(key);
  if (it == shard.locks.end()) return;
  LockState& state = it->second;

  if (state.exclusive == txn) {
    if (--state.exclusive_count == 0) state.exclusive = kNoTxn;
  } else {
    auto sh = state.shared.find(txn);
    if (sh != state.shared.end() && --sh->second == 0) {
      state.shared.erase(sh);
    }
  }

  auto held_it = shard.held.find(txn);
  if (held_it != shard.held.end()) {
    auto key_it = held_it->second.find(key);
    if (key_it != held_it->second.end() && --key_it->second == 0) {
      held_it->second.erase(key_it);
      if (held_it->second.empty()) shard.held.erase(held_it);
    }
  }

  if (state.Free()) shard.locks.erase(it);
  shard.cv.notify_all();
}

void LockManager::ReleaseAll(TxnId txn, uint64_t shards) {
  for (; shards != 0; shards &= shards - 1) {
    Shard& shard = shards_[std::countr_zero(shards)];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto held_it = shard.held.find(txn);
    if (held_it == shard.held.end()) continue;
    for (const auto& [key, depth] : held_it->second) {
      auto it = shard.locks.find(key);
      if (it == shard.locks.end()) continue;
      LockState& state = it->second;
      if (state.exclusive == txn) {
        state.exclusive = kNoTxn;
        state.exclusive_count = 0;
      }
      state.shared.erase(txn);
      if (state.Free()) shard.locks.erase(it);
    }
    shard.held.erase(held_it);
    shard.cv.notify_all();
  }
}

TxnId LockManager::ExclusiveHolder(const EntityKey& key) const {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.locks.find(key);
  return it == shard.locks.end() ? kNoTxn : it->second.exclusive;
}

LockManagerStats LockManager::Stats() const {
  LockManagerStats out;
  for (const Shard& shard : shards_) {
    out.shared_acquired +=
        shard.shared_acquired.load(std::memory_order_relaxed);
    out.exclusive_acquired +=
        shard.exclusive_acquired.load(std::memory_order_relaxed);
    out.waits += shard.waits.load(std::memory_order_relaxed);
    out.nowait_conflicts +=
        shard.nowait_conflicts.load(std::memory_order_relaxed);
    out.wait_die_aborts +=
        shard.wait_die_aborts.load(std::memory_order_relaxed);
    out.timeouts += shard.timeouts.load(std::memory_order_relaxed);
    out.waiting += shard.waiting.load(std::memory_order_relaxed);
  }
  return out;
}

}  // namespace neosi
