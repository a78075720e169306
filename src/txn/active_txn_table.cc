#include "txn/active_txn_table.h"

#include <algorithm>
#include <thread>

namespace neosi {

ActiveTxnTable::ActiveTxnTable() {
  const size_t shards =
      std::clamp<size_t>(2 * std::thread::hardware_concurrency(), 16, 64);
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

void ActiveTxnTable::Register(TxnId txn, Timestamp start_ts) {
  Shard& shard = ShardFor(txn);
  std::lock_guard<std::mutex> guard(shard.mu);
  Entry& entry = shard.active[txn];
  entry.start_ts = start_ts;
  entry.registered_at = std::chrono::steady_clock::now();
  entry.expired = std::make_shared<std::atomic<bool>>(false);
  entry.pins_watermark = true;
}

SnapshotRegistration ActiveTxnTable::RegisterAtomic(
    TxnId txn, const std::function<Timestamp()>& ts_source,
    bool pins_watermark) {
  Shard& shard = ShardFor(txn);
  std::lock_guard<std::mutex> guard(shard.mu);
  Entry& entry = shard.active[txn];
  entry.start_ts = ts_source();
  entry.registered_at = std::chrono::steady_clock::now();
  entry.expired = std::make_shared<std::atomic<bool>>(false);
  entry.pins_watermark = pins_watermark;
  return {entry.start_ts, entry.expired};
}

void ActiveTxnTable::Unregister(TxnId txn) {
  Shard& shard = ShardFor(txn);
  std::lock_guard<std::mutex> guard(shard.mu);
  shard.active.erase(txn);
}

Timestamp ActiveTxnTable::Watermark(Timestamp fallback) const {
  // Safety argument (per shard): a transaction registered when its shard is
  // scanned bounds min_ts directly. One that registers AFTER its shard was
  // scanned read its start timestamp from the (monotone) oracle after the
  // caller evaluated `fallback`, so its start_ts >= fallback — which is why
  // the result is clamped to fallback as well: a mid-scan registration in an
  // already-scanned shard may hold a start timestamp below the minimum of
  // the transactions the scan did see.
  //
  // Expired registrations are skipped: the expiry flag is set under the
  // shard mutex this scan also takes, so a scan either sees the mark (and
  // advances past the victim) or ran wholly before it (and the next scan
  // advances). Reclamation that follows an advanced watermark is ordered
  // after the mark — the victim's post-read expiry check therefore cannot
  // miss it (mutex + chain-latch release/acquire chain).
  // Non-pinning (read-committed) registrations are skipped outright: they
  // only read latest-committed versions, which reclamation never touches,
  // and epoch protection covers their mid-walk memory safety.
  Timestamp min_ts = kMaxTimestamp;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> guard(shard->mu);
    for (const auto& [txn, entry] : shard->active) {
      if (!entry.pins_watermark) continue;
      if (entry.expired->load(std::memory_order_relaxed)) continue;
      min_ts = std::min(min_ts, entry.start_ts);
    }
  }
  return std::min(min_ts, fallback);
}

SnapshotExpiryOutcome ActiveTxnTable::ExpireSnapshots(uint64_t max_age_ms,
                                                      bool backlog_pressure) {
  SnapshotExpiryOutcome outcome;
  const auto now = std::chrono::steady_clock::now();

  // Pass 1 — age: any live PINNING snapshot past max_age_ms expires, full
  // stop. Non-pinning (read-committed) registrations hold nothing back and
  // are never SnapshotTooOld victims.
  if (max_age_ms > 0) {
    const auto max_age = std::chrono::milliseconds(max_age_ms);
    for (auto& shard : shards_) {
      std::lock_guard<std::mutex> guard(shard->mu);
      for (auto& [txn, entry] : shard->active) {
        if (!entry.pins_watermark) continue;
        if (entry.expired->load(std::memory_order_relaxed)) continue;
        if (now - entry.registered_at >= max_age) {
          entry.expired->store(true, std::memory_order_release);
          ++outcome.expired_by_age;
        }
      }
    }
  }

  // Pass 2 — backlog pressure: evict the oldest-start-ts cohort of
  // grace-aged snapshots (the ones actually pinning the watermark). Two
  // scans (find the minimum, then mark it); a registration racing in
  // between is younger than the grace period and cannot join the cohort,
  // so the mark scan hits exactly the pinners the find scan chose — and a
  // second sweep repairs any cohort the race split.
  if (backlog_pressure) {
    Timestamp victim_ts = kMaxTimestamp;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> guard(shard->mu);
      for (const auto& [txn, entry] : shard->active) {
        if (!entry.pins_watermark) continue;
        if (entry.expired->load(std::memory_order_relaxed)) continue;
        if (now - entry.registered_at < kBacklogExpiryGrace) continue;
        victim_ts = std::min(victim_ts, entry.start_ts);
      }
    }
    if (victim_ts != kMaxTimestamp) {
      for (auto& shard : shards_) {
        std::lock_guard<std::mutex> guard(shard->mu);
        for (auto& [txn, entry] : shard->active) {
          if (!entry.pins_watermark) continue;
          if (entry.start_ts != victim_ts) continue;
          if (entry.expired->load(std::memory_order_relaxed)) continue;
          if (now - entry.registered_at < kBacklogExpiryGrace) continue;
          entry.expired->store(true, std::memory_order_release);
          ++outcome.expired_by_backlog;
        }
      }
    }
  }

  expired_age_.fetch_add(outcome.expired_by_age, std::memory_order_relaxed);
  expired_backlog_.fetch_add(outcome.expired_by_backlog,
                             std::memory_order_relaxed);
  return outcome;
}

uint64_t ActiveTxnTable::ExpireSnapshotsBelow(Timestamp ts) {
  uint64_t marked = 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> guard(shard->mu);
    for (auto& [txn, entry] : shard->active) {
      if (!entry.pins_watermark) continue;
      if (entry.start_ts >= ts) continue;
      if (entry.expired->load(std::memory_order_relaxed)) continue;
      entry.expired->store(true, std::memory_order_release);
      ++marked;
    }
  }
  expired_replication_.fetch_add(marked, std::memory_order_relaxed);
  return marked;
}

size_t ActiveTxnTable::ActiveCount() const {
  size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> guard(shard->mu);
    n += shard->active.size();
  }
  return n;
}

std::vector<TxnId> ActiveTxnTable::ActiveTxnIds() const {
  std::vector<TxnId> out;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> guard(shard->mu);
    for (const auto& [txn, entry] : shard->active) out.push_back(txn);
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool ActiveTxnTable::IsActive(TxnId txn) const {
  const Shard& shard = ShardFor(txn);
  std::lock_guard<std::mutex> guard(shard.mu);
  return shard.active.count(txn) != 0;
}

bool ActiveTxnTable::IsExpired(TxnId txn) const {
  const Shard& shard = ShardFor(txn);
  std::lock_guard<std::mutex> guard(shard.mu);
  auto it = shard.active.find(txn);
  return it != shard.active.end() &&
         it->second.expired->load(std::memory_order_acquire);
}

}  // namespace neosi
