#include "mvcc/gc_list.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <thread>

namespace neosi {

void GcList::Append(GcEntry entry) {
  std::lock_guard<std::mutex> guard(mu_);
  // Commits apply concurrently and reach the GC list slightly out of
  // timestamp order (the commit pipeline publishes in order but does not
  // serialize application). Arrivals are still nearly sorted, so walking
  // back from the tail finds the insertion point in O(1) amortized and the
  // list stays timestamp-sorted for PopReclaimable's O(#reclaimed) pop.
  auto it = entries_.end();
  while (it != entries_.begin() &&
         std::prev(it)->obsolete_since > entry.obsolete_since) {
    --it;
  }
  entries_.insert(it, std::move(entry));
  const size_t backlog = entries_.size();
  backlog_.store(backlog, std::memory_order_relaxed);
  if (backlog > backlog_high_water_.load(std::memory_order_relaxed)) {
    backlog_high_water_.store(backlog, std::memory_order_relaxed);
  }
  total_appended_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<GcEntry> GcList::PopReclaimable(Timestamp watermark,
                                            size_t max_batch) {
  std::vector<GcEntry> out;
  std::lock_guard<std::mutex> guard(mu_);
  while (!entries_.empty() &&
         entries_.front().obsolete_since <= watermark &&
         (max_batch == 0 || out.size() < max_batch)) {
    out.push_back(std::move(entries_.front()));
    entries_.pop_front();
  }
  backlog_.store(entries_.size(), std::memory_order_relaxed);
  total_reclaimed_.fetch_add(out.size(), std::memory_order_relaxed);
  return out;
}

Timestamp GcList::OldestObsoleteSince() const {
  std::lock_guard<std::mutex> guard(mu_);
  return entries_.empty() ? kMaxTimestamp : entries_.front().obsolete_since;
}

// ---------------------------------------------------------------------------
// ShardedGcList
// ---------------------------------------------------------------------------

namespace {

size_t CoreCount() {
  const size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : hw;  // 0 when unknown.
}

}  // namespace

ShardedGcList::ShardedGcList() : ShardedGcList(CoreCount()) {}

ShardedGcList::ShardedGcList(size_t shards)
    : shards_(std::clamp<size_t>(shards, 1, kMaxShards)) {}

void ShardedGcList::Append(GcEntry entry) {
  const size_t shard = ShardOf(entry.key);
  // Aggregate gauge BEFORE the entry becomes poppable: the reverse order
  // would let a racing drain's fetch_sub underflow the gauge, and a
  // transiently huge backlog() reading could spuriously trip the
  // backlog-pressure snapshot eviction. Over-reporting by one in-flight
  // entry is harmless everywhere the gauge is read.
  const size_t backlog = backlog_.fetch_add(1, std::memory_order_relaxed) + 1;
  // Monotone max via CAS: unlike the per-shard gauge (updated under the
  // shard mutex), concurrent appenders race here, and a plain
  // load-compare-store could overwrite a higher peak with a stale low one.
  uint64_t seen = backlog_high_water_.load(std::memory_order_relaxed);
  while (backlog > seen &&
         !backlog_high_water_.compare_exchange_weak(
             seen, backlog, std::memory_order_relaxed)) {
  }
  shards_[shard].Append(std::move(entry));
}

std::vector<GcEntry> ShardedGcList::PopReclaimable(Timestamp watermark,
                                                   size_t max_batch) {
  std::vector<GcEntry> out;
  for (GcList& shard : shards_) {
    if (max_batch != 0 && out.size() >= max_batch) break;
    const size_t remaining = max_batch == 0 ? 0 : max_batch - out.size();
    std::vector<GcEntry> popped = shard.PopReclaimable(watermark, remaining);
    if (popped.empty()) continue;
    backlog_.fetch_sub(popped.size(), std::memory_order_relaxed);
    out.insert(out.end(), std::make_move_iterator(popped.begin()),
               std::make_move_iterator(popped.end()));
  }
  return out;
}

Timestamp ShardedGcList::OldestObsoleteSince() const {
  Timestamp min_ts = kMaxTimestamp;
  for (const GcList& shard : shards_) {
    min_ts = std::min(min_ts, shard.OldestObsoleteSince());
  }
  return min_ts;
}

uint64_t ShardedGcList::total_appended() const {
  uint64_t total = 0;
  for (const GcList& shard : shards_) total += shard.total_appended();
  return total;
}

uint64_t ShardedGcList::total_reclaimed() const {
  uint64_t total = 0;
  for (const GcList& shard : shards_) total += shard.total_reclaimed();
  return total;
}

}  // namespace neosi
