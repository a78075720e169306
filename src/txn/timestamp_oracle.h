// Monotonic timestamp allocation (paper §3: "the most common way to enforce
// the read rule of snapshot isolation is to associate a commit timestamp to
// versions ... a kind of serialization order") plus the ordered commit
// publisher: commits may APPLY concurrently and finish out of timestamp
// order, but they become VISIBLE in timestamp order through a watermark.

#ifndef NEOSI_TXN_TIMESTAMP_ORACLE_H_
#define NEOSI_TXN_TIMESTAMP_ORACLE_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <vector>

#include "common/types.h"

namespace neosi {

/// Hands out transaction ids, start timestamps and commit timestamps, and
/// publishes finished commits in timestamp order.
///
/// Watermark invariant: ReadTs() returns the highest timestamp `w` such that
/// EVERY commit with timestamp <= w has either fully applied (store, version
/// stamps, index stamps) or abandoned its slot. A snapshot taken at `w`
/// therefore never observes a half-applied commit, no matter how commits
/// interleave: a commit with timestamp > w may be mid-flight, but all of its
/// effects carry its (invisible) timestamp.
///
/// Contract: every timestamp obtained from NextCommitTs() MUST eventually be
/// passed to exactly one FinishCommit() call — on success after the last
/// stamping step, on failure as soon as the commit gives up. Timestamps are
/// dense, so one unreturned slot stalls the watermark forever.
class TimestampOracle {
 public:
  TimestampOracle() = default;

  /// Snapshot timestamp for a beginning transaction (the watermark).
  Timestamp ReadTs() const {
    return last_committed_.load(std::memory_order_acquire);
  }

  /// Allocates the next commit timestamp (monotonically increasing). This is
  /// the whole sequencing section of the commit pipeline: everything after
  /// it runs outside any global lock.
  Timestamp NextCommitTs() {
    return next_commit_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Marks `ts` as fully applied (or abandoned) and advances the watermark
  /// over every consecutive finished timestamp. Accepts completions in any
  /// order; out-of-order finishers park in a min-heap until the gap below
  /// them closes. A watermark advance wakes ONLY the publication waiters it
  /// satisfies (per-timestamp wait list), not every parked committer.
  void FinishCommit(Timestamp ts) {
    std::vector<std::shared_ptr<WaitSlot>> satisfied;
    {
      std::lock_guard<std::mutex> guard(mu_);
      finished_.push(ts);
      Timestamp watermark = last_committed_.load(std::memory_order_relaxed);
      while (!finished_.empty() && finished_.top() == watermark + 1) {
        watermark = finished_.top();
        finished_.pop();
      }
      last_committed_.store(watermark, std::memory_order_release);
      auto end = wait_slots_.upper_bound(watermark);
      for (auto it = wait_slots_.begin(); it != end; ++it) {
        satisfied.push_back(std::move(it->second));
      }
      wait_slots_.erase(wait_slots_.begin(), end);
    }
    for (const auto& slot : satisfied) slot->cv.notify_all();
  }

  /// Blocks until the watermark has reached `ts`. A successful commit waits
  /// here before acknowledging, so a session's next snapshot always sees its
  /// own previous commit (commit acks are emitted in publication order even
  /// though application runs in parallel). Waiters park on a per-timestamp
  /// slot: high writer counts do not thundering-herd on every advance.
  void WaitUntilPublished(Timestamp ts) {
    if (last_committed_.load(std::memory_order_acquire) >= ts) return;
    std::unique_lock<std::mutex> lock(mu_);
    while (last_committed_.load(std::memory_order_relaxed) < ts) {
      std::shared_ptr<WaitSlot>& ref = wait_slots_[ts];
      if (!ref) ref = std::make_shared<WaitSlot>();
      // Pin the slot: FinishCommit erases the map entry before notifying.
      std::shared_ptr<WaitSlot> slot = ref;
      slot->cv.wait(lock);
    }
  }

  /// Replica-side watermark advance: jumps the published watermark straight
  /// to `ts` (no-op when already there) and wakes every publication waiter
  /// it satisfies. A replica never allocates commit timestamps — its
  /// applier replays the primary's commits and publishes each replayed
  /// prefix with this — so the density contract of NextCommitTs /
  /// FinishCommit is never mixed with jumps on the same oracle.
  void AdvanceReadTs(Timestamp ts) {
    std::vector<std::shared_ptr<WaitSlot>> satisfied;
    {
      std::lock_guard<std::mutex> guard(mu_);
      if (ts <= last_committed_.load(std::memory_order_relaxed)) return;
      last_committed_.store(ts, std::memory_order_release);
      if (next_commit_.load(std::memory_order_relaxed) <= ts) {
        next_commit_.store(ts + 1, std::memory_order_relaxed);
      }
      auto end = wait_slots_.upper_bound(ts);
      for (auto it = wait_slots_.begin(); it != end; ++it) {
        satisfied.push_back(std::move(it->second));
      }
      wait_slots_.erase(wait_slots_.begin(), end);
    }
    for (const auto& slot : satisfied) slot->cv.notify_all();
  }

  /// Distinct timestamps with parked publication waiters (test hook).
  size_t WaitingSlotCount() const {
    std::lock_guard<std::mutex> guard(mu_);
    return wait_slots_.size();
  }

  /// Commits finished but not yet publishable (a lower timestamp is still
  /// mid-flight). Diagnostic / test hook.
  size_t PendingPublishCount() const {
    std::lock_guard<std::mutex> guard(mu_);
    return finished_.size();
  }

  /// Fresh transaction id (distinct space from timestamps; ids order
  /// transactions by age for wait-die).
  TxnId NextTxnId() { return next_txn_.fetch_add(1, std::memory_order_relaxed); }

  /// Restores state after recovery: timestamps resume above max_committed
  /// and no commits are in flight. Every parked waiter is woken to re-check
  /// against the restarted watermark.
  void Restart(Timestamp max_committed) {
    std::vector<std::shared_ptr<WaitSlot>> parked;
    {
      std::lock_guard<std::mutex> guard(mu_);
      last_committed_.store(max_committed, std::memory_order_release);
      next_commit_.store(max_committed + 1, std::memory_order_relaxed);
      finished_ = MinHeap();
      for (auto& [ts, slot] : wait_slots_) parked.push_back(std::move(slot));
      wait_slots_.clear();
    }
    for (const auto& slot : parked) slot->cv.notify_all();
  }

  /// Newest commit timestamp handed out (>= ReadTs()).
  Timestamp LastAllocatedCommitTs() const {
    return next_commit_.load(std::memory_order_relaxed) - 1;
  }

 private:
  using MinHeap = std::priority_queue<Timestamp, std::vector<Timestamp>,
                                      std::greater<Timestamp>>;

  /// One parked publication wait (normally a single committer per
  /// timestamp; shared_ptr keeps the condvar alive across the map erase in
  /// FinishCommit).
  struct WaitSlot {
    std::condition_variable cv;
  };

  // One line each: every Begin reads the watermark, and neither the commit
  // sequencer's nor the id allocator's fetch_add may invalidate it.
  alignas(64) std::atomic<Timestamp> last_committed_{0};
  alignas(64) std::atomic<Timestamp> next_commit_{1};
  alignas(64) std::atomic<TxnId> next_txn_{1};

  alignas(64) mutable std::mutex mu_;  // guards finished_, wait_slots_ and the watermark
  MinHeap finished_;
  std::map<Timestamp, std::shared_ptr<WaitSlot>> wait_slots_;
};

}  // namespace neosi

#endif  // NEOSI_TXN_TIMESTAMP_ORACLE_H_
