// Background checkpoint thread, the durability twin of GcDaemon: both run
// on the same PacedLoop and hold only their own pass.
//
// Pacing: the daemon wakes on a fixed interval and runs one FUZZY
// incremental checkpoint (GraphStore::Checkpoint — stable LSN, dirty-store
// sync, marker, segment-granular prefix truncation; commits never block)
// whenever the live WAL has outgrown the configured byte threshold OR the
// segment chain has rolled past a reclaimable segment. Commit publication
// nudges it early when either trips — a lock-free gauge read plus a rare
// notify, mirroring GcDaemon's backlog nudge — so a write burst is
// checkpointed promptly instead of waiting out the interval, and a
// long-running workload's on-disk log footprint stays bounded by the live
// bytes plus ~two segments.

#ifndef NEOSI_GRAPH_CHECKPOINT_DAEMON_H_
#define NEOSI_GRAPH_CHECKPOINT_DAEMON_H_

#include <atomic>
#include <cstdint>

#include "graph/paced_loop.h"
#include "storage/graph_store.h"

namespace neosi {

/// WAL-growth-paced asynchronous checkpoint thread over a GraphStore.
class CheckpointDaemon {
 public:
  /// A pass checkpoints when the live WAL is at least `wal_threshold_bytes`
  /// (0 = checkpoint on every interval pass).
  CheckpointDaemon(GraphStore* store, uint64_t interval_ms,
                   uint64_t wal_threshold_bytes);

  CheckpointDaemon(const CheckpointDaemon&) = delete;
  CheckpointDaemon& operator=(const CheckpointDaemon&) = delete;

  /// Starts the thread (idempotent).
  void Start() { loop_.Start(); }

  /// Stops and joins the thread (idempotent, safe from concurrent callers;
  /// also done by the destructor). An in-flight checkpoint completes, then
  /// the thread exits.
  void Stop() { loop_.Stop(); }

  /// Wakes the daemon for an immediate pass, regardless of the threshold.
  void Nudge() { loop_.Nudge(); }

  /// Commit-publication hook: nudges iff the live WAL has reached the
  /// threshold, by bytes OR by segments (a rolled-past segment is whole-
  /// file reclaimable once the stable LSN passes it — worth a pass even
  /// below the byte threshold). The common case is a few relaxed atomic
  /// loads; an already armed nudge is never re-notified.
  void NudgeIfWalExceedsThreshold() {
    if (wal_threshold_bytes_ == 0) return;
    if (!WalNeedsCheckpoint()) return;
    loop_.NudgeArmed();
  }

  bool running() const { return loop_.running(); }

  /// Totals across all passes so far.
  uint64_t passes() const { return loop_.passes(); }
  uint64_t nudge_passes() const { return loop_.nudge_passes(); }
  uint64_t interval_passes() const { return loop_.interval_passes(); }
  /// Wakeups that found the live WAL below the threshold and skipped.
  uint64_t idle_skips() const { return loop_.idle_skips(); }
  /// Passes whose checkpoint returned an error (kept counting; the next
  /// pass retries).
  uint64_t failed_passes() const {
    return failed_passes_.load(std::memory_order_relaxed);
  }

  uint64_t wal_threshold_bytes() const { return wal_threshold_bytes_; }

 private:
  PacedLoop::Outcome Pass(bool nudged);

  /// The pass gate shared by the interval wakeup and the commit nudge: live
  /// WAL bytes past the threshold, or more than one chained segment (so a
  /// checkpoint can turn a cold segment into an unlink).
  bool WalNeedsCheckpoint() const;

  GraphStore* const store_;
  const uint64_t interval_ms_;
  const uint64_t wal_threshold_bytes_;

  std::atomic<uint64_t> failed_passes_{0};

  /// Declared last: destroyed (stopped and joined) first, while the state
  /// its pass touches is still alive.
  PacedLoop loop_;
};

}  // namespace neosi

#endif  // NEOSI_GRAPH_CHECKPOINT_DAEMON_H_
