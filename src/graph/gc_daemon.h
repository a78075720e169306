// Background garbage collection. The paper's GC is cheap enough
// (O(garbage) per pass, E8) to run continuously without stalling
// processing — the property that PostgreSQL's vacuum lacks (§4).
//
// One worker thread (a PacedLoop) runs the global pass,
// GcEngine::CollectUpTo, the same pass RunGc() runs: it pops every GC-list
// shard's reclaimable prefix in one batch. The daemon is the only automatic
// reclamation path — no GC work runs on the commit path. The worker wakes
// on a fixed interval, and commit publication nudges it early whenever the
// aggregate GcList backlog crosses the configured threshold — a lock-free
// gauge read plus a rare notify. Every pass drains strictly up to the
// publication/active-transaction watermark, so a version some live
// snapshot can still read is never reclaimed.
//
// Snapshot lifecycle: every wakeup first runs the snapshot expiry sweep
// (ActiveTxnTable::ExpireSnapshots) — age-based (snapshot_max_age_ms) plus
// backlog-pressure eviction of the watermark-pinning cohort
// (snapshot_expire_backlog). Idle skips still run cache eviction and the
// epoch bump+drain tick that frees limbo versions retired by the
// latch-free read path, so abort-path retirees are freed even when nothing
// is reclaimable.

#ifndef NEOSI_GRAPH_GC_DAEMON_H_
#define NEOSI_GRAPH_GC_DAEMON_H_

#include <atomic>
#include <cstdint>

#include "graph/garbage_collector.h"
#include "graph/paced_loop.h"
#include "mvcc/gc_list.h"
#include "txn/active_txn_table.h"
#include "txn/timestamp_oracle.h"

namespace neosi {

/// Watermark-paced asynchronous reclamation worker over a GcEngine.
class GcDaemon {
 public:
  /// `oracle` + `active_txns` supply the reclamation watermark (the table
  /// is mutable: the expiry sweep marks snapshots expired on it);
  /// `gc_list` is the backlog. `backlog_threshold` == 0 disables nudging
  /// (interval pacing only). `snapshot_max_age_ms` /
  /// `snapshot_expire_backlog` == 0 disable the respective expiry triggers.
  GcDaemon(GcEngine* gc, const TimestampOracle* oracle,
           ActiveTxnTable* active_txns, ShardedGcList* gc_list,
           uint64_t interval_ms, uint64_t backlog_threshold,
           uint64_t snapshot_max_age_ms, uint64_t snapshot_expire_backlog);

  GcDaemon(const GcDaemon&) = delete;
  GcDaemon& operator=(const GcDaemon&) = delete;

  /// Starts the worker thread (idempotent).
  void Start() { loop_.Start(); }

  /// Stops and joins the worker (idempotent; also done by the destructor).
  /// Safe to call during an in-flight pass: the pass completes, then the
  /// thread exits.
  void Stop() { loop_.Stop(); }

  /// Wakes the worker for an immediate pass, without waiting for the
  /// interval.
  void Nudge() { loop_.Nudge(); }

  /// Commit-publication hook: nudges iff the aggregate GcList backlog has
  /// reached the threshold. The common case is one relaxed atomic load; an
  /// already armed nudge is never re-notified.
  void NudgeIfBacklogged() {
    if (backlog_threshold_ == 0) return;
    if (gc_list_->backlog() < backlog_threshold_) return;
    loop_.NudgeArmed();
  }

  bool running() const { return loop_.running(); }

  /// Totals across all passes so far. A "pass" is one global drain of
  /// every shard.
  uint64_t passes() const { return loop_.passes(); }
  uint64_t nudge_passes() const { return loop_.nudge_passes(); }
  uint64_t interval_passes() const { return loop_.interval_passes(); }
  /// Wakeups that found nothing reclaimable below the watermark and
  /// skipped the pass entirely.
  uint64_t idle_skips() const { return loop_.idle_skips(); }
  uint64_t versions_pruned() const {
    return versions_pruned_.load(std::memory_order_relaxed);
  }
  uint64_t tombstones_purged() const {
    return tombstones_purged_.load(std::memory_order_relaxed);
  }
  /// Node purges deferred to a later pass (see GcStats).
  uint64_t purges_deferred() const {
    return purges_deferred_.load(std::memory_order_relaxed);
  }

  uint64_t backlog_threshold() const { return backlog_threshold_; }

 private:
  PacedLoop::Outcome Pass();

  /// Expiry sweep: age expiry plus backlog-pressure eviction when the
  /// backlog is over threshold AND pinned (its head is not reclaimable
  /// below the current watermark).
  void MaybeExpireSnapshots();

  GcEngine* const gc_;
  const TimestampOracle* const oracle_;
  ActiveTxnTable* const active_txns_;
  ShardedGcList* const gc_list_;
  const uint64_t interval_ms_;
  const uint64_t backlog_threshold_;
  const uint64_t snapshot_max_age_ms_;
  const uint64_t snapshot_expire_backlog_;

  std::atomic<uint64_t> versions_pruned_{0};
  std::atomic<uint64_t> tombstones_purged_{0};
  std::atomic<uint64_t> purges_deferred_{0};

  /// Declared last: destroyed (stopped and joined) first, while the state
  /// its pass touches is still alive.
  PacedLoop loop_;
};

}  // namespace neosi

#endif  // NEOSI_GRAPH_GC_DAEMON_H_
