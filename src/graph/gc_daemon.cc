#include "graph/gc_daemon.h"

#include <algorithm>

namespace neosi {

GcDaemon::GcDaemon(GcEngine* gc, const TimestampOracle* oracle,
                   ActiveTxnTable* active_txns, ShardedGcList* gc_list,
                   uint64_t interval_ms, uint64_t backlog_threshold,
                   uint64_t snapshot_max_age_ms,
                   uint64_t snapshot_expire_backlog)
    : gc_(gc),
      oracle_(oracle),
      active_txns_(active_txns),
      gc_list_(gc_list),
      interval_ms_(interval_ms == 0 ? 10 : interval_ms),
      backlog_threshold_(backlog_threshold),
      snapshot_max_age_ms_(snapshot_max_age_ms),
      snapshot_expire_backlog_(snapshot_expire_backlog),
      loop_(interval_ms_, [this](bool) { return Pass(); }) {}

void GcDaemon::MaybeExpireSnapshots() {
  if (snapshot_max_age_ms_ == 0 && snapshot_expire_backlog_ == 0) return;
  // Backlog pressure requires the backlog to be over threshold AND pinned:
  // a large backlog whose head is already reclaimable just needs draining,
  // not a victim. Watermark evaluation order as everywhere (fallback
  // first).
  bool pressure = false;
  if (snapshot_expire_backlog_ != 0 &&
      gc_list_->backlog() >= snapshot_expire_backlog_) {
    const Timestamp fallback = oracle_->ReadTs();
    const Timestamp watermark = active_txns_->Watermark(fallback);
    pressure = gc_list_->OldestObsoleteSince() > watermark;
  }
  active_txns_->ExpireSnapshots(std::chrono::steady_clock::now(),
                                snapshot_max_age_ms_, pressure);
}

PacedLoop::Outcome GcDaemon::Pass() {
  // Retry cadence while a pinned snapshot holds a threshold-crossing
  // backlog above the watermark: commit nudges are suppressed in that state
  // (see below), so the worker polls for the pin's release itself —
  // quickly, or reclamation would stall up to interval_ms_ after the pin is
  // gone. With the snapshot-too-old policy on, this same cadence bounds how
  // long a marked-expired victim keeps the backlog parked (one retry after
  // the sweep advances the watermark past it).
  constexpr uint64_t kPinnedRetryMs = 10;
  const uint64_t retry_ms = std::min(interval_ms_, kPinnedRetryMs);

  // Expire over-age / watermark-pinning snapshots BEFORE the watermark is
  // computed, so the very pass below already drains past a fresh victim.
  MaybeExpireSnapshots();

  // Pace off the publication watermark: the fallback (oracle read
  // timestamp) MUST be evaluated before the active-table scan (see
  // ActiveTxnTable::Watermark). Nothing at or below the backlog's oldest
  // entry reclaimable -> skip the pass entirely; an idle wakeup costs one
  // watermark computation and a peek at every shard head — no chain, index
  // or store work.
  const Timestamp fallback = oracle_->ReadTs();
  const Timestamp watermark = active_txns_->Watermark(fallback);
  if (gc_list_->OldestObsoleteSince() > watermark) {
    // Pinned backlog over the threshold (e.g. a long-lived snapshot):
    // suppress commit nudges, which would only wake the worker into this
    // same skip once per commit, and poll on the short retry cadence
    // instead, so reclamation resumes within ~kPinnedRetryMs of the pin's
    // release.
    const bool pinned_backlog = backlog_threshold_ != 0 &&
                                gc_list_->backlog() >= backlog_threshold_;
    if (pinned_backlog) loop_.SuppressArmedNudges();
    // Cache eviction must not starve while reclamation is idle, and the
    // epoch tick frees abort-path retirees even with nothing reclaimable.
    gc_->EvictCache();
    gc_->DrainEpochs();
    return {false, pinned_backlog ? retry_ms : interval_ms_};
  }

  const GcStats stats = gc_->CollectUpTo(watermark);
  versions_pruned_.fetch_add(stats.versions_pruned, std::memory_order_relaxed);
  tombstones_purged_.fetch_add(stats.tombstones_purged,
                               std::memory_order_relaxed);
  purges_deferred_.fetch_add(stats.purges_deferred, std::memory_order_relaxed);
  // A deferred node purge is reclaimable NOW (its obsolete_since is below
  // the watermark already) — retry on the short cadence instead of a full
  // interval.
  return {true, stats.purges_deferred > 0 ? retry_ms : interval_ms_};
}

}  // namespace neosi
