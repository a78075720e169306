#include "graph/gc_daemon.h"

#include <algorithm>
#include <chrono>

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
      shard_count_(gc_list->shard_count()),
      interval_ms_(interval_ms == 0 ? 10 : interval_ms),
      backlog_threshold_(backlog_threshold),
      snapshot_max_age_ms_(snapshot_max_age_ms),
      snapshot_expire_backlog_(snapshot_expire_backlog) {}

GcDaemon::~GcDaemon() { Stop(); }

void GcDaemon::Start() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  std::lock_guard<std::mutex> guard(mu_);
  if (!threads_.empty()) return;
  stop_requested_ = false;
  // A stale arm from a pinned-backlog skip before Stop() would suppress
  // every commit nudge for up to one interval of the fresh workers.
  nudge_armed_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  threads_.reserve(shard_count_);
  for (size_t shard = 0; shard < shard_count_; ++shard) {
    threads_.emplace_back([this, shard] { Loop(shard); });
  }
}

void GcDaemon::Stop() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  std::vector<std::thread> joinable;
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (threads_.empty()) return;
    stop_requested_ = true;
    joinable.swap(threads_);
  }
  cv_.notify_all();
  for (std::thread& t : joinable) t.join();
  running_.store(false, std::memory_order_release);
}

void GcDaemon::Nudge() {
  {
    std::lock_guard<std::mutex> guard(mu_);
    ++nudge_seq_;
  }
  cv_.notify_all();
}

void GcDaemon::NudgeIfBacklogged() {
  if (backlog_threshold_ == 0) return;
  if (gc_list_->backlog() < backlog_threshold_) return;
  if (nudge_armed_.exchange(true, std::memory_order_acq_rel)) return;
  Nudge();
}

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
  active_txns_->ExpireSnapshots(snapshot_max_age_ms_, pressure);
}

void GcDaemon::Loop(size_t shard) {
  // Retry cadence while a pinned snapshot holds a threshold-crossing
  // backlog above the watermark: nudges are suppressed in that state (see
  // below), so workers poll for the pin's release themselves — quickly, or
  // reclamation would stall up to interval_ms_ after the pin is gone. With
  // the snapshot-too-old policy on, this same cadence bounds how long a
  // marked-expired victim keeps the backlog parked (one retry after the
  // primary's sweep advances the watermark past it).
  constexpr uint64_t kPinnedRetryMs = 10;
  const bool primary = shard == 0;
  uint64_t wait_ms = interval_ms_;
  uint64_t seen_seq = 0;
  bool held_arm = false;  // Set by this worker's pinned-backlog re-arm.
  for (;;) {
    bool nudged = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock, std::chrono::milliseconds(wait_ms), [&] {
        return stop_requested_ || nudge_seq_ != seen_seq;
      });
      if (stop_requested_) return;
      nudged = nudge_seq_ != seen_seq;
      seen_seq = nudge_seq_;
    }
    // Consume the nudge arm BEFORE reading the watermark: a commit that
    // publishes after this point re-nudges (bumps nudge_seq_ for the next
    // iteration), so no backlog growth is ever swallowed by a pass or skip
    // computed against a stale watermark.
    nudge_armed_.store(false, std::memory_order_release);

    // The primary expires over-age / watermark-pinning snapshots BEFORE the
    // watermark is computed, so the very pass below already drains past a
    // freshly expired victim.
    if (primary) MaybeExpireSnapshots();

    // Pace off the publication watermark: the fallback (oracle read
    // timestamp) MUST be evaluated before the active-table scan (see
    // ActiveTxnTable::Watermark). Nothing at or below this shard's head
    // entry's timestamp reclaimable -> skip the pass entirely; an idle
    // wakeup costs one watermark computation and a shard-head peek — no
    // chain, index or store work.
    const Timestamp fallback = oracle_->ReadTs();
    const Timestamp watermark = active_txns_->Watermark(fallback);
    if (held_arm) {
      held_arm = false;
      // This worker's re-arm below suppressed commit nudges while the
      // backlog looked pinned — possibly against a watermark that was stale
      // by the time it looked. Over threshold but reclaimable now, the
      // backlog sits in shards whose workers nothing has woken since: hand
      // them the nudge, or it waits out a whole interval.
      if (gc_list_->backlog() >= backlog_threshold_ &&
          gc_list_->OldestObsoleteSince() <= watermark) {
        Nudge();
      }
    }
    if (gc_list_->ShardOldestObsoleteSince(shard) > watermark) {
      // Pinned AGGREGATE backlog (e.g. a long-lived snapshot): RE-ARM so
      // per-commit nudges don't wake every worker into this same skip once
      // per commit. While armed, workers poll on the short retry cadence
      // instead, so reclamation resumes within ~kPinnedRetryMs of the
      // pin's release even though commit nudges stay suppressed until the
      // next pass.
      const bool pinned_backlog =
          backlog_threshold_ != 0 &&
          gc_list_->backlog() >= backlog_threshold_ &&
          gc_list_->OldestObsoleteSince() > watermark;
      if (pinned_backlog) {
        nudge_armed_.store(true, std::memory_order_release);
        held_arm = true;
      }
      wait_ms = pinned_backlog ? std::min(interval_ms_, kPinnedRetryMs)
                               : interval_ms_;
      // Cache eviction must not starve while reclamation is idle (this
      // used to ride the retired foreground auto-GC). Primary only: the
      // sweep is global, N copies per cycle would be pure overhead. The
      // epoch tick rides along for the same reason: abort-path retirees
      // and other shards' prunes must reach the limbo drain even when
      // shard 0 itself has nothing reclaimable.
      if (primary) {
        gc_->EvictCache();
        gc_->DrainEpochs();
      }
      idle_skips_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    wait_ms = interval_ms_;

    GcStats stats =
        gc_->CollectShardUpTo(shard, watermark, /*run_global_extras=*/primary);
    passes_.fetch_add(1, std::memory_order_relaxed);
    if (nudged) {
      nudge_passes_.fetch_add(1, std::memory_order_relaxed);
    } else {
      interval_passes_.fetch_add(1, std::memory_order_relaxed);
    }
    versions_pruned_.fetch_add(stats.versions_pruned,
                               std::memory_order_relaxed);
    tombstones_purged_.fetch_add(stats.tombstones_purged,
                                 std::memory_order_relaxed);
    purges_deferred_.fetch_add(stats.purges_deferred,
                               std::memory_order_relaxed);
    // A deferred node purge is reclaimable NOW (its obsolete_since is
    // below the watermark already) — retry on the short cadence instead of
    // a full interval so cross-shard purge ordering converges quickly.
    if (stats.purges_deferred > 0) {
      wait_ms = std::min(interval_ms_, kPinnedRetryMs);
    }
  }
}

}  // namespace neosi
