#include "graph/checkpoint_daemon.h"

namespace neosi {

CheckpointDaemon::CheckpointDaemon(GraphStore* store, uint64_t interval_ms,
                                   uint64_t wal_threshold_bytes)
    : store_(store),
      interval_ms_(interval_ms == 0 ? 100 : interval_ms),
      wal_threshold_bytes_(wal_threshold_bytes),
      loop_(interval_ms_, [this](bool nudged) { return Pass(nudged); }) {}

bool CheckpointDaemon::WalNeedsCheckpoint() const {
  if (wal_threshold_bytes_ == 0) return true;
  // Byte pressure, or segment pressure: once the chain has rolled past a
  // segment, a checkpoint can reclaim it as one whole-file unlink — pace on
  // the physical footprint, not just the live bytes.
  return store_->wal().SizeBytes() >= wal_threshold_bytes_ ||
         store_->wal().SegmentCount() > 1;
}

PacedLoop::Outcome CheckpointDaemon::Pass(bool nudged) {
  // An explicit Nudge() always checkpoints; an interval wakeup only when
  // the live WAL has outgrown the threshold (bytes or segments). Idle
  // wakeups cost a few atomic loads — no store or log work.
  if (!nudged && !WalNeedsCheckpoint()) return {false, interval_ms_};
  if (!store_->Checkpoint().ok()) {
    failed_passes_.fetch_add(1, std::memory_order_relaxed);
  }
  return {true, interval_ms_};
}

}  // namespace neosi
