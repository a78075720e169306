// Replica replay daemon: continuously ships the primary's WAL records
// through Wal::Tail and replays them into this (read-only) engine,
// publishing a REPLAY WATERMARK that replica snapshots pin to. The daemon
// is a PacedLoop pass, like the GC and checkpoint daemons.
//
// Watermark protocol. Commit timestamps are dense integers, but the
// primary's WAL orders records by append, not by timestamp, and a commit
// that failed mid-pipeline can abandon its timestamp without ever writing a
// record. The applier therefore advances its watermark ("cover") two ways:
//  - CONTIGUITY: shipped commit records are buffered by timestamp and
//    applied the moment they extend cover + 1, which tracks the primary
//    exactly while every timestamp materializes;
//  - PUBLICATION HINTS: each primary record carries publish_ts — a
//    timestamp the producer had already observed as published. Every commit
//    with ts <= publish_ts sits at a lower LSN, so once all shipped records
//    below the hint's record are applied, cover may jump over abandoned
//    timestamps straight to the hint.
// Either way the published cover satisfies the oracle's watermark
// invariant: no snapshot at cover can observe a half-applied commit.
//
// Replay routes every mutation through the same version machinery a
// primary commit uses — pre-state is materialized into the object cache
// BEFORE the store is touched, the post-state is committed on the chain at
// the record's timestamp, superseded versions go to the GC list, and index
// membership diffs are stamped at the same timestamp — so pinned replica
// snapshots keep reading their versions while replay advances.
//
// Durability: each shipped record is re-logged into the replica's OWN wal
// before its effects are applied (primary checkpoint markers are stripped —
// their stable LSNs are primary-relative). Replica crash recovery is then
// the ordinary GraphStore::Recover() replay, and shipping resumes from the
// persisted cursor file ("replica.cursor" next to the local segments); the
// re-ship overlap a torn cursor write leaves behind is deduplicated by
// timestamp against the recovered watermark.
//
// Shipped GC purges are the replication conflict point (PostgreSQL's
// standby query conflicts): a purge reclaims state some replica snapshot
// below its timestamp may still need, so the applier waits up to
// replica_conflict_grace_ms for those snapshots to finish and then expires
// them (SnapshotTooOld) before applying the purge.

#ifndef NEOSI_GRAPH_REPLICA_APPLIER_H_
#define NEOSI_GRAPH_REPLICA_APPLIER_H_

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "graph/engine.h"
#include "graph/paced_loop.h"
#include "storage/wal.h"

namespace neosi {

class ReplicaApplier {
 public:
  /// File next to the replica's own WAL segments holding the shipping
  /// cursor (a primary LSN). Written via temp + rename, so it is either
  /// absent or complete.
  static constexpr const char* kCursorFileName = "replica.cursor";

  /// Ships from the primary whose WAL segments live in `primary`.
  ReplicaApplier(Engine* engine, std::shared_ptr<Dir> primary,
                 uint64_t poll_interval_ms, uint64_t conflict_grace_ms);
  ~ReplicaApplier();

  ReplicaApplier(const ReplicaApplier&) = delete;
  ReplicaApplier& operator=(const ReplicaApplier&) = delete;

  /// Restores the shipping cursor and replay watermark after the local
  /// recovery replay. `recovered_ts` is the recovered max commit timestamp
  /// (the oracle was Restart()ed with it). When no cursor file exists the
  /// cursor seeds from the local wal's append cursor — correct for a fresh
  /// replica of a fresh primary and for a replica seeded from a
  /// byte-identical copy of the primary's directory — and is persisted
  /// immediately, BEFORE any local append can move the local LSN space away
  /// from the primary's. Must be called before Start()/RunOnce().
  Status Bootstrap(Timestamp recovered_ts);

  void Start();
  void Stop();

  /// One synchronous ship-and-apply pass (what the daemon's pass runs;
  /// tests call it directly for deterministic replay). Returns the first
  /// error; fatal gap/corruption errors also stick in last_error().
  Status RunOnce();

  /// Blocks until the applier has caught up to the source's current end (a
  /// single clean poll that shipped nothing new), or `timeout_ms` elapsed.
  /// Returns false on timeout or sticky error.
  bool WaitCaughtUp(uint64_t timeout_ms);

  // --- observability ------------------------------------------------------

  /// The replay watermark replica snapshots pin to.
  Timestamp applied_ts() const {
    return cover_.load(std::memory_order_acquire);
  }
  /// Highest publication hint shipped from the primary; applied_ts trails
  /// it by the records still in flight (the replication lag, in commits).
  Timestamp primary_publish_ts() const {
    return publish_ts_.load(std::memory_order_acquire);
  }
  /// Shipping cursor (primary LSN one past the last shipped record).
  Lsn shipped_lsn() const { return cursor_.load(std::memory_order_acquire); }

  uint64_t polls() const { return polls_.load(std::memory_order_relaxed); }
  uint64_t records_applied() const {
    return records_applied_.load(std::memory_order_relaxed);
  }
  uint64_t records_skipped() const {
    return records_skipped_.load(std::memory_order_relaxed);
  }
  uint64_t purges_applied() const {
    return purges_applied_.load(std::memory_order_relaxed);
  }
  uint64_t conflicts_cancelled() const {
    return conflicts_cancelled_.load(std::memory_order_relaxed);
  }

  /// Sticky fatal error (cursor gap / corruption / an I/O error reading the
  /// primary): the daemon parks on it and the replica keeps serving its
  /// last watermark until re-seeded.
  Status last_error() const;

 private:
  /// Classification of a shipped record (see ARCHITECTURE.md table).
  enum class RecordKind { kCheckpointMarker, kTokenOnly, kPurge, kCommit };
  static RecordKind Classify(const WalRecord& record);

  /// The PacedLoop pass: one RunOnePass, then the next wait — none after
  /// progress, the poll interval otherwise. Idle-skips once parked on a
  /// fatal error.
  PacedLoop::Outcome Pass();
  /// One full poll -> ingest -> drain -> persist-cursor pass.
  Status RunOnePass(bool* progressed);
  /// Applies / buffers one shipped record; advances pending_ draining.
  Status Ingest(ShippedRecord shipped);
  /// Drains pending_ by contiguity and publication hint, publishing cover.
  Status DrainPending();
  /// Re-logs into the local wal, then applies every op at record.commit_ts.
  Status ApplyRecord(const WalRecord& record);
  /// One node or relationship op: store apply, then the post-state
  /// committed on the resident chain and the index diff from the latest
  /// committed state committed at `ts`.
  Status ApplyEntityOp(const EntityKey& key, const WalOp& op, Timestamp ts);
  Status ApplyPurgeOp(const WalOp& op, Timestamp ts);
  /// Standby-conflict resolution: waits out the grace period, then expires
  /// every pinning snapshot below `purge_ts`.
  void CancelConflictsBelow(Timestamp purge_ts);
  Status ReadCursorFile(Lsn* cursor, bool* found);
  Status WriteCursorFile(Lsn cursor);

  Engine* engine_;
  std::shared_ptr<Dir> primary_;
  const uint64_t poll_interval_ms_;
  const uint64_t conflict_grace_ms_;

  /// Shipped records waiting for their timestamp to extend the cover;
  /// multimap keeps equal timestamps in arrival (LSN) order, which orders a
  /// purge after the commit whose timestamp it borrowed.
  std::multimap<Timestamp, ShippedRecord> pending_;

  std::atomic<Timestamp> cover_{0};
  std::atomic<Timestamp> publish_ts_{0};
  std::atomic<Lsn> cursor_{0};
  Lsn persisted_cursor_ = 0;
  /// High-water of ingested primary LSNs: a failed pass leaves the cursor
  /// behind, and the re-shipped overlap must not re-buffer records that are
  /// already sitting in pending_.
  Lsn ingested_lsn_ = 0;

  std::atomic<uint64_t> polls_{0};
  std::atomic<uint64_t> records_applied_{0};
  std::atomic<uint64_t> records_skipped_{0};
  std::atomic<uint64_t> purges_applied_{0};
  std::atomic<uint64_t> conflicts_cancelled_{0};

  mutable std::mutex err_mu_;
  Status last_error_;

  std::mutex mu_;
  std::condition_variable caught_up_cv_;
  /// Pass sequencing for WaitCaughtUp: a waiter needs a CLEAN-and-empty
  /// pass that STARTED after it sampled pass_seq_, so "caught up" always
  /// reflects the source's state after the caller's own writes.
  uint64_t pass_seq_ = 0;
  uint64_t last_caught_up_seq_ = 0;
  bool fatal_ = false;
  /// Set by Stop() so CancelConflictsBelow stops waiting out its grace.
  std::atomic<bool> stop_{false};

  /// Declared last: its thread runs Pass(), which touches everything above.
  PacedLoop loop_;
};

}  // namespace neosi

#endif  // NEOSI_GRAPH_REPLICA_APPLIER_H_
