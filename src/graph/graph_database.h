// GraphDatabase: the top-level handle of the neosi library.
//
//   DatabaseOptions options;                       // in-memory by default
//   auto db = GraphDatabase::Open(options);
//   auto txn = (*db)->Begin(IsolationLevel::kSnapshotIsolation);
//   auto alice = (*txn)->CreateNode({"Person"}, {{"name", "alice"}});
//   (*txn)->Commit();
//
// Reproduces the architecture of the paper's Figure 1 (store files + object
// cache + label/property indexes + lock manager) with the paper's MVCC
// snapshot-isolation layer on top.

#ifndef NEOSI_GRAPH_GRAPH_DATABASE_H_
#define NEOSI_GRAPH_GRAPH_DATABASE_H_

#include <memory>

#include "common/options.h"
#include "common/status.h"
#include "graph/checkpoint_daemon.h"
#include "graph/engine.h"
#include "graph/garbage_collector.h"
#include "graph/gc_daemon.h"
#include "graph/replica_applier.h"
#include "graph/transaction.h"
#include "graph/vacuum_gc.h"

namespace neosi {

/// Aggregate observability snapshot.
struct DatabaseStats {
  GraphStoreStats store;
  ObjectCacheStats cache;
  LockManagerStats locks;
  IndexStats label_index;
  IndexStats node_prop_index;
  IndexStats rel_prop_index;
  uint64_t gc_queue = 0;
  uint64_t gc_appended = 0;
  uint64_t gc_reclaimed = 0;
  /// Largest aggregate GcList backlog ever observed (reclamation pacing
  /// headroom; the snapshot-too-old policy's backlog trigger reads the
  /// live gauge behind this).
  uint64_t gc_backlog_high_water = 0;
  /// Daemon pacing counters (all zero when the daemon is disabled). A
  /// "pass" is one global drain of every GC-list shard.
  uint64_t gc_daemon_passes = 0;
  uint64_t gc_daemon_nudge_passes = 0;     ///< Triggered by backlog nudges.
  uint64_t gc_daemon_interval_passes = 0;  ///< Triggered by the interval.
  /// Node purges pushed to a later pass because the node's physical rel
  /// chain was not yet empty (see GcStats::purges_deferred).
  uint64_t gc_purges_deferred = 0;
  /// Snapshot lifecycle (snapshot-too-old policy) per-cause counters.
  uint64_t snapshots_expired_age = 0;      ///< Victims of snapshot_max_age_ms.
  uint64_t snapshots_expired_backlog = 0;  ///< Victims of backlog pressure.
  uint64_t snapshot_too_old_aborts = 0;    ///< Ops failed with SnapshotTooOld.
  /// Epoch-based reclamation (latch-free read path) gauges.
  uint64_t epoch_current = 0;        ///< Global epoch counter.
  uint64_t epoch_limbo = 0;  ///< Versions + cache entries awaiting a drain.
  uint64_t epoch_retired = 0;        ///< Lifetime retire count.
  uint64_t epoch_freed = 0;          ///< Lifetime limbo frees.
  /// Checkpoint daemon pacing counters (zero when the daemon is disabled).
  /// Checkpoint outcome counters (markers, truncated bytes, dirty-store
  /// syncs) live in `store`.
  uint64_t checkpoint_daemon_passes = 0;
  uint64_t checkpoint_daemon_nudge_passes = 0;  ///< WAL-threshold nudges.
  uint64_t checkpoint_daemon_interval_passes = 0;
  uint64_t checkpoint_daemon_idle_skips = 0;
  /// SSI (kSerializable) per-cause counters. All zero until a serializable
  /// transaction runs; SI/RC transactions never touch the tracker.
  uint64_t ssi_tracked_txns = 0;    ///< Serializable txns fully tracked.
  uint64_t ssi_safe_snapshots = 0;  ///< Read-only txns on safe snapshots.
  uint64_t ssi_aborts_pivot = 0;    ///< Dangerous-structure aborts.
  uint64_t ssi_aborts_doomed = 0;   ///< Victims doomed by a committing peer.
  uint64_t active_txns = 0;
  Timestamp last_committed = kNoTimestamp;
  /// Replication gauges (all zero on a primary). replica_applied_ts is the
  /// replay watermark replica snapshots pin to; replica_publish_ts is the
  /// newest publication hint shipped from the primary — the difference is
  /// the replication lag in commits.
  bool is_replica = false;
  Timestamp replica_applied_ts = kNoTimestamp;
  Timestamp replica_publish_ts = kNoTimestamp;
  Lsn replica_shipped_lsn = 0;
  uint64_t replica_polls = 0;
  uint64_t replica_records_applied = 0;
  uint64_t replica_records_skipped = 0;
  uint64_t replica_purges_applied = 0;
  /// Snapshots expired to let a shipped purge through (standby conflicts).
  uint64_t snapshots_expired_replication = 0;
  /// Network front-end admission control, per cause (all zero without a
  /// server). Sheds apply to NEW wire Begins only — established snapshots
  /// are never aborted by admission, so snapshots_expired_* stay unchanged
  /// by these.
  uint64_t admission_admitted = 0;
  uint64_t admission_delayed = 0;       ///< Begins that waited for pressure.
  uint64_t admission_shed_backlog = 0;  ///< Busy sheds: GC backlog gauge.
  uint64_t admission_shed_sessions = 0; ///< Busy sheds: max_sessions cap.
};

/// Per-transaction knobs for Begin() beyond the isolation level.
struct TransactionOptions {
  /// Declares the transaction read-only: every write operation fails with
  /// FailedPrecondition. Under kSerializable this enables the safe-snapshot
  /// optimization (DatabaseOptions::ssi_safe_snapshots): a read-only
  /// serializable transaction whose snapshot sees no concurrent read-write
  /// serializable transaction skips SSI tracking entirely and can never
  /// abort with SerializationFailure.
  bool read_only = false;
};

/// A single-process graph database instance. Thread-safe: any number of
/// threads may Begin() and drive their own transactions concurrently.
class GraphDatabase {
 public:
  /// Opens (or recovers) a database. For on-disk databases, `options.path`
  /// must name a directory (created if missing); recovery replays the WAL
  /// and rebuilds the in-memory indexes.
  static Result<std::unique_ptr<GraphDatabase>> Open(
      const DatabaseOptions& options);

  ~GraphDatabase();

  GraphDatabase(const GraphDatabase&) = delete;
  GraphDatabase& operator=(const GraphDatabase&) = delete;

  /// Starts a transaction at the configured default isolation level.
  std::unique_ptr<Transaction> Begin();
  std::unique_ptr<Transaction> Begin(IsolationLevel isolation);
  std::unique_ptr<Transaction> Begin(IsolationLevel isolation,
                                     const TransactionOptions& options);

  /// Runs one pass of the paper's threaded garbage collector (§4): pops the
  /// timestamp-sorted list up to the current watermark and reclaims exactly
  /// those versions.
  GcStats RunGc();

  /// Runs the PostgreSQL-VACUUM-style baseline collector (full scan).
  VacuumStats RunVacuum();

  /// Runs one fuzzy incremental checkpoint: fsyncs the stores dirtied
  /// since the last checkpoint and truncates the WAL prefix below the
  /// stable LSN. Never blocks concurrent commits.
  Status Checkpoint();

  /// The minimum start timestamp any active transaction observes.
  Timestamp Watermark() const;

  DatabaseStats Stats() const;

  /// Engine internals: tests and benchmarks probe these deliberately.
  Engine& engine() { return *engine_; }
  const Engine& engine() const { return *engine_; }

  /// Background GC daemon — the automatic reclamation path (null only when
  /// options.background_gc_interval_ms == 0).
  GcDaemon* gc_daemon() { return gc_daemon_.get(); }

  /// Background checkpoint daemon — the automatic WAL-bounding path (null
  /// only when options.checkpoint_interval_ms == 0).
  CheckpointDaemon* checkpoint_daemon() { return checkpoint_daemon_.get(); }

  /// Replica replay daemon (null on a primary). Non-null exactly when
  /// options.IsReplica().
  ReplicaApplier* replica_applier() { return replica_applier_.get(); }

 private:
  explicit GraphDatabase(const DatabaseOptions& options);

  Status OpenImpl();
  Status RebuildIndexes();

  std::unique_ptr<Engine> engine_;
  std::unique_ptr<GcEngine> gc_;
  std::unique_ptr<VacuumGc> vacuum_;
  std::unique_ptr<GcDaemon> gc_daemon_;
  std::unique_ptr<CheckpointDaemon> checkpoint_daemon_;
  std::unique_ptr<ReplicaApplier> replica_applier_;

  friend class Transaction;
};

/// Session-scoped monotonic reads against a replica (or several).
///
/// A replica's watermark trails the primary, and different replicas trail
/// by different amounts — two successive snapshots routed to different
/// replicas could otherwise travel BACKWARDS in time. A session remembers
/// the newest snapshot timestamp it has observed (its floor) and Begin()
/// blocks until the target replica's published watermark reaches it, so
/// reads within one session never regress. Feed timestamps observed out of
/// band (e.g. a write acknowledged by the primary) through AdvanceFloor()
/// to get read-your-writes on top.
///
/// Thread-safe; one instance may be shared by a session's threads.
class ReplicaSession {
 public:
  ReplicaSession() = default;

  /// Begins a read-only snapshot-isolation transaction on `db` whose
  /// snapshot is at or above every snapshot this session has seen.
  std::unique_ptr<Transaction> Begin(GraphDatabase* db) {
    db->engine().oracle.WaitUntilPublished(
        floor_.load(std::memory_order_acquire));
    TransactionOptions opts;
    opts.read_only = true;
    auto txn = db->Begin(IsolationLevel::kSnapshotIsolation, opts);
    AdvanceFloor(txn->start_ts());
    return txn;
  }

  /// Raises the floor to `ts` (no-op if already above).
  void AdvanceFloor(Timestamp ts) {
    Timestamp cur = floor_.load(std::memory_order_relaxed);
    while (cur < ts &&
           !floor_.compare_exchange_weak(cur, ts, std::memory_order_acq_rel)) {
    }
  }

  Timestamp floor() const { return floor_.load(std::memory_order_acquire); }

 private:
  std::atomic<Timestamp> floor_{0};
};

}  // namespace neosi

#endif  // NEOSI_GRAPH_GRAPH_DATABASE_H_
