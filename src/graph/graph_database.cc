#include "graph/graph_database.h"

#include "graph/index_maintenance.h"

namespace neosi {

GraphDatabase::GraphDatabase(const DatabaseOptions& options,
                             std::shared_ptr<Dir> dir)
    : engine_(std::make_unique<Engine>(options, std::move(dir))) {}

GraphDatabase::~GraphDatabase() {
  // The applier mutates engine state through the same paths a committing
  // transaction uses; stop it before the daemons it feeds (GC, checkpoint).
  if (replica_applier_) replica_applier_->Stop();
  // API contract: transactions must not outlive their database — a commit
  // racing this destructor would use freed engine state regardless of the
  // daemon. Unpublishing the pointer before stopping is teardown hygiene
  // for code running within the destructor itself, not a cure for that
  // contract violation.
  engine_->gc_daemon.store(nullptr, std::memory_order_release);
  if (gc_daemon_) gc_daemon_->Stop();
  engine_->checkpoint_daemon.store(nullptr, std::memory_order_release);
  if (checkpoint_daemon_) checkpoint_daemon_->Stop();
}

Result<std::unique_ptr<GraphDatabase>> GraphDatabase::Open(
    const DatabaseOptions& options) {
  if (options.in_memory) {
    return Open(options, std::make_shared<InMemoryDir>());
  }
  if (options.path.empty()) {
    return Status::InvalidArgument(
        "on-disk database requires options.path");
  }
  if (options.replica_of_path == options.path) {
    return Status::InvalidArgument(
        "a replica needs its own directory distinct from the primary's "
        "(replica_of_path == path)");
  }
  auto dir = PosixDir::OpenLocked(options.path);
  if (!dir.ok()) return dir.status();
  return Open(options, std::move(*dir));
}

Result<std::unique_ptr<GraphDatabase>> GraphDatabase::Open(
    const DatabaseOptions& options, std::shared_ptr<Dir> dir) {
  if (options.replica_of != nullptr && !options.replica_of_path.empty()) {
    return Status::InvalidArgument(
        "set replica_of (in-process) or replica_of_path (directory), not "
        "both");
  }
  std::unique_ptr<GraphDatabase> db(
      new GraphDatabase(options, std::move(dir)));
  Status s = db->OpenImpl();
  if (!s.ok()) return s;
  return db;
}

Status GraphDatabase::OpenImpl() {
  NEOSI_RETURN_IF_ERROR(engine_->store.Open());

  // Recovery: replay the WAL tail onto the stores and restart the oracle
  // above the highest commit timestamp ever used.
  auto max_ts = engine_->store.Recover();
  if (!max_ts.ok()) return max_ts.status();
  engine_->oracle.Restart(*max_ts);

  engine_->cache = std::make_unique<ObjectCache>(
      &engine_->store, engine_->options.object_cache_capacity,
      &engine_->epochs);
  engine_->cache->SetOverCapacityHook([engine = engine_.get()] {
    if (GcDaemon* daemon = engine->gc_daemon.load(std::memory_order_acquire)) {
      daemon->NudgeCacheFull();
    }
  });
  // Cached relationship lists follow every store chain edit from here on
  // (replayed edits above ran before any list existed).
  engine_->store.SetChainChangedHook(
      [cache = engine_->cache.get()](NodeId id) { cache->DropRelList(id); });

  NEOSI_RETURN_IF_ERROR(RebuildIndexes());

  gc_ = std::make_unique<GcEngine>(engine_.get());
  vacuum_ = std::make_unique<VacuumGc>(engine_.get());
  if (engine_->options.background_gc_interval_ms > 0) {
    gc_daemon_ = std::make_unique<GcDaemon>(
        gc_.get(), &engine_->oracle, &engine_->active_txns, &engine_->gc_list,
        engine_->options.background_gc_interval_ms,
        engine_->options.gc_backlog_threshold,
        engine_->options.snapshot_max_age_ms,
        engine_->options.snapshot_expire_backlog);
    gc_daemon_->Start();
    engine_->gc_daemon.store(gc_daemon_.get(), std::memory_order_release);
  }
  if (engine_->options.checkpoint_interval_ms > 0) {
    checkpoint_daemon_ = std::make_unique<CheckpointDaemon>(
        &engine_->store, engine_->options.checkpoint_interval_ms,
        engine_->options.checkpoint_wal_threshold);
    checkpoint_daemon_->Start();
    engine_->checkpoint_daemon.store(checkpoint_daemon_.get(),
                                     std::memory_order_release);
  }
  if (engine_->options.IsReplica()) {
    // A tailer's handle on a primary's path takes no lock: the primary
    // holds it.
    std::shared_ptr<Dir> primary = engine_->options.replica_of;
    if (primary == nullptr) {
      primary = std::make_shared<PosixDir>(engine_->options.replica_of_path);
    }
    replica_applier_ = std::make_unique<ReplicaApplier>(
        engine_.get(), std::move(primary),
        engine_->options.replica_poll_interval_ms,
        engine_->options.replica_conflict_grace_ms);
    NEOSI_RETURN_IF_ERROR(replica_applier_->Bootstrap(*max_ts));
    // Poll interval 0 = manual mode: tests drive RunOnce() deterministically.
    if (engine_->options.replica_poll_interval_ms > 0) {
      replica_applier_->Start();
    }
  }
  return Status::OK();
}

Status GraphDatabase::RebuildIndexes() {
  // Indexes are in-memory structures rebuilt from the persistent stores at
  // open (the newest committed version of each entity). Association
  // timestamps collapse to the record's commit timestamp, which is exact
  // enough: no snapshot older than the restart can exist.
  auto rebuild = [&](const EntityKey& key) {
    VersionData state;
    Timestamp commit_ts = kNoTimestamp;
    Status s = ReadPersistedState(engine_->store, key, &state, &commit_ts);
    if (s.IsNotFound()) return Status::OK();
    NEOSI_RETURN_IF_ERROR(s);
    CommitIndexDiff(engine_.get(), key, nullptr, &state, kNoTxn, commit_ts);
    return Status::OK();
  };
  NEOSI_RETURN_IF_ERROR(engine_->store.ForEachNode(
      [&](NodeId id) { return rebuild(EntityKey::Node(id)); }));
  return engine_->store.ForEachRel(
      [&](RelId id) { return rebuild(EntityKey::Rel(id)); });
}

std::unique_ptr<Transaction> GraphDatabase::Begin() {
  return Begin(engine_->options.default_isolation);
}

std::unique_ptr<Transaction> GraphDatabase::Begin(IsolationLevel isolation) {
  return Begin(isolation, TransactionOptions{});
}

std::unique_ptr<Transaction> GraphDatabase::Begin(
    IsolationLevel isolation, const TransactionOptions& options) {
  const TxnId id = engine_->oracle.NextTxnId();

  // Serializable read-write transactions enter the SSI tracker BEFORE
  // acquiring their snapshot: a read-only transaction's safe-snapshot probe
  // below runs after its own snapshot is taken, so the two orders together
  // guarantee the probe can never miss a read-write peer whose snapshot
  // predates the read-only one.
  std::shared_ptr<SsiTxnInfo> ssi;
  // On a replica, serializable transactions are rejected at first use
  // (Transaction::CheckActive) — never enter them into the SSI tracker.
  const bool serializable = isolation == IsolationLevel::kSerializable &&
                            !engine_->options.IsReplica();
  if (serializable && !options.read_only) {
    ssi = engine_->ssi.Register(id, /*read_only=*/false);
  }

  // Atomic w.r.t. watermark computation: the snapshot timestamp is taken
  // and published in the transaction's own slot of the active table, so GC
  // can never reclaim a version this snapshot still needs; the expiry sweep
  // may mark the slot, and the transaction polls it on every operation.
  //
  // Only snapshot-based transactions pin the watermark: a read-committed
  // transaction reads latest-committed versions only (never reclaimable)
  // with epoch protection covering its walks, so it neither holds
  // reclamation back nor can it be a SnapshotTooOld victim.
  const bool pins_watermark = isolation != IsolationLevel::kReadCommitted;
  ActiveTxnTable::Slot* slot = engine_->active_txns.RegisterAtomic(
      id, [this] { return engine_->oracle.ReadTs(); }, pins_watermark);
  const Timestamp start_ts = slot->start_ts();

  if (serializable) {
    if (ssi) {
      engine_->ssi.SetStartTs(ssi, start_ts);
    } else if (engine_->ssi.IsSnapshotSafe(start_ts)) {
      // Safe snapshot: no read-write serializable peer was registered when
      // this snapshot was taken AND every finished one committed at or
      // below it (a peer that finished the tracker but whose commit the
      // oracle has not yet published is still concurrent with this
      // snapshot), so nothing this transaction reads can sit on a
      // rw-antidependency path back into its past — skip tracking.
      engine_->ssi.RecordSafeSnapshot();
    } else {
      ssi = engine_->ssi.Register(id, /*read_only=*/true);
      engine_->ssi.SetStartTs(ssi, start_ts);
    }
  }

  std::unique_ptr<Transaction> txn(new Transaction(
      engine_.get(), isolation, id, slot, std::move(ssi), options.read_only));
  return txn;
}

GcStats GraphDatabase::RunGc() { return gc_->Collect(); }

VacuumStats GraphDatabase::RunVacuum() { return vacuum_->Run(); }

Status GraphDatabase::Checkpoint() { return engine_->store.Checkpoint(); }

Timestamp GraphDatabase::Watermark() const {
  return engine_->active_txns.Watermark(engine_->oracle.ReadTs());
}

DatabaseStats GraphDatabase::Stats() const {
  DatabaseStats stats;
  stats.store = engine_->store.Stats();
  stats.cache = engine_->cache->Stats();
  stats.locks = engine_->lock_manager.Stats();
  stats.label_index = engine_->label_index.Stats();
  stats.node_prop_index = engine_->node_prop_index.Stats();
  stats.rel_prop_index = engine_->rel_prop_index.Stats();
  stats.gc_queue = engine_->gc_list.backlog();
  stats.gc_appended = engine_->gc_list.total_appended();
  stats.gc_reclaimed = engine_->gc_list.total_reclaimed();
  stats.gc_backlog_high_water = engine_->gc_list.backlog_high_water();
  if (gc_daemon_) {
    stats.gc_daemon_passes = gc_daemon_->passes();
    stats.gc_daemon_nudge_passes = gc_daemon_->nudge_passes();
    stats.gc_daemon_interval_passes = gc_daemon_->interval_passes();
    stats.gc_purges_deferred = gc_daemon_->purges_deferred();
  }
  stats.snapshots_expired_age =
      engine_->active_txns.snapshots_expired_age();
  stats.snapshots_expired_backlog =
      engine_->active_txns.snapshots_expired_backlog();
  stats.snapshot_too_old_aborts =
      engine_->active_txns.snapshot_too_old_aborts();
  stats.epoch_current = engine_->epochs.current_epoch();
  stats.epoch_limbo = engine_->epochs.limbo_size();
  stats.epoch_retired = engine_->epochs.total_retired();
  stats.epoch_freed = engine_->epochs.total_freed();
  if (checkpoint_daemon_) {
    stats.checkpoint_daemon_passes = checkpoint_daemon_->passes();
    stats.checkpoint_daemon_nudge_passes = checkpoint_daemon_->nudge_passes();
    stats.checkpoint_daemon_interval_passes =
        checkpoint_daemon_->interval_passes();
    stats.checkpoint_daemon_idle_skips = checkpoint_daemon_->idle_skips();
  }
  const SsiTrackerStats ssi = engine_->ssi.Stats();
  stats.ssi_tracked_txns = ssi.tracked_txns;
  stats.ssi_safe_snapshots = ssi.safe_snapshots;
  stats.ssi_aborts_pivot = ssi.aborts_pivot;
  stats.ssi_aborts_doomed = ssi.aborts_doomed;
  stats.ssi_writeless_commits = ssi.writeless_commits;
  stats.ssi_writeless_window_waits = ssi.writeless_window_waits;
  stats.ssi_marker_keys = ssi.marker_keys;
  stats.ssi_registry_records = ssi.registry_records;
  stats.active_txns = engine_->active_txns.ActiveCount();
  stats.last_committed = engine_->oracle.ReadTs();
  if (replica_applier_) {
    stats.is_replica = true;
    stats.replica_applied_ts = replica_applier_->applied_ts();
    stats.replica_publish_ts = replica_applier_->primary_publish_ts();
    stats.replica_shipped_lsn = replica_applier_->shipped_lsn();
    stats.replica_polls = replica_applier_->polls();
    stats.replica_records_applied = replica_applier_->records_applied();
    stats.replica_records_skipped = replica_applier_->records_skipped();
    stats.replica_purges_applied = replica_applier_->purges_applied();
  }
  stats.snapshots_expired_replication =
      engine_->active_txns.snapshots_expired_replication();
  stats.admission_admitted =
      engine_->admission.admitted.load(std::memory_order_relaxed);
  stats.admission_delayed =
      engine_->admission.delayed.load(std::memory_order_relaxed);
  stats.admission_shed_backlog =
      engine_->admission.shed_backlog.load(std::memory_order_relaxed);
  stats.admission_shed_sessions =
      engine_->admission.shed_sessions.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace neosi
