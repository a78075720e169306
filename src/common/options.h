// Database-wide configuration.
//
// Documentation convention: every option states its UNITS, its DEFAULT, and
// the daemon / trigger it paces (or the code path that consumes it), so an
// operator can reason about a deployment from this file alone. The daemons:
//
//   GcDaemon          version reclamation          (background_gc_interval_ms,
//                     gc_backlog_threshold, snapshot_max_age_ms,
//                     snapshot_expire_backlog) + epoch limbo drains
//   CheckpointDaemon  WAL bounding                 (checkpoint_interval_ms,
//                     checkpoint_wal_threshold, wal_segment_size)
//
// Both daemons run one thread each on the same paced loop (PacedLoop).
// Internals that no deployment tunes are fixed rules instead of options:
// GC list shards = cores clamped to [1, 64], 4 when unknown
// (ShardedGcList; shards split commit-path append contention, one GC
// thread drains them all), epoch slots max(64, 4 * cores) (EpochManager),
// 64 SSI marker shards (SsiTracker), and a 10 s lock-wait backstop
// (LockManager).

#ifndef NEOSI_COMMON_OPTIONS_H_
#define NEOSI_COMMON_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/types.h"

namespace neosi {

class Dir;  // storage/dir.h; options only carries a handle

/// Options controlling a GraphDatabase instance. Plain data; copyable.
struct DatabaseOptions {
  // --- placement -----------------------------------------------------------

  /// The database directory: the 8 store files, the WAL segments, a
  /// replica's cursor file and the `LOCK` file. GraphDatabase::Open(options)
  /// creates it when missing and flocks `LOCK` before touching any other
  /// file (a second live opener fails with Busy). Ignored when in_memory is
  /// true, and by Open(options, dir). No default: on-disk databases must
  /// name one (Open() fails with InvalidArgument otherwise).
  std::string path;

  /// When true (the DEFAULT), GraphDatabase::Open(options) builds an
  /// in-memory Dir: no files are created and nothing survives the database
  /// (unless a replica still holds the Dir). Recovery tests and the
  /// durability benches use on-disk mode. Ignored by Open(options, dir).
  bool in_memory = true;

  // --- transaction semantics ----------------------------------------------

  /// Isolation level for BeginTransaction() without an explicit one.
  /// Default: kSnapshotIsolation (the paper's contribution);
  /// kReadCommitted reproduces stock Neo4j.
  IsolationLevel default_isolation = IsolationLevel::kSnapshotIsolation;

  /// Write-write conflict resolution policy under snapshot isolation
  /// (paper §3). Default: kFirstUpdaterWinsWait (PostgreSQL-style: wait for
  /// the holder, abort if it commits). Consumed on the write-lock path
  /// (Transaction::AcquireWriteLock / CheckWriteConflict) and at commit
  /// validation for kFirstCommitterWins.
  ConflictPolicy conflict_policy = ConflictPolicy::kFirstUpdaterWinsWait;

  // --- storage -------------------------------------------------------------

  /// Soft capacity of the object cache, in CACHED OBJECTS (nodes + rels).
  /// Default: 1'048'576 (1 << 20). 0 = unbounded. Clean single-version
  /// objects beyond this are evicted by the GC daemon's per-pass (and
  /// idle-wakeup) eviction sweep — eviction never runs on the commit path.
  size_t object_cache_capacity = 1 << 20;

  // --- GC daemon (version reclamation) -------------------------------------

  /// Pass interval of the background GC daemon, in MILLISECONDS.
  /// Default: 50. Reclamation is fully asynchronous: no GC work ever runs
  /// on the commit path. 0 disables the daemon entirely (callers invoke
  /// GraphDatabase::RunGc() manually — and the snapshot lifecycle policy
  /// below is then NOT enforced, since the daemon runs its expiry sweep).
  uint64_t background_gc_interval_ms = 50;

  /// GC backlog (obsolete versions queued across all shards, in ENTRIES)
  /// at which commit publication nudges the GC daemon for an immediate
  /// pass instead of waiting out the interval. Default: 1024.
  /// 0 disables nudging (interval pacing only). Also the trigger gauge for
  /// snapshot_expire_backlog below.
  uint64_t gc_backlog_threshold = 1024;

  // --- snapshot lifecycle (snapshot-too-old policy) ------------------------

  /// Maximum age of a live snapshot, in MILLISECONDS, before the GC
  /// daemon's expiry sweep marks it expired (PostgreSQL's
  /// old_snapshot_threshold). Default: 0 = never expire (a long-lived
  /// snapshot then pins the reclamation watermark and the version backlog
  /// grows without bound). An expired snapshot-isolation transaction fails
  /// its next read or commit with Status::SnapshotTooOld and rolls back
  /// (releasing its locks); the reclamation watermark advances past it as
  /// soon as it is marked, so the backlog drains without waiting for the
  /// victim to notice. Enforced by the GC daemon: requires
  /// background_gc_interval_ms > 0.
  uint64_t snapshot_max_age_ms = 0;

  /// GC backlog (ENTRIES, same gauge as gc_backlog_threshold) beyond which
  /// the expiry sweep evicts the oldest watermark-pinning snapshot cohort
  /// EARLY — before snapshot_max_age_ms — when the backlog head is not
  /// reclaimable below the current watermark (i.e. a snapshot is actually
  /// pinning it). Default: 0 = no backlog-pressure eviction. Victims get a
  /// 10 ms grace period from Begin() so a fresh snapshot under a write
  /// burst is never evicted. Enforced by the GC daemon. The network session
  /// front-end (src/server) reads the same gauge/threshold pair as its
  /// admission signal: while the backlog sits above this value, NEW wire
  /// Begins are delayed or shed with retryable Status::Busy — established
  /// snapshots are never admission-aborted (see ServerOptions).
  uint64_t snapshot_expire_backlog = 0;

  // --- checkpoint daemon (WAL bounding) ------------------------------------

  /// Pass interval of the background checkpoint daemon, in MILLISECONDS.
  /// Default: 200. Each pass runs a FUZZY incremental checkpoint (never
  /// blocks commits) when the live WAL has outgrown
  /// checkpoint_wal_threshold or the segment chain has rolled, so
  /// long-running write workloads never accumulate unbounded log. 0
  /// disables the daemon (callers checkpoint manually).
  uint64_t checkpoint_interval_ms = 200;

  /// Live-WAL BYTES that make a checkpoint daemon pass actually checkpoint
  /// (below it the wakeup is an idle skip). Default: 4 MiB. Commit
  /// publication also nudges the daemon early when the live WAL crosses
  /// this. 0 checkpoints on every interval pass.
  uint64_t checkpoint_wal_threshold = 4ull << 20;  // 4 MiB

  /// Size, in BYTES, at which the WAL rolls to a fresh segment file.
  /// Default: 16 MiB. Checkpoints reclaim disk by UNLINKING whole segments
  /// below the stable LSN, so this bounds both the per-file size and
  /// (together with the live bytes) the on-disk WAL footprint on every
  /// backend — no filesystem hole support needed.
  uint64_t wal_segment_size = 16ull << 20;  // 16 MiB

  /// Fully-checkpointed WAL segments RETAINED (not retired) beyond the live
  /// chain, in FILES, so a lagging replica can still ship them
  /// (PostgreSQL's wal_keep_size). Default: 0 = retire eagerly. A replica
  /// whose shipping cursor falls behind the oldest retained segment stops
  /// with a Corruption status naming the gap and must be re-seeded.
  /// Consumed by the checkpoint truncation path.
  uint64_t wal_keep_segments = 0;

  /// fsync the WAL on every commit: each commit appends its own frame and
  /// waits until an fsync covers it (grouped: one fsync covers every frame
  /// appended before it started, so concurrent committers share it).
  /// Default: false — the experiments measure concurrency-control
  /// behaviour, not disk stalls.
  bool sync_commits = false;

  /// Hand WAL fsyncs to a dedicated flusher thread: a durable commit posts
  /// its frame's end as the flush target and waits on the flushed-LSN
  /// watermark. Default: true. False makes the committer run the fsync
  /// itself, unless a peer's fsync already covered its frame by the time it
  /// holds the pass mutex (the E18 bench comparison). Only observable with
  /// sync_commits. Sync failures are STICKY either way:
  /// after any WAL fsync/dir-sync error every later commit fails with a
  /// non-retryable IOError until the store is reopened (see
  /// docs/OPERATIONS.md, durability invariants).
  bool wal_async_flush = true;

  /// Keep the next WAL segment file built (fallocate-reserved, fsynced,
  /// dir-synced) by the flusher thread so a segment roll only adopts it by
  /// rename instead of building it on the append path. Default: true.
  bool wal_preallocate = true;

  // --- replication (read replicas) -----------------------------------------

  /// Attach this database as a READ REPLICA of the primary whose WAL lives
  /// in this directory handle (in-process / in-memory topologies: pass the
  /// primary's own `engine().store.dir()`). Default: null. Mutually
  /// exclusive with replica_of_path. A replica serves snapshot-isolation
  /// reads pinned at its replay watermark; writes and serializable begins
  /// fail with Status::ReplicaReadOnly. Consumed at Open(): the
  /// ReplicaApplier daemon tails this Dir through a ReplicationSource. The
  /// handle keeps the primary's files alive: an in-memory primary's store
  /// bytes and segments outlive its close while a replica holds them, and
  /// an on-disk primary's `LOCK` stays held until the replica closes.
  std::shared_ptr<Dir> replica_of;

  /// Attach as a read replica of the primary whose WAL segment directory is
  /// at this filesystem path (cross-process topology; the replica only ever
  /// opens existing files in it, never creates any, and never takes the
  /// primary's `LOCK`). Default: empty. Must differ from `path`.
  std::string replica_of_path;

  /// Poll interval of the replica applier daemon, in MILLISECONDS: how
  /// often the replica re-lists the primary's WAL directory and tails the
  /// newest segment when no new records arrived on the previous pass.
  /// Default: 5. Bounds steady-state replication lag from below. Ignored
  /// unless the database is a replica.
  uint64_t replica_poll_interval_ms = 5;

  /// Grace period, in MILLISECONDS, a shipped purge record waits for
  /// conflicting replica snapshots (start_ts below the purge's commit ts)
  /// to finish before the applier cancels them with SnapshotTooOld
  /// (PostgreSQL's max_standby_streaming_delay, per conflict). Default:
  /// 100. 0 cancels immediately. Ignored unless the database is a replica.
  uint64_t replica_conflict_grace_ms = 100;

  /// True when this instance was configured as a read replica.
  bool IsReplica() const {
    return replica_of != nullptr || !replica_of_path.empty();
  }
};

}  // namespace neosi

#endif  // NEOSI_COMMON_OPTIONS_H_
