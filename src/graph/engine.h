// Internal component container shared by GraphDatabase, Transaction and the
// garbage collectors. Not part of the stable public API (exposed for tests
// and benches, which probe engine internals deliberately).

#ifndef NEOSI_GRAPH_ENGINE_H_
#define NEOSI_GRAPH_ENGINE_H_

#include <atomic>
#include <memory>

#include "cache/object_cache.h"
#include "common/options.h"
#include "index/versioned_index.h"
#include "mvcc/epoch.h"
#include "mvcc/gc_list.h"
#include "storage/graph_store.h"
#include "txn/active_txn_table.h"
#include "txn/lock_manager.h"
#include "txn/ssi_tracker.h"
#include "txn/timestamp_oracle.h"

namespace neosi {

class CheckpointDaemon;
class GcDaemon;

/// Per-cause admission-control counters, incremented by the network session
/// front-end (src/server) and surfaced through DatabaseStats. The engine
/// itself never sheds anything — admission decisions live at the session
/// boundary, where a retryable Busy costs the client one round-trip instead
/// of an aborted established snapshot.
struct AdmissionCounters {
  /// Begin requests admitted (possibly after a bounded delay).
  std::atomic<uint64_t> admitted{0};
  /// Begin requests that waited at least one delay quantum for pressure to
  /// clear before being admitted or shed.
  std::atomic<uint64_t> delayed{0};
  /// Begin requests shed with Busy because the GC backlog gauge sat above
  /// snapshot_expire_backlog for the whole admission window.
  std::atomic<uint64_t> shed_backlog{0};
  /// Begin requests shed with Busy because max_sessions transactions were
  /// already open through the server.
  std::atomic<uint64_t> shed_sessions{0};
};

/// Everything the engine is made of, wired once at Open().
struct Engine {
  Engine(const DatabaseOptions& opts, std::shared_ptr<Dir> dir)
      : options(opts),
        store(opts, std::move(dir)),
        active_txns(&store.sync_points()),
        lock_manager(&store.sync_points()) {}

  DatabaseOptions options;

  GraphStore store;
  TimestampOracle oracle;
  ActiveTxnTable active_txns;
  /// Lock waits time out after LockManager's 10 s default (a backstop:
  /// wait-die breaks cycles long before it fires).
  LockManager lock_manager;
  /// Entity-key-sharded reclamation queue (one shard per core, see
  /// ShardedGcList); one GC pass drains every shard.
  ShardedGcList gc_list;
  /// Epoch-based-reclamation domain for the latch-free read path, wired
  /// into every cached version chain (slots auto-sized from the core
  /// count). The GC daemon bumps + drains it once per wakeup.
  EpochManager epochs;
  /// SIREAD markers + rw-antidependency edges for kSerializable
  /// transactions. Touched only by serializable transactions; SI/RC paths
  /// never enter it.
  SsiTracker ssi;

  // Constructed after store.Open() (needs the store pointer).
  std::unique_ptr<ObjectCache> cache;

  /// The three instances of the one versioned index type (IndexId).
  VersionedIndex label_index;
  VersionedIndex node_prop_index;
  VersionedIndex rel_prop_index;

  /// The instance `which` names.
  VersionedIndex& index(IndexId which) {
    return which == IndexId::kLabel          ? label_index
           : which == IndexId::kNodeProperty ? node_prop_index
                                             : rel_prop_index;
  }

  // There is deliberately no global commit mutex: commits validate under
  // their long write locks, allocate a timestamp from the oracle (the only
  // sequencing point), apply in parallel, and publish in timestamp order
  // through the oracle's watermark (see ARCHITECTURE.md, "Commit pipeline").

  /// The background reclamation daemon, published by GraphDatabase after
  /// wiring (null when background_gc_interval_ms == 0). Commit publication
  /// reads it to nudge a pass when the GcList backlog crosses the
  /// threshold; no GC work ever runs on the commit path itself.
  std::atomic<GcDaemon*> gc_daemon{nullptr};

  /// The background checkpoint daemon, published the same way (null when
  /// checkpoint_interval_ms == 0). Commit publication nudges it when the
  /// live WAL outgrows checkpoint_wal_threshold; no checkpoint work ever
  /// runs on the commit path itself.
  std::atomic<CheckpointDaemon*> checkpoint_daemon{nullptr};

  /// Admission-control counters written by the network front-end (zero in
  /// purely in-process deployments).
  AdmissionCounters admission;
};

}  // namespace neosi

#endif  // NEOSI_GRAPH_ENGINE_H_
