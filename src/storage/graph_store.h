// Physical graph storage facade: the Neo4j store-file layer of Figure 1.
//
// Owns the node / relationship / property / dynamic / token store files plus
// the WAL, and exposes typed physical operations used by the transaction
// engine at commit time, by the garbage collector at purge time, and by
// recovery. This layer knows nothing about versions or visibility: it always
// holds exactly the NEWEST COMMITTED version of each entity (paper §4 —
// older versions live only in the object cache).
//
// Concurrency: per-entity sharded reader/writer latches. Mutators follow a
// strict acquisition order (node shards ascending, then the relationship
// shard) so they cannot deadlock; readers take a single latch.

#ifndef NEOSI_STORAGE_GRAPH_STORE_H_
#define NEOSI_STORAGE_GRAPH_STORE_H_

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/latch.h"
#include "common/options.h"
#include "common/property_value.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/dynamic_store.h"
#include "storage/property_store.h"
#include "storage/record_store.h"
#include "storage/records.h"
#include "storage/token_store.h"
#include "storage/wal.h"

namespace neosi {

/// Materialized persistent state of a node (newest committed version).
struct NodeState {
  bool in_use = false;
  bool deleted = false;
  std::vector<LabelId> labels;
  PropertyMap props;
  Timestamp commit_ts = kNoTimestamp;
  RelId first_rel = kInvalidRelId;
};

/// Materialized persistent state of a relationship.
struct RelState {
  bool in_use = false;
  bool deleted = false;
  NodeId src = kInvalidNodeId;
  NodeId dst = kInvalidNodeId;
  RelTypeId type = kInvalidToken;
  PropertyMap props;
  Timestamp commit_ts = kNoTimestamp;
};

/// Aggregate store statistics (experiments E8/E9).
struct GraphStoreStats {
  RecordStoreStats nodes;
  RecordStoreStats rels;
  RecordStoreStats props;
  RecordStoreStats strings;
  RecordStoreStats label_dyn;
  /// Live WAL bytes (append cursor minus checkpointed head).
  uint64_t wal_bytes = 0;
  uint64_t wal_head_lsn = 0;
  uint64_t wal_next_lsn = 0;
  /// Rotating WAL segment gauges/counters.
  uint64_t wal_segments = 0;            ///< Segment files currently chained.
  uint64_t wal_physical_bytes = 0;      ///< On-disk bytes of the chain.
  uint64_t wal_segments_created = 0;    ///< Segments that entered the chain.
  uint64_t wal_segments_deleted = 0;    ///< Dead segments unlinked.
  /// Rolls that adopted a segment the flusher built off-path.
  uint64_t wal_segments_preallocated = 0;
  /// Commit I/O state: the flushed-LSN watermark acks wait on, and the
  /// sticky-failure flag (true after any WAL fsync/dir-sync error — every
  /// later commit fails until the store is reopened).
  uint64_t wal_flushed_lsn = 0;
  bool wal_poisoned = false;
  /// Dynamic-store blocks in use but unreachable from any live property
  /// chain, measured by the reopen-time blob audit (crash-recovery leak;
  /// see docs/OPERATIONS.md).
  uint64_t dyn_leaked_blocks = 0;
  /// Fuzzy checkpoint counters.
  uint64_t checkpoints = 0;
  uint64_t checkpoint_markers = 0;          ///< Markers written (fuzzy cuts).
  uint64_t checkpoint_bytes_truncated = 0;  ///< WAL prefix bytes dropped.
  uint64_t checkpoint_stores_synced = 0;    ///< Dirty files fsynced.
  uint64_t checkpoint_stores_skipped = 0;   ///< Clean files skipped.
};

/// Failure-injection switches for checkpoint crash tests. All off by
/// default; production paths never set them.
struct CheckpointTestHooks {
  /// Checkpoint() parks after syncing the stores, before writing the
  /// marker, until cleared (commits must keep completing meanwhile).
  std::atomic<bool> stall_before_marker{false};
  /// Number of checkpoints that have reached the stall point above.
  std::atomic<uint64_t> stalls{0};
  /// Checkpoint() "crashes" (returns IOError) after writing + syncing the
  /// marker but BEFORE truncating the WAL prefix — the classic torn
  /// checkpoint window recovery must tolerate.
  std::atomic<bool> crash_after_marker{false};
};

/// The persistent half of the engine. Thread-safe.
class GraphStore {
 public:
  explicit GraphStore(const DatabaseOptions& options);
  ~GraphStore();

  GraphStore(const GraphStore&) = delete;
  GraphStore& operator=(const GraphStore&) = delete;

  /// Opens or creates every store file and the WAL. On-disk databases first
  /// take an exclusive flock on a `LOCK` file in the directory: a second
  /// process (or handle) opening the same directory fails fast with
  /// Status::Busy instead of replaying and truncating the WAL out from
  /// under the holder's live appends. The lock dies with the holder, so a
  /// crash-left LOCK file is reclaimed by the next opener automatically.
  Status Open();

  /// fsyncs only the store files dirtied since the last checkpoint
  /// (incremental half of the fuzzy checkpoint).
  Status SyncDirty(uint64_t* synced, uint64_t* skipped);

  // --- id allocation (ids are assigned at operation time so uncommitted
  // entities have stable ids; released again if the transaction aborts) ----
  Result<NodeId> AllocateNodeId() { return nodes_->Allocate(); }
  Result<RelId> AllocateRelId() { return rels_->Allocate(); }
  Status ReleaseNodeId(NodeId id) { return nodes_->Free(id); }
  Status ReleaseRelId(RelId id) { return rels_->Free(id); }

  // --- commit-time persistence (newest committed version only) ------------

  /// Writes a brand-new node record (labels + property chain + commit ts).
  Status PersistNewNode(NodeId id, const std::vector<LabelId>& labels,
                        const PropertyMap& props, Timestamp ts);

  /// Rewrites an existing node's labels/properties/commit ts in place
  /// (fresh property chain; the old chain is freed). Keeps first_rel.
  Status PersistNodeState(NodeId id, const std::vector<LabelId>& labels,
                          const PropertyMap& props, Timestamp ts);

  /// Marks a node deleted (tombstone, §4): record retained until purge.
  Status PersistNodeTombstone(NodeId id, Timestamp ts);

  /// Writes a brand-new relationship record and links it at the head of both
  /// endpoints' relationship chains.
  Status PersistNewRel(RelId id, NodeId src, NodeId dst, RelTypeId type,
                       const PropertyMap& props, Timestamp ts);

  /// Rewrites an existing relationship's properties/commit ts.
  Status PersistRelState(RelId id, const PropertyMap& props, Timestamp ts);

  /// Marks a relationship deleted (tombstone). Chain links stay intact so
  /// concurrent chain scans remain well-formed; purge performs the unlink.
  Status PersistRelTombstone(RelId id, Timestamp ts);

  // --- GC purge (physical reclamation of tombstones) ----------------------

  /// Frees a tombstoned node record and its chains. The node's relationship
  /// chain must already be empty (all rels purged first).
  Status PurgeNode(NodeId id);

  /// Unlinks a tombstoned relationship from both endpoint chains and frees
  /// its record + property chain.
  Status PurgeRel(RelId id);

  // --- reads ---------------------------------------------------------------

  /// Materializes the newest committed state of a node.
  Status ReadNodeState(NodeId id, NodeState* out) const;

  /// Materializes the newest committed state of a relationship.
  Status ReadRelState(RelId id, RelState* out) const;

  /// Collects the relationship ids in a node's chain (tombstones included;
  /// callers filter by visibility). Snapshot under the node's shared latch.
  Status RelChainOf(NodeId id, std::vector<RelId>* out) const;

  /// True while the node's physical relationship chain is non-empty
  /// (tombstoned rels awaiting purge included). Sharded GC reads this
  /// before a node purge: the node's rel tombstones may live in other
  /// shards still mid-drain, and PurgeNode on a chained node is an
  /// invariant violation — the collector defers such nodes to a later pass
  /// instead. Cheap: one record read under the shared latch.
  Result<bool> NodeHasRelChain(NodeId id) const;

  /// Raw record reads (tests, vacuum baseline).
  Status ReadNodeRecord(NodeId id, NodeRecord* out) const;
  Status ReadRelRecord(RelId id, RelationshipRecord* out) const;

  /// Reads a record and writes it back unchanged — the per-record "page
  /// rewrite" cost of the vacuum-style baseline collector (E8).
  Status ApplyRewrite(const EntityKey& key);

  /// Iterates all in-use node ids (including tombstones).
  Status ForEachNode(const std::function<Status(NodeId)>& fn) const;
  /// Iterates all in-use relationship ids (including tombstones).
  Status ForEachRel(const std::function<Status(RelId)>& fn) const;

  uint64_t NodeHighId() const { return nodes_->high_id(); }
  uint64_t RelHighId() const { return rels_->high_id(); }
  bool NodeInUse(NodeId id) const { return nodes_->InUse(id); }
  bool RelInUse(RelId id) const { return rels_->InUse(id); }

  /// Recovery helper: verifies a relationship record is reachable from both
  /// endpoint chains, redoing the link surgery if a crash interrupted it.
  Status EnsureRelLinked(RelId id);

  // --- WAL & recovery ------------------------------------------------------

  Wal& wal() { return *wal_; }

  /// Replays one logical op onto the stores, idempotently: an op whose
  /// entity already carries commit_ts >= op's record ts is repaired rather
  /// than blindly re-applied (see DESIGN.md recovery notes).
  Status ApplyWalOp(const WalOp& op, Timestamp commit_ts);

  /// Replays the live WAL suffix through ApplyWalOp: finds the last
  /// checkpoint marker and replays only records at or above its stable LSN
  /// (everything below had durably reached the stores when the marker was
  /// written). Returns the highest commit timestamp seen (stores + WAL),
  /// used to restart the timestamp oracle.
  Result<Timestamp> Recover();

  /// Fuzzy incremental checkpoint (ARIES-style; never blocks commits):
  ///   1. read the stable LSN (every record below it has reached the
  ///      stores — in-flight commits pin their record's lsn until applied),
  ///   2. fsync only the stores dirtied since the last checkpoint,
  ///   3. append + sync a checkpoint marker carrying the stable LSN,
  ///   4. truncate the WAL prefix below the stable LSN (whole dead
  ///      segments are unlinked; recovery replays from the marker,
  ///      tolerating a crash anywhere in this sequence).
  /// Commit traffic proceeds concurrently through all four steps.
  Status Checkpoint();

  /// Checkpoint crash/stall injection (tests only).
  CheckpointTestHooks checkpoint_hooks;

  /// Named crash points on the checkpoint path (tests only):
  /// "checkpoint.pre_marker", "checkpoint.post_marker". The WAL's own
  /// points (segment create, truncate, mid-append) live on wal().fault_hooks.
  FaultHooks fault_hooks;

  // --- tokens --------------------------------------------------------------
  TokenStore& labels() { return *label_tokens_; }
  TokenStore& prop_keys() { return *prop_key_tokens_; }
  TokenStore& rel_types() { return *rel_type_tokens_; }
  const TokenStore& labels() const { return *label_tokens_; }
  const TokenStore& prop_keys() const { return *prop_key_tokens_; }
  const TokenStore& rel_types() const { return *rel_type_tokens_; }

  GraphStoreStats Stats() const;

 private:
  static constexpr size_t kShards = 128;

  /// A shard latch on its own cache line: a glibc shared_mutex is 56
  /// bytes, so unpadded neighbours would share lines.
  struct alignas(64) PaddedLatch {
    SharedLatch latch;
  };

  SharedLatch& NodeShard(NodeId id) const {
    return node_shards_[id % kShards].latch;
  }
  SharedLatch& RelShard(RelId id) const {
    return rel_shards_[id % kShards].latch;
  }

  /// Locks the shards of (a, b) uniquely in ascending order (once if equal).
  /// Returned guards unlock in destruction order.
  std::vector<WriteGuard> LockNodePair(NodeId a, NodeId b) const;

  Status WriteNodeRecord(NodeId id, const NodeRecord& rec);
  Status WriteRelRecord(RelId id, const RelationshipRecord& rec);

  /// Encodes labels into the record (inline or overflow blob). Never frees:
  /// the record's previous overflow blob id is returned through `old_blob`
  /// for the caller to free AFTER the record rewrite lands — freeing first
  /// would leave a crash window where the on-disk record points at a freed
  /// blob.
  Status StoreLabels(NodeRecord* rec, const std::vector<LabelId>& labels,
                     DynId* old_blob);
  Status LoadLabels(const NodeRecord& rec, std::vector<LabelId>* out) const;

  /// Links `rec` (already populated, id `id`) at the head of `node`'s chain.
  /// Caller holds the node-pair latches.
  Status LinkIntoChain(RelId id, RelationshipRecord* rec, NodeId node);

  /// Unlink surgery for one endpoint. Caller holds the node-pair latches.
  Status UnlinkFromChain(RelId id, const RelationshipRecord& rec, NodeId node);

  DatabaseOptions options_;

  /// Lifetime checkpoint counters (see GraphStoreStats).
  std::atomic<uint64_t> checkpoints_{0};
  std::atomic<uint64_t> checkpoint_markers_{0};
  std::atomic<uint64_t> checkpoint_bytes_truncated_{0};
  std::atomic<uint64_t> checkpoint_stores_synced_{0};
  std::atomic<uint64_t> checkpoint_stores_skipped_{0};
  /// Serializes checkpoints against each other — never against commits.
  std::mutex checkpoint_mu_;

  /// True while Recover() replays the WAL (single-threaded, before any
  /// daemon or transaction runs). While set, the Persist*/Purge* paths do
  /// NOT free old property chains or label blobs: after a crash the store
  /// files reflect different flush instants, so a record's chain pointer
  /// can alias records owned by another live chain — freeing through it
  /// would destroy that chain. Recover() reclaims the leaked records with
  /// PropertyStore::SweepUnreachable once replay completes.
  bool recovering_ = false;

  /// Result of the last reopen-time blob reachability audit (see
  /// PropertyStore::AuditBlobReachability): dynamic-store blocks leaked by
  /// crash recovery so far. Gauge, refreshed by every Recover().
  std::atomic<uint64_t> dyn_leaked_blocks_{0};

  /// flock'd LOCK-file descriptor guarding exclusive directory ownership
  /// (-1 when in-memory or not yet opened). Held for the store's lifetime;
  /// the kernel drops the lock when the fd closes — including on crash.
  int lock_fd_ = -1;

  std::unique_ptr<RecordStore> nodes_;
  std::unique_ptr<RecordStore> rels_;
  std::unique_ptr<PropertyStore> props_;
  std::unique_ptr<DynamicStore> label_dyn_;
  std::unique_ptr<TokenStore> label_tokens_;
  std::unique_ptr<TokenStore> prop_key_tokens_;
  std::unique_ptr<TokenStore> rel_type_tokens_;
  std::unique_ptr<Wal> wal_;

  mutable std::array<PaddedLatch, kShards> node_shards_;
  mutable std::array<PaddedLatch, kShards> rel_shards_;
};

}  // namespace neosi

#endif  // NEOSI_STORAGE_GRAPH_STORE_H_
