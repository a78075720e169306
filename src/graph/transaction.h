// The public transaction handle: every read and write goes through one of
// these. Obtained from GraphDatabase::Begin().
//
// Under kSnapshotIsolation a transaction observes the newest committed state
// as of its start timestamp plus its own writes (paper §3 read rule), and
// detects write-write conflicts on its long write locks (write rule, §4).
// Under kReadCommitted it reproduces stock Neo4j: short shared read locks,
// long exclusive write locks, reads always see the newest committed state —
// including the unrepeatable-read and phantom anomalies the paper motivates
// with.

#ifndef NEOSI_GRAPH_TRANSACTION_H_
#define NEOSI_GRAPH_TRANSACTION_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/options.h"
#include "common/property_value.h"
#include "common/status.h"
#include "common/types.h"
#include "graph/engine.h"
#include "graph/index_maintenance.h"
#include "graph/views.h"
#include "mvcc/snapshot.h"
#include "storage/wal_ops.h"

namespace neosi {

/// Transaction lifecycle state.
enum class TxnState : uint8_t {
  kActive = 0,
  kCommitted = 1,
  kAborted = 2,
};

/// A single-threaded transaction handle (one thread uses a Transaction at a
/// time; different transactions run fully concurrently).
class Transaction {
 public:
  ~Transaction();

  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  TxnId id() const { return id_; }
  Timestamp start_ts() const { return start_ts_; }
  /// Commit timestamp of a successfully committed writing transaction
  /// (kNoTimestamp before commit, after abort, and for read-only commits,
  /// which never allocate one). History checkers pair this with start_ts()
  /// to reconstruct the SI interval of a transaction.
  Timestamp commit_ts() const { return commit_ts_; }
  IsolationLevel isolation() const { return isolation_; }
  TxnState state() const { return state_; }
  bool IsActive() const { return state_ == TxnState::kActive; }

  // --- writes --------------------------------------------------------------

  /// Creates a node with the given label names and properties.
  Result<NodeId> CreateNode(const std::vector<std::string>& labels,
                            const NamedProperties& props = {});

  /// Deletes a node. Fails with FailedPrecondition while the node still has
  /// relationships visible to this transaction, and with Aborted if any
  /// relationship was attached by a concurrent transaction (adjacency
  /// write-write conflict).
  Status DeleteNode(NodeId id);

  Status SetNodeProperty(NodeId id, const std::string& key,
                         PropertyValue value);
  Status RemoveNodeProperty(NodeId id, const std::string& key);
  Status AddLabel(NodeId id, const std::string& label);
  Status RemoveLabel(NodeId id, const std::string& label);

  /// Creates a relationship src -[type]-> dst.
  Result<RelId> CreateRelationship(NodeId src, NodeId dst,
                                   const std::string& type,
                                   const NamedProperties& props = {});
  Status DeleteRelationship(RelId id);
  Status SetRelProperty(RelId id, const std::string& key, PropertyValue value);
  Status RemoveRelProperty(RelId id, const std::string& key);

  // --- point reads ---------------------------------------------------------

  Result<NodeView> GetNode(NodeId id);
  Result<RelView> GetRelationship(RelId id);
  Result<PropertyValue> GetNodeProperty(NodeId id, const std::string& key);
  Result<PropertyValue> GetRelProperty(RelId id, const std::string& key);
  Result<bool> NodeHasLabel(NodeId id, const std::string& label);
  /// True if the node exists (is visible) in this transaction's snapshot.
  bool NodeExists(NodeId id);
  bool RelExists(RelId id);

  // --- scans (the "enriched iterators" of §4: persistent state merged with
  //     cached versions, honouring read-your-own-writes) -------------------

  /// All nodes visible to this transaction, ascending id.
  Result<std::vector<NodeId>> AllNodes();

  /// Nodes carrying the label (label index).
  Result<std::vector<NodeId>> GetNodesByLabel(const std::string& label);

  /// Nodes whose property `key` equals `value` (property index).
  Result<std::vector<NodeId>> GetNodesByProperty(const std::string& key,
                                                 const PropertyValue& value);

  /// Nodes whose property `key` falls in [lo, hi] (inclusive; either bound
  /// optional). The predicate-scan path of experiment E2.
  Result<std::vector<NodeId>> GetNodesByPropertyRange(
      const std::string& key, const std::optional<PropertyValue>& lo,
      const std::optional<PropertyValue>& hi);

  /// Relationships whose property `key` equals `value`.
  Result<std::vector<RelId>> GetRelsByProperty(const std::string& key,
                                               const PropertyValue& value);

  /// Relationship ids incident to `node` in the given direction, optionally
  /// filtered by type name.
  Result<std::vector<RelId>> GetRelationships(
      NodeId node, Direction direction = Direction::kBoth,
      const std::optional<std::string>& type = std::nullopt);

  /// Neighbour node ids (may contain duplicates for parallel edges).
  Result<std::vector<NodeId>> GetNeighbors(
      NodeId node, Direction direction = Direction::kBoth,
      const std::optional<std::string>& type = std::nullopt);

  /// Number of visible relationships of a node.
  Result<size_t> Degree(NodeId node, Direction direction = Direction::kBoth);

  // --- lifecycle -----------------------------------------------------------

  /// True for transactions opened with TransactionOptions::read_only; every
  /// write operation fails with FailedPrecondition.
  bool read_only() const { return read_only_; }

  /// Commits. A failure before the commit record is appended rolls the
  /// transaction back and returns the error (Status::IsRetryable()
  /// distinguishes conflict aborts). A failure after the append returns an
  /// IOError for a commit that is durable but not applied in memory:
  /// recovery replays it at the next open, and until then the database
  /// refuses every later commit.
  Status Commit();

  /// Rolls back all effects.
  Status Abort();

  /// Number of entities written by this transaction so far.
  size_t WriteSetSize() const { return writes_.size(); }

 private:
  friend class GraphDatabase;

  Transaction(Engine* engine, IsolationLevel isolation, TxnId id,
              ActiveTxnTable::Slot* slot,
              std::shared_ptr<SsiTxnInfo> ssi = nullptr,
              bool read_only = false);

  /// Book-keeping for one written entity. The cache entry and the pending
  /// version are borrowed: the pending version pins the entry (eviction
  /// skips chains with a pending version) and its chain owns it, until
  /// StampVersions commits it or Unwind aborts it.
  struct WriteRecord {
    CachedNode* node = nullptr;  // exactly one of node/rel set
    CachedRel* rel = nullptr;
    Version* pending = nullptr;  // the uncommitted version
    bool created = false;

    VersionChain& chain() const { return node ? node->chain : rel->chain; }
  };

  /// True for the snapshot-based levels (kSnapshotIsolation and
  /// kSerializable, which layers SSI on the same snapshot machinery);
  /// false only for kReadCommitted.
  bool UsesSnapshotReads() const {
    return isolation_ != IsolationLevel::kReadCommitted;
  }

  /// The timestamp visibility walks read at: the snapshot for the
  /// snapshot-based levels, latest-committed for read committed.
  Timestamp SnapshotTs() const {
    return UsesSnapshotReads() ? start_ts_ : kMaxTimestamp;
  }

  Snapshot ReadSnapshot() const {
    return UsesSnapshotReads() ? Snapshot{start_ts_, id_}
                               : Snapshot::Latest(id_);
  }

  Status CheckActive() const;

  /// Snapshot lifecycle enforcement (snapshot-too-old policy). Once the GC
  /// daemon marks this snapshot expired, the reclamation watermark no
  /// longer waits for it and versions it could read may be reclaimed —
  /// so the transaction must fail before it can observe that. Called at
  /// the START of every read/write/commit (one acquire load of the
  /// transaction's own slot) and AGAIN after every chain walk / index scan:
  /// a read that overlapped its own expiry is failed instead of returned,
  /// because the mark happens-before any reclamation (release CAS on the
  /// slot's owner word, acquired by the watermark scan, then chain unlink),
  /// so a walk that could have seen a pruned chain always re-reads the mark
  /// as set. (Memory safety is separate and unconditional: walks run
  /// inside an epoch guard, so even a version unlinked mid-walk stays
  /// allocated until the reader exits — expiry only governs logical
  /// staleness, never use-after-free; see mvcc/epoch.h.) On expiry: rolls
  /// back (releasing all locks) and returns Status::SnapshotTooOld. No-op
  /// under read committed — RC reads the newest committed state, which
  /// reclamation never removes (and an RC registration never pins the
  /// watermark in the first place; see ActiveTxnTable).
  Status FailIfSnapshotExpired();

  /// Acquires the long write lock on `key` per the isolation level and
  /// conflict policy; on conflict rolls the transaction back and returns
  /// Aborted/Deadlock.
  Status AcquireWriteLock(const EntityKey& key);

  /// SI write rule: aborts if a concurrent transaction committed a newer
  /// version of the entity than this snapshot (first-updater-wins check;
  /// skipped for first-committer-wins, which validates at commit).
  Status CheckWriteConflict(const VersionChain& chain);

  /// Returns (creating if absent) this transaction's write record for an
  /// existing entity: the first write takes the long write lock, then looks
  /// the entity up and bases the pending version on the version visible to
  /// the snapshot. NotFound once the entity is invisible, including deleted
  /// by this transaction.
  Result<WriteRecord*> PendingVersion(const EntityKey& key);

  /// The one update path: applies `mutate` to a copy of the entity's
  /// pending state and stages the index diff to the result. Every label
  /// and property is indexed, so an empty diff is a no-op.
  Status Update(const EntityKey& key,
                const std::function<void(VersionData&)>& mutate);

  /// For each change: the SSI write check on its target, the pending
  /// index entry, and the journal entry StampIndexes/RollbackLocked replay.
  Status StageIndexChanges(std::vector<IndexChange> changes);

  /// Long write locks on both endpoints of a relationship, smaller id first
  /// (Neo4j semantics: creating or deleting an edge mutates both nodes).
  /// These always wait (wait-die breaks cycles); the no-wait conflict
  /// policy applies to data writes, not structural endpoint locks.
  Status LockEndpoints(NodeId src, NodeId dst);

  /// Withdraws `w`'s pending version; a created entity also leaves the
  /// cache and hands its id back.
  void Unwind(const EntityKey& key, const WriteRecord& w);

  /// What WithVisible returns: `fn(version)`, or `fn(version, node)` for
  /// an `fn` that also takes the node's cache entry.
  template <typename Fn>
  using VisibleResult = typename std::conditional_t<
      std::is_invocable_v<Fn&, const Version&, CachedNode&>,
      std::invoke_result<Fn&, const Version&, CachedNode&>,
      std::invoke_result<Fn&, const Version&>>::type;

  /// Resolves the version of an entity visible to this transaction (shared
  /// short read lock under read committed) and returns `fn(version)`, run
  /// under the read's epoch guard: the version is borrowed and must not
  /// escape `fn`. NotFound when invisible. The guard is entered after the
  /// short lock, so none is held across a lock wait. For a node, `fn` may
  /// also take the node's cache entry, borrowed under the same guard; the
  /// read then requests the entry's relationship list before it walks the
  /// chain. Defined and used in transaction.cc only.
  template <typename Fn>
  VisibleResult<Fn> WithVisible(const EntityKey& key, Fn&& fn);

  /// The adjacency read behind GetRelationships and GetNeighbors:
  /// `emit(rel)` for every relationship of `node` this transaction sees
  /// that passes the direction and type filters. Defined and used in
  /// transaction.cc only.
  template <typename Emit>
  Result<std::vector<std::invoke_result_t<Emit&, const CachedRel&>>>
  Adjacency(NodeId node, Direction direction,
            const std::optional<std::string>& type, Emit emit);

  /// OK when `key` is visible to this transaction (WithVisible's checks).
  Status CheckVisible(const EntityKey& key);

  /// Property `key` of the visible version of `entity`.
  Result<PropertyValue> PropertyOf(const EntityKey& entity,
                                   const std::string& key);

  /// The scan behind every index read: entities filed in index `which`
  /// under the token named `name` with a value in [lo, hi] (either bound
  /// optional; inclusive), in value order — id order for a label or an
  /// equality scan. Serializable transactions leave the range's SIREAD
  /// marker first and observe its later commits as conflicts-out.
  Result<std::vector<uint64_t>> ScanIndex(
      IndexId which, const std::string& name,
      const std::optional<PropertyValue>& lo,
      const std::optional<PropertyValue>& hi);

  /// Resolves a label / property key / relationship type name (§4 token
  /// versioning: lookups read at the snapshot). With `create`, a missing
  /// token is created, and its creation logged before the id is published.
  Result<uint32_t> Token(TokenKind kind, const std::string& name, bool create);

  /// Maps internal (token) properties to named properties for views.
  Result<NamedProperties> NameProps(const PropertyMap& props) const;

  // --- commit pipeline stages (see ARCHITECTURE.md, "Commit pipeline").
  // Commit() = PruneAnnihilated -> ValidateCommit -> CommitRecord ops ->
  // SSI PreCommitCheck (PreCommitWriteless without write targets)
  // [a writeless commit ends here] -> sequence (oracle.NextCommitTs) ->
  // append the record (WAL, flushed when sync_commits) -> ApplyToStore ->
  // StampVersions -> StampIndexes -> SSI window closes ->
  // RetireIndexRemovals -> ordered publication (oracle.FinishCommit). No
  // stage after sequencing holds a global lock but a serializable
  // writer's SSI window; per-entity safety comes from the long write locks
  // held until the end.

  /// Entities created AND deleted inside this transaction cancel out: they
  /// were never visible to anyone and leave no trace (no WAL, no store, no
  /// index entry).
  void PruneAnnihilated();

  /// First-committer-wins validation (§3's alternative write rule). Needs no
  /// global lock: every checked entity is pinned by this transaction's long
  /// write lock, so its newest commit timestamp cannot move under us. Rolls
  /// back and returns Aborted on conflict.
  Status ValidateCommit();

  /// This transaction's commit record, its timestamps still unset: one
  /// full post-state op per written entity, in write-set order. It is both
  /// what the WAL logs and what ApplyToStore persists.
  WalRecord CommitRecord() const;

  /// Persists `record`'s ops, the newest committed version of every
  /// written entity (§4 — older versions remain in memory only). Runs
  /// concurrently with other committers; the store's per-entity shard
  /// latches handle the physical races, the long write locks the logical
  /// ones.
  Status ApplyToStore(const WalRecord& record);

  /// Stamps in-memory versions with the commit timestamp and threads
  /// superseded versions (and tombstones) onto the GC list (§4).
  Status StampVersions(Timestamp ts);

  /// Stamps pending index entries with the commit timestamp, each through
  /// its journaled handle: O(1) per change, no key lookup and no entry
  /// scan, since a serializable commit runs it in its SSI window.
  void StampIndexes(Timestamp ts);

  /// Queues the intervals the stamped removals closed for Compact; runs
  /// after the SSI window.
  void RetireIndexRemovals(Timestamp ts);

  /// Aborts, newest first, the journaled index changes from `first` to the
  /// end of index_ops_, and drops them.
  void AbortIndexOps(std::vector<IndexChange>::iterator first);

  /// Abort internals shared by Abort() and failed Commit().
  void RollbackLocked();

  /// Releases the locks, leaves the active table and enters `state`.
  void End(TxnState state);

  // --- SSI hooks (all no-ops unless this is a tracked kSerializable
  //     transaction; see txn/ssi_tracker.h for the protocol) ---------------

  /// Rejects the write if the transaction was opened read-only.
  Status FailIfReadOnly() const;

  /// Doomed-flag poll (set by a committing peer whose dangerous structure
  /// this transaction pivots). Rolls back and returns SerializationFailure
  /// when set.
  Status FailIfDoomed();

  /// Write-time marker scan for one target; records the target for the
  /// post-stamp rescan. Rolls back and returns SerializationFailure when
  /// the write makes this transaction a dangerous pivot.
  Status SsiOnWrite(SsiTarget target);

  /// Read-time conflict-out for the writers of commits a walk or scan
  /// found after the snapshot (kNoTxn for an index entry's anonymous
  /// writer). Rolls back on SerializationFailure.
  Status SsiObserveNewer(
      const std::vector<std::pair<TxnId, Timestamp>>& newer);

  Engine* const engine_;
  const IsolationLevel isolation_;
  const TxnId id_;
  const Timestamp start_ts_;
  /// This transaction's ActiveTxnTable slot: the GC daemon's expiry sweep
  /// marks it, FailIfSnapshotExpired polls it, commit and abort free it.
  ActiveTxnTable::Slot* const slot_;
  /// SSI record in the engine's tracker; null for SI/RC transactions and
  /// for read-only serializable transactions on a safe snapshot.
  const std::shared_ptr<SsiTxnInfo> ssi_;
  /// TransactionOptions::read_only (writes rejected with
  /// FailedPrecondition).
  const bool read_only_;
  Timestamp commit_ts_ = kNoTimestamp;
  TxnState state_ = TxnState::kActive;
  /// LockManager shards this transaction has locked in (one bit each);
  /// commit and abort release only these, and nothing when it is zero.
  uint64_t locked_shards_ = 0;

  std::map<EntityKey, WriteRecord> writes_;
  /// Index changes staged as pending, in staging order.
  std::vector<IndexChange> index_ops_;
  /// Rels created by this txn, per endpoint (merged into adjacency scans so
  /// the transaction reads its own structural writes).
  std::unordered_map<NodeId, std::vector<RelId>> created_rels_by_node_;
  /// Nodes created by this txn (merged into AllNodes()).
  std::vector<NodeId> created_nodes_;
  /// Written SSI targets, replayed for the pre-commit and post-stamp
  /// marker rescans.
  std::vector<SsiTarget> ssi_writes_;
};

}  // namespace neosi

#endif  // NEOSI_GRAPH_TRANSACTION_H_
